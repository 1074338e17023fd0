"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from biphoton import (
    AnalyzerSetting,
    PhaseTriple,
    RECONSTRUCTION_PHASES,
    SimConfig,
    TimeTagStream,
    TpwfModel,
    bandwidth_to_corr_time,
    bandwidth_to_intensity_fwhm,
    cross_correlate,
    derive_setting_seed,
    fit_constant_phase,
    fit_double_exponential,
    fit_visibility,
    generate_stream,
    normalize_g2,
    reconstruct_curve,
    reconstruct_values,
)
from helpers import forward_triple

BALANCED = AnalyzerSetting.balanced


def report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    return passed


def test_criterion_1_analytic_inversion_exactness():
    """10^5 random (gamma, psi) with gamma > |psi| invert to 1e-12
    relative in under 5 seconds."""
    rng = np.random.default_rng(20240817)
    n = 100_000
    start = time.perf_counter()
    gamma = rng.uniform(0.2, 5.0, n)
    psi = gamma * rng.uniform(0.0, 0.98, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    y0, y1, y2 = forward_triple(gamma, psi)
    recon = reconstruct_values(np.zeros(n), y0, y1, y2)
    elapsed = time.perf_counter() - start

    err_gamma = float(np.max(np.abs(recon.gamma - gamma) / gamma))
    err_psi = float(np.max(np.abs(recon.re_psi + 1j * recon.im_psi - psi) / gamma))
    ok = bool(recon.valid.all()) and err_gamma <= 1e-12 and err_psi <= 1e-12
    ok = ok and elapsed < 5.0
    assert report(
        1,
        "analytic inversion exact to 1e-12 on 1e5 draws",
        ok,
        f"max rel err gamma {err_gamma:.2e}, psi {err_psi:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_background_cancellation():
    """Adding a constant to all y_k leaves the inversion numerators
    bit-identical and arg(psi) unchanged to 1e-10."""
    rng = np.random.default_rng(20240818)
    quantum = 2.0**-20
    n = 50_000
    gamma = 1.0 + rng.integers(0, 2**20, n) * quantum
    ratio = rng.integers(0, int(0.9 * 2**20), n) * quantum
    psi = gamma * ratio * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    ys = [np.round(v / quantum) * quantum for v in forward_triple(gamma, psi)]
    shift = rng.integers(0, 2**25, n) * quantum
    shifted = [v + shift for v in ys]

    def numerators(y):
        return (y[1] + y[2] - 2.0 * y[0]) / 3.0, (y[1] - y[2])

    nr0, ni0 = numerators(ys)
    nr1, ni1 = numerators(shifted)
    bits_ok = bool(np.array_equal(nr0, nr1) and np.array_equal(ni0, ni1))

    base = reconstruct_values(np.zeros(n), *ys)
    moved = reconstruct_values(np.zeros(n), *shifted)
    both = base.valid & moved.valid
    dphi = np.abs(base.phase()[both] - moved.phase()[both])
    dphi = np.minimum(dphi, 2 * math.pi - dphi)
    phase_ok = bool(both.mean() > 0.99 and np.max(dphi) <= 1e-10)
    assert report(
        2,
        "flat background cancels bit-exactly in the numerators, phase unchanged",
        bits_ok and phase_ok,
        f"max |d phase| {float(np.max(dphi)):.2e}",
    )


def test_criterion_3_end_to_end_round_trip():
    """Paper-like simulated run: constant phase recovered within 2 sigma of
    0.9 rad, fitted intensity FWHM within 10% of 27.2 ns, under 60 s."""
    start = time.perf_counter()
    corr_time = bandwidth_to_corr_time(8.1e6)
    model = TpwfModel(amplitude=1.0, corr_time=corr_time, tau_offset=0.0, phase=0.9)
    gamma = 1.0  # reference chosen to match |psi(0)|
    hists = []
    coincidences = []
    for k, phi in enumerate(RECONSTRUCTION_PHASES):
        cfg = SimConfig(
            pair_rate=2500.0,
            singles_rate_a=1500.0,
            singles_rate_b=1500.0,
            duration=16.0,
            tau_window=400e-9,
            seed=derive_setting_seed(16181, k),
        )
        stream_a, stream_b = generate_stream(cfg, BALANCED(phi), model, gamma)
        hist = cross_correlate(stream_a, stream_b, 4e-9, 200e-9, BALANCED(phi))
        coincidences.append(int(hist.counts.sum()))
        hists.append(hist)

    recon = reconstruct_curve(PhaseTriple(*hists), gamma_mode="pooled")
    phase_fit = fit_constant_phase(recon, weight_threshold=0.1)
    envelope_fit = fit_double_exponential(recon)
    elapsed = time.perf_counter() - start

    phase = phase_fit.params["phase"]
    phase_sigma = phase_fit.sigmas["phase"]
    fwhm = envelope_fit.params["fwhm"]
    target_fwhm = bandwidth_to_intensity_fwhm(8.1e6)

    counts_ok = min(coincidences) >= 10_000
    phase_ok = abs(phase - 0.9) <= 2.0 * phase_sigma
    fwhm_ok = abs(fwhm - target_fwhm) <= 0.10 * target_fwhm
    ok = counts_ok and phase_ok and fwhm_ok and elapsed < 60.0 and envelope_fit.converged
    assert report(
        3,
        "end-to-end run recovers phase within 2 sigma and FWHM within 10%",
        ok,
        f"phase {phase:.4f}+-{phase_sigma:.4f} (true 0.9), "
        f"fwhm {fwhm * 1e9:.2f} ns (target {target_fwhm * 1e9:.2f}), "
        f"min coincidences {min(coincidences)}, {elapsed:.1f} s",
    )


def test_criterion_4_visibility_scan():
    """Simulated g2(0) vs phi over 8 settings: harmonic fit with reduced
    chi-square in [0.5, 2], maximum at 0, minimum at pi/2, dip above zero
    with the accidental floor near 30% of the peak."""
    corr_time = 39.3e-9
    model = TpwfModel(amplitude=1.0, corr_time=corr_time, tau_offset=0.0, phase=math.pi)
    gamma = 1.0
    pair_rate, duration = 2000.0, 15.0
    singles_rate = 62_000.0  # sets the accidental floor near 30% of the peak
    points = []
    for j, phi in enumerate(np.linspace(0.0, math.pi, 8, endpoint=False)):
        cfg = SimConfig(
            pair_rate=pair_rate,
            singles_rate_a=singles_rate,
            singles_rate_b=singles_rate,
            duration=duration,
            tau_window=400e-9,
            seed=derive_setting_seed(2222, j),
        )
        stream_a, stream_b = generate_stream(cfg, BALANCED(phi), model, gamma)
        hist = cross_correlate(stream_a, stream_b, 4e-9, 40e-9)
        g2, sigma = normalize_g2(hist)
        center = hist.n_bins // 2
        points.append((float(phi), float(g2[center]), float(sigma[center])))

    fit = fit_visibility(points)
    rchi2 = fit.reduced_chi2
    phi_max = fit.params["phi_max"]
    phi_min = fit.params["phi_min"]
    sigma_loc = max(fit.sigmas["phi_min"], 0.02)
    offset, amplitude = fit.params["offset"], fit.params["amplitude"]
    visibility = fit.params["visibility"]

    accid_fraction = min(p[1] for p in points) / max(p[1] for p in points)
    chi2_ok = 0.5 <= rchi2 <= 2.0
    max_ok = min(phi_max, math.pi - phi_max) <= 3.0 * sigma_loc
    min_ok = abs(phi_min - math.pi / 2) <= 3.0 * sigma_loc
    dip_ok = (offset - amplitude) > 0.0 and visibility < 1.0
    ok = chi2_ok and max_ok and min_ok and dip_ok and 0.15 < accid_fraction < 0.45
    assert report(
        4,
        "visibility scan: A + B cos 2phi with max at 0, nonzero dip at pi/2",
        ok,
        f"rchi2 {rchi2:.2f}, phi_max {phi_max:.3f}, phi_min {phi_min:.3f}, "
        f"visibility {visibility:.2f}, dip/peak {accid_fraction:.2f}",
    )


def test_criterion_5_correlator_oracle_equivalence():
    """Streaming correlator equals brute-force all-pairs counting on 200
    random instances, exactly."""
    rng = np.random.default_rng(20240819)
    all_equal = True
    total_pairs = 0
    for _ in range(200):
        na = int(np.exp(rng.uniform(0.0, math.log(10_000))))
        nb = int(np.exp(rng.uniform(0.0, math.log(10_000))))
        span = int(rng.integers(5_000, 5_000_000))
        a = np.sort(rng.integers(0, span, na))
        b = np.sort(rng.integers(0, span, nb))
        bw_ps = int(rng.choice([500, 1000, 4000]))
        tmax_ps = bw_ps * int(rng.integers(1, 80))

        hist = cross_correlate(
            TimeTagStream("A", a, 1.0),
            TimeTagStream("B", b, 1.0),
            bw_ps * 1e-12,
            tmax_ps * 1e-12,
        )
        n_bins = 2 * tmax_ps // bw_ps
        oracle = np.zeros(n_bins, dtype=np.int64)
        for start in range(0, na, 256):
            tau = a[start : start + 256, None].astype(np.int64) - b[None, :]
            tau = tau[(tau >= -tmax_ps) & (tau < tmax_ps)]
            if tau.size:
                oracle += np.bincount((tau + tmax_ps) // bw_ps, minlength=n_bins)
        total_pairs += int(oracle.sum())
        if not np.array_equal(hist.counts, oracle):
            all_equal = False
            break
    assert report(
        5,
        "streaming correlator equals brute force on 200 random instances",
        all_equal,
        f"{total_pairs} pairs checked",
    )


def test_criterion_6_error_bar_calibration():
    """Jacobian-propagated sigmas match a Poisson bootstrap within 10%;
    pulls over repeated simulations are KS-normal at the 1% level."""
    rng = np.random.default_rng(20240820)
    scenarios = [
        (1.0, 0.45 + 0.20j, 20_000),
        (1.5, -0.30 + 0.60j, 8_000),
        (0.8, 0.25j, 50_000),
    ]
    agree = True
    worst = 0.0
    for gamma, psi, counts in scenarios:
        y = [float(v) for v in forward_triple(gamma, psi)]
        scale = [v / counts for v in y]
        sig_jac = _sigma_arrays(y, counts)
        reps = [rng.poisson(counts, size=10_000) * s for s in scale]
        recon = reconstruct_values(np.zeros(10_000), *reps)
        ok = recon.valid
        boot = (
            float(np.std(recon.re_psi[ok])),
            float(np.std(recon.im_psi[ok])),
            float(np.std(recon.gamma[ok])),
        )
        for j, b in zip(sig_jac, boot):
            rel = abs(j - b) / b
            worst = max(worst, rel)
            if rel > 0.10:
                agree = False

    # pull normality over repeated simulations of one scenario
    gamma, psi, counts = 1.2, 0.5 - 0.35j, 15_000
    y = [float(v) for v in forward_triple(gamma, psi)]
    scale = [v / counts for v in y]
    m = 4000
    reps = [rng.poisson(counts, size=m) * s for s in scale]
    recon = reconstruct_values(
        np.zeros(m),
        *reps,
        counts0=np.round(reps[0] / scale[0]),
        counts1=np.round(reps[1] / scale[1]),
        counts2=np.round(reps[2] / scale[2]),
    )
    ok = recon.valid & np.isfinite(recon.sigma_re)
    pulls = {
        "re": (recon.re_psi[ok] - psi.real) / recon.sigma_re[ok],
        "im": (recon.im_psi[ok] - psi.imag) / recon.sigma_im[ok],
        "gamma": (recon.gamma[ok] - gamma) / recon.sigma_gamma[ok],
    }
    p_values = {name: stats.kstest(p, "norm").pvalue for name, p in pulls.items()}
    ks_ok = all(p > 0.01 for p in p_values.values())
    assert report(
        6,
        "error bars match bootstrap within 10% and pulls are KS-normal at 1%",
        agree and ks_ok,
        f"worst sigma mismatch {worst * 100:.1f}%, KS p "
        + ", ".join(f"{k}={v:.3f}" for k, v in p_values.items()),
    )


def _sigma_arrays(y, counts):
    """Scalar Jacobian propagation (the production path) for criterion 6."""
    from biphoton import propagate_errors

    return propagate_errors(y, [counts] * 3)


def test_criterion_7_throughput():
    """10^7 tags per stream correlated in at most 10 seconds."""
    rng = np.random.default_rng(20240821)
    n = 10_000_000
    duration = 1000.0
    span_ps = int(duration * 1e12)
    a = np.sort(rng.integers(0, span_ps, n))
    b = np.sort(rng.integers(0, span_ps, n))
    stream_a = TimeTagStream("A", a, duration)
    stream_b = TimeTagStream("B", b, duration)

    start = time.perf_counter()
    hist = cross_correlate(stream_a, stream_b, 4e-9, 200e-9)
    elapsed = time.perf_counter() - start
    ok = elapsed <= 10.0 and hist.counts.sum() > 0
    assert report(
        7,
        "1e7 tags per stream correlated within 10 s",
        ok,
        f"{elapsed:.2f} s, {int(hist.counts.sum())} coincidences",
    )
