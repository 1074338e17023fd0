"""Fit contracts: zero-noise exactness, gradient correctness, robustness
to flagged bins, calibration on repeated simulations, and the visibility
harmonic fit."""

import math
import warnings

import numpy as np
import pytest

from biphoton import (
    AnalyzerSetting,
    ConfigError,
    DataError,
    RECONSTRUCTION_PHASES,
    ReconstructedTpwf,
    SimConfig,
    TpwfModel,
    bandwidth_to_corr_time,
    derive_setting_seed,
    fit_constant_phase,
    fit_double_exponential,
    fit_visibility,
    rate_level_histogram,
    reconstruct_curve,
    reconstruct_values,
    tpwf_eval,
    visibility_curve,
)
from biphoton import fit as fit_module
from biphoton.reconstruct import PhaseTriple

BALANCED = AnalyzerSetting.balanced


def noiseless_recon(model, n_bins=101, span=400e-9, gamma=1.2):
    tau = np.linspace(-span / 2, span / 2, n_bins)
    psi = tpwf_eval(model, tau)
    y = [np.abs(gamma * np.exp(-2j * phi) - psi) ** 2 for phi in RECONSTRUCTION_PHASES]
    return reconstruct_values(tau, *y)


def simulated_recon(model, gamma, seed, duration=30.0, pair_rate=3000.0):
    hists = []
    for k, phi in enumerate(RECONSTRUCTION_PHASES):
        cfg = SimConfig(
            pair_rate=pair_rate,
            singles_rate_a=2000.0,
            singles_rate_b=2000.0,
            duration=duration,
            tau_window=400e-9,
            seed=derive_setting_seed(seed, k),
        )
        hists.append(rate_level_histogram(cfg, BALANCED(phi), model, gamma, 4e-9))
    return reconstruct_curve(PhaseTriple(*hists), gamma_mode="pooled")


class TestDoubleExponentialFit:
    def test_noiseless_exact_recovery(self):
        model = TpwfModel(amplitude=0.8, corr_time=39.3e-9, tau_offset=4e-9, phase=0.9)
        recon = noiseless_recon(model)
        fit = fit_double_exponential(recon)
        assert fit.converged
        assert fit.params["amplitude"] == pytest.approx(0.8, rel=1e-8)
        assert fit.params["tau_offset"] == pytest.approx(4e-9, abs=1e-17)
        assert fit.params["corr_time"] == pytest.approx(39.3e-9, rel=1e-8)
        assert fit.params["fwhm"] == pytest.approx(math.log(2.0) * 39.3e-9, rel=1e-8)
        assert fit.chi2 < 1e-12

    def test_noiseless_with_fixed_corr_time(self):
        model = TpwfModel(amplitude=1.0, corr_time=bandwidth_to_corr_time(8.1e6), phase=0.3)
        recon = noiseless_recon(model)
        fit = fit_double_exponential(recon, fix_corr_time=model.corr_time)
        assert fit.params["amplitude"] == pytest.approx(1.0, rel=1e-8)
        assert fit.sigmas["corr_time"] == 0.0
        # the implied width is consistent with the measured 26 ns anchor
        assert fit.params["fwhm"] == pytest.approx(26e-9, rel=0.1)

    def test_flagged_bins_are_ignored(self):
        model = TpwfModel(amplitude=0.9, corr_time=30e-9, phase=-0.4)
        recon = noiseless_recon(model)
        n = len(recon.tau)
        kill = np.zeros(n, dtype=bool)
        kill[:: max(n // 20, 1)] = True  # flag ~20% of bins invalid
        recon.valid = recon.valid & ~kill
        fit = fit_double_exponential(recon)
        assert fit.converged
        assert fit.params["corr_time"] == pytest.approx(30e-9, rel=1e-8)
        assert fit.n_points == int(recon.valid.sum())

    def test_zero_count_bins_fit_without_warnings(self):
        # 1 s at 2 ns bins leaves bins with no counts: their sigma is
        # infinite and cov_re_im is +inf or -inf.  The fit drops them
        # without forming inf - inf.
        model = TpwfModel(amplitude=1.0, corr_time=39.3e-9, phase=0.9)
        hists = []
        for k, phi in enumerate(RECONSTRUCTION_PHASES):
            cfg = SimConfig(
                pair_rate=2000.0,
                singles_rate_a=1000.0,
                singles_rate_b=1000.0,
                duration=1.0,
                tau_window=400e-9,
                seed=derive_setting_seed(3, k),
            )
            hists.append(rate_level_histogram(cfg, BALANCED(phi), model, 1.0, 2e-9))
        recon = reconstruct_curve(PhaseTriple(*hists), gamma_mode="pooled")
        assert np.any(recon.cov_re_im == np.inf) and np.any(recon.cov_re_im == -np.inf)
        finite = (
            recon.valid
            & np.isfinite(recon.sigma_re)
            & np.isfinite(recon.sigma_im)
            & np.isfinite(recon.cov_re_im)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_double_exponential(recon)
        assert fit.converged
        assert fit.n_points == int(finite.sum())
        fwhm = math.log(2.0) * 39.3e-9
        assert abs(fit.params["fwhm"] - fwhm) < 4.0 * fit.sigmas["fwhm"]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_sparse_pooled_fit_never_overflows(self, seed):
        # 0.5 s at 2 ns bins, pooled: every seed tries trial steps with
        # Tc <= 0, whose growing exponent used to overflow in exp,
        # multiply and matmul.  Such steps are refused before evaluation.
        model = TpwfModel(amplitude=1.0, corr_time=39.3e-9, phase=0.9)
        hists = []
        for k, phi in enumerate(RECONSTRUCTION_PHASES):
            cfg = SimConfig(
                pair_rate=2000.0,
                singles_rate_a=1000.0,
                singles_rate_b=1000.0,
                duration=0.5,
                tau_window=400e-9,
                seed=derive_setting_seed(seed, k),
            )
            hists.append(rate_level_histogram(cfg, BALANCED(phi), model, 1.0, 2e-9))
        recon = reconstruct_curve(PhaseTriple(*hists), gamma_mode="pooled")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_double_exponential(recon)
        assert fit.params["corr_time"] > 0.0

    def test_too_few_bins_rejected(self):
        model = TpwfModel(amplitude=1.0, corr_time=30e-9)
        recon = noiseless_recon(model, n_bins=7)
        with pytest.raises(DataError):
            fit_double_exponential(recon)

    def test_bad_fixed_corr_time_rejected(self):
        model = TpwfModel(amplitude=1.0, corr_time=30e-9)
        recon = noiseless_recon(model)
        with pytest.raises(ConfigError):
            fit_double_exponential(recon, fix_corr_time=0.0)

    def test_envelope_below_one_bin_is_not_converged(self):
        # a 0.7 ns FWHM sampled by 4 ns bins
        recon = noiseless_recon(TpwfModel(amplitude=1.0, corr_time=1e-9))
        fit = fit_double_exponential(recon)
        assert fit.params["fwhm"] < 4e-9
        assert not fit.converged
        assert "below one bin spacing" in fit.message

    def test_non_finite_error_is_not_converged(self, monkeypatch):
        real = fit_module._levenberg

        def infinite_variance(*args):
            p, cov, chi2, converged, message, r = real(*args)
            cov = cov.copy()
            cov[0, 0] = np.inf
            return p, cov, chi2, converged, message, r

        monkeypatch.setattr(fit_module, "_levenberg", infinite_variance)
        fit = fit_double_exponential(noiseless_recon(TpwfModel(amplitude=1.0, corr_time=30e-9)))
        assert math.isinf(fit.sigmas["amplitude"])
        assert not fit.converged
        assert "non-finite" in fit.message

    def test_gradient_matches_finite_differences(self):
        model = TpwfModel(amplitude=0.7, corr_time=42e-9, tau_offset=6e-9, phase=0.2)
        recon = noiseless_recon(model)
        tau = recon.tau
        y = recon.power()

        def chi2(p):
            a, t0, tc = p
            f = a * a * np.exp(-2.0 * np.abs(tau - t0) / tc)
            return float(np.sum((f - y) ** 2))

        def grad(p):
            a, t0, tc = p
            u = tau - t0
            env = np.exp(-2.0 * np.abs(u) / tc)
            f = a * a * env
            r = f - y
            return np.array(
                [
                    2.0 * np.sum(r * 2.0 * a * env),
                    2.0 * np.sum(r * a * a * env * 2.0 * np.sign(u) / tc),
                    2.0 * np.sum(r * a * a * env * 2.0 * np.abs(u) / tc**2),
                ]
            )

        rng = np.random.default_rng(61)
        for _ in range(10):
            p = np.array(
                [rng.uniform(0.3, 1.5), rng.uniform(-10e-9, 10e-9), rng.uniform(20e-9, 80e-9)]
            )
            g = grad(p)
            for j in range(3):
                h = 1e-6 * max(abs(p[j]), 1e-12)
                dp = np.zeros(3)
                dp[j] = h
                numeric = (chi2(p + dp) - chi2(p - dp)) / (2 * h)
                assert g[j] == pytest.approx(numeric, rel=1e-5, abs=1e-12)

    def test_simulated_parameter_pulls(self):
        model = TpwfModel(amplitude=1.0, corr_time=bandwidth_to_corr_time(8.1e6), phase=0.9)
        pulls = []
        for seed in range(12):
            recon = simulated_recon(model, gamma=1.2, seed=200 + seed)
            fit = fit_double_exponential(recon)
            assert fit.converged
            pulls.append((fit.params["fwhm"] - model.intensity_fwhm) / fit.sigmas["fwhm"])
        pulls = np.array(pulls)
        assert abs(pulls.mean()) < 1.0
        assert 0.5 < pulls.std() < 1.6

    def test_reduced_chi2_window_at_high_ndof(self):
        # signal-free bins have chi-square-shaped (heavy-tailed) pulls, so
        # the [0.8, 1.2] window needs enough bins to average them out
        model = TpwfModel(amplitude=1.0, corr_time=bandwidth_to_corr_time(8.1e6), phase=0.9)
        in_window = 0
        for seed in range(12):
            hists = []
            for k, phi in enumerate(RECONSTRUCTION_PHASES):
                cfg = SimConfig(
                    pair_rate=12_000.0,
                    singles_rate_a=2000.0,
                    singles_rate_b=2000.0,
                    duration=40.0,
                    tau_window=400e-9,
                    seed=derive_setting_seed(700 + seed, k),
                )
                hists.append(rate_level_histogram(cfg, BALANCED(phi), model, 1.2, 1e-9))
            recon = reconstruct_curve(PhaseTriple(*hists), gamma_mode="pooled")
            fit = fit_double_exponential(recon)
            assert fit.ndof > 700
            if 0.8 <= fit.reduced_chi2 <= 1.2:
                in_window += 1
        assert in_window >= 11


class TestConstantPhaseFit:
    def test_zero_phase(self):
        model = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.0)
        fit = fit_constant_phase(noiseless_recon(model))
        assert fit.params["phase"] == pytest.approx(0.0, abs=1e-10)

    def test_nonzero_phase_noiseless(self):
        model = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.9)
        fit = fit_constant_phase(noiseless_recon(model))
        assert fit.params["phase"] == pytest.approx(0.9, abs=1e-10)

    def test_wraparound_near_pi(self):
        target = math.pi - 0.05
        model = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=target)
        recon = noiseless_recon(model)
        # perturb phases to straddle the branch cut
        rng = np.random.default_rng(62)
        jitter = rng.normal(0.0, 0.1, len(recon.tau))
        mag = np.hypot(recon.re_psi, recon.im_psi)
        recon.re_psi = mag * np.cos(np.arctan2(recon.im_psi, recon.re_psi) + jitter)
        recon.im_psi = mag * np.sin(np.arctan2(recon.im_psi, recon.re_psi[:]) + 0.0)
        fit = fit_constant_phase(recon)
        assert abs(math.remainder(fit.params["phase"] - target, 2 * math.pi)) < 0.2

    def test_simulated_recovery_within_two_sigma(self):
        model = TpwfModel(amplitude=1.0, corr_time=39.3e-9, phase=0.9)
        fit = fit_constant_phase(simulated_recon(model, gamma=1.2, seed=300))
        assert abs(fit.params["phase"] - 0.9) < 2.0 * fit.sigmas["phase"]
        assert fit.sigmas["phase"] < 0.05

    def test_threshold_excludes_weak_bins(self):
        model = TpwfModel(amplitude=1.0, corr_time=20e-9, phase=0.5)
        recon = noiseless_recon(model)
        fit_wide = fit_constant_phase(recon, weight_threshold=0.0)
        fit_core = fit_constant_phase(recon, weight_threshold=0.5)
        assert fit_core.n_points < fit_wide.n_points
        assert fit_core.params["phase"] == pytest.approx(0.5, abs=1e-10)

    def test_no_bins_above_threshold_rejected(self):
        model = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.2)
        recon = noiseless_recon(model)
        recon.valid[:] = False
        with pytest.raises(DataError):
            fit_constant_phase(recon)


class TestVisibilityFit:
    def test_exact_full_contrast(self):
        phis = np.linspace(0.0, math.pi, 8, endpoint=False)
        pts = [(p, y, 0.0) for p, y in visibility_curve(1.0, -1.0, phis)]
        fit = fit_visibility(pts)
        assert fit.params["offset"] == pytest.approx(2.0, rel=1e-8)
        assert fit.params["cos_amplitude"] == pytest.approx(2.0, rel=1e-8)
        assert fit.params["sin_amplitude"] == pytest.approx(0.0, abs=1e-8)
        assert fit.params["visibility"] == pytest.approx(1.0, rel=1e-8)
        assert fit.params["phi_max"] == pytest.approx(0.0, abs=1e-8)
        assert fit.params["phi_min"] == pytest.approx(math.pi / 2, abs=1e-8)

    def test_constant_points_have_no_harmonic(self):
        pts = [(p, 3.0, 0.1) for p in (0.1, 0.9, 1.7, 2.5)]
        fit = fit_visibility(pts)
        assert fit.params["amplitude"] == pytest.approx(0.0, abs=1e-10)
        assert fit.params["offset"] == pytest.approx(3.0, rel=1e-10)

    def test_three_points_solve_exactly(self):
        phis = [0.0, math.pi / 3, 2 * math.pi / 3]
        pts = [(p, y, 0.0) for p, y in visibility_curve(1.1, 0.4 - 0.2j, phis)]
        fit = fit_visibility(pts)
        assert fit.ndof == 0
        assert fit.chi2 < 1e-16

    def test_degenerate_phases_rejected(self):
        pts = [(0.0, 1.0, 0.1), (math.pi, 1.0, 0.1), (0.0, 1.1, 0.1)]
        with pytest.raises(DataError):
            fit_visibility(pts)

    def test_mixed_zero_sigma_rejected(self):
        pts = [(0.0, 1.0, 0.1), (0.5, 1.0, 0.0), (1.0, 1.1, 0.1), (1.5, 1.0, 0.1)]
        with pytest.raises(ConfigError):
            fit_visibility(pts)

    def test_simulated_scan_finds_the_dip(self):
        model = TpwfModel(amplitude=1.0, corr_time=39.3e-9, phase=math.pi)
        gamma = 1.0
        pts = []
        for j, phi in enumerate(np.linspace(0.0, math.pi, 8, endpoint=False)):
            cfg = SimConfig(
                pair_rate=3000.0,
                singles_rate_a=20_000.0,
                singles_rate_b=20_000.0,
                duration=20.0,
                tau_window=400e-9,
                seed=derive_setting_seed(501, j),
            )
            hist = rate_level_histogram(cfg, BALANCED(phi), model, gamma, 4e-9)
            from biphoton import normalize_g2

            g2, sigma = normalize_g2(hist)
            center = hist.n_bins // 2
            pts.append((float(phi), float(g2[center]), float(sigma[center])))
        fit = fit_visibility(pts)
        assert fit.converged
        assert abs(fit.params["phi_min"] - math.pi / 2) < max(
            3.0 * fit.sigmas["phi_min"], 0.05
        )
        assert 0.2 < fit.reduced_chi2 < 3.0

    def test_result_invariants(self):
        pts = [(p, 2.0 + math.cos(2 * p), 0.05) for p in (0.0, 0.5, 1.0, 1.5, 2.0)]
        fit = fit_visibility(pts)
        assert fit.chi2 >= 0.0
        assert fit.ndof == 2
        assert set(fit.sigmas) == set(fit.params)
