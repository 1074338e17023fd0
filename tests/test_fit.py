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
from helpers import forward_triple

BALANCED = AnalyzerSetting.balanced


def noiseless_recon(model, n_bins=101, span=400e-9, gamma=1.2):
    tau = np.linspace(-span / 2, span / 2, n_bins)
    psi = tpwf_eval(model, tau)
    return reconstruct_values(tau, *forward_triple(gamma, psi))


def simulated_recon(
    model, gamma, seed, duration=30.0, pair_rate=3000.0, singles_rate=2000.0, gamma_mode="pooled"
):
    hists = []
    for k, phi in enumerate(RECONSTRUCTION_PHASES):
        cfg = SimConfig(
            pair_rate=pair_rate,
            singles_rate_a=singles_rate,
            singles_rate_b=singles_rate,
            duration=duration,
            tau_window=400e-9,
            seed=derive_setting_seed(seed, k),
        )
        hists.append(rate_level_histogram(cfg, BALANCED(phi), model, gamma, 4e-9))
    return reconstruct_curve(PhaseTriple(*hists), gamma_mode=gamma_mode)


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
        if seed in (1, 3, 5):
            # These end on a flat direction of the normal matrix, whose
            # pivot is rounding: 1e-13 or less of its diagonal entry.
            assert not fit.converged
            assert fit.message.startswith("singular covariance at optimum")
            assert all(math.isnan(v) for v in fit.sigmas.values())

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

    @pytest.mark.parametrize("value", [-1e-9, math.nan, math.inf])
    def test_fixed_corr_time_is_checked_first(self, value):
        # Too few bins for a fit, but the option's rule comes first.
        recon = noiseless_recon(TpwfModel(amplitude=1.0, corr_time=30e-9), n_bins=7)
        with pytest.raises(ConfigError, match="fix_corr_time must be"):
            fit_double_exponential(recon, fix_corr_time=value)

    def test_envelope_below_one_bin_is_not_converged(self):
        # a 0.7 ns FWHM sampled by 4 ns bins
        recon = noiseless_recon(TpwfModel(amplitude=1.0, corr_time=1e-9))
        fit = fit_double_exponential(recon)
        assert fit.params["fwhm"] < 4e-9
        assert not fit.converged
        assert "below one bin spacing" in fit.message

    @pytest.mark.parametrize("fix_corr_time", [None, 39.3e-9])
    def test_exact_input_has_sigma_zero(self, monkeypatch, fix_corr_time):
        # Unit weights carry no sigma: every sigma is 0, and chi2 and the
        # parameters are those of the fit whose covariance ignores it.
        recon = noiseless_recon(DEFAULT_MODEL)
        fit = fit_double_exponential(recon, fix_corr_time=fix_corr_time)
        assert fit.converged
        assert all(v == 0.0 for v in fit.sigmas.values())
        real = fit_module._covariance
        monkeypatch.setattr(fit_module, "_covariance", lambda A, exact: real(A))
        unit_weighted = fit_double_exponential(recon, fix_corr_time=fix_corr_time)
        assert unit_weighted.sigmas["amplitude"] > 0.0
        assert (fit.params, fit.chi2) == (unit_weighted.params, unit_weighted.chi2)

    def test_non_finite_error_is_not_converged(self, monkeypatch):
        real = fit_module._covariance

        def infinite_variance(*args):
            cov = real(*args).copy()
            cov[0, 0] = np.inf
            return cov

        monkeypatch.setattr(fit_module, "_covariance", infinite_variance)
        fit = fit_double_exponential(default_recon(900))
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


def _column_stack_residual_jac(tau, y, w, fixed_tc=None):
    """The envelope residuals and Jacobian as they were built before the
    Jacobian was filled in place, with np.column_stack: the oracle for
    fit._envelope_residual_jac, and the residual function of the frozen
    reference fit."""
    free_tc = fixed_tc is None

    def residual_jac(p):
        a, t_off = p[0], p[1]
        tc = p[2] if free_tc else fixed_tc
        u = tau - t_off
        env = np.exp(-2.0 * np.abs(u) / tc)
        f = a * a * env
        r = (f - y) * w
        cols = [2.0 * a * env * w, a * a * env * (2.0 * np.sign(u) / tc) * w]
        if free_tc:
            cols.append(a * a * env * (2.0 * np.abs(u) / tc**2) * w)
        return r, np.column_stack(cols)

    return residual_jac


def _reference_levenberg(residual_jac, p0, scales, feasible=None):
    """fit._levenberg as it was before the Gauss-Newton decrement exit and
    the Cholesky solve on floats: a frozen copy, which runs each pass to
    the chi2 rule.  residual_jac(p) returns (r, J)."""
    p = np.asarray(p0, dtype=float).copy()
    scales = np.asarray(scales, dtype=float)
    r, J = residual_jac(p)
    chi2 = float(r @ r)
    lam = 1e-3
    converged = False
    message = "iteration budget exhausted"
    for _ in range(fit_module._MAX_ITER):
        Js = J * scales[np.newaxis, :]
        A = Js.T @ Js
        g = Js.T @ r
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(g)):
            message = "non-finite normal equations"
            break
        stepped = False
        for _ in range(25):
            damped = A + lam * np.diag(np.maximum(np.diag(A), 1e-300))
            try:
                delta = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + delta * scales
            if feasible is not None and not feasible(p_new):
                lam *= 10.0
                continue
            r_new, J_new = residual_jac(p_new)
            chi2_new = float(r_new @ r_new)
            if np.isfinite(chi2_new) and chi2_new <= chi2:
                improvement = chi2 - chi2_new
                p, r, J, chi2 = p_new, r_new, J_new, chi2_new
                lam = max(lam / 3.0, 1e-12)
                stepped = True
                if improvement <= fit_module._CHI2_FTOL * max(chi2, 1e-300) + 1e-300:
                    converged = True
                    message = "chi2 converged"
                break
            lam *= 10.0
        if not stepped:
            converged = True
            message = "no downhill step found (at a minimum)"
            break
        if converged:
            break

    Js = J * scales[np.newaxis, :]
    A = Js.T @ Js
    try:
        cov_scaled = np.linalg.inv(A)
        cov = cov_scaled * np.outer(scales, scales)
    except np.linalg.LinAlgError:
        cov = np.full((p.size, p.size), np.nan)
        converged = False
        message = "singular covariance at optimum"
    return p, cov, chi2, converged, message, r


def _envelope(p, tau, tc):
    """The envelope model A^2 exp(-2|tau - tau0| / Tc) as a plain
    expression."""
    return p[0] * p[0] * np.exp(-2.0 * np.abs(tau - p[1]) / tc)


def _reference_fit(recon, fix_corr_time=None):
    """fit_double_exponential as it ran before the decrement exit: the same
    start values and reweighting passes, each pass started by evaluating
    the residuals and run to the chi2 rule by the frozen
    _reference_levenberg on _column_stack_residual_jac at the parameter
    scales it used then, the weights taken at the plain _envelope, and
    the covariance of the last pass.  (Where the model variance stops the
    passes early on noisy input, fit_double_exponential runs one more
    pass, which the reference did not; no seed here does that.)"""
    scales = []

    def residual_jac_with_model(tau, y, w, fixed_tc=None):
        residual_jac = _column_stack_residual_jac(tau, y, w, fixed_tc)
        residual_jac.model = lambda p: _envelope(p, tau, p[2] if fixed_tc is None else fixed_tc)
        return residual_jac

    def levenberg(residual_jac, p0, feasible=None, tol=0.0, M=None):
        if not scales:
            # The first pass starts at the start values, which set the scales.
            tc0 = p0[2] if fix_corr_time is None else fix_corr_time
            scales.extend([max(abs(p0[0]), 1e-12), max(tc0, 1e-12)])
            if fix_corr_time is None:
                scales.append(max(tc0, 1e-12))
        # The starting M is ignored: the pass evaluates its start point.
        p, cov, chi2, converged, message, r = _reference_levenberg(
            residual_jac, p0, scales, feasible
        )
        # The covariance takes the place of the normal matrix ...
        return p, cov, chi2, converged, message, np.column_stack([r, residual_jac.model(p)])

    with pytest.MonkeyPatch.context() as m:
        m.setattr(fit_module, "_levenberg", levenberg)
        m.setattr(fit_module, "_envelope_residual_jac", residual_jac_with_model)
        # ... and is passed through unchanged.
        m.setattr(fit_module, "_covariance", lambda cov, exact: cov)
        return fit_double_exponential(recon, fix_corr_time=fix_corr_time)


def _assert_agrees_with_reference(fit, ref, sigma_rel=1e-3, param_tol=5e-3):
    """Every parameter within param_tol sigma of the reference's, every
    sigma within sigma_rel of it, relative, and the same converged flag."""
    assert fit.converged == ref.converged
    assert (fit.ndof, fit.n_points) == (ref.ndof, ref.n_points)
    for name, sigma in ref.sigmas.items():
        if sigma == 0.0:  # a fixed Tc
            assert (fit.params[name], fit.sigmas[name]) == (ref.params[name], 0.0)
            continue
        assert abs(fit.params[name] - ref.params[name]) <= param_tol * sigma, name
        assert fit.sigmas[name] == pytest.approx(sigma, rel=sigma_rel), name
    assert fit.chi2 == pytest.approx(ref.chi2, rel=1e-3)


DEFAULT_MODEL = TpwfModel(amplitude=1.0, corr_time=39.3e-9, phase=0.9)


def default_recon(seed, duration=10.0, gamma_mode="per_bin"):
    """The per-seed reconstruction at the shipped default config (10 s),
    or with duration=100.0 that of the many-seed calibration study."""
    return simulated_recon(DEFAULT_MODEL, 1.0, seed, duration=duration, pair_rate=2000.0,
                           singles_rate=1000.0, gamma_mode=gamma_mode)


class TestEnvelopeFitBitIdentical:
    """The envelope residual function fills its [J | r | f] buffer in
    place, reusing |u| and the model values f; every floating-point
    operation keeps its order, so r and J equal those of the oracle above
    bit for bit, and f the plain model expression."""

    @pytest.mark.parametrize("fixed_tc", [None, 39.3e-9])
    def test_residuals_and_jacobian(self, fixed_tc):
        rng = np.random.default_rng(8)
        tau = np.linspace(-200e-9, 200e-9, 101)
        for _ in range(200):
            y = rng.normal(0.0, 1.0, tau.size)
            w = rng.uniform(0.1, 10.0, tau.size)
            p = [rng.uniform(-2.0, 2.0), rng.uniform(-50e-9, 50e-9)]
            if fixed_tc is None:
                p.append(rng.uniform(1e-9, 100e-9))
            p = np.array(p)
            M = fit_module._envelope_residual_jac(tau, y, w, fixed_tc)(p)
            r_ref, J_ref = _column_stack_residual_jac(tau, y, w, fixed_tc)(p)
            assert M.shape == (tau.size, J_ref.shape[1] + 2)
            assert (M[:, -2] == r_ref).all()
            assert (M[:, :-2] == J_ref).all()
            # The model values the reweighting takes: 2*tau - 2*tau0 is
            # 2*(tau - tau0) exactly, and x / -Tc is -(x / Tc).
            tc = p[2] if fixed_tc is None else fixed_tc
            assert (M[:, -1] == _envelope(p, tau, tc)).all()

    @pytest.mark.parametrize("fixed_tc", [None, 39.3e-9])
    def test_rescaled_start_matches_a_fresh_evaluation(self, fixed_tc):
        # A pass after the first starts from the last [J | r], rescaled
        # row by row by w_new / w: within 4 ulp of evaluating it again
        # with the new weights.  The model column is not rescaled.
        rng = np.random.default_rng(9)
        tau = np.linspace(-200e-9, 200e-9, 101)
        for _ in range(200):
            y = rng.normal(0.0, 1.0, tau.size)
            w, w_new = rng.uniform(0.1, 10.0, (2, tau.size))
            p = [rng.uniform(-2.0, 2.0), rng.uniform(-50e-9, 50e-9)]
            if fixed_tc is None:
                p.append(rng.uniform(1e-9, 100e-9))
            M = fit_module._envelope_residual_jac(tau, y, w, fixed_tc)(p)
            f = M[:, -1].copy()
            M[:, :-1] *= (w_new / w)[:, np.newaxis]
            fresh = fit_module._envelope_residual_jac(tau, y, w_new, fixed_tc)(p)
            assert (M[:, -1] == f).all() and (fresh[:, -1] == f).all()
            ulps = np.abs(M - fresh) / np.spacing(np.abs(fresh))
            assert ulps.max() <= 4.0


class TestEnvelopeFitAgreesWithReference:
    """The envelope fit ends each pass at the Gauss-Newton decrement
    (fit._PASS_TOLS, in sigma) where the reference runs every pass to its
    chi2 rule; the results agree with the frozen reference within a
    stated tolerance instead of bit for bit."""

    @pytest.mark.parametrize("gamma_mode", ["per_bin", "pooled"])
    @pytest.mark.parametrize("fix_corr_time", [None, 39.3e-9])
    def test_fit_results(self, gamma_mode, fix_corr_time):
        for seed in range(900, 920):
            recon = default_recon(seed, gamma_mode=gamma_mode)
            fit = fit_double_exponential(recon, fix_corr_time=fix_corr_time)
            _assert_agrees_with_reference(fit, _reference_fit(recon, fix_corr_time))

    @pytest.mark.parametrize("gamma_mode", ["per_bin", "pooled"])
    @pytest.mark.parametrize("fix_corr_time", [None, 39.3e-9])
    def test_fit_results_at_the_calibration_config(self, gamma_mode, fix_corr_time):
        # The same bounds at the 100 s config of the many-seed study.
        for seed in range(900, 920):
            recon = default_recon(seed, duration=100.0, gamma_mode=gamma_mode)
            fit = fit_double_exponential(recon, fix_corr_time=fix_corr_time)
            _assert_agrees_with_reference(fit, _reference_fit(recon, fix_corr_time))

    def test_fit_with_tau0_near_a_bin_centre(self):
        # At this seed tau0 ends within about 1e-17 s of the bin centre
        # -2 ns, where sign(u) and so the Jacobian jump: moving tau0 by
        # 1e-17 s across it changes every sigma by about 0.5 %.  Which
        # side each fit ends on depends on rounding, so sigma is compared
        # to 1e-2 here.
        recon = default_recon(86)
        _assert_agrees_with_reference(
            fit_double_exponential(recon), _reference_fit(recon), sigma_rel=1e-2
        )

    def test_exact_input_ends_only_by_the_chi2_rule(self, monkeypatch):
        tols = _record_tols(monkeypatch)
        fit = fit_double_exponential(noiseless_recon(DEFAULT_MODEL))
        assert tols == [0.0]  # the model variance, 0, ends the passes
        assert (fit.converged, fit.message) == (True, "chi2 converged")

    def test_passes_end_at_their_tolerances(self, monkeypatch):
        tols = _record_tols(monkeypatch)
        fit = fit_double_exponential(default_recon(900))
        assert tols == list(fit_module._PASS_TOLS)
        assert (fit.converged, fit.message) == (True, "Gauss-Newton decrement below tolerance")

    def test_a_stopped_pass_is_finished_to_the_last_tolerance(self, monkeypatch):
        # The model variance after pass 1 is not finite: the passes stop,
        # and pass 1, now the estimate of record, is finished to the last
        # pass's tolerance.
        _stop_after_pass_1(monkeypatch)
        tols = _record_tols(monkeypatch)
        fit = fit_double_exponential(default_recon(900))
        assert tols == [fit_module._PASS_TOLS[0], fit_module._PASS_TOLS[2]]
        assert (fit.converged, fit.message) == (True, "Gauss-Newton decrement below tolerance")

    @pytest.mark.parametrize("duration", [10.0, 100.0])
    @pytest.mark.parametrize("fix_corr_time", [None, 39.3e-9])
    def test_last_pass_ends_within_its_tolerance_of_the_minimum(
        self, monkeypatch, duration, fix_corr_time
    ):
        # With passes 1-2 as they are, the last pass run to the chi2 rule
        # ends within _PASS_TOLS[2] sigma of where the decrement ends it,
        # in every parameter.
        recons = [default_recon(seed, duration=duration) for seed in range(900, 920)]
        fits = [fit_double_exponential(r, fix_corr_time=fix_corr_time) for r in recons]
        monkeypatch.setattr(fit_module, "_PASS_TOLS", fit_module._PASS_TOLS[:2] + (0.0,))
        for recon, fit in zip(recons, fits):
            ref = fit_double_exponential(recon, fix_corr_time=fix_corr_time)
            assert ref.message == "chi2 converged"
            for name, sigma in ref.sigmas.items():
                assert abs(fit.params[name] - ref.params[name]) <= 1e-3 * sigma, name

    def test_a_stopped_pass_that_failed_is_reported_as_it_ended(self, monkeypatch):
        # Pass 1 runs out of iterations and the passes stop after it: it
        # is not run again, and the fit reports its failure.
        _stop_after_pass_1(monkeypatch)
        monkeypatch.setattr(fit_module, "_MAX_ITER", 1)
        tols = _record_tols(monkeypatch)
        fit = fit_double_exponential(default_recon(900))
        assert tols == [fit_module._PASS_TOLS[0]]
        assert not fit.converged
        assert fit.message.startswith("iteration budget exhausted")


def _stop_after_pass_1(monkeypatch):
    """Make the model variance after the first pass non-finite, which
    stops the reweighting passes there."""
    monkeypatch.setattr(fit_module._PowerData, "variance_at",
                        lambda self, power: np.full_like(power, np.nan))


def _record_tols(monkeypatch):
    """Record the tol of every fit._levenberg call."""
    real = fit_module._levenberg
    tols = []

    def levenberg(residual_jac, p0, feasible=None, tol=0.0, M=None):
        tols.append(tol)
        return real(residual_jac, p0, feasible, tol, M)

    monkeypatch.setattr(fit_module, "_levenberg", levenberg)
    return tols


def _reference_cholesky_solve(a, shift, b):
    """fit._cholesky_solve as it was before it was unrolled: the generic
    Cholesky loop on Python floats, frozen as the oracle for the unrolled
    solve.  Returns (x, z) with z = L^-1 b, or None if a + diag(shift) is
    not positive definite."""
    L, z = [], []
    for i, bi in enumerate(b):
        row, Li = a[i], []
        for j, Lj in enumerate(L):
            s = row[j]
            for lm, ljm in zip(Li, Lj):
                s -= lm * ljm
            Li.append(s / Lj[-1])
        s = row[i] + shift[i]
        for lm in Li:
            s -= lm * lm
        if not s > 0.0:
            return None
        d = math.sqrt(s)
        for lm, zm in zip(Li, z):
            bi -= lm * zm
        Li.append(d)
        L.append(Li)
        z.append(bi / d)
    x = z[:]
    for i in range(len(x) - 1, -1, -1):
        Li = L[i]
        xi = x[i] = x[i] / Li[i]
        for m in range(i):
            x[m] -= Li[m] * xi
    return x, z


def _narrow_envelope_problem():
    """An envelope with Tc = 10 ns fitted from Tc = 100 ns: the first
    Gauss-Newton step proposes Tc <= 0, and the fit takes more than two
    steps."""
    tau = np.linspace(-200e-9, 200e-9, 101)
    y = np.exp(-2.0 * np.abs(tau) / 10e-9)
    residual_jac = fit_module._envelope_residual_jac(tau, y, np.ones_like(y))
    return residual_jac, [1.0, 0.0, 100e-9]


def _positive_tc(p):
    return p[2] > 0.0


class TestLevenbergBranches:
    """Each exit and retry branch of fit._levenberg."""

    def test_cholesky_solve(self):
        # The unrolled solve equals the frozen generic loop bit for bit,
        # x and the decrement z.z alike, at every k it is used at.
        rng = np.random.default_rng(3)
        for k in (1, 2, 3):
            for _ in range(500):
                # Columns of very different scales, as in the envelope fit.
                X = rng.normal(size=(10, k)) * 10.0 ** rng.uniform(-9.0, 9.0, k)
                a = (X.T @ X).tolist()
                shift = (rng.uniform(0.0, 1e-2, k) * np.diag(X.T @ X)).tolist()
                b = (rng.normal(size=k) * np.sqrt(np.diag(X.T @ X))).tolist()
                x, zz = fit_module._cholesky_solve(a, shift, b)
                x_ref, z_ref = _reference_cholesky_solve(a, shift, b)
                assert x == x_ref
                assert zz == sum(v * v for v in z_ref)
            assert x == pytest.approx(np.linalg.solve(np.add(a, np.diag(shift)), b), rel=1e-9)
        for a in ([[1.0, 2.0], [2.0, 1.0]], [[0.0]], [[math.nan]], [[0.0, 0.0], [0.0, 0.0]],
                  [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 2.0, 1.0]],
                  [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, math.nan]]):
            k = len(a)
            assert fit_module._cholesky_solve(a, [0.0] * k, [1.0] * k) is None
            assert _reference_cholesky_solve(a, [0.0] * k, [1.0] * k) is None
        # Only the lower triangle and the shifted diagonal are read.
        x, _ = fit_module._cholesky_solve([[1.0, math.nan], [1.0, 1.0]], [1.0, 1.0], [1.0, 1.0])
        assert x == pytest.approx(np.linalg.solve([[2.0, 1.0], [1.0, 2.0]], [1.0, 1.0]))

    def test_covariance_inverts_the_normal_matrix(self):
        # L^-T L^-1 from the same Cholesky factor agrees with
        # np.linalg.inv to 1e-13 of sqrt(C_ii C_jj), at k = 1, 2 and 3.
        rng = np.random.default_rng(4)
        for k in (1, 2, 3):
            for _ in range(500):
                X = rng.normal(size=(10, k)) * 10.0 ** rng.uniform(-9.0, 9.0, k)
                A = X.T @ X
                cov = fit_module._covariance(A.tolist())
                ref = np.linalg.inv(A)
                scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
                assert cov.shape == (k, k)
                assert np.all(np.abs(cov - ref) <= 1e-13 * scale)
        # A singular normal matrix has no covariance; a non-finite one
        # gives NaN, which the fit reports as a non-finite error.
        assert fit_module._covariance([[1.0, 2.0], [2.0, 4.0]]) is None
        assert fit_module._covariance([[0.0]]) is None
        # So is one whose pivot rounding leaves positive but tiny against
        # its diagonal entry; a pivot above _MIN_RELATIVE_PIVOT counts.
        for a in (1e10, 1.0, 1e-10):
            for k in (2, 3):
                for rho, singular in ((1e-6, False), (1e-10, True)):
                    c = math.sqrt(1.0 - rho)
                    A = np.eye(k) * a
                    A[k - 1, k - 2] = A[k - 2, k - 1] = c * a
                    assert (fit_module._covariance(A.tolist()) is None) == singular
        assert np.isnan(fit_module._covariance([[1.0, 0.0], [math.nan, 1.0]])).all()

    def test_singular_damped_matrix_is_retried(self, monkeypatch):
        # The Cholesky solve reports the first two damped matrices not
        # positive definite; each is retried at ten times the damping.
        solve = fit_module._cholesky_solve
        calls = []

        def flaky_solve(a, shift, b):
            calls.append(None)
            return None if len(calls) <= 2 else solve(a, shift, b)

        monkeypatch.setattr(fit_module, "_cholesky_solve", flaky_solve)
        p, _, _, converged, message, _ = fit_module._levenberg(
            *_narrow_envelope_problem(), _positive_tc
        )
        assert len(calls) > 2
        assert (converged, message) == (True, "chi2 converged")
        assert p == pytest.approx([1.0, 0.0, 10e-9], rel=1e-8, abs=1e-17)

    def test_infeasible_trial_is_rejected(self):
        residual_jac, p0 = _narrow_envelope_problem()
        refused, evaluated = [], []

        def feasible(p):
            if p[2] > 0.0:
                return True
            refused.append(p[2])
            return False

        def spy(p):
            evaluated.append(p[2])
            return residual_jac(p)

        p, *_, converged, message, _ = fit_module._levenberg(spy, p0, feasible)
        assert refused
        assert min(evaluated) > 0.0
        assert (converged, message) == (True, "chi2 converged")
        assert p == pytest.approx([1.0, 0.0, 10e-9], rel=1e-8, abs=1e-17)

    def test_non_finite_normal_equations(self):
        def residual_jac(p):
            return np.column_stack([[np.inf, 1.0, 1.0], np.array([1.0, 2.0, 3.0]) - p[0]])

        with np.errstate(invalid="ignore", over="ignore"):
            got = fit_module._levenberg(residual_jac, [0.5])
        assert got[3:5] == (False, "non-finite normal equations")

    def test_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(fit_module, "_MAX_ITER", 2)
        got = fit_module._levenberg(*_narrow_envelope_problem(), _positive_tc)
        assert got[3:5] == (False, "iteration budget exhausted")

    def test_no_downhill_step(self):
        # The residual grows steeply away from p = 0 in both directions,
        # but the Jacobian given is 1: every step it points to, however
        # damped, goes uphill.
        def residual_jac(p):
            return np.array([[1.0, 1.0 + 1e10 * abs(p[0])]])

        got = fit_module._levenberg(residual_jac, [0.0])
        assert got[3:5] == (True, "no downhill step found (at a minimum)")

    def test_decrement_ends_a_pass_near_the_minimum(self):
        # Residuals in sigma units: the pass ends within tol sigma of the
        # minimum that the chi2 rule alone reaches.
        rng = np.random.default_rng(5)
        tau = np.linspace(-200e-9, 200e-9, 101)
        y = np.exp(-2.0 * np.abs(tau - 3e-9) / 40e-9) + rng.normal(0.0, 0.01, tau.size)
        residual_jac = fit_module._envelope_residual_jac(tau, y, np.full_like(y, 100.0))
        p0 = [0.8, 0.0, 60e-9]
        p_min, *_, message, _ = fit_module._levenberg(residual_jac, p0, _positive_tc)
        assert message == "chi2 converged"
        messages = []
        for tol in (*fit_module._PASS_TOLS, 1e-4):
            p, A, *_, message, _ = fit_module._levenberg(residual_jac, p0, _positive_tc, tol)
            messages.append(message)
            d = p - p_min
            assert d @ np.array(A) @ d < tol**2
        # At a tighter tolerance the chi2 rule may fire first.
        assert messages[0] == "Gauss-Newton decrement below tolerance"

    def test_kink_ends_by_the_chi2_rule(self):
        # The datum at the bin centre tau = 0 lies above the envelope, so
        # chi2 has a V-shaped minimum in tau0 there: the one-sided
        # gradient never vanishes, the decrement never falls below tol^2,
        # and the chi2 rule ends the pass on the kink.
        tau = np.arange(-50, 51) * 4e-9
        y = np.exp(-2.0 * np.abs(tau) / 40e-9)
        y[50] += 0.05
        w = np.full_like(y, 100.0)
        p0 = [0.9, 1e-9, 50e-9]
        p, *_, converged, message, _ = fit_module._levenberg(
            fit_module._envelope_residual_jac(tau, y, w), p0, _positive_tc,
            fit_module._PASS_TOLS[0],
        )
        assert (converged, message) == (True, "chi2 converged")
        assert abs(p[1]) < 1e-6 * 4e-9
        ref_p, cov, *_ = _reference_levenberg(
            _column_stack_residual_jac(tau, y, w), p0, [0.9, 50e-9, 50e-9], _positive_tc
        )
        assert np.all(np.abs(p - ref_p) <= 5e-3 * np.sqrt(np.diag(cov)))

    def test_singular_covariance_at_optimum(self, monkeypatch):
        # The second parameter barely enters the residuals: the square of
        # its column underflows to zero, so its damping is the 1e-300
        # floor, and the normal matrix at the optimum is singular.
        X = np.array([[1.0, 1e-170], [2.0, 0.0], [3.0, 1e-170]])
        y = np.array([1.0, 2.0, 2.0])

        def residual_jac(p):
            return np.column_stack([X, X @ p - y])

        p, A, *_ = fit_module._levenberg(residual_jac, [0.0, 1.0])
        assert fit_module._covariance(A) is None
        # The envelope fit reports such an optimum as not converged, with
        # NaN errors.
        monkeypatch.setattr(fit_module, "_covariance", lambda A, exact: None)
        fit = fit_double_exponential(default_recon(900))
        assert not fit.converged
        assert fit.message.startswith("singular covariance at optimum")
        assert all(math.isnan(v) for v in fit.sigmas.values())

    def test_fit_results_over_calibration_seeds(self):
        # The per-seed reconstruction and envelope fit of the many-seed
        # calibration study, over 50 of its seeds, against the reference.
        for seed in range(500, 550):
            recon = default_recon(seed, duration=100.0)
            _assert_agrees_with_reference(fit_double_exponential(recon), _reference_fit(recon))


def _count_evaluations(monkeypatch):
    """Count the residual evaluations of every envelope fit; returns the
    list of counts, one per _envelope_residual_jac call (pass)."""
    real = fit_module._envelope_residual_jac
    counts = []

    def counting(*args):
        residual_jac = real(*args)
        counts.append(0)

        def counted(p):
            counts[-1] += 1
            return residual_jac(p)

        return counted

    monkeypatch.setattr(fit_module, "_envelope_residual_jac", counting)
    return counts


class TestEnvelopeFitCost:
    """What an envelope fit spends: residual evaluations and, like the
    visibility fit, no LAPACK call."""

    def test_later_passes_start_without_an_evaluation(self, monkeypatch):
        # Passes 2 and 3 start from the last pass's [J | r], reweighted,
        # so every fit makes exactly two evaluations fewer than with each
        # pass evaluating its start point, and ends at the same point.
        # Over calibration seeds 100-199 that is 8.32 evaluations per fit
        # against 10.32; the bound below is 8.32 plus a margin of 0.18.
        recons = [default_recon(seed, duration=100.0) for seed in range(100, 200)]
        counts = _count_evaluations(monkeypatch)
        fits = [fit_double_exponential(recon) for recon in recons]
        handed_over = [sum(counts[i:i + 3]) for i in range(0, len(counts), 3)]
        assert len(handed_over) == len(recons)
        real = fit_module._levenberg
        with monkeypatch.context() as m:
            m.setattr(fit_module, "_levenberg", lambda *args: real(*args[:4]))
            counts.clear()
            fresh_fits = [fit_double_exponential(recon) for recon in recons]
        fresh = [sum(counts[i:i + 3]) for i in range(0, len(counts), 3)]
        assert [n + 2 for n in handed_over] == fresh
        assert np.mean(handed_over) <= 8.5
        for fit, ref in zip(fits, fresh_fits):
            _assert_agrees_with_reference(fit, ref, sigma_rel=1e-8, param_tol=1e-6)

    def test_no_linear_algebra_library_call(self, monkeypatch):
        # Neither fit calls np.linalg; the visibility fit refuses
        # degenerate phases without it.
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called")

        for name in np.linalg.__all__:
            if name != "LinAlgError":
                monkeypatch.setattr(np.linalg, name, refuse)
        for fix_corr_time in (None, 39.3e-9):
            fit = fit_double_exponential(default_recon(900), fix_corr_time=fix_corr_time)
            assert fit.converged
        assert fit_visibility(next(_spread_scans(np.random.default_rng(5)))).converged
        with pytest.raises(DataError):
            fit_visibility([(0.0, 1.0, 0.1), (math.pi, 1.0, 0.1), (0.0, 1.1, 0.1)])


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
        assert fit_wide.params["phase"] == pytest.approx(0.5, abs=1e-10)
        assert fit_core.params["phase"] == pytest.approx(0.5, abs=1e-10)

    def test_zero_power_bins_have_no_phase(self):
        # Exact input with psi = 0 beyond |tau| > 150 ns: those bins have
        # no phase (arctan2(0, 0) = 0), so even at threshold 0 they are
        # left out, before any division by their power.
        model = TpwfModel(amplitude=1.0, corr_time=39.3e-9, phase=0.9)
        tau = np.linspace(-200e-9, 200e-9, 101)
        psi = tpwf_eval(model, tau)
        outer = np.abs(tau) > 150e-9
        psi[outer] = 0.0
        y = forward_triple(1.2, psi)
        recon = reconstruct_values(tau, *y)
        assert (recon.power()[outer] == 0.0).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_constant_phase(recon, weight_threshold=0.0)
        assert fit.params["phase"] == pytest.approx(0.9, abs=1e-10)
        assert fit.sigmas["phase"] == 0.0
        assert fit.n_points == int(np.count_nonzero(~outer))

    def test_bin_whose_power_squared_underflows_is_left_out(self):
        # |psi| = 1e-160 has a subnormal power, 1e-320, whose square is 0:
        # the bin's phase variance is inf, so the rule leaves it out.
        magnitude = np.array([1e-160, 0.3, 0.8, 1.0, 0.6])
        phase = np.array([0.0, 0.85, 0.92, 0.9, 0.95])
        sigma = np.full(5, 0.1)
        recon = ReconstructedTpwf(
            tau=np.linspace(-8e-9, 8e-9, 5), re_psi=magnitude * np.cos(phase),
            im_psi=magnitude * np.sin(phase), gamma=np.ones(5), sigma_re=sigma, sigma_im=sigma,
            sigma_gamma=sigma, valid=np.ones(5, dtype=bool), cov_re_im=np.zeros(5),
        )
        four = ReconstructedTpwf(**{name: value[1:] if isinstance(value, np.ndarray) else value
                                    for name, value in vars(recon).items()})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_constant_phase(recon, weight_threshold=0.0)
        alone = fit_constant_phase(four, weight_threshold=0.0)
        assert fit.n_points == alone.n_points == 4
        assert fit.params["phase"] == alone.params["phase"]
        assert fit.sigmas["phase"] == alone.sigmas["phase"] > 0.0

    def test_exact_chi2_is_the_unit_weighted_scatter(self):
        model = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.9)
        recon = noiseless_recon(model)
        rng = np.random.default_rng(63)
        recon.re_psi, recon.im_psi = (
            np.hypot(recon.re_psi, recon.im_psi) * f(0.9 + rng.normal(0.0, 0.05, recon.tau.size))
            for f in (np.cos, np.sin)
        )
        fit = fit_constant_phase(recon, weight_threshold=0.0)
        assert fit.sigmas["phase"] == 0.0
        assert fit.chi2 > 0.0
        assert fit.chi2 == float(np.sum(fit.residuals**2))

    def test_no_bins_above_threshold_rejected(self):
        model = TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.2)
        recon = noiseless_recon(model)
        recon.valid[:] = False
        with pytest.raises(DataError):
            fit_constant_phase(recon)

    @pytest.mark.parametrize("value", [-0.1, 1.0, 1.5, math.nan, math.inf])
    def test_weight_threshold_is_checked_first(self, value):
        recon = noiseless_recon(TpwfModel(amplitude=1.0, corr_time=30e-9, phase=0.2))
        recon.valid[:] = False
        with pytest.raises(ConfigError, match="weight_threshold must"):
            fit_constant_phase(recon, weight_threshold=value)


def _reference_visibility(points):
    """fit_visibility as it was before it used the module's Cholesky: the
    np.linalg formulation (cond(A) > 1e12 refused, solve and inv), frozen
    as the oracle.  Takes points of positive sigma and returns (params,
    sigmas) of the coefficients and of amplitude, harmonic_phase and
    visibility, or None where it refused the phases."""
    phi, y, sig = np.array(points, dtype=float).T
    w = 1.0 / sig
    X = np.column_stack([np.ones_like(phi), np.cos(2.0 * phi), np.sin(2.0 * phi)])
    Xw = X * w[:, np.newaxis]
    A = Xw.T @ Xw
    if np.linalg.cond(A) > 1e12:
        return None
    coef = np.linalg.solve(A, Xw.T @ (y * w))
    cov = np.linalg.inv(A)
    offset, c_amp, s_amp = (float(v) for v in coef)
    amplitude = math.hypot(c_amp, s_amp)
    grad_amp = np.array([0.0, c_amp / amplitude, s_amp / amplitude])
    grad_delta = np.array([0.0, -s_amp / amplitude**2, c_amp / amplitude**2])
    grad_vis = np.array(
        [-amplitude / offset**2, c_amp / (amplitude * offset), s_amp / (amplitude * offset)]
    )
    names = ("offset", "cos_amplitude", "sin_amplitude")
    params = dict(zip(names, (offset, c_amp, s_amp)), amplitude=amplitude,
                  harmonic_phase=math.atan2(s_amp, c_amp), visibility=amplitude / offset)
    sigmas = dict(zip(names, np.sqrt(np.diag(cov))))
    for name, grad in (("amplitude", grad_amp), ("harmonic_phase", grad_delta),
                       ("visibility", grad_vis)):
        sigmas[name] = math.sqrt(grad @ cov @ grad)
    return params, sigmas


def _spread_scans(rng, max_points=12):
    """Endless random visibility scans of 3 to max_points points whose
    phases are spread over [0, pi), one in the middle half of each of n
    equal strata, with offset in [0.5, 3], unit-normal harmonics and
    sigma from 1e-3 to 1."""
    while True:
        n = int(rng.integers(3, max_points + 1))
        phi = math.pi * (np.arange(n) + rng.uniform(0.25, 0.75, n)) / n
        sigma = 10.0 ** rng.uniform(-3.0, 0.0, n)
        offset, (c, s) = rng.uniform(0.5, 3.0), rng.normal(size=2)
        y = offset + c * np.cos(2.0 * phi) + s * np.sin(2.0 * phi) + sigma * rng.normal(size=n)
        yield list(zip(phi.tolist(), y.tolist(), sigma.tolist()))


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
        # Fewer than three phases distinct modulo pi leave the normal
        # matrix singular by the pivot rule of the covariance.
        for phis in [(), (0.0,), (0.0, 1.0), (0.0, math.pi, 0.0), (0.3, 0.3 + math.pi, 1.0),
                     (0.0, 1e-13, 1.0)]:
            pts = [(p, 1.0 + 0.1 * k, 0.1) for k, p in enumerate(phis)]
            with pytest.raises(DataError, match="analyzer phases are not independent"):
                fit_visibility(pts)

    def test_agrees_with_the_linalg_formulation(self):
        # On 2,000 spread scans every parameter is within 1e-8 sigma and
        # every sigma within 1e-8 of the frozen np.linalg fit, relative.
        scans = _spread_scans(np.random.default_rng(29))
        for _ in range(2000):
            pts = next(scans)
            fit = fit_visibility(pts)
            params, sigmas = _reference_visibility(pts)
            for name, ref in params.items():
                assert abs(fit.params[name] - ref) <= 1e-8 * sigmas[name], name
                assert fit.sigmas[name] == pytest.approx(sigmas[name], rel=1e-8), name

    def test_sigmas_match_finite_difference_gradients(self):
        # Each sigma equals the spread that moving each g2 by its sigma
        # gives the quantity, by central differences: the coefficients'
        # covariance and the gradients of amplitude, phase and visibility
        # are checked together.  Angles are differenced modulo their period.
        periods = {"harmonic_phase": 2.0 * math.pi, "phi_max": math.pi, "phi_min": math.pi}
        scans = _spread_scans(np.random.default_rng(30))
        h = 1e-6
        for _ in range(50):
            pts = next(scans)
            fit = fit_visibility(pts)
            var = dict.fromkeys(fit.params, 0.0)
            for i, (p, y, s) in enumerate(pts):
                up, down = list(pts), list(pts)
                up[i], down[i] = (p, y + h * s, s), (p, y - h * s, s)
                fit_up, fit_down = fit_visibility(up), fit_visibility(down)
                for name in var:
                    d = fit_up.params[name] - fit_down.params[name]
                    if name in periods:
                        d = math.remainder(d, periods[name])
                    var[name] += (d / (2.0 * h)) ** 2
            for name, v in var.items():
                assert fit.sigmas[name] == pytest.approx(math.sqrt(v), rel=1e-5), name

    def test_exact_input_has_sigma_zero(self):
        # Unit weights carry no sigma: every sigma is 0, and the
        # parameters are those of the np.linalg fit.
        phis = np.linspace(0.0, math.pi, 6, endpoint=False)
        pts = [(p, y, 0.0) for p, y in visibility_curve(1.0, 0.3 - 0.5j, phis)]
        fit = fit_visibility(pts)
        assert all(v == 0.0 for v in fit.sigmas.values())
        params, _ = _reference_visibility([(p, y, 1.0) for p, y, _ in pts])
        for name, ref in params.items():
            assert fit.params[name] == pytest.approx(ref, rel=1e-12, abs=1e-12), name

    def test_infinite_visibility_has_infinite_sigma(self):
        # An offset <= 0 gives visibility inf, and so its sigma.
        phis = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
        fit = fit_visibility([(p, y, 0.1) for p, y in zip(phis, (0.5, -1.5, -2.5, -0.5))])
        assert fit.params["offset"] == pytest.approx(-1.0)
        assert fit.params["visibility"] == math.inf
        assert fit.sigmas["visibility"] == math.inf
        assert math.isfinite(fit.sigmas["amplitude"])

    @pytest.mark.parametrize("g2, sigma", [(1e308, 0.1), (1e300, 1e-10)])
    def test_overflowing_weighted_g2_rejected(self, g2, sigma):
        # g2 / sigma overflows in the right-hand side while the normal
        # matrix stays finite: a DataError, not a "converged" fit of NaN,
        # and no RuntimeWarning (warnings are errors here).
        pts = [(p, g2 * (1.0 + 0.01 * k), sigma) for k, p in enumerate((0.0, 0.5, 1.0, 1.5, 2.0))]
        with pytest.raises(DataError, match="weighted fit is not finite"):
            fit_visibility(pts)

    def test_mixed_zero_sigma_rejected(self):
        pts = [(0.0, 1.0, 0.1), (0.5, 1.0, 0.0), (1.0, 1.1, 0.1), (1.5, 1.0, 0.1)]
        with pytest.raises(ConfigError, match="sigmas must"):
            fit_visibility(pts)

    @pytest.mark.parametrize("bad_sigma", [math.nan, math.inf, -math.inf, -0.1])
    def test_unusable_sigma_rejected(self, bad_sigma):
        # Every sigma the weighting rule would leave out is refused, not
        # fitted with weight 0 (and counted in ndof) or passed to the solver.
        pts = [(0.0, 1.0, 0.1), (0.5, 1.0, bad_sigma), (1.0, 1.1, 0.1), (1.5, 1.0, 0.1)]
        with pytest.raises(ConfigError, match="sigmas must"):
            fit_visibility(pts)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1], ids=["phi", "g2"])
    def test_non_finite_phase_or_g2_rejected(self, bad, column):
        # Refused before it reaches the solver: a NaN or +-inf phase used
        # to end in LinAlgError (after a RuntimeWarning from cos for
        # +-inf), and a non-finite g2 in a "converged" fit of NaNs.
        pts = [[0.0, 1.0, 0.1], [0.5, 1.0, 0.1], [1.0, 1.1, 0.1], [1.5, 1.0, 0.1]]
        pts[1][column] = bad
        with pytest.raises(ConfigError, match="phases and g2 values must be finite"):
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
