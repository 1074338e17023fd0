"""Inversion contracts: exactness of the closed form, background
cancellation, error propagation against a bootstrap oracle, and the
histogram-level reconstruction modes."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from biphoton import (
    ConfigError,
    DataError,
    InvalidBinError,
    NumericalError,
    PhaseTriple,
    ReconstructedTpwf,
    TpwfModel,
    background_estimate,
    propagate_errors,
    reconstruct_bin,
    reconstruct_curve,
    reconstruct_values,
    tpwf_eval,
)
from biphoton import reconstruct as reconstruct_module
from biphoton.correlate import normalize_g2
from biphoton.reconstruct import _invert_arrays, _jacobian, _weighted
from helpers import forward_triple, phase_histogram


def bootstrap_sigmas(y, counts, n_rep, seed):
    """Poisson-resampling oracle for the per-bin error bars."""
    rng = np.random.default_rng(seed)
    y = np.asarray(y, dtype=float)
    counts = np.asarray(counts)
    scale = y / counts
    reps = [rng.poisson(c, size=n_rep) * s for c, s in zip(counts, scale)]
    recon = reconstruct_values(np.zeros(n_rep), reps[0], reps[1], reps[2])
    ok = recon.valid
    return (
        float(np.std(recon.re_psi[ok])),
        float(np.std(recon.im_psi[ok])),
        float(np.std(recon.gamma[ok])),
        float(np.mean(ok)),
    )


def central_difference_jacobian(y0, y1, y2):
    """Reference Jacobian by central differences of the inversion, six
    extra inversions per call; NaN where a perturbed inversion fails."""
    y = [np.asarray(v, dtype=float) for v in (y0, y1, y2)]
    ybar = (y[0] + y[1] + y[2]) / 3.0
    h = 1e-6 * np.where(ybar > 0.0, ybar, 1.0)
    J = np.empty((3, 3) + ybar.shape, dtype=float)
    for k in range(3):
        plus = [v.copy() for v in y]
        minus = [v.copy() for v in y]
        plus[k] = plus[k] + h
        minus[k] = minus[k] - h
        (rp, ip, gp), vp = _invert_arrays(np.array(plus))[:2]
        (rm, im_, gm), vm = _invert_arrays(np.array(minus))[:2]
        inv_2h = 1.0 / (2.0 * h)
        bad = ~(vp & vm)
        for i, (p, m) in enumerate(((rp, rm), (ip, im_), (gp, gm))):
            d = (p - m) * inv_2h
            J[i, k] = np.where(bad, np.nan, d)
    return J


class TestReconstructBin:
    def test_no_modulation_means_no_signal(self):
        assert reconstruct_bin(1.0, 1.0, 1.0) == (0.0, 0.0, 1.0)

    def test_real_signal(self):
        re, im, gamma = reconstruct_bin(0.25, 1.75, 1.75)
        assert (re, im, gamma) == pytest.approx((0.5, 0.0, 1.0), rel=1e-12, abs=1e-15)

    def test_imaginary_signal(self):
        y = forward_triple(1.0, 0.5j)
        re, im, gamma = reconstruct_bin(*(float(v) for v in y))
        assert im == pytest.approx((2.1160254037844393 - 0.3839745962155614) / (2 * math.sqrt(3)), rel=1e-12)
        assert (re, im, gamma) == pytest.approx((0.0, 0.5, 1.0), rel=1e-12, abs=1e-12)

    def test_negative_radicand_flagged(self):
        with pytest.raises(InvalidBinError):
            reconstruct_bin(1.0, 0.0, 0.0)

    def test_zero_reference_flagged(self):
        with pytest.raises(InvalidBinError):
            reconstruct_bin(0.0, 0.0, 0.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigError):
            reconstruct_bin(-0.1, 1.0, 1.0)

    def test_exact_inversion_property(self):
        rng = np.random.default_rng(41)
        n = 20_000
        gamma = rng.uniform(0.2, 5.0, n)
        ratio = rng.uniform(0.0, 0.98, n)
        phase = rng.uniform(0.0, 2.0 * math.pi, n)
        psi = gamma * ratio * np.exp(1j * phase)
        y = forward_triple(gamma, psi)
        recon = reconstruct_values(np.zeros(n), *y)
        assert recon.valid.all()
        assert np.max(np.abs(recon.gamma - gamma) / gamma) < 1e-12
        err_psi = np.abs(recon.re_psi + 1j * recon.im_psi - psi) / gamma
        assert np.max(err_psi) < 1e-12

    def test_mean_rate_identity(self):
        rng = np.random.default_rng(42)
        n = 5000
        gamma = rng.uniform(0.2, 4.0, n)
        psi = gamma * rng.uniform(0, 0.95, n) * np.exp(1j * rng.uniform(0, 6.28, n))
        y = forward_triple(gamma, psi)
        recon = reconstruct_values(np.zeros(n), *y)
        ybar = (y[0] + y[1] + y[2]) / 3.0
        np.testing.assert_allclose(
            recon.gamma**2 + recon.re_psi**2 + recon.im_psi**2, ybar, rtol=1e-12
        )

    def test_scale_covariance(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            gamma = float(rng.uniform(0.3, 2.0))
            psi = gamma * rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 6.28))
            s = float(rng.uniform(0.01, 100.0))
            y = [float(v) for v in forward_triple(gamma, psi)]
            base = reconstruct_bin(*y)
            scaled = reconstruct_bin(*(s * v for v in y))
            rs = math.sqrt(s)
            assert scaled[2] == pytest.approx(rs * base[2], rel=1e-12)
            assert scaled[0] == pytest.approx(rs * base[0], rel=1e-12, abs=1e-12 * gamma)
            assert scaled[1] == pytest.approx(rs * base[1], rel=1e-12, abs=1e-12 * gamma)
            assert math.atan2(scaled[1], scaled[0]) == pytest.approx(
                math.atan2(base[1], base[0]), abs=1e-12
            )

    def test_root_choice_boundary_continuity(self):
        # gamma = |psi|: the two roots coincide at gamma = |psi|
        for theta in (0.0, 0.7, 2.0):
            psi = np.exp(1j * theta)
            y = [float(v) for v in forward_triple(1.0, psi)]
            re, im, gamma = reconstruct_bin(*y)
            assert gamma == pytest.approx(1.0, abs=1e-6)
            assert math.hypot(re, im) == pytest.approx(1.0, abs=1e-6)


class TestBackgroundCancellation:
    def test_numerators_bit_identical_for_dyadic_shifts(self):
        rng = np.random.default_rng(44)
        quantum = 2.0**-20
        n = 2000
        gamma = 1.0 + rng.integers(0, 2**20, n) * quantum  # in [1, 2)
        psi = (
            gamma
            * (rng.integers(0, int(0.9 * 2**20), n) * quantum)
            * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        )
        y = [np.round(v / quantum) * quantum for v in forward_triple(gamma, psi)]
        shift = rng.integers(0, 2**25, n) * quantum  # in [0, 32)
        shifted = [v + shift for v in y]

        def numerators(ys):
            return (ys[1] + ys[2] - 2.0 * ys[0]) / 3.0, (ys[1] - ys[2])

        nr0, ni0 = numerators(y)
        nr1, ni1 = numerators(shifted)
        assert np.array_equal(nr0, nr1)
        assert np.array_equal(ni0, ni1)

        base = reconstruct_values(np.zeros(n), *y)
        moved = reconstruct_values(np.zeros(n), *shifted)
        both = base.valid & moved.valid
        assert both.mean() > 0.99
        np.testing.assert_allclose(
            base.phase()[both], moved.phase()[both], rtol=0, atol=1e-10
        )

    def test_numerator_products_invariant(self):
        gamma, psi = 1.0, 0.4 - 0.3j
        y = [float(v) for v in forward_triple(gamma, psi)]
        base = reconstruct_values(np.zeros(1), *(np.array([v]) for v in y))
        shifted_y = [np.array([v + 0.7]) for v in y]
        moved = reconstruct_values(np.zeros(1), *shifted_y)
        np.testing.assert_allclose(
            base.re_psi * base.gamma, moved.re_psi * moved.gamma, rtol=1e-10
        )
        np.testing.assert_allclose(
            base.im_psi * base.gamma, moved.im_psi * moved.gamma, rtol=1e-10
        )


class TestPropagateErrors:
    def test_infinite_for_zero_counts(self):
        assert propagate_errors([1.0, 1.0, 1.0], [100, 0, 100]) == (
            math.inf,
            math.inf,
            math.inf,
        )

    def test_poisson_scaling(self):
        y = [0.8, 1.9, 1.3]
        s1 = propagate_errors(y, [1000, 1000, 1000])
        s4 = propagate_errors(y, [4000, 4000, 4000])
        for a, b in zip(s1, s4):
            assert b == pytest.approx(a / 2.0, rel=1e-6)

    def test_symmetric_point_has_equal_re_im_errors(self):
        sr, si, sg = propagate_errors([1.0, 1.0, 1.0], [5000, 5000, 5000])
        assert sr == pytest.approx(si, rel=0.05)

    @pytest.mark.parametrize(
        "gamma,psi,counts",
        [
            (1.0, 0.45 + 0.2j, 20_000),
            (1.5, -0.3 + 0.6j, 8_000),
            (0.8, 0.25j, 50_000),
        ],
    )
    def test_bootstrap_agreement(self, gamma, psi, counts):
        y = [float(v) for v in forward_triple(gamma, psi)]
        n = [counts] * 3
        sr, si, sg = propagate_errors(y, n)
        br, bi, bg, ok = bootstrap_sigmas(y, n, n_rep=20_000, seed=hash((gamma, counts)) % 2**32)
        assert ok > 0.999
        assert sr == pytest.approx(br, rel=0.10)
        assert si == pytest.approx(bi, rel=0.10)
        assert sg == pytest.approx(bg, rel=0.10)

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            propagate_errors([1.0, 1.0], [10, 10])

    def test_zero_count_rate_that_an_output_does_not_use(self):
        # At y0 = y1 = y2, Im psi = (y1 - y2) / (2 sqrt(3) gamma) does not
        # depend on y0, so an unmeasured y0 leaves its error finite.
        sr, si, sg = propagate_errors([1.0, 1.0, 1.0], [0, 100, 100])
        assert math.isinf(sr) and math.isinf(sg)
        assert si == pytest.approx(1.0 / math.sqrt(600.0), rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_reconstruct_values_bin_by_bin(self, seed):
        # Bins with zero counts and invalid bins included; the public entry
        # points take only rates >= 0.
        ys = np.abs(TestSigmaArraysOracle.rates_and_variances(seed)[0])
        counts = np.random.default_rng(seed + 100).poisson(3.0, ys.shape)
        ys[:, 0], counts[:, 0] = 1.0, [0, 100, 100]
        assert (counts == 0).any()
        recon = reconstruct_values(np.zeros(ys.shape[1]), *ys, *counts)
        assert not recon.valid.all()
        for i in range(ys.shape[1]):
            _assert_identical(
                propagate_errors(ys[:, i], counts[:, i]),
                (recon.sigma_re[i], recon.sigma_im[i], recon.sigma_gamma[i]),
            )


    def test_single_bin_paths_equal_the_vector_path_bit_for_bit(self):
        # One bin travels as a (3, 1) stack down the vector path, so its
        # rates are summed in the same order: before, about 1 bin in
        # 1,000 differed from reconstruct_values in the last digit.
        rng = np.random.default_rng(31)
        n = 10_000
        psi = rng.uniform(0.0, 0.9, n) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        ys = np.array(forward_triple(1.0, psi))
        counts = rng.integers(1, 1000, (3, n))
        recon = reconstruct_values(np.zeros(n), *ys, *counts)
        for i in range(n):
            y = [float(v) for v in ys[:, i]]
            assert reconstruct_bin(*y) == (recon.re_psi[i], recon.im_psi[i], recon.gamma[i])
            assert propagate_errors(y, counts[:, i]) == (
                recon.sigma_re[i], recon.sigma_im[i], recon.sigma_gamma[i])


class TestJacobian:
    @staticmethod
    def draws(n=100_000, seed=45):
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(0.2, 5.0, n)
        psi = gamma * rng.uniform(0.0, 0.9, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        return forward_triple(gamma, psi)

    def test_closed_form_matches_central_differences(self):
        y = self.draws()
        exact = _jacobian(_invert_arrays(np.array(y)))
        reference = central_difference_jacobian(*y)
        assert exact.shape == (3, 3, y[0].size)
        assert np.isfinite(exact).all() and np.isfinite(reference).all()
        scale = np.max(np.abs(exact.reshape(9, -1)), axis=0)
        err = np.max(np.abs((exact - reference).reshape(9, -1)), axis=0)
        assert np.max(err / scale) < 1e-6

    def test_nan_on_invalid_bins(self):
        y = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        J = _jacobian(_invert_arrays(y))
        assert np.isnan(J[..., 0]).all()
        assert np.isfinite(J[..., 1]).all()

    @pytest.mark.parametrize("background_mode, calls", [("none", 1), ("wing_subtract", 3)])
    @pytest.mark.parametrize("gamma_mode", ["per_bin", "pooled"])
    def test_rates_are_inverted_once_per_pass(
        self, monkeypatch, background_mode, calls, gamma_mode
    ):
        # One inversion per pass, the main one plus one per wing_subtract
        # refinement, which the error propagation reuses; the results are
        # those of a propagation that inverts the rates again.
        model = TpwfModel(amplitude=0.8, corr_time=30e-9, phase=0.4)
        triple, tau, _ = synthetic_triple(model, 1.2, background=0.3)
        rates = [normalize_g2(h)[0] for h in triple.histograms]
        counts = [h.counts for h in triple.histograms]
        wing_level = float(np.mean([background_estimate(h)[0] for h in triple.histograms]))
        args = dict(background_mode=background_mode, gamma_mode=gamma_mode, wing_level=wing_level)
        with monkeypatch.context() as m:
            m.setattr(
                reconstruct_module,
                "_jacobian",
                lambda inversion: _jacobian(_invert_arrays(inversion.y)),
            )
            expected = reconstruct_values(tau, *rates, *counts, **args)
        seen = []

        def counted(*a, **kw):
            seen.append(1)
            return _invert_arrays(*a, **kw)

        monkeypatch.setattr(reconstruct_module, "_invert_arrays", counted)
        recon = reconstruct_values(tau, *rates, *counts, **args)
        assert len(seen) == calls
        fields = ("re_psi", "im_psi", "gamma", "sigma_re", "sigma_im", "sigma_gamma", "cov_re_im")
        for name in fields:
            assert np.array_equal(getattr(recon, name), getattr(expected, name), equal_nan=True)
        assert recon.background == expected.background

    def test_pooled_sigmas_are_the_linear_formulas(self):
        rng = np.random.default_rng(46)
        n = 50
        tau = np.zeros(n)
        psi = 0.5 * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        y = forward_triple(1.3, psi)
        counts = [rng.integers(1, 10_000, n) for _ in range(3)]
        counts[0][0] = 0  # y0 unmeasured in bin 0: Im psi does not use it
        recon = reconstruct_values(tau, *y, *counts, gamma_mode="pooled")
        var0, var1, var2 = (
            np.where(c > 0, v**2 / np.maximum(c, 1), np.inf) for v, c in zip(y, counts)
        )
        scale = 4.0 * recon.gamma[recon.valid][0] ** 2
        expected = {
            "sigma_re": np.sqrt((var1 + var2 + 4.0 * var0) / 9.0 / scale),
            "sigma_im": np.sqrt((var1 + var2) / 3.0 / scale),
            "cov_re_im": (var1 - var2) / (3.0 * math.sqrt(3.0)) / scale,
        }
        for name, value in expected.items():
            np.testing.assert_allclose(getattr(recon, name), value, rtol=1e-12)
        assert np.isinf(recon.sigma_re[0]) and np.isfinite(recon.sigma_im[0])
        # sigma_gamma is the pooled sigma, 1/sqrt(sum 1/sigma^2) over the
        # per-bin sigmas, on every bin
        per_bin = reconstruct_values(tau, *y, *counts).sigma_gamma
        pooled_sigma = 1.0 / math.sqrt(np.sum(1.0 / per_bin**2))
        np.testing.assert_allclose(recon.sigma_gamma, np.full(n, pooled_sigma), rtol=1e-12)


def synthetic_triple(model, gamma, n_bins=100, exposure=4e7, background=0.0, seed=50):
    """Poisson histograms around exact per-bin rates; the g2 normalization
    scale is arranged to be 1 so truth comparisons are direct."""
    rng = np.random.default_rng(seed)
    bw = 4e-9
    centers = (np.arange(n_bins) - n_bins / 2 + 0.5) * bw
    psi = tpwf_eval(model, centers)
    hists = []
    duration = 1.0
    # choose singles so that scale = T/(Na*Nb*bw) satisfies scale*counts ~ y
    singles = int(round(math.sqrt(exposure / bw / duration) * duration))
    scale = duration / (singles * singles * bw)
    for k, y in enumerate(forward_triple(gamma, psi)):
        counts = rng.poisson((y + background) / scale)
        hists.append(phase_histogram(counts, duration, singles, k))
    return PhaseTriple(*hists), centers, psi


def _reference_sigma_arrays(J, var_y):
    """reconstruct._sigma_arrays as it was before the propagation was
    taken over the rate axis at once: the oracle for it."""

    def propagate(a, b):
        with np.errstate(invalid="ignore"):
            return sum(np.where(a[k] * b[k] == 0.0, 0.0, a[k] * b[k] * var_y[k]) for k in range(3))

    var = [propagate(J[i], J[i]) for i in range(3)]
    return np.sqrt(var[0]), np.sqrt(var[1]), np.sqrt(var[2]), propagate(J[0], J[1])


def _assert_identical(got, ref):
    """Equal shapes, NaN at the same places, the same sign bits and the
    same values elsewhere."""
    for a, b in zip(got, ref, strict=True):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape
        assert (np.isnan(a) == np.isnan(b)).all()
        assert (np.signbit(a) == np.signbit(b)).all()
        assert (a[~np.isnan(a)] == b[~np.isnan(b)]).all()


class TestSigmaArraysOracle:
    """_sigma_arrays against the frozen per-rate form, exactly."""

    @staticmethod
    def rates_and_variances(seed, n=300):
        # Rates near and past the root crossing give invalid (NaN) bins,
        # and zero counts give infinite variances.
        rng = np.random.default_rng(seed)
        psi = rng.normal(0.0, 0.6, n) + 1j * rng.normal(0.0, 0.6, n)
        ys = forward_triple(1.0, psi) + rng.normal(0.0, 0.05, (3, n))
        counts = rng.poisson(3.0, (3, n))
        var_y = np.where(counts > 0, ys**2 / np.maximum(counts, 1), np.inf)
        return ys, var_y

    @pytest.mark.parametrize("seed", range(4))
    def test_per_bin_jacobian(self, seed):
        ys, var_y = self.rates_and_variances(seed)
        J = _jacobian(_invert_arrays(ys))
        # Exact zeros of either sign, next to infinite variances.
        J[0, 1, ::7] = 0.0
        J[1, 2, 3::11] = -0.0
        J[2, 0, 5::13] = 0.0
        # Zero variances with anti-correlated re and im derivatives: each
        # covariance term is -0.0, and their sum is +0.0 (0 + ...).
        J[0, :, 1::17] = 1.0
        J[1, :, 1::17] = -1.0
        var_y[:, 1::17] = 0.0
        assert J.shape == (3, 3, ys.shape[1])
        assert np.isnan(J).any() and np.isinf(var_y).any()
        _assert_identical(reconstruct_module._sigma_arrays(J, var_y),
                          _reference_sigma_arrays(J, var_y))

    @pytest.mark.parametrize("pooled_gamma", [0.8, 1.3])
    def test_pooled_jacobian(self, pooled_gamma):
        # The pooled-mode J is (3, 3, 1), shared by every bin; its gamma
        # row and the d(Im)/dy0 entry are zero.
        _, var_y = self.rates_and_variances(7)
        J = np.zeros((3, 3))
        J[:2] = reconstruct_module._NUM_GRAD / (2.0 * pooled_gamma)
        _assert_identical(reconstruct_module._sigma_arrays(J[..., np.newaxis], var_y),
                          _reference_sigma_arrays(J, var_y))

    def test_reconstructions_with_zero_count_bins(self, monkeypatch):
        ys = np.abs(self.rates_and_variances(11)[0])  # reconstruct_values takes rates >= 0
        counts = np.random.default_rng(12).poisson(3.0, ys.shape)
        assert (counts == 0).any()
        tau = np.arange(ys.shape[1], dtype=float)
        for mode in ("per_bin", "pooled"):
            got = reconstruct_values(tau, *ys, *counts, gamma_mode=mode)
            with monkeypatch.context() as m:
                m.setattr(reconstruct_module, "_sigma_arrays", _reference_sigma_arrays)
                ref = reconstruct_values(tau, *ys, *counts, gamma_mode=mode)
            _assert_identical(
                [got.sigma_re, got.sigma_im, got.sigma_gamma, got.cov_re_im],
                [ref.sigma_re, ref.sigma_im, ref.sigma_gamma, ref.cov_re_im],
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_scalar_propagate_errors(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            psi = complex(rng.normal(0.0, 0.5), rng.normal(0.0, 0.5))
            y = [float(v) for v in forward_triple(1.0, psi)]
            counts = rng.integers(1, 1000, 3)
            got = propagate_errors(y, counts)
            with monkeypatch.context() as m:
                m.setattr(reconstruct_module, "_sigma_arrays", _reference_sigma_arrays)
                ref = propagate_errors(y, counts)
            assert all(type(v) is float for v in got)
            _assert_identical(got, ref)


class TestReconstructValues:
    @pytest.mark.parametrize("shape", [(), (2, 2)])
    def test_tau_must_be_one_dimensional(self, shape):
        with pytest.raises(ConfigError, match="tau must be a 1-d array"):
            reconstruct_values(np.zeros(shape), *(np.ones(shape),) * 3)

    def test_noiseless_round_trip(self):
        model = TpwfModel(amplitude=0.8, corr_time=39.3e-9, tau_offset=3e-9, phase=0.9)
        gamma = 1.1
        tau = np.linspace(-200e-9, 200e-9, 101)
        psi = tpwf_eval(model, tau)
        y = forward_triple(gamma, psi)
        for mode in ("per_bin", "pooled"):
            recon = reconstruct_values(tau, *y, gamma_mode=mode)
            assert recon.valid.all()
            np.testing.assert_allclose(recon.re_psi, psi.real, rtol=0, atol=1e-10)
            np.testing.assert_allclose(recon.im_psi, psi.imag, rtol=0, atol=1e-10)
            np.testing.assert_allclose(recon.gamma, gamma, rtol=1e-10)

    def test_no_signal_reconstructs_to_zero(self):
        tau = np.linspace(-100e-9, 100e-9, 51)
        flat = np.full(tau.size, 2.25)
        recon = reconstruct_values(tau, flat, flat.copy(), flat.copy())
        assert recon.valid.all()
        np.testing.assert_allclose(recon.re_psi, 0.0, atol=1e-14)
        np.testing.assert_allclose(recon.im_psi, 0.0, atol=1e-14)
        np.testing.assert_allclose(recon.gamma, 1.5, rtol=1e-12)

    def test_wing_subtract_recovers_reference_scale(self):
        model = TpwfModel(amplitude=0.7, corr_time=30e-9, phase=0.4)
        gamma, background = 1.0, 0.6
        tau = np.linspace(-300e-9, 300e-9, 151)
        psi = tpwf_eval(model, tau)
        y = [v + background for v in forward_triple(gamma, psi)]
        biased = reconstruct_values(tau, *y, gamma_mode="pooled")
        # without subtraction the signal-free bins return gamma^2 + B, so
        # the pooled value sits at (or slightly above) that level
        pooled = biased.gamma[biased.valid][0]
        assert gamma**2 + background <= pooled**2 < gamma**2 + background + 0.1
        fixed = reconstruct_values(
            tau,
            *y,
            background_mode="wing_subtract",
            gamma_mode="pooled",
            wing_level=gamma**2 + background,
        )
        assert fixed.background == pytest.approx(background, rel=1e-9)
        assert fixed.gamma[fixed.valid][0] == pytest.approx(gamma, rel=1e-9)
        np.testing.assert_allclose(fixed.re_psi, psi.real, rtol=0, atol=1e-8)

    def test_wing_subtract_survives_a_zero_count_bin(self):
        # A bin with zero counts has infinite variance; it must drop out of
        # the background regression instead of turning it into NaN.
        model = TpwfModel(amplitude=0.7, corr_time=30e-9, phase=0.4)
        gamma, background = 1.5, 0.6
        tau = np.linspace(-300e-9, 300e-9, 151)
        psi = tpwf_eval(model, tau)
        y = [v + background for v in forward_triple(gamma, psi)]
        counts = [np.rint(1e4 * v).astype(np.int64) for v in y]
        counts[0][0] = 0
        recon = reconstruct_values(
            tau,
            *y,
            *counts,
            background_mode="wing_subtract",
            gamma_mode="pooled",
            wing_level=gamma**2 + background,
        )
        assert recon.background == pytest.approx(background, abs=1e-3)
        assert recon.gamma[recon.valid][0] == pytest.approx(gamma, abs=1e-3)

    def test_too_many_invalid_bins_fails(self):
        tau = np.zeros(10)
        y0 = np.full(10, 1.0)
        zeros = np.zeros(10)
        with pytest.raises(NumericalError):
            reconstruct_values(tau, y0, zeros, zeros)

    def test_mode_validation(self):
        tau = np.zeros(3)
        ones = np.ones(3)
        with pytest.raises(ConfigError):
            reconstruct_values(tau, ones, ones, ones, background_mode="bogus")
        with pytest.raises(ConfigError):
            reconstruct_values(tau, ones, ones, ones, gamma_mode="bogus")

    @pytest.mark.parametrize("field", ["background_mode", "gamma_mode"])
    def test_reconstruction_checks_its_modes(self, field):
        recon = reconstruct_values(np.zeros(3), np.ones(3), np.ones(3), np.ones(3))
        fields = {**vars(recon), field: "bogus"}
        with pytest.raises(ConfigError, match=f"unknown {field}"):
            ReconstructedTpwf(**fields)

    @pytest.mark.parametrize("missing", [0, 1, 2])
    def test_partial_counts_rejected(self, missing):
        # Two counts arrays of three would propagate no error at all.
        tau = np.zeros(3)
        ones = np.ones(3)
        counts = [np.full(3, 100)] * 3
        counts[missing] = None
        with pytest.raises(ConfigError):
            reconstruct_values(tau, ones, ones, ones, *counts)

    @pytest.mark.parametrize("bad", [-1, math.nan, math.inf])
    def test_negative_counts_rejected(self, bad):
        # An infinite count gave sigma 0, as for exact input; a NaN, sigma inf.
        ones = np.ones(3)
        counts = [np.full(3, 100), np.array([100, bad, 100]), np.full(3, 100)]
        with pytest.raises(ConfigError, match="counts must be non-negative"):
            reconstruct_values(np.zeros(3), ones, ones, ones, *counts)
        with pytest.raises(ConfigError, match="counts must be non-negative"):
            propagate_errors([1.2, 2.0, 1.5], [100, bad, 100])

    @pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
    @pytest.mark.parametrize("call", [
        lambda y: reconstruct_bin(*y),
        lambda y: reconstruct_values(np.zeros(1), *([v] for v in y)),
        lambda y: propagate_errors(y, [10, 10, 10]),
    ], ids=["reconstruct_bin", "reconstruct_values", "propagate_errors"])
    def test_rates_must_be_finite_and_non_negative(self, call, bad):
        # One rule at the three rate entry points, refused before any
        # arithmetic can warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="rates must be finite and >= 0"):
                call([bad, 1.0, 1.0])

    @pytest.mark.parametrize("gamma_mode", ["per_bin", "pooled"])
    def test_exact_input_has_zero_sigma_on_valid_bins(self, gamma_mode):
        # Exact input propagates zero variances: sigma 0 on valid bins, and
        # NaN where counts would give NaN too (per-bin invalid bins).  The
        # public entry points take only rates >= 0.
        ys = np.abs(TestSigmaArraysOracle.rates_and_variances(5)[0])
        tau = np.zeros(ys.shape[1])
        exact = reconstruct_values(tau, *ys, gamma_mode=gamma_mode)
        counted = reconstruct_values(tau, *ys, *np.full(ys.shape, 100), gamma_mode=gamma_mode)
        valid = exact.valid
        assert valid.any() and not valid.all()
        for name in ("sigma_re", "sigma_im", "sigma_gamma", "cov_re_im"):
            sigma = getattr(exact, name)
            assert (sigma[valid] == 0.0).all()
            assert (np.isnan(sigma) == np.isnan(getattr(counted, name))).all()
            if gamma_mode == "per_bin":
                assert np.isnan(sigma[~valid]).all()

    def test_pooled_gamma_of_unmeasured_bins_has_infinite_sigma(self):
        # Each bin lacks the counts of one setting, so every per-bin
        # sigma_gamma is infinite; the pooled one cannot be finite.
        tau = np.zeros(3)
        ys = np.array(forward_triple(1.0, np.array([0.3, 0.2j, -0.1 + 0.1j])))
        counts = np.full((3, 3), 1000)
        np.fill_diagonal(counts, 0)
        assert np.isinf(reconstruct_values(tau, *ys, *counts).sigma_gamma).all()
        recon = reconstruct_values(tau, *ys, *counts, gamma_mode="pooled")
        assert recon.valid.all()
        assert np.isinf(recon.sigma_gamma).all()
        np.testing.assert_allclose(recon.gamma, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(2,), (4,), (1,), ()])
    def test_counts_of_another_shape_rejected(self, shape):
        tau = np.zeros(3)
        ones = np.ones(3)
        counts = [np.full(3, 100), np.full(shape, 100), np.full(3, 100)]
        with pytest.raises(ConfigError, match="counts arrays must match tau"):
            reconstruct_values(tau, ones, ones, ones, *counts)


class TestReconstructCurve:
    MODEL = TpwfModel(amplitude=0.9, corr_time=39.3e-9, phase=0.9)

    def test_recovers_wave_function_from_histograms(self):
        triple, centers, psi = synthetic_triple(self.MODEL, gamma=1.2, seed=51)
        recon = reconstruct_curve(triple, gamma_mode="pooled")
        assert recon.n_valid > 90
        ok = recon.valid
        pulls_re = (recon.re_psi - psi.real)[ok] / recon.sigma_re[ok]
        pulls_im = (recon.im_psi - psi.imag)[ok] / recon.sigma_im[ok]
        assert abs(np.mean(pulls_re)) < 0.5
        assert 0.7 < np.std(pulls_re) < 1.3
        assert 0.7 < np.std(pulls_im) < 1.3

    def test_pull_distribution_is_standard_normal(self):
        pulls = []
        for seed in range(20):
            triple, centers, psi = synthetic_triple(self.MODEL, gamma=1.3, seed=100 + seed)
            recon = reconstruct_curve(triple, gamma_mode="per_bin")
            ok = recon.valid & np.isfinite(recon.sigma_re) & (recon.sigma_re > 0)
            pulls.append(((recon.re_psi - psi.real) / recon.sigma_re)[ok])
            pulls.append(((recon.im_psi - psi.imag) / recon.sigma_im)[ok])
        pulls = np.concatenate(pulls)
        assert pulls.size > 2000
        assert stats.kstest(pulls, "norm").pvalue > 0.01

    def test_background_mode_none_leaves_phase_alone(self):
        clean, _, psi = synthetic_triple(self.MODEL, gamma=1.2, background=0.0, seed=52)
        dirty, _, _ = synthetic_triple(self.MODEL, gamma=1.2, background=0.5, seed=52)
        r_clean = reconstruct_curve(clean, gamma_mode="pooled")
        r_dirty = reconstruct_curve(dirty, gamma_mode="pooled")
        # same seed, but the Poisson draws differ with the extra floor, so
        # compare the weighted mean phase at modest tolerance
        core = np.abs(psi) ** 2 > 0.3 * np.max(np.abs(psi) ** 2)
        ok = r_clean.valid & r_dirty.valid & core
        p_clean = np.angle(np.mean(np.exp(1j * r_clean.phase()[ok])))
        p_dirty = np.angle(np.mean(np.exp(1j * r_dirty.phase()[ok])))
        assert p_dirty == pytest.approx(p_clean, abs=0.05)

    def test_wing_subtract_on_histograms(self):
        triple, _, _ = synthetic_triple(
            self.MODEL, gamma=1.2, background=0.8, exposure=4e8, seed=53
        )
        recon = reconstruct_curve(triple, background_mode="wing_subtract", gamma_mode="pooled")
        assert recon.background == pytest.approx(0.8, rel=0.1)
        assert recon.gamma[recon.valid][0] == pytest.approx(1.2, rel=0.02)

    def test_mismatched_binning_rejected(self):
        a = phase_histogram(np.ones(10), 1.0, 1000, 0)
        b = phase_histogram(np.ones(10), 1.0, 1000, 1, bin_width_ps=8000)
        c = phase_histogram(np.ones(10), 1.0, 1000, 2)
        with pytest.raises(DataError):
            PhaseTriple(a, b, c)

    def test_wrong_setting_rejected(self):
        a = phase_histogram(np.ones(10), 1.0, 1000, 0)
        b = phase_histogram(np.ones(10), 1.0, 1000, 2)  # phi = 2pi/3 in slot 1
        c = phase_histogram(np.ones(10), 1.0, 1000, 2)
        with pytest.raises(DataError):
            PhaseTriple(a, b, c)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda h: dataclasses.replace(h, acquisition_time=2.0),
                     "must share acquisition time", id="acquisition-time"),
        pytest.param(lambda h: dataclasses.replace(h, setting=dataclasses.replace(h.setting, theta=0.5)),
                     "theta = pi/4", id="theta"),
    ])
    def test_histogram_unlike_the_triple_rejected(self, edit, message):
        hists = [phase_histogram(np.ones(10), 1.0, 1000, k) for k in range(3)]
        hists[1] = edit(hists[1])
        with pytest.raises(DataError, match=message):
            PhaseTriple(*hists)

    @pytest.mark.parametrize("slot", range(3))
    def test_setting_less_histogram_rejected(self, slot):
        hists = [phase_histogram(np.ones(10), 1.0, 1000, k) for k in range(3)]
        hists[slot] = dataclasses.replace(hists[slot], setting=None)
        with pytest.raises(DataError, match=f"y{slot} carries no analyzer setting"):
            PhaseTriple(*hists)


class TestBackgroundEstimate:
    def test_flat_histogram_level(self):
        h = phase_histogram(np.full(60, 400), 1.0, 20_000, 0)
        level, sigma = background_estimate(h, wing_fraction=0.2)
        g2_level = 400 * 1.0 / (20_000**2 * 4e-9)
        assert level == pytest.approx(g2_level, rel=1e-12)
        assert sigma > 0

    def test_wing_level_reads_reference_plus_background(self):
        model = TpwfModel(amplitude=0.8, corr_time=10e-9, phase=0.2)
        triple, _, _ = synthetic_triple(model, gamma=1.0, background=0.5, exposure=4e8, seed=54)
        level, sigma = background_estimate(triple.y0, wing_fraction=0.15)
        assert level == pytest.approx(1.0**2 + 0.5, rel=0.05)

    def test_bias_grows_as_wings_reach_the_peak(self):
        # constructive peak: wider wings include signal, pushing the level up
        model = TpwfModel(amplitude=1.0, corr_time=60e-9, phase=math.pi)
        bw = 4e-9
        n_bins = 150
        centers = (np.arange(n_bins) - n_bins / 2 + 0.5) * bw
        psi = tpwf_eval(model, centers)
        y = np.abs(1.0 * np.exp(-2j * 0.0) - psi) ** 2
        counts = np.round(y * 1e6).astype(np.int64)
        h = phase_histogram(counts, 1.0, int(5e8), 0)
        levels = [
            background_estimate(h, wing_fraction=f)[0] for f in (0.05, 0.1, 0.2, 0.3, 0.4)
        ]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(levels, levels[1:]))
        assert levels[-1] > levels[0]

    def test_too_few_wing_bins_rejected(self):
        h = phase_histogram(np.full(20, 10), 1.0, 1000, 0)
        with pytest.raises(ConfigError):
            background_estimate(h, wing_fraction=0.1)  # 2 bins per side
        with pytest.raises(ConfigError):
            background_estimate(h, wing_fraction=0.5)
        for fraction in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ConfigError, match="wing_fraction must be in"):
                background_estimate(h, wing_fraction=fraction)


class TestWeightingRule:
    # The one rule of the inverse-variance estimators: a point is used if
    # its variance is finite; if every used variance is 0 the input is
    # exact, otherwise only the positive variances are used.
    @pytest.mark.parametrize(
        "variance, used, exact",
        [
            ([0.0, 0.0, 0.0], [True, True, True], True),
            ([0.5, 2.0, 1e-300], [True, True, True], False),
            ([0.0, 2.0, 0.0, 1.0], [False, True, False, True], False),
            ([0.0, math.inf, 0.0, math.nan], [True, False, True, False], True),
            ([1.0, math.inf, 2.0, math.nan], [True, False, True, False], False),
            ([-1.0, 0.0, 2.0, -math.inf], [False, False, True, False], False),
            ([math.inf, math.nan, -math.inf], [False, False, False], False),
            ([], [], False),
        ],
        ids=[
            "all-zero", "noisy", "zero-among-positive", "exact-with-nonfinite",
            "noisy-with-nonfinite", "negative", "nothing-finite", "empty",
        ],
    )
    def test_table(self, variance, used, exact):
        got_used, got_exact = _weighted(np.array(variance))
        assert got_used.tolist() == used
        assert got_exact is exact

    def test_background_regression_of_exact_rates_leaves_out_unmeasured_bins(self):
        # Exact rates (variance 0) with three bins of infinite variance:
        # the regression uses the exact bins with unit weights, as if the
        # unmeasured ones were absent; with no finite variance at all the
        # background is not identifiable and is taken as zero.
        model = TpwfModel(amplitude=0.7, corr_time=30e-9, phase=0.4)
        gamma, background = 1.5, 0.6
        psi = tpwf_eval(model, np.linspace(-300e-9, 300e-9, 151))
        ys = np.array(forward_triple(gamma, psi)) + background
        var_y = np.zeros_like(ys)
        var_y[:, :3] = np.inf
        wing_level = gamma**2 + background
        got = reconstruct_module._estimate_background(ys, var_y, wing_level)
        ref = reconstruct_module._estimate_background(ys[:, 3:], var_y[:, 3:], wing_level)
        assert got == ref
        assert got == pytest.approx(background, abs=1e-9)
        var_y[:] = np.inf
        assert reconstruct_module._estimate_background(ys, var_y, wing_level) == 0.0
