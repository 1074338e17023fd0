"""Forward-model contracts: wave function shape, analyzer transform,
interference rate, bandwidth conversion, visibility curve."""

import math

import numpy as np
import pytest

from biphoton import (
    AnalyzerSetting,
    ConfigError,
    RECONSTRUCTION_PHASES,
    ReferenceAmplitude,
    TpwfModel,
    bandwidth_to_corr_time,
    bandwidth_to_intensity_fwhm,
    forward_g2,
    forward_two_photon_amplitude,
    tpwf_eval,
    visibility_curve,
)
from biphoton.model import _gamma_value, g2_integrals

BALANCED = AnalyzerSetting.balanced
NON_FINITE = [math.nan, math.inf, -math.inf]


class TestTpwfEval:
    def test_peak_value_is_amplitude_times_phase_factor(self):
        model = TpwfModel(amplitude=1.0, corr_time=10e-9, tau_offset=0.0, phase=0.9)
        assert tpwf_eval(model, 0.0) == np.exp(0.9j)

    def test_half_intensity_delay(self):
        # A^2 exp(-2 tau/Tc) = A^2/2  =>  tau = Tc ln2 / 2
        tc = 39.3e-9
        model = TpwfModel(amplitude=1.0, corr_time=tc)
        tau_half = tc * math.log(2.0) / 2.0
        assert abs(tau_half - 1.3620342098002925e-08) < 1e-20
        assert abs(abs(tpwf_eval(model, tau_half)) ** 2 - 0.5) < 1e-12

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            model = TpwfModel(
                amplitude=float(rng.uniform(0.1, 5.0)),
                corr_time=float(rng.uniform(1e-9, 100e-9)),
                tau_offset=float(rng.uniform(-50e-9, 50e-9)),
                phase=float(rng.uniform(-math.pi, math.pi)),
            )
            x = rng.uniform(0.0, 200e-9, size=20)
            left = tpwf_eval(model, model.tau_offset + x)
            right = tpwf_eval(model, model.tau_offset - x)
            np.testing.assert_allclose(left, right, rtol=1e-12)

    def test_constant_arg_and_bounded_modulus(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            phase = float(rng.uniform(-3.0, 3.0))
            model = TpwfModel(
                amplitude=float(rng.uniform(0.1, 3.0)),
                corr_time=float(rng.uniform(1e-9, 80e-9)),
                tau_offset=float(rng.uniform(-20e-9, 20e-9)),
                phase=phase,
            )
            tau = rng.uniform(-300e-9, 300e-9, size=64)
            values = tpwf_eval(model, tau)
            assert np.all(np.abs(values) <= model.amplitude * (1 + 1e-15))
            np.testing.assert_allclose(np.angle(values), phase, rtol=0, atol=1e-12)

    def test_strictly_decreasing_modulus(self):
        model = TpwfModel(amplitude=2.0, corr_time=20e-9, tau_offset=5e-9)
        offsets = np.linspace(0.0, 100e-9, 200)
        mods = np.abs(tpwf_eval(model, model.tau_offset + offsets))
        assert np.all(np.diff(mods) < 0)

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            TpwfModel(amplitude=0.0, corr_time=1e-9)
        with pytest.raises(ConfigError):
            TpwfModel(amplitude=1.0, corr_time=-1e-9)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["amplitude", "corr_time", "tau_offset", "phase"])
    def test_non_finite_field_rejected(self, field, value):
        params = {"amplitude": 1.0, "corr_time": 10e-9, "tau_offset": 0.0, "phase": 0.9}
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            TpwfModel(**{**params, field: value})


class TestAnalyzerTransform:
    def test_reference_only_squared_modulus(self):
        amp = forward_two_photon_amplitude(BALANCED(0.0), ReferenceAmplitude(1.0), 0.0)
        assert abs(abs(amp) ** 2 - 0.25) < 1e-15

    def test_theta_zero_closes_interference_port(self):
        setting = AnalyzerSetting(theta=0.0, phi=0.5)
        assert forward_two_photon_amplitude(setting, 2.0, 1.5 + 0.5j) == 0.0

    def test_mixed_amplitude(self):
        amp = forward_two_photon_amplitude(BALANCED(0.0), 1.0, 0.5)
        assert abs(abs(amp) ** 2 - 0.0625) < 1e-15

    def test_angle_validation(self):
        with pytest.raises(ConfigError):
            AnalyzerSetting(theta=-0.1, phi=0.0)
        with pytest.raises(ConfigError):
            AnalyzerSetting(theta=math.pi / 4, phi=math.pi)

    def test_balanced_wraps_phi(self):
        s = BALANCED(math.pi + 0.3)
        assert abs(s.phi - 0.3) < 1e-12
        assert s.theta == math.pi / 4

    @pytest.mark.parametrize("phi", NON_FINITE)
    def test_balanced_refuses_non_finite_phi(self, phi):
        # Wrapping would call math.floor on it: ValueError or OverflowError.
        with pytest.raises(ConfigError, match="phi must be finite"):
            BALANCED(phi)


class TestForwardG2:
    def test_reference_only_is_flat(self):
        for phi in np.linspace(0.0, math.pi, 7, endpoint=False):
            assert forward_g2(BALANCED(phi), 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_real_psi_triple(self):
        values = [forward_g2(BALANCED(phi), 1.0, 0.5) for phi in RECONSTRUCTION_PHASES]
        np.testing.assert_allclose(values, [0.25, 1.75, 1.75], rtol=1e-12)

    def test_imaginary_psi_triple(self):
        values = [forward_g2(BALANCED(phi), 1.0, 0.5j) for phi in RECONSTRUCTION_PHASES]
        expected = [1.25, 2.1160254037844393, 0.3839745962155614]
        np.testing.assert_allclose(values, expected, rtol=1e-12)
        # the mean reveals gamma^2 + |psi|^2
        assert np.mean(values) == pytest.approx(1.25, rel=1e-12)

    def test_mean_over_settings_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            gamma = float(rng.uniform(0.0, 4.0))
            psi = complex(rng.normal(), rng.normal())
            ys = [forward_g2(BALANCED(phi), gamma, psi) for phi in RECONSTRUCTION_PHASES]
            expected = gamma**2 + abs(psi) ** 2
            assert np.mean(ys) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_pi_periodicity(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            phi = float(rng.uniform(0.0, math.pi))
            gamma = float(rng.uniform(0.1, 3.0))
            psi = complex(rng.normal(), rng.normal())
            y1 = forward_g2(BALANCED(phi), gamma, psi)
            y2 = forward_g2(BALANCED(phi + math.pi), gamma, psi)
            assert y2 == pytest.approx(y1, rel=1e-12)

    def test_negative_background_rejected(self):
        with pytest.raises(ConfigError):
            forward_g2(BALANCED(0.0), 1.0, 0.0, background=-0.1)

    def test_gamma_validation(self):
        with pytest.raises(ConfigError):
            ReferenceAmplitude(-0.5)
        with pytest.raises(ConfigError):
            forward_g2(BALANCED(0.0), -1.0, 0.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_gamma_rejected(self, value):
        # _gamma_value, which every model function reads gamma through,
        # applies ReferenceAmplitude's rule to a plain number.
        with pytest.raises(ConfigError, match="gamma must be finite"):
            ReferenceAmplitude(value)
        with pytest.raises(ConfigError, match="gamma must be finite"):
            _gamma_value(value)


def _simpson_masses(setting, gamma, model, edges, n=64):
    """Independent oracle for g2_integrals: composite Simpson over n
    sub-intervals of each interval, with tau_offset made an extra edge so
    that no piece holds the kink of |tau - tau_offset|."""
    inside = edges[0] < model.tau_offset < edges[-1]
    fine = np.union1d(edges, [model.tau_offset] if inside else [])
    a, b = fine[:-1, None], fine[1:, None]
    weights = np.ones(n + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    f = forward_g2(setting, gamma, tpwf_eval(model, a + (b - a) * np.linspace(0.0, 1.0, n + 1)))
    pieces = (f @ weights) * (b - a)[:, 0] / (3 * n)
    return np.add.reduceat(pieces, np.searchsorted(fine, edges[:-1]))


class TestG2Integrals:
    """The closed-form interval masses of the pair density."""

    @pytest.mark.parametrize("tau_offset", [0.0, 3e-9, -7.3e-9, 1.01e-11])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("bin_width_ps, window_ps", [(20, 20_000), (4000, 400_000),
                                                         (10_000, 400_000)])
    def test_matches_simpson(self, bin_width_ps, window_ps, gamma, tau_offset):
        # tau_offset falls on an edge (0 ns everywhere; 3 and -7.3 ns at
        # 0.02 ns bins) or inside a bin; the window reaches ten
        # correlation times at 4 and 10 ns.
        model = TpwfModel(amplitude=1.0, corr_time=39.3e-9, tau_offset=tau_offset, phase=0.9)
        edges = (bin_width_ps * np.arange(2 * window_ps // bin_width_ps + 1) - window_ps) / 1e12
        for phi in RECONSTRUCTION_PHASES:
            got = g2_integrals(BALANCED(phi), gamma, model, edges)
            expected = _simpson_masses(BALANCED(phi), gamma, model, edges)
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4])
    def test_never_negative_and_scaled_by_the_analyzer(self, theta):
        # At gamma = |psi(tau_offset)| the density of phi = 0 vanishes at
        # tau_offset; the masses stay >= 0 and scale as sin(2*theta)^2.
        model = TpwfModel(amplitude=1.0, corr_time=39.3e-9, tau_offset=1e-9)
        edges = np.linspace(-400e-9, 400e-9, 40_001)
        got = g2_integrals(AnalyzerSetting(theta=theta, phi=0.0), 1.0, model, edges)
        balanced = g2_integrals(BALANCED(0.0), 1.0, model, edges)
        assert (got >= 0.0).all()
        np.testing.assert_allclose(got, math.sin(2.0 * theta) ** 2 * balanced, rtol=1e-12)

    @pytest.mark.parametrize("amplitude, gamma", [(1e160, 0.0), (1e300, 0.0), (1.0, 1e200)])
    def test_overflowing_density_rejected(self, amplitude, gamma):
        # Finite, but gamma^2 or amplitude^2 overflows a float; refused
        # before either is squared (warnings are errors in this suite).
        model = TpwfModel(amplitude=amplitude, corr_time=10e-9)
        with pytest.raises(ConfigError, match="too large"):
            g2_integrals(BALANCED(0.0), gamma, model, [-1e-7, 0.0, 1e-7])


def _fft_intensity_fwhm(bandwidth_hz: float) -> float:
    """Independent oracle: inverse-FFT a Lorentzian amplitude spectrum of
    the given FWHM and measure the FWHM of the squared envelope."""
    n = 1 << 20
    span = 2000.0 * bandwidth_hz
    dnu = span / n
    nu = (np.arange(n) - n // 2) * dnu
    spectrum = 1.0 / (1.0 + (2.0 * nu / bandwidth_hz) ** 2)
    # field envelope on a time grid of resolution 1/span
    envelope = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(spectrum)))
    intensity = np.abs(envelope) ** 2
    intensity /= intensity.max()
    t = (np.arange(n) - n // 2) / span
    above = np.nonzero(intensity >= 0.5)[0]
    lo, hi = above[0], above[-1]

    def crossing(i, j):
        # linear interpolation of the 0.5 crossing between samples i and j
        y0, y1 = intensity[i], intensity[j]
        return t[i] + (0.5 - y0) / (y1 - y0) * (t[j] - t[i])

    return crossing(lo - 1, lo) * -1 + crossing(hi, hi + 1)


class TestBandwidthConversion:
    def test_against_fft_oracle(self):
        oracle = _fft_intensity_fwhm(8.1e6)
        value = bandwidth_to_intensity_fwhm(8.1e6)
        assert value == pytest.approx(2.7238962981808837e-08, rel=1e-12)
        assert value == pytest.approx(oracle, rel=5e-3)

    def test_consistent_with_measured_width_anchor(self):
        # independently measured width of the same line: 26 ns
        assert bandwidth_to_intensity_fwhm(8.1e6) == pytest.approx(26e-9, rel=0.1)

    def test_scaling(self):
        assert bandwidth_to_intensity_fwhm(1e6) / bandwidth_to_intensity_fwhm(2e6) == (
            pytest.approx(2.0, rel=1e-12)
        )

    def test_unit_case(self):
        assert bandwidth_to_intensity_fwhm(math.log(2.0) / math.pi) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_corr_time_relation(self):
        # FWHM of the squared envelope equals ln2 times the 1/e decay time
        tc = bandwidth_to_corr_time(8.1e6)
        assert math.log(2.0) * tc == pytest.approx(
            bandwidth_to_intensity_fwhm(8.1e6), rel=1e-15
        )
        model = TpwfModel(amplitude=1.0, corr_time=tc)
        assert model.intensity_fwhm == pytest.approx(27.239e-9, rel=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            bandwidth_to_intensity_fwhm(0.0)
        with pytest.raises(ConfigError):
            bandwidth_to_intensity_fwhm(-1.0)


class TestVisibilityCurve:
    def test_full_contrast_curve(self):
        points = dict(visibility_curve(1.0, -1.0, [0.0, math.pi / 2]))
        assert points[0.0] == pytest.approx(4.0, rel=1e-12)
        assert points[math.pi / 2] == pytest.approx(0.0, abs=1e-12)

    def test_no_signal_is_constant(self):
        phis = np.linspace(0.0, math.pi, 17, endpoint=False)
        ys = np.array([y for _, y in visibility_curve(1.0, 0.0, phis)])
        np.testing.assert_allclose(ys, 1.0, rtol=1e-12)

    def test_peak_to_peak_amplitude(self):
        rng = np.random.default_rng(31)
        phis = np.linspace(0.0, math.pi, 721, endpoint=False)
        for _ in range(25):
            gamma = float(rng.uniform(0.1, 3.0))
            psi0 = complex(rng.normal(), rng.normal())
            ys = np.array([y for _, y in visibility_curve(gamma, psi0, phis)])
            expected = 4.0 * gamma * abs(psi0)
            assert ys.max() - ys.min() == pytest.approx(expected, rel=1e-4)

    def test_matches_closed_form(self):
        gamma, psi0 = 1.3, 0.4 - 0.7j
        for phi, y in visibility_curve(gamma, psi0, np.linspace(0, 3.0, 11)):
            expected = (
                gamma**2
                + abs(psi0) ** 2
                - 2.0 * gamma * (psi0 * np.exp(2j * phi)).real
            )
            assert y == pytest.approx(expected, rel=1e-12)
