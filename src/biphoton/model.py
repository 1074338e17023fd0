"""Forward model of two-photon interference between an unknown biphoton
and a coherent reference.

The biphoton amplitude is a double exponential in the arrival-time
difference tau with a constant phase.  A polarization analyzer mixes the
reference (H) and signal (V) modes before detection; the resulting
coincidence rate versus tau and analyzer phase is what the simulator
realizes and the reconstruction inverts.

All times are seconds, all angles radians.  Amplitudes are dimensionless;
the analyzer prefactor is normalized so that at theta = pi/4 the
coincidence rate is exactly |gamma * exp(-2i*phi) - psi(tau)|^2 plus any
flat background.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "TpwfModel",
    "AnalyzerSetting",
    "ReferenceAmplitude",
    "RECONSTRUCTION_PHASES",
    "tpwf_eval",
    "forward_two_photon_amplitude",
    "forward_g2",
    "g2_integrals",
    "bandwidth_to_corr_time",
    "bandwidth_to_intensity_fwhm",
    "visibility_curve",
]

# Bound on gamma^2 and on amplitude^2: the interference density
# (gamma + |psi|)^2 is at most twice their sum, so it stays finite, and a
# pair mass is at most twice the interference-free one.
_MAX_DENSITY = np.finfo(float).max / 4
_TOO_LARGE = "gamma and model.amplitude are too large: the pair-delay density overflows"

#: Analyzer phases used for the three-setting reconstruction, equally
#: spaced within one period of exp(2i*phi).
RECONSTRUCTION_PHASES = (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0)


@dataclass(frozen=True)
class TpwfModel:
    """Parametric temporal two-photon wave function.

    psi(tau) = amplitude * exp(-|tau - tau_offset| / corr_time) * exp(1j * phase)

    Attributes:
        amplitude: peak |psi|, dimensionless, finite and > 0.
        corr_time: 1/e decay time of the amplitude envelope, seconds, finite and > 0.
        tau_offset: horizontal offset of the peak, seconds, finite.
        phase: constant phase, radians, finite.
    """

    amplitude: float
    corr_time: float
    tau_offset: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        for name in ("amplitude", "corr_time"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("tau_offset", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def intensity_fwhm(self) -> float:
        """Full width at half maximum of |psi(tau)|^2, seconds."""
        return math.log(2.0) * self.corr_time


@dataclass(frozen=True)
class AnalyzerSetting:
    """Polarization analyzer angles: polar theta and azimuthal phi on the
    Bloch sphere.  theta = pi/4 balances the reference and signal modes;
    phi sets the interference phase.  The measurable rate is pi-periodic
    in phi, so phi is restricted to [0, pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2.0:
            raise ConfigError(f"theta must lie in [0, pi/2], got {self.theta}")
        if not 0.0 <= self.phi < math.pi:
            raise ConfigError(f"phi must lie in [0, pi), got {self.phi}")

    @classmethod
    def balanced(cls, phi: float) -> "AnalyzerSetting":
        """Setting with theta = pi/4 and a finite phi wrapped into [0, pi)."""
        if not math.isfinite(phi):
            raise ConfigError(f"phi must be finite, got {phi}")
        phi = phi - math.floor(phi / math.pi) * math.pi
        if phi >= math.pi:  # guard against rounding at the boundary
            phi -= math.pi
        return cls(theta=math.pi / 4.0, phi=max(phi, 0.0))


@dataclass(frozen=True)
class ReferenceAmplitude:
    """Two-photon amplitude of the coherent reference, real and >= 0 by
    choice of phase origin, and finite."""

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma}")


def _gamma_value(gamma) -> float:
    reference = gamma if isinstance(gamma, ReferenceAmplitude) else ReferenceAmplitude(float(gamma))
    return reference.gamma


def _bounded_gamma(gamma, model: TpwfModel) -> float:
    """gamma as a float, once it and model.amplitude square below _MAX_DENSITY."""
    g = _gamma_value(gamma)
    if not max(g, model.amplitude) < math.sqrt(_MAX_DENSITY):
        raise ConfigError(_TOO_LARGE)
    return g


def tpwf_eval(model: TpwfModel, tau):
    """Evaluate psi(tau).  Accepts a scalar or array tau; returns complex.

    The modulus never exceeds model.amplitude and the argument equals
    model.phase everywhere.
    """
    tau = np.asarray(tau, dtype=float)
    envelope = model.amplitude * np.exp(-np.abs(tau - model.tau_offset) / model.corr_time)
    result = envelope * np.exp(1j * model.phase)
    if result.ndim == 0:
        return complex(result)
    return result


def forward_two_photon_amplitude(setting: AnalyzerSetting, gamma, psi):
    """Two-photon detection amplitude behind the analyzer.

    Returns cos(theta)*sin(theta) * (exp(-i*phi)*gamma - exp(i*phi)*psi).
    Only the reference and signal pair terms enter: the two single-photon
    cross terms vanish identically for a squeezed-vacuum signal (odd
    photon-number amplitudes are zero), so they have no input here.
    """
    g = _gamma_value(gamma)
    # 0.5*sin(2*theta) == cos(theta)*sin(theta), exact at theta = pi/4
    prefactor = 0.5 * math.sin(2.0 * setting.theta)
    return prefactor * (np.exp(-1j * setting.phi) * g - np.exp(1j * setting.phi) * psi)


def forward_g2(setting: AnalyzerSetting, gamma, psi, background: float = 0.0):
    """Coincidence rate for one analyzer setting.

    Normalized so that at theta = pi/4 the rate is
    |gamma * exp(-2i*phi) - psi|^2 + background; a general theta scales
    the interference term by sin(2*theta)^2.  With psi = 0 the rate is
    flat in phi.
    """
    if not background >= 0.0:
        raise ConfigError(f"background must be >= 0, got {background}")
    amp = forward_two_photon_amplitude(setting, gamma, psi)
    result = 4.0 * np.abs(amp) ** 2 + background
    if np.ndim(result) == 0:
        return float(result)
    return result


def _decay_integrals(x, decay: float):
    """Integrals of exp(-|t|/decay) between consecutive points of x.  Each
    side of 0 takes its part [a, b] of an interval, as distances from 0, as
    decay * exp(-a/decay) * (1 - exp(-(b - a)/decay)): exact far in the tails."""
    near = np.maximum([x[:-1], -x[1:]], 0.0)
    far = np.maximum([x[1:], -x[:-1]], 0.0)
    return -(decay * np.exp(-near / decay) * np.expm1((near - far) / decay)).sum(axis=0)


def g2_integrals(setting: AnalyzerSetting, gamma, model: TpwfModel, edges):
    """Integrals of forward_g2 (no background) between consecutive
    increasing edges (s), in closed form: over an interval the mean of
    |a - psi|^2 is |a - mean psi|^2 + var psi, var psi >= 0 scaled by
    sin(2*theta)^2 as in forward_g2.  gamma and amplitude pass _bounded_gamma."""
    g = _bounded_gamma(gamma, model)
    x = np.asarray(edges, dtype=float) - model.tau_offset
    width = np.diff(x)
    mean_envelope = _decay_integrals(x, model.corr_time) / width
    var_envelope = np.maximum(_decay_integrals(x, 0.5 * model.corr_time) / width
                              - mean_envelope**2, 0.0)
    mean_psi = model.amplitude * mean_envelope * np.exp(1j * model.phase)
    variance = math.sin(2.0 * setting.theta) ** 2 * model.amplitude**2 * var_envelope
    return width * (forward_g2(setting, g, mean_psi) + variance)


def bandwidth_to_corr_time(fwhm_hz: float) -> float:
    """1/e amplitude decay time for a Lorentzian line of FWHM fwhm_hz.

    A Lorentzian amplitude spectrum with full width delta_nu at half
    maximum transforms to the envelope exp(-pi*delta_nu*|tau|), so the
    decay time is 1/(pi*delta_nu).
    """
    if not fwhm_hz > 0.0:
        raise ConfigError(f"bandwidth must be > 0, got {fwhm_hz}")
    return 1.0 / (math.pi * fwhm_hz)


def bandwidth_to_intensity_fwhm(fwhm_hz: float) -> float:
    """FWHM of |psi(tau)|^2 for a Lorentzian line of FWHM fwhm_hz.

    Equals ln(2)/(pi*delta_nu); monotone decreasing in the bandwidth.
    """
    return math.log(2.0) * bandwidth_to_corr_time(fwhm_hz)


def visibility_curve(gamma, psi0, phis):
    """Coincidence rate at tau = 0 versus analyzer phase, theta = pi/4.

    Returns a list of (phi, y) pairs.  The exact curve is
    y(phi) = gamma^2 + |psi0|^2 - 2*gamma*Re(psi0*exp(2i*phi)),
    sinusoidal in 2*phi with peak-to-peak amplitude 4*gamma*|psi0|.
    """
    out = []
    for phi in phis:
        setting = AnalyzerSetting.balanced(phi)
        out.append((float(phi), forward_g2(setting, gamma, psi0, 0.0)))
    return out
