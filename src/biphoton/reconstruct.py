"""Analytic inversion of three phase-setting coincidence histograms into
the complex temporal wave function and the reference amplitude.

With analyzer phases 0, pi/3 and 2*pi/3 (equally spaced within one period
of exp(2i*phi)) the three measured rates
    y_k(tau) = |gamma * exp(-2i*k*pi/3) - psi(tau)|^2
determine psi and gamma in closed form at every delay bin:

    Re psi = (ybar - y0) / (2*gamma)
    Im psi = (y1 - y2) / (2*sqrt(3)*gamma)
    gamma^2 = (ybar + sqrt(3*ybar^2 - (2/3)*(y0^2 + y1^2 + y2^2))) / 2

with ybar = (y0 + y1 + y2)/3 = gamma^2 + |psi|^2.  The quadratic for
gamma^2 has two roots that swap gamma and |psi|; the larger root is the
right one whenever gamma > |psi|, which the measurement protocol arranges.

A flat accidental background shifts all three y_k equally, so it cancels
in both numerators; only gamma is biased (at signal-free delays the root
returns gamma^2 + background), which the optional wing-subtraction mode
corrects.  Both numerators are computed in a form where the common shift
cancels exactly, not just to rounding.

Poisson errors are propagated to first order through the closed-form
derivatives of the inversion (_jacobian); _rate_variances is the one rule
for the rate variances, and _sigma_arrays the one place that turns them
into sigmas and the re/im covariance.  The three rates and counts travel
stacked as (3, n) arrays down the one path _invert_arrays -> _jacobian ->
_sigma_arrays.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .correlate import CoincidenceHistogram, _g2_scale, normalize_g2
from .errors import ConfigError, DataError, InvalidBinError, NumericalError
from .model import RECONSTRUCTION_PHASES

__all__ = [
    "PhaseTriple",
    "ReconstructedTpwf",
    "reconstruct_bin",
    "reconstruct_values",
    "reconstruct_curve",
    "propagate_errors",
    "background_estimate",
]

SQRT3 = math.sqrt(3.0)

#: The accepted background_mode and gamma_mode values.
BACKGROUND_MODES = ("none", "wing_subtract")
GAMMA_MODES = ("per_bin", "pooled")

#: A radicand more negative than -tol*ybar^2 flags the bin invalid;
#: anything closer to zero is clamped (pure rounding residue).
RADICAND_REL_TOL = 1e-9

#: reconstruct_values fails when more than this share of bins is invalid.
MAX_INVALID_FRACTION = 0.5

#: The per-bin arrays of a ReconstructedTpwf besides tau, with their
#: element types, in the key order of its document (io.recon_to_dict).
_PER_BIN_ARRAYS = (
    ("re_psi", float), ("im_psi", float), ("gamma", float), ("sigma_re", float),
    ("sigma_im", float), ("sigma_gamma", float), ("cov_re_im", float), ("valid", bool),
)

#: Gradients of the two numerators w.r.t. (y0, y1, y2); both are linear.
_NUM_GRAD = np.array([[-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], [0.0, 1.0 / SQRT3, -1.0 / SQRT3]])


#: What _invert_arrays returns: values, the results re, im and gamma
#: stacked (NaN on invalid bins), valid, the terms of the stacked rates y
#: it computes them from (_rate_terms), and two_gamma = 2*gamma.
_Inversion = namedtuple("_Inversion", "values valid y ybar num two_gamma")


def _rate_terms(y):
    """The mean ybar of the stacked rates y and the numerators
    num = (2*gamma*Re psi, 2*gamma*Im psi), stacked, in forms in which a
    common additive shift of (y0, y1, y2) cancels exactly in floating
    point, not only algebraically."""
    # A sum over the leading axis of a (3, n) array adds its rows in
    # order: y0 + y1 + y2.
    ybar = y.sum(axis=0)
    ybar /= 3.0
    num = np.empty((2,) + ybar.shape)
    np.add(y[1], y[2], out=num[0])
    num[0] -= 2.0 * y[0]
    num[0] /= 3.0
    np.subtract(y[1], y[2], out=num[1])
    num[1] /= SQRT3
    return ybar, num


def _invert_arrays(y, root="larger"):
    """Vectorized closed-form inversion of the rates y, a (3, n) float
    array, one column per bin.

    Returns an _Inversion.  Invalid bins (radicand below tolerance, or
    gamma = 0) carry NaN results and valid = False.
    """
    if root not in ("larger", "smaller"):
        raise ConfigError(f"root must be 'larger' or 'smaller', got {root!r}")
    ybar, num = _rate_terms(y)

    ybar_sq = np.square(ybar)
    radicand = np.square(y).sum(axis=0)
    radicand *= 2.0 / 3.0
    np.subtract(3.0 * ybar_sq, radicand, out=radicand)
    valid = radicand >= -RADICAND_REL_TOL * ybar_sq
    root_term = np.maximum(radicand, 0.0, out=radicand)
    np.sqrt(root_term, out=root_term)
    if root == "larger":
        gamma = np.add(ybar, root_term, out=root_term)
    else:
        gamma = np.subtract(ybar, root_term, out=root_term)
    gamma *= 0.5  # gamma^2
    np.maximum(gamma, 0.0, out=gamma)
    np.sqrt(gamma, out=gamma)
    valid &= gamma > 0.0

    two_gamma = 2.0 * gamma
    values = np.full((3,) + ybar.shape, np.nan)
    np.divide(num, two_gamma, out=values[:2], where=valid)
    np.copyto(values[2], gamma, where=valid)
    return _Inversion(values, valid, y, ybar, num, two_gamma)


def reconstruct_bin(y0: float, y1: float, y2: float, root: str = "larger"):
    """Invert one bin's three rates into (re_psi, im_psi, gamma).

    Raises InvalidBinError when the radicand is negative beyond tolerance
    or the reference amplitude comes out zero.
    """
    if y0 < 0.0 or y1 < 0.0 or y2 < 0.0:
        raise ConfigError("rates must be non-negative")
    values, valid = _invert_arrays(np.array([[y0], [y1], [y2]], dtype=float), root=root)[:2]
    if not valid[0]:
        raise InvalidBinError(
            f"(y0, y1, y2) = ({y0}, {y1}, {y2}) cannot be inverted: negative "
            "radicand beyond tolerance or zero reference amplitude"
        )
    return tuple(float(v) for v in values[:, 0])


def _jacobian(inversion):
    """Closed-form Jacobian of (re, im, gamma) w.r.t. (y0, y1, y2).

    inversion is what _invert_arrays returns; the rates, their mean and
    the results are taken from it.  Vectorized over bins: returns J with
    shape (3, 3, n), J[i, k] the derivative of output i w.r.t. input k,
    NaN on invalid bins.

    With s = 2*gamma^2 - ybar, which is +sqrt(R) for the larger root and
    -sqrt(R) for the smaller one, and dR/dy_k = 2*ybar - (4/3)*y_k,

        d(gamma^2)/dy_k = (1/3 + (dR/dy_k) / (2*s)) / 2,

    and re, im = numerator / (2*gamma) follow by the quotient rule, both
    rows at once.  The derivatives diverge as s -> 0, where the two roots
    meet.
    """
    values, _, y, ybar, _, two_gamma = inversion
    J = np.empty((3, 3) + ybar.shape, dtype=float)
    # Each row is built in place, operation for operation as
    # J[2] = (1/3 + (2*ybar - (4/3)*y) / (2*s)) / (4*gamma) and
    # J[:2] = (grad - 2*values[:2] * J[2]) / (2*gamma).
    with np.errstate(divide="ignore", invalid="ignore"):
        two_s = np.square(values[2])
        two_s *= 2.0
        two_s -= ybar  # s
        two_s *= 2.0
        d = np.multiply(4.0 / 3.0, y, out=J[2])
        np.subtract(2.0 * ybar, d, out=d)
        d /= two_s
        d += 1.0 / 3.0
        d /= 2.0 * two_gamma
        np.multiply(2.0 * values[:2, np.newaxis], d, out=J[:2])
        np.subtract(_NUM_GRAD[..., np.newaxis], J[:2], out=J[:2])
        J[:2] /= two_gamma
    return J


def _sigma_arrays(J, var_y):
    """First-order propagation of independent rate variances var_y[k]
    through J (as returned by _jacobian, or a (3, 3) J shared by every
    bin).  Returns (sigma_re, sigma_im, sigma_gamma, cov_re_im).

    The three variances and the covariance are summed at once over the
    rate axis, each in the order 0 + term_0 + term_1 + term_2."""
    prod = np.empty((4,) + J.shape[1:])
    np.multiply(J, J, out=prod[:3])
    np.multiply(J[0], J[1], out=prod[3])
    # A J shared by every bin broadcasts over them.
    prod = prod.reshape(prod.shape + (1,) * (np.ndim(var_y) - prod.ndim + 1))
    # A rate that an output does not depend on adds nothing to its error,
    # even when that rate's variance is infinite (zero counts): its term
    # stays 0.
    terms = np.zeros(np.broadcast_shapes(prod.shape, np.shape(var_y)))
    np.multiply(prod, var_y, out=terms, where=prod != 0.0)
    with np.errstate(invalid="ignore"):
        # Over the rate axis, in order, from an initial 0.
        total = np.add.reduce(terms, axis=1, initial=0.0)
    sigma = np.sqrt(total[:3])
    return sigma[0], sigma[1], sigma[2], total[3]


def _rate_variances(ys, counts):
    """Poisson variances y_k^2 / n_k of the rates ys, stacked on a leading
    axis of 3 like the counts: infinite where n_k = 0 (the rate was not
    measured), and zero everywhere when counts is None (exact input)."""
    if counts is None:
        return np.zeros(ys.shape)
    counts = np.asarray(counts)
    if np.count_nonzero(counts < 0):
        raise ConfigError("counts must be non-negative")
    return np.divide(np.square(ys), counts, out=np.full(ys.shape, np.inf), where=counts > 0)


def propagate_errors(y, counts):
    """First-order Poisson error propagation for one bin.

    y and counts are the three rates and their underlying coincidence
    counts; the rate errors are sigma_k = y_k / sqrt(counts_k).  Returns
    (sigma_re, sigma_im, sigma_gamma) as reconstruct_values gives them: only
    an output that depends on a zero-count rate gets an infinite sigma.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (3,) or np.shape(counts) != (3,):
        raise ConfigError("y and counts must each hold three values")
    y = y.reshape(3, 1)  # one bin
    sig = _sigma_arrays(_jacobian(_invert_arrays(y)), _rate_variances(y, np.reshape(counts, (3, 1))))[:3]
    return tuple(float(v[0]) for v in sig)


@dataclass(frozen=True)
class PhaseTriple:
    """The three coincidence histograms at analyzer phases 0, pi/3, 2*pi/3.

    All three must share bin geometry and acquisition time, and each must
    carry its setting, the balanced analyzer at its slot's phase: one in
    the wrong slot would invert to a wrong psi without any error.
    """

    y0: CoincidenceHistogram
    y1: CoincidenceHistogram
    y2: CoincidenceHistogram

    def __post_init__(self):
        if not (self.y0.same_binning(self.y1) and self.y0.same_binning(self.y2)):
            raise DataError("histograms of a phase triple must share binning")
        for a, b in ((self.y0, self.y1), (self.y0, self.y2)):
            if not math.isclose(a.acquisition_time, b.acquisition_time, rel_tol=1e-9):
                raise DataError("histograms of a phase triple must share acquisition time")
        for slot, (hist, phi) in enumerate(zip(self.histograms, RECONSTRUCTION_PHASES)):
            if hist.setting is None:
                raise DataError(f"phase-triple histogram y{slot} carries no analyzer setting")
            if not math.isclose(hist.setting.theta, math.pi / 4.0, abs_tol=1e-9):
                raise DataError("phase-triple histograms must be taken at theta = pi/4")
            if not math.isclose(hist.setting.phi, phi, abs_tol=1e-9):
                raise DataError(
                    f"histogram phase {hist.setting.phi} does not match the "
                    f"expected setting {phi}"
                )

    @property
    def histograms(self):
        return (self.y0, self.y1, self.y2)


@dataclass
class ReconstructedTpwf:
    """Per-bin reconstruction with 1-sigma uncertainties.

    Bins that could not be inverted are flagged invalid (never clamped or
    interpolated); their value entries are NaN.  cov_re_im carries the
    re/im error covariance needed for derived quantities such as |psi|^2.
    With gamma_mode 'pooled', gamma holds the pooled value on every valid
    bin and sigma_gamma its sigma on every bin.
    """

    tau: np.ndarray
    re_psi: np.ndarray
    im_psi: np.ndarray
    gamma: np.ndarray
    sigma_re: np.ndarray
    sigma_im: np.ndarray
    sigma_gamma: np.ndarray
    valid: np.ndarray
    cov_re_im: np.ndarray
    background: float = 0.0
    background_mode: str = "none"
    gamma_mode: str = "per_bin"

    def __post_init__(self):
        if np.ndim(self.tau) != 1:
            raise ConfigError("tau must be a 1-d array")
        n = len(self.tau)
        for name, _ in _PER_BIN_ARRAYS:
            if np.shape(getattr(self, name)) != (n,):
                raise ConfigError(f"field {name} does not match the bin count")
        _check_modes(self.background_mode, self.gamma_mode)
        self.valid = np.asarray(self.valid, dtype=bool)
        if (self.gamma[self.valid] < 0.0).any():
            raise ConfigError("reconstructed gamma must be >= 0 on valid bins")

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())

    def power(self) -> np.ndarray:
        """|psi|^2 per bin (NaN on invalid bins)."""
        return self.re_psi**2 + self.im_psi**2

    def phase(self) -> np.ndarray:
        """arg(psi) per bin (NaN on invalid bins)."""
        return np.arctan2(self.im_psi, self.re_psi)


def _check_modes(background_mode, gamma_mode):
    if background_mode not in BACKGROUND_MODES:
        raise ConfigError(f"unknown background_mode {background_mode!r}")
    if gamma_mode not in GAMMA_MODES:
        raise ConfigError(f"unknown gamma_mode {gamma_mode!r}")


def _check_wing_fraction(wing_fraction):
    if not 0.0 < wing_fraction <= 0.4:
        raise ConfigError(f"wing_fraction must be in (0, 0.4], got {wing_fraction}")


def background_estimate(hist: CoincidenceHistogram, wing_fraction: float = 0.2):
    """Mean normalized rate over the outermost bins on each side.

    The wings see no wave-function signal, so the estimate equals the
    reference level plus the accidental background (gamma^2 + B); the two
    are not separable from a single histogram.  Returns (level, sigma).
    """
    _check_wing_fraction(wing_fraction)
    per_side = int(math.floor(wing_fraction * hist.n_bins))
    if per_side < 5:
        raise ConfigError(
            f"wing_fraction {wing_fraction} leaves only {per_side} bins per side; "
            "need at least 5"
        )
    g2, sigma = normalize_g2(hist)
    wing_values = np.concatenate((g2[:per_side], g2[-per_side:]))
    wing_sigmas = np.concatenate((sigma[:per_side], sigma[-per_side:]))
    level = float(wing_values.mean())
    level_sigma = float(np.sqrt(np.sum(wing_sigmas**2)) / wing_values.size)
    return level, level_sigma


def _weighted(spread):
    """The one weighting rule of the inverse-variance estimators.

    spread is a variance or a sigma per point; the rule reads both alike.
    A point is used if its spread is finite.  If every used spread is 0
    the input is exact (unit weights, sigma 0, chi2 of the unit-weighted
    residuals); otherwise only positive spreads are used.  Returns
    (used, exact); exact is False when nothing is used.
    """
    used = np.isfinite(spread)
    # np.count_nonzero is the cheaper any() on small arrays.
    exact = bool(np.count_nonzero(used)) and not np.count_nonzero(spread[used])
    if not exact:
        used &= spread > 0.0
    return used, exact


def _pool_gamma(gamma, sigma_gamma, valid):
    """Inverse-variance weighted mean of gamma over the valid bins that
    _weighted uses, and its sigma (0 on exact input).  If no sigma_gamma
    is finite, nothing measured gamma: the valid bins' mean, sigma inf."""
    valid = valid & np.isfinite(gamma)
    if not np.any(valid):
        raise NumericalError("no valid bins to pool gamma over")
    used, exact = _weighted(np.where(valid, sigma_gamma, np.nan))
    if not used.any():
        return float(np.mean(gamma[valid])), math.inf
    if exact:
        return float(np.mean(gamma[used])), 0.0
    w = 1.0 / sigma_gamma[used] ** 2
    pooled = float(np.sum(w * gamma[used]) / np.sum(w))
    return pooled, float(1.0 / math.sqrt(np.sum(w)))


def reconstruct_values(
    tau,
    y0,
    y1,
    y2,
    counts0=None,
    counts1=None,
    counts2=None,
    background_mode: str = "none",
    gamma_mode: str = "per_bin",
    wing_level: float | None = None,
) -> ReconstructedTpwf:
    """Reconstruct from normalized rate arrays (the histogram-free core).

    The three counts arrays, given together, set the Poisson errors;
    without them the input is exact and every valid bin's sigma is zero.
    wing_level feeds the background subtraction when background_mode is
    'wing_subtract': the flat term is separated from the reference level
    by two fixed-point iterations of subtract -> re-estimate gamma.
    """
    _check_modes(background_mode, gamma_mode)
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1:  # the inversion runs on (3, n) stacks
        raise ConfigError("tau must be a 1-d array")
    ys = [np.asarray(v, dtype=float) for v in (y0, y1, y2)]
    for v in ys:
        if v.shape != tau.shape:
            raise ConfigError("rate arrays must match tau in shape")

    given = [c is not None for c in (counts0, counts1, counts2)]
    if any(given) and not all(given):
        raise ConfigError("give all three counts arrays or none")
    counts = None
    if all(given):
        counts = [np.asarray(c) for c in (counts0, counts1, counts2)]
        if any(c.shape != tau.shape for c in counts):
            raise ConfigError("counts arrays must match tau in shape")
        counts = np.array(counts, dtype=float)
    return _reconstruct(tau, np.array(ys), counts, background_mode, gamma_mode, wing_level)


def _reconstruct(tau, ys, counts, background_mode, gamma_mode, wing_level):
    """reconstruct_values on checked input: the rates ys and the counts
    (or None) stacked as (3,) + tau.shape float arrays."""
    var_y = _rate_variances(ys, counts)

    background = 0.0
    if background_mode == "wing_subtract":
        if wing_level is None:
            raise ConfigError("wing_subtract needs a wing_level estimate")
        b_hat = _estimate_background(ys, var_y, wing_level)
        # Stationarity refinement: after subtracting the right constant,
        # the pooled reference amplitude must reproduce the wing level.
        for _ in range(2):
            inversion = _invert_arrays(ys - b_hat)
            sg = _sigma_arrays(_jacobian(inversion), var_y)[2]
            pooled, _ = _pool_gamma(inversion.values[2], sg, inversion.valid)
            b_hat = wing_level - pooled**2
        background = max(b_hat, 0.0)
        ys = ys - background

    inversion = _invert_arrays(ys)
    values, valid = inversion.values, inversion.valid
    n_bins = tau.size
    n_invalid = n_bins - int(np.count_nonzero(valid))
    if n_bins and n_invalid > MAX_INVALID_FRACTION * n_bins:
        raise NumericalError(f"{n_invalid} of {n_bins} bins failed to invert")

    sigma_re, sigma_im, sigma_gamma, cov_re_im = _sigma_arrays(_jacobian(inversion), var_y)

    if gamma_mode == "pooled":
        pooled_gamma, pooled_sigma = _pool_gamma(values[2], sigma_gamma, valid)
        if pooled_gamma <= 0.0:
            raise NumericalError("pooled gamma is not positive")
        values = np.full(values.shape, np.nan)
        np.divide(inversion.num, 2.0 * pooled_gamma, out=values[:2], where=valid)
        np.copyto(values[2:], pooled_gamma, where=valid)
        # The numerators are linear in the rates, so the propagation is
        # exact with the pooled gamma held fixed (its own error is
        # negligible after pooling).
        J = np.zeros((3, 3))
        J[:2] = _NUM_GRAD / (2.0 * pooled_gamma)
        sigma_re, sigma_im, _, cov_re_im = _sigma_arrays(J, var_y)
        sigma_gamma = np.full(n_bins, pooled_sigma)

    return ReconstructedTpwf(
        tau=tau,
        re_psi=values[0],
        im_psi=values[1],
        gamma=values[2],
        sigma_re=sigma_re,
        sigma_im=sigma_im,
        sigma_gamma=sigma_gamma,
        valid=valid,
        cov_re_im=cov_re_im,
        background=background,
        background_mode=background_mode,
        gamma_mode=gamma_mode,
    )


def _estimate_background(ys, var_y, wing_level):
    """Split the wing level gamma^2 + B into its parts.

    The wings alone cannot separate the reference from the background
    (both are flat in tau), but the numerators give the background-free
    product C(tau) = gamma^2 |psi(tau)|^2 per bin, and the three-setting
    mean obeys ybar(tau) = gamma^2 + B + C(tau)/gamma^2.  A weighted
    linear regression of ybar on C therefore yields gamma^2 from the
    slope; B follows as wing_level - gamma^2.  Without signal variation
    the two are unidentifiable and the background is taken as zero.
    """
    ybar, num = _rate_terms(ys)
    # Weight by the ybar error, Var(ybar) = sum(var_y) / 9, and debias the
    # quadratic by (Var num_re + Var num_im) / 4, which is the same sum / 9.
    var_m = var_y.sum(axis=0) / 9.0
    c = (num[0] ** 2 + num[1] ** 2) / 4.0 - var_m
    used, exact = _weighted(var_m)
    if not used.any():
        return 0.0  # no bin has a finite variance: not identifiable
    c, ybar = c[used], ybar[used]
    w = np.ones_like(c) if exact else 1.0 / var_m[used]
    w_sum = float(np.sum(w))
    c_mean = float(np.sum(w * c) / w_sum)
    m_mean = float(np.sum(w * ybar) / w_sum)
    s_cc = float(np.sum(w * (c - c_mean) ** 2))
    s_cm = float(np.sum(w * (c - c_mean) * (ybar - m_mean)))
    if s_cc <= 0.0 or s_cm <= 0.0:
        return 0.0  # no signal contrast: background not identifiable
    gamma_sq = s_cc / s_cm
    return wing_level - gamma_sq


def reconstruct_curve(
    triple: PhaseTriple,
    background_mode: str = "none",
    gamma_mode: str = "per_bin",
    wing_fraction: float = 0.2,
) -> ReconstructedTpwf:
    """Reconstruct psi(tau) from a phase triple of histograms.

    Normalizes each histogram to g2, optionally subtracts the
    wing-estimated flat background, and applies the closed-form inversion
    bin by bin with Poisson error propagation.  Fails if more than half
    the bins cannot be inverted.
    """
    hists = triple.histograms
    counts = np.array([h.counts for h in hists], dtype=float)
    # The g2 of normalize_g2, without its sigmas.
    rates = counts * np.array([[_g2_scale(h)] for h in hists])
    wing_level = None
    if background_mode == "wing_subtract":
        levels = [background_estimate(h, wing_fraction)[0] for h in hists]
        wing_level = float(np.mean(levels))
    _check_modes(background_mode, gamma_mode)
    return _reconstruct(
        hists[0].bin_centers(), rates, counts, background_mode, gamma_mode, wing_level
    )
