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
derivatives of the inversion (_jacobian); _sigma_arrays is the one place
that turns rate variances into sigmas and the re/im covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .correlate import CoincidenceHistogram, normalize_g2
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

#: Gradients of the two numerators w.r.t. (y0, y1, y2); both are linear.
_NUM_GRAD = np.array([[-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], [0.0, 1.0 / SQRT3, -1.0 / SQRT3]])


def _numerators(y0, y1, y2):
    """(2*gamma*Re psi, 2*gamma*Im psi), in forms in which a common
    additive shift of (y0, y1, y2) cancels exactly in floating point, not
    only algebraically."""
    return (y1 + y2 - 2.0 * y0) / 3.0, (y1 - y2) / SQRT3


def _invert_arrays(y0, y1, y2, root="larger"):
    """Vectorized closed-form inversion.

    Returns (re_psi, im_psi, gamma, valid).  Invalid bins (radicand below
    tolerance, or gamma = 0) carry NaN results and valid = False.
    """
    if root not in ("larger", "smaller"):
        raise ConfigError(f"root must be 'larger' or 'smaller', got {root!r}")
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)

    ybar = (y0 + y1 + y2) / 3.0
    num_re, num_im = _numerators(y0, y1, y2)

    radicand = 3.0 * ybar**2 - (2.0 / 3.0) * (y0**2 + y1**2 + y2**2)
    valid = radicand >= -RADICAND_REL_TOL * ybar**2
    root_term = np.sqrt(np.clip(radicand, 0.0, None))
    if root == "larger":
        gamma_sq = 0.5 * (ybar + root_term)
    else:
        gamma_sq = 0.5 * (ybar - root_term)
    gamma = np.sqrt(np.clip(gamma_sq, 0.0, None))
    valid = valid & (gamma > 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        re_psi = np.where(valid, num_re / (2.0 * gamma), np.nan)
        im_psi = np.where(valid, num_im / (2.0 * gamma), np.nan)
    gamma = np.where(valid, gamma, np.nan)
    return re_psi, im_psi, gamma, valid


def reconstruct_bin(y0: float, y1: float, y2: float, root: str = "larger"):
    """Invert one bin's three rates into (re_psi, im_psi, gamma).

    Raises InvalidBinError when the radicand is negative beyond tolerance
    or the reference amplitude comes out zero.
    """
    if y0 < 0.0 or y1 < 0.0 or y2 < 0.0:
        raise ConfigError("rates must be non-negative")
    re, im, gamma, valid = _invert_arrays(y0, y1, y2, root=root)
    if not bool(valid):
        raise InvalidBinError(
            f"(y0, y1, y2) = ({y0}, {y1}, {y2}) cannot be inverted: negative "
            "radicand beyond tolerance or zero reference amplitude"
        )
    return float(re), float(im), float(gamma)


def _jacobian(y0, y1, y2, root="larger"):
    """Closed-form Jacobian of (re, im, gamma) w.r.t. (y0, y1, y2).

    Vectorized over bins: returns J with shape (3, 3) + y.shape, J[i, k]
    the derivative of output i w.r.t. input k, NaN on invalid bins.  With
    s = 2*gamma^2 - ybar, which is +sqrt(R) for the larger root and
    -sqrt(R) for the smaller one, and dR/dy_k = 2*ybar - (4/3)*y_k,

        d(gamma^2)/dy_k = (1/3 + (dR/dy_k) / (2*s)) / 2,

    and re, im = numerator / (2*gamma) follow by the quotient rule.  The
    derivatives diverge as s -> 0, where the two roots meet.
    """
    re, im, gamma, _ = _invert_arrays(y0, y1, y2, root=root)
    y = np.array([y0, y1, y2], dtype=float)
    ybar = (y[0] + y[1] + y[2]) / 3.0
    grad = _NUM_GRAD.reshape(_NUM_GRAD.shape + (1,) * ybar.ndim)
    J = np.empty((3, 3) + ybar.shape, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 2.0 * gamma**2 - ybar
        J[2] = (1.0 / 3.0 + (2.0 * ybar - (4.0 / 3.0) * y) / (2.0 * s)) / (4.0 * gamma)
        J[0] = (grad[0] - 2.0 * re * J[2]) / (2.0 * gamma)
        J[1] = (grad[1] - 2.0 * im * J[2]) / (2.0 * gamma)
    return J


def _sigma_arrays(J, var_y):
    """First-order propagation of independent rate variances var_y[k]
    through J (as returned by _jacobian).  Returns (sigma_re, sigma_im,
    sigma_gamma, cov_re_im)."""

    def propagate(a, b):
        # A rate that an output does not depend on adds nothing to its
        # error, even when that rate's variance is infinite (zero counts).
        with np.errstate(invalid="ignore"):
            return sum(np.where(a[k] * b[k] == 0.0, 0.0, a[k] * b[k] * var_y[k]) for k in range(3))

    var = [propagate(J[i], J[i]) for i in range(3)]
    return np.sqrt(var[0]), np.sqrt(var[1]), np.sqrt(var[2]), propagate(J[0], J[1])


def propagate_errors(y, counts):
    """First-order Poisson error propagation for one bin.

    y and counts are the three rates and their underlying coincidence
    counts; the rate errors are sigma_k = y_k / sqrt(counts_k).  Returns
    (sigma_re, sigma_im, sigma_gamma).  Zero counts in any setting give
    infinite sigmas.
    """
    y = np.asarray(y, dtype=float)
    counts = np.asarray(counts)
    if y.shape != (3,) or counts.shape != (3,):
        raise ConfigError("y and counts must each hold three values")
    if np.any(counts < 0):
        raise ConfigError("counts must be non-negative")
    if np.any(counts == 0):
        return math.inf, math.inf, math.inf
    y = y[:, np.newaxis]
    var_y = y**2 / counts[:, np.newaxis]
    sig = _sigma_arrays(_jacobian(*y), var_y)[:3]
    return tuple(float(v[0]) for v in sig)


@dataclass(frozen=True)
class PhaseTriple:
    """The three coincidence histograms at analyzer phases 0, pi/3, 2*pi/3.

    All three must share bin geometry and acquisition time; settings,
    when attached, must be the balanced analyzer at the expected phases.
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
        for hist, phi in zip(self.histograms, RECONSTRUCTION_PHASES):
            if hist.setting is None:
                continue
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
    pooled_gamma: float | None = None
    pooled_sigma_gamma: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.ndim(self.tau) != 1:
            raise ConfigError("tau must be a 1-d array")
        n = len(self.tau)
        for name in (
            "re_psi", "im_psi", "gamma", "sigma_re", "sigma_im", "sigma_gamma", "valid", "cov_re_im"
        ):
            if np.shape(getattr(self, name)) != (n,):
                raise ConfigError(f"field {name} does not match the bin count")
        self.valid = np.asarray(self.valid, dtype=bool)
        g = self.gamma[self.valid]
        if g.size and np.any(g < 0.0):
            raise NumericalError("reconstructed gamma must be >= 0 on valid bins")

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())

    def power(self) -> np.ndarray:
        """|psi|^2 per bin (NaN on invalid bins)."""
        return self.re_psi**2 + self.im_psi**2

    def phase(self) -> np.ndarray:
        """arg(psi) per bin (NaN on invalid bins)."""
        return np.arctan2(self.im_psi, self.re_psi)


def background_estimate(hist: CoincidenceHistogram, wing_fraction: float = 0.2):
    """Mean normalized rate over the outermost bins on each side.

    The wings see no wave-function signal, so the estimate equals the
    reference level plus the accidental background (gamma^2 + B); the two
    are not separable from a single histogram.  Returns (level, sigma).
    """
    if not 0.0 < wing_fraction <= 0.4:
        raise ConfigError(f"wing_fraction must be in (0, 0.4], got {wing_fraction}")
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


def _pool_gamma(gamma, sigma_gamma, valid):
    """Inverse-variance weighted mean of gamma over usable bins."""
    usable = valid & np.isfinite(gamma) & np.isfinite(sigma_gamma) & (sigma_gamma > 0.0)
    if not np.any(usable):
        # Noiseless input: every valid bin is exact, plain mean.
        usable = valid & np.isfinite(gamma)
        if not np.any(usable):
            raise NumericalError("no valid bins to pool gamma over")
        return float(np.mean(gamma[usable])), 0.0
    w = 1.0 / sigma_gamma[usable] ** 2
    pooled = float(np.sum(w * gamma[usable]) / np.sum(w))
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

    counts arrays enable Poisson error propagation; without them every
    sigma is zero (exact input).  wing_level feeds the background
    subtraction when background_mode is 'wing_subtract': the flat term is
    separated from the reference level by two fixed-point iterations of
    subtract -> re-estimate gamma.
    """
    if background_mode not in BACKGROUND_MODES:
        raise ConfigError(f"unknown background_mode {background_mode!r}")
    if gamma_mode not in GAMMA_MODES:
        raise ConfigError(f"unknown gamma_mode {gamma_mode!r}")
    tau = np.asarray(tau, dtype=float)
    ys = [np.asarray(v, dtype=float).copy() for v in (y0, y1, y2)]
    for v in ys:
        if v.shape != tau.shape:
            raise ConfigError("rate arrays must match tau in shape")

    have_counts = counts0 is not None and counts1 is not None and counts2 is not None
    if have_counts:
        var_y = np.array(
            [
                np.where(np.asarray(c) > 0, v**2 / np.maximum(c, 1), np.inf)
                for v, c in zip(ys, (counts0, counts1, counts2))
            ]
        )
    else:
        var_y = np.zeros((3,) + tau.shape)

    background = 0.0
    if background_mode == "wing_subtract":
        if wing_level is None:
            raise ConfigError("wing_subtract needs a wing_level estimate")
        b_hat = _estimate_background(ys, var_y, wing_level)
        # Stationarity refinement: after subtracting the right constant,
        # the pooled reference amplitude must reproduce the wing level.
        for _ in range(2):
            trial = [v - b_hat for v in ys]
            re, im, gam, valid = _invert_arrays(*trial)
            sg = _sigma_arrays(_jacobian(*trial), var_y)[2]
            pooled, _ = _pool_gamma(gam, sg, valid)
            b_hat = wing_level - pooled**2
        background = max(b_hat, 0.0)
        ys = [v - background for v in ys]

    re, im, gamma, valid = _invert_arrays(*ys)
    n_bins = tau.size
    if n_bins and (n_bins - int(valid.sum())) > MAX_INVALID_FRACTION * n_bins:
        raise NumericalError(
            f"{n_bins - int(valid.sum())} of {n_bins} bins failed to invert"
        )

    if have_counts:
        sigma_re, sigma_im, sigma_gamma, cov_re_im = _sigma_arrays(_jacobian(*ys), var_y)
    else:
        sigma_re, sigma_im, sigma_gamma, cov_re_im = np.zeros((4, n_bins))

    pooled_gamma = None
    pooled_sigma = None
    if gamma_mode == "pooled":
        pooled_gamma, pooled_sigma = _pool_gamma(gamma, sigma_gamma, valid)
        if pooled_gamma <= 0.0:
            raise NumericalError("pooled gamma is not positive")
        num_re, num_im = _numerators(*ys)
        re = np.where(valid, num_re / (2.0 * pooled_gamma), np.nan)
        im = np.where(valid, num_im / (2.0 * pooled_gamma), np.nan)
        gamma = np.where(valid, pooled_gamma, np.nan)
        # The numerators are linear in the rates, so the propagation is
        # exact with the pooled gamma held fixed (its own error is
        # negligible after pooling).
        J = np.zeros((3, 3))
        J[:2] = _NUM_GRAD / (2.0 * pooled_gamma)
        sigma_re, sigma_im, _, cov_re_im = _sigma_arrays(J, var_y)
        sigma_gamma = np.full(n_bins, pooled_sigma)

    return ReconstructedTpwf(
        tau=tau,
        re_psi=re,
        im_psi=im,
        gamma=gamma,
        sigma_re=sigma_re,
        sigma_im=sigma_im,
        sigma_gamma=sigma_gamma,
        valid=valid,
        cov_re_im=cov_re_im,
        background=background,
        background_mode=background_mode,
        gamma_mode=gamma_mode,
        pooled_gamma=pooled_gamma,
        pooled_sigma_gamma=pooled_sigma,
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
    y0, y1, y2 = ys
    ybar = (y0 + y1 + y2) / 3.0
    num_re, num_im = _numerators(y0, y1, y2)
    # Weight by the ybar error, Var(ybar) = sum(var_y) / 9, and debias the
    # quadratic by (Var num_re + Var num_im) / 4, which is the same sum / 9.
    var_m = var_y.sum(axis=0) / 9.0
    c = (num_re**2 + num_im**2) / 4.0 - var_m
    w = np.where(var_m > 0.0, 1.0 / np.where(var_m > 0.0, var_m, 1.0), 0.0)
    if not np.any(w > 0.0):
        w = np.ones_like(ybar)
    # A zero-count bin has infinite variance: weight 0 and c = -inf, whose
    # product would turn every sum into NaN.  Leave such bins out.
    used = w > 0.0
    w, c, ybar = w[used], c[used], ybar[used]
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
    normalized = [normalize_g2(h) for h in hists]
    wing_level = None
    if background_mode == "wing_subtract":
        levels = [background_estimate(h, wing_fraction)[0] for h in hists]
        wing_level = float(np.mean(levels))
    recon = reconstruct_values(
        tau=hists[0].bin_centers(),
        y0=normalized[0][0],
        y1=normalized[1][0],
        y2=normalized[2][0],
        counts0=hists[0].counts,
        counts1=hists[1].counts,
        counts2=hists[2].counts,
        background_mode=background_mode,
        gamma_mode=gamma_mode,
        wing_level=wing_level,
    )
    recon.meta["acquisition_time"] = hists[0].acquisition_time
    return recon
