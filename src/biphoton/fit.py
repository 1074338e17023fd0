"""Weighted least-squares estimation on reconstructed wave functions:
double-exponential envelope, constant phase, and the 2*phi visibility
sinusoid.

The envelope fit works on |psi|^2 rather than |psi| because its per-bin
counting errors are closest to Gaussian.  The squared modulus of a noisy
complex estimate is biased upward by the error variance, so the fit uses
the debiased quadratic re^2 + im^2 - (var_re + var_im) whose exact
Gaussian variance (including the re/im covariance) supplies the weights;
this keeps the reduced chi-square calibrated out in the wings where the
signal vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .reconstruct import ReconstructedTpwf

__all__ = [
    "FitResult",
    "fit_double_exponential",
    "fit_constant_phase",
    "fit_visibility",
]

_MAX_ITER = 200
_CHI2_FTOL = 1e-12


@dataclass
class FitResult:
    """Converged parameter estimates with 1-sigma errors.

    params and sigmas are keyed by parameter name; derived quantities
    (such as the intensity FWHM) appear alongside the free parameters.
    residuals holds the weighted residual per used point, for plotting.
    """

    params: dict
    sigmas: dict
    chi2: float
    ndof: int
    converged: bool
    residuals: np.ndarray = field(repr=False)
    message: str = ""
    n_points: int = 0

    def __post_init__(self):
        if self.chi2 < 0.0:
            raise NumericalError("chi2 must be >= 0")
        if self.ndof < 0:
            raise NumericalError("fit is underdetermined (negative ndof)")

    @property
    def reduced_chi2(self) -> float:
        return self.chi2 / self.ndof if self.ndof > 0 else math.nan


def _levenberg(residual_jac, p0, scales, feasible=None):
    """Damped Gauss-Newton minimization of sum(r^2).

    residual_jac(p) returns (r, J) with J[i, j] = dr_i/dp_j.  Parameters
    are rescaled to unit order internally.  A trial step to a point where
    feasible(p) is false is rejected, like an uphill one, without
    evaluating residual_jac there.  Returns (p, cov, chi2, converged,
    message, r).
    """
    p = np.asarray(p0, dtype=float).copy()
    scales = np.asarray(scales, dtype=float)
    r, J = residual_jac(p)
    chi2 = float(r @ r)
    lam = 1e-3
    converged = False
    message = "iteration budget exhausted"
    for _ in range(_MAX_ITER):
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
                if improvement <= _CHI2_FTOL * max(chi2, 1e-300) + 1e-300:
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


class _PowerData:
    """Debiased |psi|^2 samples with model-point variance evaluation.

    The squared modulus of a noisy complex estimate is biased up by
    tr(C); subtracting it debiases the sample.  Its Gaussian variance
    4 m^T C m + 2 tr(C^2) depends on the true mean m, so weights are
    re-evaluated at the fitted model (measured values on the first pass):
    weights taken at the measured point would systematically favor
    downward fluctuations and narrow the fitted envelope.
    """

    def __init__(self, recon: ReconstructedTpwf):
        re = recon.re_psi
        im = recon.im_psi
        self.valid = recon.valid & np.isfinite(re) & np.isfinite(im)
        var_re = recon.sigma_re**2
        var_im = recon.sigma_im**2
        cov = recon.cov_re_im
        self.q = re**2 + im**2 - (var_re + var_im)
        # Unit direction of the measured psi; where the modulus vanishes
        # the directional variance term vanishes with it, so any unit
        # vector works.
        p = np.hypot(re, im)
        safe = np.where(p > 0.0, p, 1.0)
        cos_t = np.where(p > 0.0, re / safe, math.sqrt(0.5))
        sin_t = np.where(p > 0.0, im / safe, math.sqrt(0.5))
        # Bins with a non-finite (co)variance are dropped by the fits; NaN
        # in place of inf keeps inf - inf from being formed.
        finite = np.isfinite(var_re) & np.isfinite(var_im) & np.isfinite(cov)
        vr, vi, c = (np.where(finite, v, np.nan) for v in (var_re, var_im, cov))
        self.directional = cos_t**2 * vr + 2.0 * cos_t * sin_t * c + sin_t**2 * vi
        self.var_floor = 2.0 * (var_re**2 + var_im**2 + 2.0 * cov**2)

    def variance_at(self, power, points=slice(None)):
        """Var(q) at the selected points, with the mean vector set to the
        given |psi|^2 along the measured direction."""
        return 4.0 * np.clip(power, 0.0, None) * self.directional[points] + self.var_floor[points]


def fit_double_exponential(
    recon: ReconstructedTpwf,
    fix_corr_time: float | None = None,
) -> FitResult:
    """Fit |psi(tau)|^2 = A^2 * exp(-2|tau - tau0| / Tc) to a reconstruction.

    Fits (A, tau0) with Tc fixed when fix_corr_time is given, otherwise
    all three.  Weights are the inverse variances of the debiased squared
    modulus, re-evaluated at the fitted model over a few reweighting
    passes; invalid bins are ignored.  The kink at tau0 is harmless
    because residuals are evaluated at bin centers only.  Reports the
    intensity FWHM = ln(2) * Tc alongside the parameters.
    """
    data = _PowerData(recon)
    var0 = data.variance_at(data.q)
    usable = data.valid & np.isfinite(data.q)
    noiseless = bool(np.all(var0[usable] == 0.0)) if usable.any() else False
    if not noiseless:
        usable &= np.isfinite(var0) & (var0 > 0.0)
    if int(usable.sum()) < 8:
        raise DataError(f"need at least 8 valid bins, got {int(usable.sum())}")

    tau = recon.tau[usable]
    y = data.q[usable]
    var0 = var0[usable]

    q_pos = np.clip(y, 0.0, None)
    peak = float(q_pos.max())
    if peak <= 0.0:
        raise NumericalError("no positive signal to fit")
    a0 = math.sqrt(peak)
    t0 = float(np.sum(q_pos * tau) / np.sum(q_pos))
    if fix_corr_time is not None:
        if not fix_corr_time > 0.0:
            raise ConfigError("fix_corr_time must be > 0")
        tc0 = float(fix_corr_time)
    else:
        second = float(np.sum(q_pos * (tau - t0) ** 2) / np.sum(q_pos))
        tc0 = math.sqrt(2.0 * max(second, 1e-30))

    free_tc = fix_corr_time is None

    def envelope(p):
        a, t_off = p[0], p[1]
        tc = p[2] if free_tc else tc0
        return a * a * np.exp(-2.0 * np.abs(tau - t_off) / tc)

    def make_residual_jac(w):
        def residual_jac(p):
            a, t_off = p[0], p[1]
            tc = p[2] if free_tc else tc0
            u = tau - t_off
            env = np.exp(-2.0 * np.abs(u) / tc)
            f = a * a * env
            r = (f - y) * w
            cols = [2.0 * a * env * w, a * a * env * (2.0 * np.sign(u) / tc) * w]
            if free_tc:
                cols.append(a * a * env * (2.0 * np.abs(u) / tc**2) * w)
            return r, np.column_stack(cols)

        return residual_jac

    p0 = [a0, t0, tc0] if free_tc else [a0, t0]
    scales = [max(abs(a0), 1e-12), max(tc0, 1e-12)]
    if free_tc:
        scales.append(max(tc0, 1e-12))

    # A trial Tc <= 0 makes the envelope grow away from tau0, and its
    # exponent overflows; the step is refused before it is evaluated.
    feasible = (lambda p: p[2] > 0.0) if free_tc else None

    w = np.ones_like(y) if noiseless else 1.0 / np.sqrt(var0)
    p = np.asarray(p0, dtype=float)
    n_passes = 1 if noiseless else 3
    for i in range(n_passes):
        p, cov, chi2, converged, message, r = _levenberg(
            make_residual_jac(w), p, scales, feasible
        )
        if i == n_passes - 1:
            break
        var_model = data.variance_at(envelope(p), usable)
        if not (np.all(np.isfinite(var_model)) and np.all(var_model > 0.0)):
            break
        w = 1.0 / np.sqrt(var_model)

    a_fit = abs(float(p[0]))
    tau0_fit = float(p[1])
    tc_fit = float(p[2]) if free_tc else tc0
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    sigma_tc = float(sig[2]) if free_tc else 0.0
    fwhm = math.log(2.0) * tc_fit

    params = {
        "amplitude": a_fit,
        "tau_offset": tau0_fit,
        "corr_time": tc_fit,
        "fwhm": fwhm,
    }
    sigmas = {
        "amplitude": float(sig[0]),
        "tau_offset": float(sig[1]),
        "corr_time": sigma_tc,
        "fwhm": math.log(2.0) * sigma_tc,
    }
    # A fit that ends in non-finite numbers, or in an envelope narrower
    # than the bins that sample it, has not found the wave function.
    # The finest spacing, not np.median: with NumPy 2.4 on an AVX-512
    # x86-64 CPU, complex exp calls made after np.median ran about 3x
    # slower, and the many-seed calibration loop 25-30% slower.
    spacing = float(np.min(np.abs(np.diff(recon.tau))))
    if not all(math.isfinite(v) for v in (*params.values(), *sigmas.values())):
        converged = False
        message = f"{message}; non-finite parameter or error"
    elif fwhm < spacing:
        converged = False
        message = f"{message}; FWHM {fwhm:.3g} s is below one bin spacing ({spacing:.3g} s)"
    n = int(usable.sum())
    n_free = 3 if free_tc else 2
    return FitResult(
        params=params,
        sigmas=sigmas,
        chi2=chi2,
        ndof=n - n_free,
        converged=converged,
        message=message,
        n_points=n,
        residuals=r,
    )


def _wrap_angle(a):
    """Wrap to (-pi, pi]."""
    return np.arctan2(np.sin(a), np.cos(a))


def fit_constant_phase(
    recon: ReconstructedTpwf,
    weight_threshold: float = 0.1,
) -> FitResult:
    """Inverse-variance weighted circular mean of arg(psi).

    Uses only bins whose |psi|^2 exceeds weight_threshold times the peak,
    where the phase is well defined.  The circular mean is immune to the
    +-pi wraparound.  chi2 measures the scatter of per-bin phases about
    the mean.
    """
    if not 0.0 <= weight_threshold < 1.0:
        raise ConfigError("weight_threshold must lie in [0, 1)")
    power = recon.power()
    usable = recon.valid & np.isfinite(power)
    if not usable.any():
        raise DataError("no valid bins for the phase fit")
    peak = float(np.nanmax(power[usable]))
    usable &= power >= weight_threshold * peak
    if not usable.any():
        raise DataError("no bins above the phase weight threshold")

    re = recon.re_psi[usable]
    im = recon.im_psi[usable]
    cov = recon.cov_re_im[usable]
    p2 = re**2 + im**2
    var_phi = (
        im**2 * recon.sigma_re[usable] ** 2
        + re**2 * recon.sigma_im[usable] ** 2
        - 2.0 * re * im * cov
    ) / p2**2

    phases = np.arctan2(im, re)
    finite = np.isfinite(var_phi)
    if not finite.any():
        raise DataError("no bins with finite phase errors")
    if np.all(var_phi[finite] == 0.0):
        weights = np.ones_like(phases)
        sigma_mean = 0.0
    else:
        keep = finite & (var_phi > 0.0)
        phases = phases[keep]
        var_phi = var_phi[keep]
        if phases.size == 0:
            raise DataError("no bins with usable phase errors")
        weights = 1.0 / var_phi
        sigma_mean = float(1.0 / math.sqrt(weights.sum()))

    c = float(np.sum(weights * np.cos(phases)))
    s = float(np.sum(weights * np.sin(phases)))
    if c == 0.0 and s == 0.0:
        raise NumericalError("circular mean undefined: zero resultant")
    mean_phase = math.atan2(s, c)
    dev = _wrap_angle(phases - mean_phase)
    chi2 = float(np.sum(weights * dev**2)) if sigma_mean > 0.0 else 0.0
    n = int(phases.size)
    return FitResult(
        params={"phase": mean_phase},
        sigmas={"phase": sigma_mean},
        chi2=chi2,
        ndof=max(n - 1, 0),
        converged=True,
        message=f"circular mean over {n} bins",
        n_points=n,
        residuals=np.sqrt(weights) * dev if sigma_mean > 0.0 else dev,
    )


def fit_visibility(points) -> FitResult:
    """Weighted linear fit of g2(0) versus analyzer phase to
    offset + c*cos(2*phi) + s*sin(2*phi).

    points is a sequence of (phi, g2, sigma).  Reports the offset, the
    harmonic amplitude |B| and phase, the visibility |B|/offset, and the
    phase locations of the fitted extrema.
    """
    pts = [(float(p), float(y), float(s)) for p, y, s in points]
    if len({round(p % math.pi, 12) for p, _, _ in pts}) < 3:
        raise DataError("need at least 3 distinct analyzer phases")
    phi = np.array([p for p, _, _ in pts])
    y = np.array([v for _, v, _ in pts])
    sig = np.array([s for _, _, s in pts])

    if np.all(sig == 0.0):
        w = np.ones_like(y)
    elif np.any(sig <= 0.0):
        raise ConfigError("sigmas must all be positive (or all zero for exact points)")
    else:
        w = 1.0 / sig

    X = np.column_stack([np.ones_like(phi), np.cos(2.0 * phi), np.sin(2.0 * phi)])
    Xw = X * w[:, np.newaxis]
    yw = y * w
    A = Xw.T @ Xw
    if np.linalg.cond(A) > 1e12:
        raise DataError("degenerate design matrix: analyzer phases are not independent")
    coef = np.linalg.solve(A, Xw.T @ yw)
    cov = np.linalg.inv(A)
    resid = (X @ coef - y) * w
    chi2 = float(resid @ resid)

    offset, c_amp, s_amp = (float(v) for v in coef)
    amplitude = math.hypot(c_amp, s_amp)
    harmonic_phase = math.atan2(s_amp, c_amp)
    # y = offset + R*cos(2*phi - delta): max at delta/2, min a quarter
    # period later; both wrapped into [0, pi).
    phi_max = (harmonic_phase / 2.0) % math.pi
    phi_min = (phi_max + math.pi / 2.0) % math.pi
    visibility = amplitude / offset if offset > 0.0 else math.inf

    sig_diag = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    if amplitude > 0.0:
        grad_amp = np.array([0.0, c_amp / amplitude, s_amp / amplitude])
        sigma_amp = float(math.sqrt(max(grad_amp @ cov @ grad_amp, 0.0)))
        grad_delta = np.array([0.0, -s_amp / amplitude**2, c_amp / amplitude**2])
        sigma_delta = float(math.sqrt(max(grad_delta @ cov @ grad_delta, 0.0)))
        grad_vis = np.array(
            [-amplitude / offset**2, c_amp / (amplitude * offset), s_amp / (amplitude * offset)]
        )
        sigma_vis = float(math.sqrt(max(grad_vis @ cov @ grad_vis, 0.0)))
    else:
        sigma_amp = float(math.hypot(sig_diag[1], sig_diag[2]))
        sigma_delta = math.inf
        sigma_vis = math.inf

    return FitResult(
        params={
            "offset": offset,
            "cos_amplitude": c_amp,
            "sin_amplitude": s_amp,
            "amplitude": amplitude,
            "harmonic_phase": harmonic_phase,
            "phi_max": phi_max,
            "phi_min": phi_min,
            "visibility": visibility,
        },
        sigmas={
            "offset": float(sig_diag[0]),
            "cos_amplitude": float(sig_diag[1]),
            "sin_amplitude": float(sig_diag[2]),
            "amplitude": sigma_amp,
            "harmonic_phase": sigma_delta,
            "phi_max": sigma_delta / 2.0,
            "phi_min": sigma_delta / 2.0,
            "visibility": sigma_vis,
        },
        chi2=chi2,
        ndof=max(len(pts) - 3, 0),
        converged=True,
        message=f"linear harmonic fit over {len(pts)} points",
        n_points=len(pts),
        residuals=resid,
    )
