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

The envelope is fitted by Levenberg-Marquardt (Marquardt, J. SIAM 11,
431, 1963) over three reweighting passes.  Each residual evaluation
fills one [J | r | f] buffer, whose [J | r] Gram matrix gives the normal
equations and chi2 together and whose model values f set the next
pass's weights.  A pass after the first starts from the last pass's
[J | r], rescaled row by row to the new weights, without evaluating it
again.  The damped steps, the visibility fit's normal equations and the
covariance of both fits are solved by one unrolled Cholesky
factorization on Python floats (Golub & Van Loan, Matrix Computations,
sec. 4.2): the module makes no LAPACK call.  Each pass stops once the
Gauss-Newton decrement puts the point within its tolerance of the pass's
minimum, set by what the end point feeds: 3e-2 sigma and 1e-2 sigma for
the two passes that only set the next weights, 1e-3 sigma for the last,
the estimate of record (_PASS_TOLS).  Every pass on exact input, and a
pass at a kink of the model, ends when a step improves chi2 by at most
1e-12 of it, which is also every pass's second exit.  The results agree
with running every pass to that chi2 rule within 5e-3 sigma.

All three fits weight by reconstruct._weighted: points of finite variance
count, with unit weights and sigma 0 if all of those are 0 (exact input),
otherwise only the points of positive variance count.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .reconstruct import ReconstructedTpwf, _weighted

__all__ = [
    "FitResult",
    "fit_double_exponential",
    "fit_constant_phase",
    "fit_visibility",
]

_MAX_ITER = 200
_CHI2_FTOL = 1e-12
# The Gauss-Newton decrement tolerance, in sigma, of each reweighting
# pass, set by what its end point feeds (see fit_double_exponential).
_PASS_TOLS = (3e-2, 1e-2, 1e-3)
# A Cholesky pivot of the normal matrix below this share of its diagonal
# entry is rounding: 1e-13 or less where sparse fits end on a flat
# direction, 0.22 or more in 1,600 fits at the shipped and calibration
# configs (seeds 100-299).  About sqrt(eps) sits in that gap.
_MIN_RELATIVE_PIVOT = 1e-8


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


def _check_fix_corr_time(fix_corr_time):
    """The fix_corr_time rule: None (the fit frees Tc), or finite and > 0."""
    if fix_corr_time is not None and not 0.0 < fix_corr_time < math.inf:
        raise ConfigError(f"fix_corr_time must be None or finite and > 0, got {fix_corr_time}")


def _check_weight_threshold(weight_threshold):
    if not 0.0 <= weight_threshold < 1.0:
        raise ConfigError(f"weight_threshold must lie in [0, 1), got {weight_threshold}")


def _cholesky(a, shift):
    """The lower Cholesky factor of a + diag(shift), for a symmetric k x k
    matrix a, k <= 3, given as a list of k rows of which only the lower
    triangle is read.  Unrolled on Python floats: at k <= 3 a LAPACK call
    costs more than its arithmetic.  A k < 3 matrix is the leading block
    of the 3 x 3 one padded with the unit matrix, so the factor is always
    the six floats (d0, l10, d1, l20, l21, d2) of
    L = [[d0, 0, 0], [l10, d1, 0], [l20, l21, d2]].  None if the matrix is
    not positive definite."""
    k = len(shift)
    s = a[0][0] + shift[0]
    if not s > 0.0:
        return None
    d0 = math.sqrt(s)
    if k == 1:
        return d0, 0.0, 1.0, 0.0, 0.0, 1.0
    row = a[1]
    l10 = row[0] / d0
    s = row[1] + shift[1] - l10 * l10
    if not s > 0.0:
        return None
    d1 = math.sqrt(s)
    if k == 2:
        return d0, l10, d1, 0.0, 0.0, 1.0
    row = a[2]
    l20 = row[0] / d0
    l21 = (row[1] - l20 * l10) / d1
    s = row[2] + shift[2] - l20 * l20 - l21 * l21
    if not s > 0.0:
        return None
    return d0, l10, d1, l20, l21, math.sqrt(s)


def _cholesky_solve(a, shift, b):
    """Solve (a + diag(shift)) x = b by the _cholesky factor L, forward
    (z = L^-1 b) and back.  Returns (x, zz) with
    zz = z.z = b^T (a + diag(shift))^-1 b, or None if the matrix is not
    positive definite.  The padding rows add exact zeros, so x and zz
    are, bit for bit, those of the k x k factorization."""
    L = _cholesky(a, shift)
    if L is None:
        return None
    d0, l10, d1, l20, l21, d2 = L
    k = len(b)
    z0 = b[0] / d0
    z1 = (b[1] - l10 * z0) / d1 if k > 1 else 0.0
    z2 = (b[2] - l20 * z0 - l21 * z1) / d2 if k > 2 else 0.0
    x2 = z2 / d2
    x1 = (z1 - l21 * x2) / d1
    x0 = (z0 - l20 * x2 - l10 * x1) / d0
    return [x0, x1, x2][:k], z0 * z0 + z1 * z1 + z2 * z2


def _gram(M, k):
    """[[A | g], [g^T | chi2]] of the [J | r] columns of M, as lists."""
    Mr = M[:, : k + 1]
    return Mr.T.dot(Mr).tolist()


def _levenberg(residual_jac, p0, feasible=None, tol=0.0, M=None):
    """Damped Gauss-Newton minimization of sum(r^2).

    residual_jac(p) returns one (n, k + 1 + m) array M = [J | r | ...]
    with J[i, j] = dr_i/dp_j, so that one Gram matrix of its first k + 1
    columns gives the normal matrix A = J^T J, the gradient g = J^T r and
    chi2 together; any m further columns ride along untouched.  The
    damped system (A + lam D) delta = -g, D = diag(A), is solved by
    Cholesky.  The pass starts from M when it is given (M at p0, not
    evaluated again), otherwise from residual_jac(p0).

    A pass ends when the Gauss-Newton decrement g^T (A + lam D)^-1 g
    (1 + lam), read off the first solve of an iteration while
    lam <= 1e-3, falls below tol^2: for residuals in sigma units it is
    the squared distance to the minimum, in sigma.  It also ends when a
    step improves chi2 by at most _CHI2_FTOL * chi2, the only rule left
    at tol = 0; at a kink of the model the decrement never falls.  A
    trial step to a point where feasible(p) is false is rejected, like
    an uphill one, without evaluating residual_jac there.  Returns
    (p, A, chi2, converged, message, M), with A (a list of k rows) and M
    at p.
    """
    p = [float(v) for v in p0]
    k = len(p)
    if M is None:
        M = residual_jac(p)
    G = _gram(M, k)
    chi2 = G[k][k]
    lam = 1e-3
    converged = False
    message = "iteration budget exhausted"
    for _ in range(_MAX_ITER):
        A = G[:k]
        if not all(map(math.isfinite, itertools.chain.from_iterable(A))):
            message = "non-finite normal equations"
            break
        minus_g = [-row[k] for row in A]
        damping = [max(row[i], 1e-300) for i, row in enumerate(A)]
        stepped = False
        first_solve = True
        for _ in range(25):
            solved = _cholesky_solve(A, [lam * d for d in damping], minus_g)
            if solved is None:
                lam *= 10.0
                continue
            delta, zz = solved
            if first_solve:
                first_solve = False
                if lam <= 1e-3 and zz * (1.0 + lam) < tol * tol:
                    converged = True
                    message = "Gauss-Newton decrement below tolerance"
                    break
            p_new = list(map(operator.add, p, delta))
            if feasible is not None and not feasible(p_new):
                lam *= 10.0
                continue
            M_new = residual_jac(p_new)
            G_new = _gram(M_new, k)
            chi2_new = G_new[k][k]
            if math.isfinite(chi2_new) and chi2_new <= chi2:
                improvement = chi2 - chi2_new
                p, M, G, chi2 = p_new, M_new, G_new, chi2_new
                lam = max(lam / 3.0, 1e-12)
                stepped = True
                if improvement <= _CHI2_FTOL * max(chi2, 1e-300) + 1e-300:
                    converged = True
                    message = "chi2 converged"
                break
            lam *= 10.0
        if converged:
            break
        if not stepped:
            converged = True
            message = "no downhill step found (at a minimum)"
            break
    return np.array(p), [row[:k] for row in G[:k]], chi2, converged, message, M


def _covariance(A, exact=False):
    """The parameter covariance inv(A), as L^-T L^-1 from the _cholesky
    factor L of the normal matrix A (a list of k rows), 0 on exact input;
    None if a finite A is singular, or numerically so: a pivot below
    _MIN_RELATIVE_PIVOT of its diagonal entry.  A non-finite A gives NaN."""
    k = len(A)
    L = _cholesky(A, (0.0,) * k)
    if L is None or any(d * d < _MIN_RELATIVE_PIVOT * A[i][i]  # d0, d1, d2 of L
                        for i, d in enumerate((L[0], L[2], L[5])[:k])):
        if all(map(math.isfinite, itertools.chain.from_iterable(A))):
            return None
        return np.full((k, k), np.nan)
    if exact:
        return np.zeros((k, k))
    d0, l10, d1, l20, l21, d2 = L
    # The rows of L^-1, lower triangular.
    m00, m11, m22 = 1.0 / d0, 1.0 / d1, 1.0 / d2
    m10 = -l10 * m00 / d1
    m21 = -l21 * m11 / d2
    m20 = -(l20 * m00 + l21 * m10) / d2
    c01 = m10 * m11 + m20 * m21
    c02 = m20 * m22
    c12 = m21 * m22
    cov = np.array([
        [m00 * m00 + m10 * m10 + m20 * m20, c01, c02],
        [c01, m11 * m11 + m21 * m21, c12],
        [c02, c12, m22 * m22],
    ])
    return cov[:k, :k]


class _PowerData:
    """Debiased |psi|^2 samples on the bins the envelope fit uses, with
    model-point variance evaluation.

    The squared modulus of a noisy complex estimate is biased up by
    tr(C); subtracting it debiases the sample.  Its Gaussian variance
    4 m^T C m + 2 tr(C^2) depends on the true mean m, so weights are
    re-evaluated at the fitted model (measured values on the first pass):
    weights taken at the measured point would systematically favor
    downward fluctuations and narrow the fitted envelope.

    The bins used are the valid ones whose variance at the measured
    point, var0, _weighted uses; a bin with a non-finite value or
    (co)variance has a non-finite var0, so that one rule drops it too.
    tau, q and var0 hold the used bins, and exact is _weighted's flag.
    """

    def __init__(self, recon: ReconstructedTpwf):
        re = recon.re_psi
        im = recon.im_psi
        var_re = recon.sigma_re**2
        var_im = recon.sigma_im**2
        cov = recon.cov_re_im
        # Unit direction of the measured psi; where the modulus vanishes
        # the directional variance term vanishes with it, so any unit
        # vector works.
        p = np.hypot(re, im)
        nonzero = p > 0.0
        cos_t = np.divide(re, p, out=np.full(p.shape, math.sqrt(0.5)), where=nonzero)
        sin_t = np.divide(im, p, out=np.full(p.shape, math.sqrt(0.5)), where=nonzero)
        # A bin that is dropped may form inf * 0 or inf - inf here.
        with np.errstate(invalid="ignore"):
            q = re**2 + im**2 - (var_re + var_im)
            four_dir = cos_t**2 * var_re + 2.0 * cos_t * sin_t * cov + sin_t**2 * var_im
            four_dir *= 4.0  # 4 * directional, kept for variance_at
            var_floor = 2.0 * (var_re**2 + var_im**2 + 2.0 * cov**2)
            var0 = self._variance(q, four_dir, var_floor)
        used, self.exact = _weighted(np.where(recon.valid, var0, np.nan))
        self.tau = recon.tau[used]
        self.q = q[used]
        self.var0 = var0[used]
        self.four_dir = four_dir[used]
        self.var_floor = var_floor[used]

    @staticmethod
    def _variance(power, four_dir, var_floor):
        # 4 * max(power, 0) * directional + var_floor, bit for bit: the
        # factor 4 is exact in either product.
        var = np.maximum(power, 0.0)
        var *= four_dir
        var += var_floor
        return var

    def variance_at(self, power):
        """Var(q) with the mean vector set to the given |psi|^2 along the
        measured direction, as a new array."""
        return self._variance(power, self.four_dir, self.var_floor)


def _envelope_residual_jac(tau, y, w, fixed_tc=None):
    """residual_jac for _levenberg: the weighted residuals r of
    A^2 * exp(-2|tau - tau0| / Tc) against y and their Jacobian J, at
    p = (A, tau0, Tc), or at p = (A, tau0) with Tc = fixed_tc, filled
    into one column-major buffer [J | r | f] with the model values f.

    The columns are built in place, from |u| and the model values
    computed once.  Each is the product f * (2 sign(u) / Tc) * w, and so
    on, evaluated left to right (up to swapping two factors, or taking
    sign(u) * (2 / Tc) for (2 sign(u)) / Tc, which are exact), so every
    value is that of the plain expression bit for bit."""
    k = 3 if fixed_tc is None else 2
    # Doubling is exact, so 2*tau - 2*tau0 is 2*(tau - tau0) bit for bit.
    two_tau = 2.0 * tau

    def residual_jac(p):
        a, t_off = p[0], p[1]
        tc = p[2] if k == 3 else fixed_tc
        M = np.empty((tau.size, k + 2), order="F")
        two_u = two_tau - 2.0 * t_off
        two_abs_u = np.abs(two_u)
        # x / -tc is -(x / tc) exactly.
        env = np.divide(two_abs_u, -tc)
        np.exp(env, out=env)
        f = np.multiply(a * a, env, out=M[:, k + 1])
        r = np.subtract(f, y, out=M[:, k])
        r *= w
        env *= 2.0 * a
        np.multiply(env, w, out=M[:, 0])
        slope = np.sign(two_u, out=two_u)
        slope *= 2.0 / tc
        slope *= f
        np.multiply(slope, w, out=M[:, 1])
        if k == 3:
            two_abs_u /= tc**2
            two_abs_u *= f
            np.multiply(two_abs_u, w, out=M[:, 2])
        return M

    return residual_jac


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

    Each pass ends at the Gauss-Newton decrement tolerance _PASS_TOLS,
    in sigma of its own weights, or by the chi2 rule.  Moves below are
    against ending passes 1-2 at 1e-2 and pass 3 by the chi2 rule, over
    seeds 1-1000 at the 10 s and 100 s configs, both gamma modes, Tc
    free and fixed (8,000 fits):
    - pass 1, 3e-2: its end point only weights pass 2.  The largest move
      was 1.2e-3 sigma.  At 1e-1 it was 2.2e-3 sigma, and one fit (10 s,
      Tc fixed) settled at another local minimum of chi2 in tau0, 1.8
      sigma away.
    - pass 2, 1e-2: its end point weights pass 3; at 2e-2 the largest
      move was 2.9e-3 sigma.
    - pass 3, 1e-3: the estimate of record, 5 times inside the 5e-3
      sigma agreement with the chi2 rule.  That rule has to evaluate the
      step that no longer improves chi2: at the 100 s config it took
      pass 3 about 4.0 evaluations, the decrement 1.7.
    A pass that ends the reweighting early (the model variance is not
    finite and positive) is the estimate of record and is finished to
    the last tolerance.  Exact input has no sigma units, so its passes
    end by the chi2 rule alone.
    """
    _check_fix_corr_time(fix_corr_time)
    data = _PowerData(recon)
    tau, y, exact = data.tau, data.q, data.exact
    n = y.size
    if n < 8:
        raise DataError(f"need at least 8 valid bins, got {n}")

    q_pos = np.maximum(y, 0.0)
    peak = float(q_pos.max())
    if peak <= 0.0:
        raise NumericalError("no positive signal to fit")
    a0 = math.sqrt(peak)
    q_sum = q_pos.sum()
    t0 = float((q_pos * tau).sum() / q_sum)
    if fix_corr_time is not None:
        tc0 = float(fix_corr_time)
    else:
        second = float((q_pos * (tau - t0) ** 2).sum() / q_sum)
        tc0 = math.sqrt(2.0 * max(second, 1e-30))

    free_tc = fix_corr_time is None
    p0 = [a0, t0, tc0] if free_tc else [a0, t0]

    # A trial Tc <= 0 makes the envelope grow away from tau0, and its
    # exponent overflows; the step is refused before it is evaluated.
    feasible = (lambda p: p[2] > 0.0) if free_tc else None

    def solve(w, p, tol, M):
        residual_jac = _envelope_residual_jac(tau, y, w, None if free_tc else tc0)
        return _levenberg(residual_jac, p, feasible, tol, M)

    w = np.ones_like(y) if exact else 1.0 / np.sqrt(data.var0)
    # Exact input has no sigma units: only the chi2 rule ends its pass.
    tols = (0.0,) * 3 if exact else _PASS_TOLS
    p, M = p0, None
    for i, tol in enumerate(tols):
        p, A, chi2, converged, message, M = solve(w, p, tol, M)
        if i == 2:
            break
        # The model values at p are M's last column.  On exact input the
        # model variance is 0, which ends the passes.  A NaN fails both
        # bounds of the reductions.
        var_model = data.variance_at(M[:, -1])
        if not (var_model.min() > 0.0 and var_model.max() < math.inf):
            if tol > tols[2] and converged:
                # This pass is the last: finish it to the last tolerance.
                p, A, chi2, converged, message, M = solve(w, p, tols[2], M)
            break
        w_next = np.divide(1.0, np.sqrt(var_model, out=var_model), out=var_model)
        # The next pass starts at p from [J | r], reweighted row by row.
        M[:, :-1] *= (w_next / w)[:, np.newaxis]
        w = w_next
    cov = _covariance(A, exact)
    if cov is None:
        cov = np.full((len(A), len(A)), np.nan)
        converged = False
        message = "singular covariance at optimum"

    a_fit = abs(float(p[0]))
    tau0_fit = float(p[1])
    tc_fit = float(p[2]) if free_tc else tc0
    sig = np.sqrt(np.maximum(cov.diagonal(), 0.0))
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
    spacing = float(np.abs(recon.tau[1:] - recon.tau[:-1]).min())
    if not all(math.isfinite(v) for v in (*params.values(), *sigmas.values())):
        converged = False
        message = f"{message}; non-finite parameter or error"
    elif fwhm < spacing:
        converged = False
        message = f"{message}; FWHM {fwhm:.3g} s is below one bin spacing ({spacing:.3g} s)"
    return FitResult(
        params=params,
        sigmas=sigmas,
        chi2=chi2,
        ndof=n - len(A),
        converged=converged,
        message=message,
        n_points=n,
        residuals=M[:, -2],
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
    where the phase is well defined, and never a bin of zero power or
    one whose power squared underflows to 0 (its variance is inf).  The
    circular mean is immune to the +-pi wraparound.  chi2 measures the
    scatter of per-bin phases about the mean, unweighted on exact input
    (whose sigma is 0).
    """
    _check_weight_threshold(weight_threshold)
    re, im = recon.re_psi, recon.im_psi
    power = recon.power()
    usable = recon.valid & np.isfinite(power)
    peak = float(power[usable].max(initial=0.0))
    # The least positive float as a floor keeps out bins of zero power.
    usable &= power >= max(weight_threshold * peak, math.ulp(0.0))
    # The variance on every bin; a bin whose power squared underflows to
    # 0 gets inf or NaN, which the weighting rule leaves out.
    with np.errstate(divide="ignore", invalid="ignore"):
        var_phi = (
            im**2 * recon.sigma_re**2 + re**2 * recon.sigma_im**2 - 2.0 * re * im * recon.cov_re_im
        ) / power**2

    used, exact = _weighted(np.where(usable, var_phi, np.nan))
    if not np.count_nonzero(used):
        raise DataError("no valid bins of nonzero power and usable phase error")
    phases = np.arctan2(im[used], re[used])
    weights = np.ones_like(phases) if exact else 1.0 / var_phi[used]
    sigma_mean = 0.0 if exact else float(1.0 / math.sqrt(weights.sum()))

    c = float((weights * np.cos(phases)).sum())
    s = float((weights * np.sin(phases)).sum())
    if c == 0.0 and s == 0.0:
        raise NumericalError("circular mean undefined: zero resultant")
    mean_phase = math.atan2(s, c)
    dev = _wrap_angle(phases - mean_phase)
    chi2 = float((weights * dev**2).sum())
    n = int(phases.size)
    return FitResult(
        params={"phase": mean_phase},
        sigmas={"phase": sigma_mean},
        chi2=chi2,
        ndof=max(n - 1, 0),
        converged=True,
        message=f"circular mean over {n} bins",
        n_points=n,
        residuals=np.sqrt(weights) * dev,
    )


def fit_visibility(points) -> FitResult:
    """Weighted linear fit of g2(0) versus analyzer phase to
    offset + c*cos(2*phi) + s*sin(2*phi).

    points is a sequence of (phi, g2, sigma).  A non-finite phi or g2,
    and a sigma the weighting rule would leave out (negative, NaN, +-inf,
    or 0 among positive values), is a ConfigError; phases that leave the
    normal matrix singular by the _covariance pivot rule, and g2 / sigma
    so large that the right-hand side, the coefficients or chi2 is not
    finite, are a DataError.
    Reports the offset, the harmonic amplitude |B| and phase, the
    visibility |B|/offset, and the phase locations of the fitted extrema.
    A phase has sigma inf at |B| = 0, and the visibility at |B| = 0 or
    offset <= 0; every other sigma is 0 on exact input.
    """
    phi, y, sig = np.array([(float(p), float(y), float(s)) for p, y, s in points]).reshape(-1, 3).T
    if not (np.isfinite(phi).all() and np.isfinite(y).all()):
        raise ConfigError("phases and g2 values must be finite")

    used, exact = _weighted(sig)
    if not used.all():
        raise ConfigError("sigmas must all be finite and > 0 (or all zero for exact points)")
    w = np.ones_like(y) if exact else 1.0 / sig

    X = np.column_stack([np.ones_like(phi), np.cos(2.0 * phi), np.sin(2.0 * phi)])
    # A large g2 / sigma may overflow; the fit is refused below, without
    # a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        # The Gram matrix of the weighted [X | y] holds A = X^T W X and X^T W y.
        G = _gram(np.column_stack([X, y]) * w[:, np.newaxis], 3)
        A = [row[:3] for row in G[:3]]
        cov = _covariance(A, exact)
        if cov is None or not np.isfinite(cov).all():
            raise DataError("singular normal matrix: analyzer phases are not independent")
        b = [row[3] for row in G[:3]]
        coef, _ = _cholesky_solve(A, (0.0, 0.0, 0.0), b)
        resid = (X @ coef - y) * w
        chi2 = float(resid @ resid)
    if not all(map(math.isfinite, (*b, *coef, chi2))):
        raise DataError("weighted fit is not finite: g2 / sigma is too large")

    offset, c_amp, s_amp = coef
    amplitude = math.hypot(c_amp, s_amp)
    harmonic_phase = math.atan2(s_amp, c_amp)
    # y = offset + R*cos(2*phi - delta): max at delta/2, min a quarter
    # period later; both wrapped into [0, pi).
    phi_max = (harmonic_phase / 2.0) % math.pi
    phi_min = (phi_max + math.pi / 2.0) % math.pi
    visibility = amplitude / offset if offset > 0.0 else math.inf

    def spread(grad):  # the delta-method sigma, grad in (offset, c, s)
        return math.sqrt(max(float(grad @ cov @ grad), 0.0))

    sig_coef = [spread(e) for e in np.eye(3)]
    sigma_amp = math.hypot(sig_coef[1], sig_coef[2])
    sigma_delta = sigma_vis = math.inf
    if amplitude > 0.0:
        # The gradients of R, delta and V = R / offset: u = (0, c, s) / R,
        # (0, -s, c) / R^2 and (u - V e0) / offset.
        u = np.array([0.0, c_amp, s_amp]) / amplitude
        sigma_amp = spread(u)
        sigma_delta = spread(np.array([0.0, -u[2], u[1]]) / amplitude)
        if offset > 0.0:
            sigma_vis = spread((u - [visibility, 0.0, 0.0]) / offset)

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
            "offset": sig_coef[0],
            "cos_amplitude": sig_coef[1],
            "sin_amplitude": sig_coef[2],
            "amplitude": sigma_amp,
            "harmonic_phase": sigma_delta,
            "phi_max": sigma_delta / 2.0,
            "phi_min": sigma_delta / 2.0,
            "visibility": sigma_vis,
        },
        chi2=chi2,
        ndof=phi.size - 3,
        converged=True,
        message=f"linear harmonic fit over {phi.size} points",
        n_points=phi.size,
        residuals=resid,
    )
