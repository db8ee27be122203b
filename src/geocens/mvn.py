"""Multivariate normal primitives.

Log-density, rectangle probabilities, Gibbs sampling from box-truncated
normals, and Monte Carlo truncated moments.  Rectangle probabilities are
estimated in log space by minimax exponential tilting of the
separation-of-variables integrand (Botev 2017), which reports the relative
error of the probability and stays finite where the probability itself
underflows.  Both they and the Gibbs sampler draw a truncated normal by one
log-space inverse CDF (``log_ndtr``, ``ndtri_exp``) on the interval
mirrored to lie mostly below 0, exact in both tails.  All sampling is driven by an explicit
:class:`RngState` (PCG64) so that identical seeds reproduce identical
streams bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri_exp

from .covariance import _cholesky_inverse, spd_cholesky
from .errors import ConfigurationError, DataValidationError

_U_MIN = 5e-324  # smallest positive double, read for a zero uniform
_LOG_2PI = np.log(2.0 * np.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_BATCH = 1_000  # sample points per batch of the rectangle probability
_TILT_TOL = 1e-10  # max |grad psi| at which the tilting solve has converged
_TILT_MAX_ITER = 50


class RngState:
    """Seeded random stream (numpy PCG64 behind a ``Generator``).

    The ``seed`` fully determines the stream.  ``spawn`` derives independent
    child streams deterministically, for callers that parallelize work.
    """

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._ss = seed
            self.seed = seed.entropy
        else:
            self.seed = int(seed)
            self._ss = np.random.SeedSequence(self.seed)
        self.generator = np.random.Generator(np.random.PCG64(self._ss))

    def spawn(self, n: int) -> list["RngState"]:
        return [RngState(child) for child in self._ss.spawn(n)]


def as_generator(rng) -> np.random.Generator:
    """Accept an RngState, Generator, or integer seed."""
    if rng is None:
        raise ConfigurationError("no random seed given: pass rng (a seed, RngState or Generator)")
    if isinstance(rng, RngState):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.Generator(np.random.PCG64(int(rng)))


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box ``lower <= x <= upper`` with +-inf allowed."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape:
            raise DataValidationError("rectangle bounds must have equal length")
        if not np.all(lower < upper):
            raise DataValidationError("rectangle requires lower < upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


def logpdf_from_cholesky(lo: np.ndarray, w: np.ndarray) -> float:
    """Gaussian log density from the lower Cholesky factor ``lo`` of the
    covariance and the whitened residual ``w = lo^{-1} (x - mean)``."""
    logdet = 2.0 * np.sum(np.log(np.diag(lo)))
    return float(-0.5 * (w.shape[0] * _LOG_2PI + logdet + w @ w))


def _trunc_std_ppf(u: float, a: float, b: float) -> float:
    """Quantile of a standard normal truncated to ``[a, b]``, on Python floats:
    ``ndtri_exp(log Phi(b) + log(u + (1 - u) Phi(a) / Phi(b)))`` on the interval
    mirrored as by :func:`_mirror` (at ``1 - u``), exact in both tails.  On a
    left-open interval a zero ``u`` reads as the smallest positive double, so
    every draw is finite."""
    flip = b > -a
    if flip:
        u, a, b = 1.0 - u, -b, -a
    lb = float(log_ndtr(b))
    if a == -math.inf:
        x = float(ndtri_exp(lb + math.log(u or _U_MIN)))
    else:
        la = float(log_ndtr(a))
        p = u + (1.0 - u) * math.exp(la - lb)  # 0 only if u = 0 and Phi(a) / Phi(b) underflows
        x = float(ndtri_exp(lb + math.log(p) if p else la))
        x = a if x < a else x
    x = b if x > b else x
    return -x if flip else x


def tmvn_gibbs(
    mean,
    cov,
    rect: Rectangle,
    n_samples: int,
    burn_in: int = 20,
    thin: int = 1,
    *,
    rng,
    start=None,
) -> np.ndarray:
    """Coordinate-wise Gibbs sampler for ``N(mean, cov)`` truncated to ``rect``.

    Each full conditional is a univariate truncated normal sampled by its
    log-space inverse CDF (:func:`_trunc_std_ppf`), finite for every
    uniform, 0 included; so the draw count is fixed and the output is a
    deterministic function of ``rng``.  Returns an ``(n_samples, n)``
    array; every row lies inside the rectangle.

    The uniforms are drawn one sweep (``n`` doubles) per generator call:
    for PCG64 that is the stream, and the state after the call, of one
    draw per coordinate update, so the samples do not depend on it.

    ``start`` optionally sets the initial chain state (defaults to the mean
    clipped into the rectangle), which lets callers persist the chain across
    repeated invocations.
    """
    lam = _cholesky_inverse(spd_cholesky(np.atleast_2d(np.asarray(cov, dtype=float))))
    return _gibbs_sweeps(mean, lam, rect, n_samples, burn_in, thin, rng=rng, start=start)


def _gibbs_sweeps(mean, lam, rect, n_samples, burn_in, thin, *, rng, start=None):
    """:func:`tmvn_gibbs` on the precision matrix ``lam`` of the law."""
    gen = as_generator(rng)
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    n = mean.shape[0]
    if rect.dim != n:
        raise DataValidationError("rectangle dimension does not match mean")
    lower, upper = rect.lower, rect.upper

    rows, lam_ii = list(lam), np.diag(lam).tolist()
    cond_sd = (1.0 / np.sqrt(np.diag(lam))).tolist()
    mean_s, lower_s, upper_s = mean.tolist(), lower.tolist(), upper.tolist()

    if start is None:
        x = np.clip(mean, lower, upper)
    else:
        x = np.clip(np.asarray(start, dtype=float).copy(), lower, upper)
    # residual x - mean: a vector for the dot products, floats for reading
    d = x - mean
    x, d_s = x.tolist(), d.tolist()

    out = np.empty((n_samples, n))
    kept = 0
    sweep = 0
    while kept < n_samples:
        sweep += 1
        for i, u in enumerate(gen.random(n).tolist()):
            r = float(np.dot(rows[i], d)) - lam_ii[i] * d_s[i]
            m_i = mean_s[i] - r / lam_ii[i]
            a = (lower_s[i] - m_i) / cond_sd[i]
            b = (upper_s[i] - m_i) / cond_sd[i]
            x_i = m_i + cond_sd[i] * _trunc_std_ppf(u, a, b)
            if x_i < lower_s[i]:
                x_i = lower_s[i]
            elif x_i > upper_s[i]:
                x_i = upper_s[i]
            x[i] = x_i
            d[i] = d_s[i] = x_i - mean_s[i]
        if sweep > burn_in and (sweep - burn_in) % thin == 0:
            out[kept] = x
            kept += 1
    return out


def tmvn_moments(
    mean,
    cov,
    rect: Rectangle,
    n_samples: int,
    rng,
    burn_in: int = 100,
    thin: int = 1,
    start=None,
):
    """Monte Carlo first and second moments of a truncated normal.

    Returns ``(m1, m2)`` where ``m1`` approximates ``E[Z]`` and ``m2``
    approximates the uncentered ``E[Z Z^T]`` (symmetrized).
    """
    samples = tmvn_gibbs(
        mean, cov, rect, n_samples, burn_in=burn_in, thin=thin, rng=rng, start=start
    )
    m1 = samples.mean(axis=0)
    m2 = samples.T @ samples / n_samples
    m2 = 0.5 * (m2 + m2.T)
    return m1, m2


@dataclass(frozen=True)
class RectProb:
    """Rectangle probability estimate, held on the log scale.

    ``log_prob`` estimates ``log P`` and ``log_prob_se`` is its Monte Carlo
    standard error, which is also the relative standard error of ``P``
    (delta method).  ``prob`` is ``exp(log_prob)`` (for one coordinate,
    the closed form ``Phi(b) - Phi(a)``) and ``se`` its standard error;
    both read 0 once ``P`` is below the smallest double (about 1e-308),
    where ``log_prob`` stays finite.  ``n_points`` counts the sample points
    and ``hit_cap`` is set when the point cap, not the tolerance, stopped
    the estimate.
    """

    log_prob: float
    log_prob_se: float
    n_points: int
    hit_cap: bool = False
    prob: Optional[float] = None

    def __post_init__(self):
        if self.prob is None:
            object.__setattr__(self, "prob", math.exp(self.log_prob))

    @property
    def se(self) -> float:
        return self.prob * self.log_prob_se

    def __float__(self) -> float:
        return self.prob


def _ordered_cholesky(corr: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Cholesky factor with the Genz variable ordering.

    Variables are permuted so that the most restrictive coordinate is
    integrated first (smallest conditional probability given truncated
    expected values of earlier coordinates), which stabilizes the
    separation-of-variables integrand.  The probabilities are compared,
    and the truncated means formed, in log space: in the far tail every
    ``Phi(b) - Phi(a)`` underflows to 0, its log does not.  The ordering is
    a deterministic function of the problem, so permuting the input
    reproduces the same internal order.

    Each remaining variable's conditional variance and shift (its
    conditional mean given the truncated expected values of the variables
    already placed) are kept as running vectors and updated once per pivot
    (Genz 1992).
    """
    n = corr.shape[0]
    c = corr.copy()
    a = lower.copy()
    b = upper.copy()
    ell = np.zeros((n, n))
    var = np.diag(corr).copy()
    shift = np.zeros(n)
    eps = 1e-12
    for i in range(n):
        sd = np.sqrt(np.maximum(var[i:], eps))
        lo, hi = (a[i:] - shift[i:]) / sd, (b[i:] - shift[i:]) / sd
        lp = _log_ndtr_diff(lo, hi)
        k = int(np.argmin(lp))
        j = i + k
        if j != i:
            for v in (a, b, var, shift):
                v[[i, j]] = v[[j, i]]
            c[[i, j]] = c[[j, i]]
            c[:, [i, j]] = c[:, [j, i]]
            ell[[i, j], :i] = ell[[j, i], :i]
        ell[i, i] = sd[k]
        col = (c[i + 1:, i] - ell[i + 1:, :i] @ ell[i, :i]) / ell[i, i]
        ell[i + 1:, i] = col
        # truncated mean phi(a)/P - phi(b)/P of the pivot, each ratio taken
        # in log space (phi is 0 at an infinite bound)
        ai, bi, lp_i = lo[k], hi[k], lp[k] + 0.5 * _LOG_2PI
        y_i = math.exp(-0.5 * ai * ai - lp_i) - math.exp(-0.5 * bi * bi - lp_i)
        var[i + 1:] -= col * col
        shift[i + 1:] += col * y_i
    return ell, a, b


def _mirror(a, b):
    """Mirror each interval ``[a, b]`` with ``a + b > 0`` to ``[-b, -a]``, so
    that it lies mostly below 0, where the normal CDF does not cancel.
    Returns the mask and the mirrored bounds."""
    flip = b > -a  # a + b > 0, with no inf - inf
    return flip, np.where(flip, -b, a), np.where(flip, -a, b)


def _log_ndtr_diff(a, b):
    """``log(Phi(b) - Phi(a))`` elementwise for ``a < b``, without
    cancellation in either tail; exact 0 and 1 at infinite bounds."""
    _, lo, hi = _mirror(a, b)
    la, lb = log_ndtr(lo), log_ndtr(hi)
    return lb + np.log(-np.expm1(la - lb))


def _psi_gradient(y, ls, low, high):
    """Gradient of Botev's ``psi(x, mu)`` at ``y = (x, mu)`` (each of
    length ``n - 1``; ``x_n`` and ``mu_n`` are 0), and the pieces of its
    Jacobian: ``dp``, the derivative of the truncated normal mean shift
    ``p_k`` in its location.  ``ls`` is the ordered Cholesky factor with
    unit diagonal, stored strictly lower; ``low`` and ``high`` are the
    bounds in its scale."""
    m = low.size - 1
    x = np.append(y[:m], 0.0)
    mu = np.append(y[m:], 0.0)
    t = ls @ x + mu
    a, b = low - t, high - t
    lp = _log_ndtr_diff(a, b)
    pa = np.exp(-0.5 * a * a - lp) / _SQRT_2PI  # 0 at an infinite bound
    pb = np.exp(-0.5 * b * b - lp) / _SQRT_2PI
    p = pa - pb
    grad = np.concatenate([(ls.T @ p)[:m] - mu[:m], (mu - x + p)[:m]])
    dp = (np.where(np.isfinite(a), a, 0.0) * pa - np.where(np.isfinite(b), b, 0.0) * pb
          - p * p)
    return grad, dp


def _newton_step(grad, dp, ls):
    """Solve ``J step = grad`` for the Jacobian ``J = [[A, B'], [B, D]]`` of
    :func:`_psi_gradient`, with ``A = Lf' diag(dp) Lf`` (``Lf``: the
    columns of ``ls`` but the last), ``B = -I + diag(dp) Lr`` (``Lr``: the
    leading block) and ``D = diag(1 + dp)``, the truncated variances.  The
    Schur complement of ``D`` leaves one dense solve of size ``n - 1``."""
    m = dp.size - 1
    g_x, g_mu = grad[:m], grad[m:]
    d = 1.0 + dp[:m]
    lf, lr = ls[:, :m], ls[:m, :m]
    w = dp.copy()
    w[:m] /= d  # dp - dp^2 / d, the A - B'D^-1 B diagonal weight
    r = (dp[:m] / d)[:, None] * lr
    s = lf.T @ (w[:, None] * lf) + r + r.T
    s[np.diag_indices(m)] -= 1.0 / d
    step_x = np.linalg.solve(s, g_x + g_mu / d - lr.T @ (dp[:m] * g_mu / d))
    step_mu = (g_mu + step_x - dp[:m] * (lr @ step_x)) / d
    return np.concatenate([step_x, step_mu])


def _minimax_tilt(ls, low, high) -> np.ndarray:
    """Tilting ``mu`` at the saddle point of Botev's ``psi`` (Botev 2017,
    JRSS-B 79:125-148): damped Newton on ``grad psi = 0`` from 0, halving
    the step until the norm of the gradient falls.  The solve has converged
    once the gradient is 0 to ``_TILT_TOL`` or the Newton step is at the
    rounding level of the iterate.  Otherwise ``mu = 0``: the same unbiased
    estimator with a larger variance."""
    m = low.size - 1
    y = np.zeros(2 * m)
    with np.errstate(all="ignore"):  # a trial step may leave the region
        grad, dp = _psi_gradient(y, ls, low, high)
        f = grad @ grad
        for _ in range(_TILT_MAX_ITER):
            if np.max(np.abs(grad)) <= _TILT_TOL:
                return np.append(y[m:], 0.0)
            try:
                step = _newton_step(grad, dp, ls)
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(step).all():
                break
            if np.max(np.abs(step)) <= 1e-12 * (1.0 + np.max(np.abs(y))):
                return np.append(y[m:], 0.0)
            t = 1.0
            while t >= 1e-10:
                trial = y - t * step
                g_t, dp_t = _psi_gradient(trial, ls, low, high)
                f_t = g_t @ g_t
                if f_t <= (1.0 - 1e-4 * t) * f:
                    break
                t *= 0.5
            else:
                break
            y, grad, dp, f = trial, g_t, dp_t, f_t
    return np.zeros(m + 1)


def _tilted_log_weights(ls, low, high, mu, e) -> np.ndarray:
    """Log importance weights of one batch of the tilted separation-of-
    variables estimator, one point per column of ``e`` (standard
    exponentials, ``n - 1`` rows).

    Coordinate ``k`` of a point is drawn from ``N(mu_k, 1)`` truncated to
    its conditional interval ``[low_k - s, high_k - s]``, ``s`` the sum
    over the earlier coordinates, by inverse CDF in log space
    (``ndtri_exp``); the weight gains the log probability of that interval
    and the tilt's likelihood ratio.  A left-open interval costs one
    ``log_ndtr`` and one ``ndtri_exp``; a finite one is mirrored per point
    into the lower half-line first.  The last coordinate (``mu = 0``) adds
    its log probability only.
    """
    n, points = low.size, e.shape[1]
    z = np.empty((n - 1, points))
    logw = np.zeros(points)
    for k in range(n):
        t = ls[k, :k] @ z[:k] + mu[k]
        b = high[k] - t
        if np.isneginf(low[k]):
            lp = log_ndtr(b)
            if k < n - 1:
                u = ndtri_exp(lp - e[k])
                np.minimum(u, b, out=u)
        else:
            flip, lo, hi = _mirror(low[k] - t, b)
            la = log_ndtr(lo)
            lp = log_ndtr(hi)
            lp += np.log(-np.expm1(la - lp))
            if k < n - 1:
                u = ndtri_exp(np.logaddexp(la, lp - e[k]))
                np.clip(u, lo, hi, out=u)
                np.negative(u, out=u, where=flip)
        logw += lp
        if k < n - 1:
            logw -= mu[k] * (u + 0.5 * mu[k])
            np.add(u, mu[k], out=z[k])
    return logw


def mvn_rect_prob(
    mean,
    cov,
    rect: Rectangle,
    rng=None,
    eps: float = 1e-2,
    max_points: int = 100_000,
) -> RectProb:
    """Estimate ``P(lower <= X <= upper)`` for ``X ~ N(mean, cov)``, in log
    space.

    Minimax exponential tilting of the separation-of-variables estimator
    (Botev 2017, JRSS-B 79:125-148) on the Genz variable ordering (Genz
    1992): one Newton solve fixes the tilt, then iid batches of 1 000
    points are drawn until the standard error of ``log P`` (the relative
    error of ``P``) is at most ``eps``, or until ``max_points`` points
    have been spent (reported via ``hit_cap``).  The weights are averaged
    by a log-mean-exp, so a probability far below the smallest double
    still has a finite ``log_prob``.

    A coordinate whose standardized interval lies mostly above the mean
    (``low + high > 0``, right-open ones included) is mirrored to
    ``[-high, -low]``, so that ``Phi(b) - Phi(a)`` does not cancel in the
    upper tail; one-sided coordinates are then all left-open.  One
    coordinate has the closed form ``log_ndtr`` and needs no ``rng``.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    n = mean.shape[0]
    if rect.dim != n:
        raise DataValidationError("rectangle dimension does not match mean")

    sd = np.sqrt(np.diag(cov))
    flip, low, high = _mirror((rect.lower - mean) / sd, (rect.upper - mean) / sd)
    if n == 1:
        return RectProb(float(_log_ndtr_diff(low, high)[0]), 0.0, 0,
                        prob=float(ndtr(high[0]) - ndtr(low[0])))

    gen = as_generator(rng)
    corr = cov / np.outer(sd, sd)
    if flip.any():
        sign = np.where(flip, -1.0, 1.0)
        corr *= np.outer(sign, sign)
    ell, low, high = _ordered_cholesky(corr, low, high)
    diag = np.diag(ell)
    ls = ell / diag[:, None]
    ls[np.diag_indices(n)] = 0.0
    low, high = low / diag, high / diag
    mu = _minimax_tilt(ls, low, high)

    logw = np.empty(0)
    while True:
        batch = _tilted_log_weights(ls, low, high, mu, gen.standard_exponential((n - 1, _BATCH)))
        logw = np.concatenate([logw, batch])
        top = logw.max()
        w = np.exp(logw - top)
        mean_w = w.mean()
        log_prob = float(top + np.log(mean_w))
        se = float(w.std(ddof=1) / math.sqrt(w.size) / mean_w)
        if se <= eps:
            return RectProb(log_prob, se, w.size)
        if w.size + _BATCH > max_points:
            return RectProb(log_prob, se, w.size, hit_cap=True)
