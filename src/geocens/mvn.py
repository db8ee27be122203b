"""Multivariate normal primitives.

Log-density, rectangle probabilities, Gibbs sampling from box-truncated
normals, and Monte Carlo truncated moments.  All sampling is driven by an
explicit :class:`RngState` (PCG64) so that identical seeds reproduce
identical streams bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr, ndtri

from .covariance import _cholesky_inverse, spd_cholesky
from .errors import ConfigurationError, DataValidationError

_TAIL_SWITCH = 34.0  # standardized bound beyond which Phi differences underflow
_LOG_2PI = np.log(2.0 * np.pi)


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


def mvn_logpdf(x, mean, cov) -> float:
    """Log density of ``N(mean, cov)`` at ``x`` via Cholesky."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    lo = spd_cholesky(cov)
    return logpdf_from_cholesky(lo, solve_triangular(lo, x - mean, lower=True))


def logpdf_from_cholesky(lo: np.ndarray, w: np.ndarray) -> float:
    """Gaussian log density from the lower Cholesky factor ``lo`` of the
    covariance and the whitened residual ``w = lo^{-1} (x - mean)``."""
    logdet = 2.0 * np.sum(np.log(np.diag(lo)))
    return float(-0.5 * (w.shape[0] * _LOG_2PI + logdet + w @ w))


def _trunc_std_ppf(u: float, a: float, b: float) -> float:
    """Quantile of a standard normal truncated to ``[a, b]``, on Python floats.

    Works in whichever tail keeps the CDF difference away from underflow;
    if both bounds sit beyond ``+-34`` standard deviations, where the
    difference of normal CDFs is identically zero in double precision, an
    exponential tail approximation is used instead.  The CDF is not taken
    at an infinite bound (it is 0 or 1 there).  Never returns NaN.
    """
    if b <= 0.0:
        return -_trunc_std_ppf(1.0 - u, -b, -a)
    if a >= _TAIL_SWITCH:
        # exponential approximation to the far upper tail, exact inverse CDF
        # of the limiting hazard-rate distribution on [a, b]; numpy's
        # log1p/expm1, not libm's (math), which differ in the last place
        if math.isinf(b):
            x = a - float(np.log1p(-u)) / a
        else:
            width = -float(np.expm1(-a * (b - a)))
            x = a - float(np.log1p(-u * width)) / a
        return min(max(x, a), b if math.isfinite(b) else x)
    if a >= 0.0:
        pa = float(ndtr(-a))
        pb = 0.0 if b == math.inf else float(ndtr(-b))
        x = -float(ndtri(pa - u * (pa - pb)))
    else:
        pa = 0.0 if a == -math.inf else float(ndtr(a))
        pb = 1.0 if b == math.inf else float(ndtr(b))
        x = float(ndtri(pa + u * (pb - pa)))
    if math.isfinite(x):
        return min(max(x, a), b)
    return a if u < 0.5 else b  # pa == pb rounding corner


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

    Each full conditional is a univariate truncated normal sampled by
    inverse CDF, so the draw count is fixed and the output is a
    deterministic function of ``rng``.  Returns an ``(n_samples, n)`` array;
    every row lies inside the rectangle.

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
    """Rectangle probability estimate with its standard error."""

    prob: float
    se: float
    n_points: int
    hit_cap: bool = False

    def __float__(self) -> float:
        return self.prob


def _first_primes(count: int) -> np.ndarray:
    primes = []
    cand = 2
    while len(primes) < count:
        if all(cand % q for q in primes if q * q <= cand):
            primes.append(cand)
        cand += 1
    return np.array(primes, dtype=float)


def _ordered_cholesky(corr: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Cholesky factor with the Genz variable ordering.

    Variables are permuted so that the most restrictive coordinate is
    integrated first (smallest conditional probability given truncated
    expected values of earlier coordinates), which stabilizes the
    separation-of-variables integrand.  The ordering is a deterministic
    function of the problem, so permuting the input reproduces the same
    internal order.

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
        p = ndtr((b[i:] - shift[i:]) / sd) - ndtr((a[i:] - shift[i:]) / sd)
        j = i + int(np.argmin(p))
        if j != i:
            for v in (a, b, var, shift):
                v[[i, j]] = v[[j, i]]
            c[[i, j]] = c[[j, i]]
            c[:, [i, j]] = c[:, [j, i]]
            ell[[i, j], :i] = ell[[j, i], :i]
        ell[i, i] = np.sqrt(max(var[i], eps))
        col = (c[i + 1:, i] - ell[i + 1:, :i] @ ell[i, :i]) / ell[i, i]
        ell[i + 1:, i] = col
        ai = (a[i] - shift[i]) / ell[i, i]
        bi = (b[i] - shift[i]) / ell[i, i]
        p_i = max(ndtr(bi) - ndtr(ai), 1e-300)
        pdf_a = np.exp(-0.5 * ai * ai) / np.sqrt(2 * np.pi) if np.isfinite(ai) else 0.0
        pdf_b = np.exp(-0.5 * bi * bi) / np.sqrt(2 * np.pi) if np.isfinite(bi) else 0.0
        var[i + 1:] -= col * col
        shift[i + 1:] += col * (pdf_a - pdf_b) / p_i
    return ell, a, b


def mvn_rect_prob(
    mean,
    cov,
    rect: Rectangle,
    rng=None,
    eps: float = 1e-4,
    max_points: int = 100_000,
) -> RectProb:
    """Estimate ``P(lower <= X <= upper)`` for ``X ~ N(mean, cov)``.

    Uses the separation-of-variables transform with a randomly shifted
    Kronecker (root-prime) lattice.  Batches of quasi-random points are
    added until the standard error over batch means drops below ``eps`` or
    ``max_points`` lattice points have been spent (reported via
    ``hit_cap``).

    A coordinate whose standardized interval lies mostly above the mean
    (``low + high > 0``, right-open ones included) is mirrored to
    ``[-high, -low]``, so that ``Phi(b) - Phi(a)`` does not cancel in the
    upper tail; the CDF is not evaluated at an infinite bound (0 or 1).
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    n = mean.shape[0]
    if rect.dim != n:
        raise DataValidationError("rectangle dimension does not match mean")

    sd = np.sqrt(np.diag(cov))
    low = (rect.lower - mean) / sd
    high = (rect.upper - mean) / sd
    flip = high > -low  # low + high > 0, with no inf - inf
    low[flip], high[flip] = -high[flip], -low[flip]
    if n == 1:
        prob = float(ndtr(high[0]) - ndtr(low[0]))
        return RectProb(prob=prob, se=0.0, n_points=0)

    gen = as_generator(rng)
    corr = cov / np.outer(sd, sd)
    if flip.any():
        sign = np.where(flip, -1.0, 1.0)
        corr *= np.outer(sign, sign)
    ell, low, high = _ordered_cholesky(corr, low, high)

    diag = np.diag(ell)
    c0 = ndtr(low[0] / diag[0])
    d0 = ndtr(high[0] / diag[0])
    low_open, high_open = np.isneginf(low).tolist(), np.isposinf(high).tolist()

    q = np.sqrt(_first_primes(n - 1))
    points_per_batch = 1_000
    idx = np.arange(1, points_per_batch + 1)[None, :]
    batch_means: list[float] = []
    n_points = 0
    min_batches = 10

    def run_batch() -> float:
        shift = gen.random(n - 1)
        z = q[:, None] * idx + shift[:, None]
        z -= np.floor(z)
        x = np.abs(2.0 * z - 1.0)  # tent periodization
        y = np.zeros((n - 1, points_per_batch))
        c, dc = c0, d0 - c0
        pv = np.full(points_per_batch, dc)
        arg = np.empty(points_per_batch)
        for i in range(1, n):
            np.multiply(x[i - 1], dc, out=arg)
            arg += c
            np.maximum(arg, 1e-300, out=arg)  # clip, without np.clip's overhead
            np.minimum(arg, 1.0 - 1e-16, out=arg)
            ndtri(arg, out=y[i - 1])
            s = ell[i, :i] @ y[:i]
            c = 0.0 if low_open[i] else ndtr((low[i] - s) / diag[i])
            d = 1.0 if high_open[i] else ndtr((high[i] - s) / diag[i])
            dc = d - c
            pv *= dc
        return float(pv.mean())

    while True:
        batch_means.append(run_batch())
        n_points += points_per_batch
        nb = len(batch_means)
        if nb >= min_batches:
            se = float(np.std(batch_means, ddof=1) / np.sqrt(nb))
            if se <= eps:
                return RectProb(float(np.mean(batch_means)), se, n_points)
        if n_points + points_per_batch > max_points:
            nb = len(batch_means)
            se = float(np.std(batch_means, ddof=1) / np.sqrt(nb)) if nb > 1 else np.inf
            return RectProb(float(np.mean(batch_means)), se, n_points, hit_cap=True)
