"""Spatial covariance families and their parameter derivatives.

The covariance of the random field is ``Sigma = tau2 * I + sigma2 * R(phi)``
where ``R(phi)`` is an isotropic correlation matrix built from one of five
families.  Throughout the package the covariance parameters are ordered as
``alpha = (sigma2, phi, tau2)`` and derivative routines take a 1-based index
``k`` into that vector.

Every correlation comes from one arithmetic per family: the closed forms
at ``u = h / phi``, and Matern from its kernel tables at ``log h - log
phi`` (:func:`_matern_kernels`), so :func:`correlation`,
:func:`corr_matrix` and :func:`corr_dcorr_matrix` agree bit for bit.  A
profile evaluation needs ``R(phi)`` and ``dR/dphi`` at one range:
:func:`corr_dcorr_matrix` forms both in one kernel pass over a
:class:`Lags` object, which the fit or search that owns the distances
builds once and which also holds that search's last evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.special import gamma as gamma_fn
from scipy.special import kv, kve

from .errors import ConfigurationError, SingularCovarianceError

FAMILIES = ("exponential", "gaussian", "spherical", "matern", "powered-exponential")

# The Matern kernel u^p K_v(u) is tabulated for u in [_KERNEL_LO, _KERNEL_HI):
# _KERNEL_SEGMENTS equal segments in t = log u, each carrying the degree
# _KERNEL_DEGREE interpolant at its Chebyshev nodes.  Other lags take kv,
# which returns 0 from u ~ 697.9 on; the table stops short of that point.
_KERNEL_LO, _KERNEL_HI = 1e-6, 690.0
_KERNEL_SEGMENTS, _KERNEL_DEGREE = 96, 10
_KERNEL_T0 = np.log(_KERNEL_LO)
_KERNEL_HALF_WIDTH = 0.5 * (np.log(_KERNEL_HI) - _KERNEL_T0) / _KERNEL_SEGMENTS


@dataclass(frozen=True)
class CovarianceSpec:
    """Correlation family plus the options that do not change during a fit.

    Parameters
    ----------
    family : str
        One of ``exponential``, ``gaussian``, ``spherical``, ``matern``,
        ``powered-exponential``.
    kappa : float
        Smoothness (matern, ``kappa > 0``) or power
        (powered-exponential, ``0 < kappa <= 2``); ignored otherwise.
    nugget_fixed : bool
        When True the nugget ``tau2`` is held at ``fixed_nugget_value``
        instead of being estimated.
    fixed_nugget_value : float
        Nugget variance used when ``nugget_fixed`` is set.
    """

    family: str
    kappa: float = 0.0
    nugget_fixed: bool = False
    fixed_nugget_value: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unsupported covariance family {self.family!r}; "
                f"expected one of {FAMILIES}"
            )
        if self.family == "matern" and not 0 < self.kappa < np.inf:
            raise ConfigurationError("matern requires a finite kappa > 0")
        if self.family == "powered-exponential" and not 0 < self.kappa <= 2:
            raise ConfigurationError("powered-exponential requires kappa in (0, 2]")
        if not 0 <= self.fixed_nugget_value < np.inf:
            raise ConfigurationError("fixed_nugget_value must be finite and >= 0")


@dataclass(frozen=True)
class CovParams:
    """Covariance parameters ``(sigma2, phi, tau2)``.

    ``sigma2`` is the partial sill, ``phi`` the range in distance units and
    ``tau2`` the nugget.  ``nu2 = tau2 / sigma2`` is the relative nugget used
    by the profile objective of the fitting routines.
    """

    sigma2: float
    phi: float
    tau2: float = 0.0

    def __post_init__(self):
        if not 0 < self.sigma2 < np.inf:
            raise ConfigurationError("sigma2 must be finite and > 0")
        if not 0 < self.phi < np.inf:
            raise ConfigurationError("phi must be finite and > 0")
        if not 0 <= self.tau2 < np.inf:
            raise ConfigurationError("tau2 must be finite and >= 0")

    @property
    def nu2(self) -> float:
        return self.tau2 / self.sigma2

    def as_array(self) -> np.ndarray:
        return np.array([self.sigma2, self.phi, self.tau2])


def distance_matrix(coords: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of an ``(n, 2)`` coordinate array."""
    return cross_distance(coords, coords)


def cross_distance(coords_a: np.ndarray, coords_b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between two ``(., 2)`` coordinate sets,
    as ``sqrt(dx**2 + dy**2)``: the arithmetic of scipy's ``cdist``, so
    equal to it bit for bit (``np.hypot`` rounds differently)."""
    a = np.asarray(coords_a, dtype=float)
    b = np.asarray(coords_b, dtype=float)
    dx = a[:, 0, None] - b[:, 0]
    dy = a[:, 1, None] - b[:, 1]
    return np.sqrt(dx**2 + dy**2)


def correlation(family: str, kappa: float, h, phi: float):
    """Correlation ``rho(h; phi)`` for one family, vectorized in ``h``.

    ``rho(0) = 1`` for every family.  Returns a scalar for scalar ``h``.
    Matern reads its kernel tables at ``log h - log phi``, as every Matern
    pass does.
    """
    if family not in FAMILIES:
        raise ConfigurationError(f"unsupported covariance family {family!r}")
    if not phi > 0:
        raise ConfigurationError("phi must be > 0")
    h = np.asarray(h, dtype=float)
    if family == "matern":
        flat = h.ravel()
        with np.errstate(divide="ignore", invalid="ignore"):
            log_h = np.log(flat)
        (rho,) = _matern_corr_dcorr(kappa, flat, log_h, phi, derivative=False)
        rho = rho.reshape(h.shape)
    else:
        rho = _closed_form_corr(family, kappa, h / phi)
    return rho if rho.ndim else float(rho)


def _closed_form_corr(family: str, kappa: float, u: np.ndarray) -> np.ndarray:
    """``rho`` of the exponential, Gaussian, spherical and
    powered-exponential families at the scaled lags ``u = h / phi``."""
    if family == "exponential":
        return np.exp(-u)
    if family == "gaussian":
        return np.exp(-(u**2))
    if family == "spherical":
        return np.where(u <= 1.0, 1.0 - 1.5 * u + 0.5 * u**3, 0.0)
    return np.exp(-np.power(u, kappa))


def _closed_form_dcorr(
    family: str, kappa: float, h: np.ndarray, u: np.ndarray, rho, phi: float
) -> np.ndarray:
    """``d rho / d phi`` of a closed-form family at the lags ``h``, given
    the array ``u = h / phi``, which it overwrites, and ``rho``.  The
    exponential, Gaussian and powered-exponential derivatives are ``rho``
    times a power of ``u``; spherical does not read ``rho``.  ``rho`` may
    differ from the correlation where the lag is zero (``R + nu2 I``),
    since the derivative is zero there."""
    if family == "spherical":
        return np.where(u <= 1.0, 1.5 * (h / phi**2) * (1.0 - u**2), 0.0)
    # in place in u: an n x n temporary costs more than the arithmetic
    if family == "exponential":
        return np.divide(np.multiply(rho, u, out=u), phi, out=u)
    if family == "gaussian":
        return np.divide(np.multiply(rho * 2.0, np.square(u, out=u), out=u), phi, out=u)
    g = np.power(u, kappa, out=u)
    return np.multiply(np.divide(np.multiply(kappa, g, out=g), phi, out=g), rho, out=g)


def _matern_scale(kappa: float) -> float:
    """``2**(1 - kappa) / Gamma(kappa)``: the Matern correlation is this
    times the kernel ``u**kappa K_kappa(u)``."""
    return 2.0 ** (1.0 - kappa) / gamma_fn(kappa)


@functools.lru_cache(maxsize=None)
def _kernel_table(order: float, power: float) -> np.ndarray:
    """Coefficients of ``g(t) = power * t + log kve(order, e^t)``, which is
    ``log(u^power K_order(u)) + u`` at ``u = e^t``: one column per segment,
    the powers of the local variable ``x in [-1, 1]`` from the highest down.

    Each column interpolates ``g`` at the segment's Chebyshev nodes; the
    exponentially scaled ``kve`` keeps the nodes free of underflow.
    """
    n = _KERNEL_DEGREE + 1
    x = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    mids = _KERNEL_T0 + _KERNEL_HALF_WIDTH * (2.0 * np.arange(_KERNEL_SEGMENTS) + 1.0)
    t = mids + _KERNEL_HALF_WIDTH * x[:, None]
    g = power * t + np.log(kve(order, np.exp(t)))
    return np.linalg.solve(np.vander(x), g)


def _matern_kernels(pairs, u: np.ndarray, t: np.ndarray) -> list[np.ndarray]:
    """``u**power * K_order(u)`` for each ``(order, power)`` in ``pairs``,
    elementwise over the flat lags ``u >= 0`` with logs ``t``.

    Inside ``[_KERNEL_LO, _KERNEL_HI)`` the value is ``exp(g(t) - u)`` from
    the cached table of ``g`` (Horner's rule on each lag's segment), within
    about 2e-13 relative of ``kv``; the segment and local variable are found
    once and serve every table.  The other lags take ``kv``, and a product
    that is not finite takes its limit: 0 at large lags, where ``kv``
    underflows, and near ``u = 0``, where ``kv`` overflows, ``Gamma(v)
    2**(v - 1)`` for ``power == order == v`` (the correlation) and 0 for
    ``power > |order|`` (the range derivative's ``u**(k+1) K_(k-1)``).
    """
    tables = [_kernel_table(order, power) for order, power in pairs]
    outs = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (t - _KERNEL_T0) * (0.5 / _KERNEL_HALF_WIDTH)
        seg = np.clip(np.floor(s), 0.0, _KERNEL_SEGMENTS - 1.0)
        x = 2.0 * (s - seg) - 1.0
        idx = seg.astype(np.intp)  # garbage for NaN lags, hence mode="clip"
        outside = ~((u >= _KERNEL_LO) & (u < _KERNEL_HI))
        v = u[outside] if outside.any() else None
        for (order, power), coef in zip(pairs, tables):
            out = coef[0].take(idx, mode="clip")
            for row in coef[1:]:
                out *= x
                out += row.take(idx, mode="clip")
            out -= u
            np.exp(out, out=out)
            if v is not None:
                near = np.power(v, power) * kv(order, v)
                small = gamma_fn(power) * 2.0 ** (power - 1.0) if power == order else 0.0
                out[outside] = np.where(np.isfinite(near), near, np.where(v < 1.0, small, 0.0))
            outs.append(out)
    return outs


def _d2corr_dphi2(
    family: str, kappa: float, h: np.ndarray, phi: float, rho: np.ndarray, drho: np.ndarray
) -> np.ndarray:
    """Analytic ``d^2 rho / d phi^2`` from ``rho`` and ``drho = d rho / d phi``
    at the lags ``h``, built in place in one new array (Matern and
    spherical take one temporary beside it).  For Matern (the exponential
    is ``kappa = 1/2``), ``K_{k+1}(u) = K_{k-1}(u) + (2k/u) K_k(u)`` (DLMF
    10.29.1) with ``u = h / phi`` gives ``(u^2 rho - (2 kappa + 1) phi
    drho) / phi^2``, which for the exponential is ``drho (h / phi^2 - 2 /
    phi)``."""
    if family == "exponential":
        out = np.multiply(h, 1.0 / phi**2)
        out -= 2.0 / phi
        return np.multiply(out, drho, out=out)
    if family == "spherical":
        u = h / phi
        out = np.square(u)
        out *= 2.0
        out -= 1.0
        out *= u
        out *= 3.0 / phi**2
        out[u > 1.0] = 0.0
        return out
    if family == "gaussian":  # drho (2 u^2 - 3) / phi
        out = np.divide(h, phi)
        np.square(out, out=out)
        out *= 2.0 / phi
        out -= 3.0 / phi
        return np.multiply(out, drho, out=out)
    if family == "powered-exponential":  # drho (kappa u^kappa - kappa - 1) / phi
        out = np.divide(h, phi)
        np.power(out, kappa, out=out)
        out *= kappa / phi
        out -= (kappa + 1.0) / phi
        return np.multiply(out, drho, out=out)
    out = np.multiply(h, 1.0 / phi**2)
    np.square(out, out=out)
    out *= rho
    out -= np.multiply(drho, (2.0 * kappa + 1.0) / phi)
    return out


@functools.lru_cache(maxsize=4)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a row-major n x n matrix of its strict upper
    triangle, row by row, and of the mirror image of each entry, read-only:
    one pair per size, shared by every pass over it.  Flat indices gather
    and scatter about twice as fast as row and column index pairs."""
    rows, cols = np.triu_indices(n, k=1)
    pair = (rows * n + cols, cols * n + rows)
    for index in pair:
        index.flags.writeable = False
    return pair


def _symmetric(n: int, tri, vals: np.ndarray, diag: float) -> np.ndarray:
    """The symmetric n x n matrix with ``vals`` on the strict upper triangle
    (``tri`` from :func:`_upper_triangle`), mirrored, and ``diag`` on the
    diagonal."""
    out = np.zeros(n * n)
    out[:: n + 1] = diag
    out[tri[0]] = vals
    out[tri[1]] = vals
    return out.reshape(n, n)


class Lags:
    """The distances of one set of sites, kept by the fit or search that
    evaluates the correlation at many ranges: the symmetric matrix ``dist``
    with its zero diagonal; formed on first use by a Matern pass, the
    strict upper triangle's indices, lags and log lags; and ``held``, the
    last profile evaluation over them (L, Q's lower triangle, ``dR/dphi``
    and, for Matern, Psi) keyed by the ``(spec, phi, nu2)`` it was formed
    at, or None.  Only the profile objective (:mod:`geocens.profile`) reads
    and writes ``held``; a search hands its caller the factor it found."""

    def __init__(self, dist: np.ndarray):
        self.dist = np.asarray(dist, dtype=float)
        self.held = None

    @functools.cached_property
    def triangle(self) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
        tri = _upper_triangle(self.dist.shape[0])
        h = self.dist.take(tri[0])
        with np.errstate(divide="ignore"):
            return tri, h, np.log(h)


def corr_matrix(dist: np.ndarray, spec: CovarianceSpec, phi: float) -> np.ndarray:
    """Correlation matrix ``R(phi)`` over a symmetric distance matrix with a
    zero diagonal; for Matern, the pass of :func:`corr_dcorr_matrix`
    without the derivative, so equal to its ``R`` bit for bit."""
    if spec.family != "matern":
        return correlation(spec.family, spec.kappa, dist, phi)
    return _matern_matrices(Lags(dist), spec.kappa, phi, derivative=False)[0]


def corr_dcorr_matrix(
    lags: Lags, spec: CovarianceSpec, phi: float
) -> tuple[np.ndarray, np.ndarray]:
    """``R(phi)`` and ``dR / dphi`` over ``lags`` in one pass, as new arrays.

    Matern runs :func:`_matern_corr_dcorr` on the held triangle and
    scatters it once per output.  The closed-form families share ``u = h /
    phi``; the exponential, Gaussian and powered-exponential derivatives
    are ``R`` times a power of ``u``.
    """
    if spec.family != "matern":
        u = lags.dist / phi
        rho = _closed_form_corr(spec.family, spec.kappa, u)
        return rho, _closed_form_dcorr(spec.family, spec.kappa, lags.dist, u, rho, phi)
    return _matern_matrices(lags, spec.kappa, phi)


def _matern_matrices(lags: Lags, kappa: float, phi: float, derivative: bool = True) -> tuple:
    """Matern ``R`` (and ``dR / dphi``) over the upper triangle of ``lags``,
    mirrored, with 1 (and 0) on the diagonal."""
    tri, h, log_h = lags.triangle
    n = lags.dist.shape[0]
    values = _matern_corr_dcorr(kappa, h, log_h, phi, derivative)
    return tuple(_symmetric(n, tri, v, diag) for v, diag in zip(values, (1.0, 0.0)))


def _matern_corr_dcorr(
    kappa: float, h: np.ndarray, log_h: np.ndarray, phi: float, derivative: bool = True
) -> tuple[np.ndarray, ...]:
    """Matern ``rho``, and ``d rho / d phi`` when ``derivative``, over the
    flat lags ``h`` with logs ``log_h``: each lag's table segment is found
    once, at ``log h - log phi``, for both kernels
    (:func:`_matern_kernels`)."""
    u = h / phi
    pairs = ((kappa, kappa), (kappa - 1.0, kappa + 1.0))[: 1 + derivative]
    kernels = _matern_kernels(pairs, u, log_h - np.log(phi))
    c = _matern_scale(kappa)
    rho = np.where(u == 0.0, 1.0, c * kernels[0])
    return (rho, c / phi * kernels[1]) if derivative else (rho,)


def build_sigma(dist: np.ndarray, spec: CovarianceSpec, p: CovParams) -> np.ndarray:
    """Covariance matrix ``Sigma = tau2 * I + sigma2 * R(phi)``."""
    dist = np.asarray(dist, dtype=float)
    sigma = p.sigma2 * corr_matrix(dist, spec, p.phi)
    sigma[np.diag_indices_from(sigma)] += p.tau2
    return sigma


def spd_cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with a one-shot diagonal jitter retry.

    A failed factorization is retried once with ``1e-10`` times the mean
    diagonal entry added to the diagonal; a second failure raises
    :class:`SingularCovarianceError`.  A matrix with an entry that is not
    finite raises :class:`ValueError`.  The factor is LAPACK ``potrf``'s,
    called directly: the same call as ``scipy.linalg.cholesky(mat,
    lower=True)``, without its wrapper's overhead.
    """
    if not np.isfinite(mat).all():
        raise ValueError("array must not contain infs or NaNs")
    lo, info = lapack.dpotrf(mat, lower=1, clean=1)
    if info == 0:
        return lo
    jitter = 1e-10 * float(np.mean(np.diag(mat)))
    lo, info = lapack.dpotrf(mat + jitter * np.eye(mat.shape[0]), lower=1, clean=1)
    if info == 0:
        return lo
    raise SingularCovarianceError("covariance matrix is numerically non positive definite")


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    """``m`` made symmetric in place from its upper triangle, row ``j``
    from column ``j``; each row written is contiguous in a row-major ``m``."""
    for j in range(1, m.shape[0]):
        m[j, :j] = m[:j, j]
    return m


def _cholesky_inverse(lo: np.ndarray) -> np.ndarray:
    """``(lo lo')^{-1}`` from a lower Cholesky factor (LAPACK ``potri``).

    ``potri`` fills the lower triangle of a column-major copy, whose
    row-major transpose is mirrored in place and returned: no other n x n
    array is allocated.
    """
    return _mirror_upper(lapack.dpotri(lo, lower=1)[0].T)


def cholesky_sigma(dist: np.ndarray, spec: CovarianceSpec, p: CovParams) -> np.ndarray:
    """Convenience: build ``Sigma`` and return its lower Cholesky factor."""
    return spd_cholesky(build_sigma(dist, spec, p))


def _check_k(k: int):
    if k not in (1, 2, 3):
        raise ConfigurationError(f"parameter index must be 1, 2 or 3, got {k}")


def dsigma(dist: np.ndarray, spec: CovarianceSpec, p: CovParams, k: int) -> np.ndarray:
    """First derivative of ``Sigma`` with respect to ``alpha_k``.

    ``k=1`` is sigma2 (returns ``R(phi)``), ``k=2`` is phi
    (``sigma2 * dR/dphi``) and ``k=3`` is tau2 (identity); ``R`` and
    ``dR/dphi`` are those of :func:`corr_dcorr_matrix`.
    """
    _check_k(k)
    dist = np.asarray(dist, dtype=float)
    if k == 3:
        return np.eye(dist.shape[0])
    rho, drho = corr_dcorr_matrix(Lags(dist), spec, p.phi)
    return rho if k == 1 else p.sigma2 * drho


def d2sigma(
    dist: np.ndarray, spec: CovarianceSpec, p: CovParams, k: int, l: int
) -> np.ndarray:
    """Second derivative of ``Sigma`` with respect to ``alpha_k, alpha_l``.

    Only the ``(phi, phi)`` and ``(sigma2, phi)`` blocks are nonzero; both
    are read from :func:`corr_dcorr_matrix`.
    """
    _check_k(k)
    _check_k(l)
    dist = np.asarray(dist, dtype=float)
    pair = tuple(sorted((k, l)))
    if pair not in ((1, 2), (2, 2)):
        return np.zeros(dist.shape)
    rho, drho = corr_dcorr_matrix(Lags(dist), spec, p.phi)
    if pair == (1, 2):
        return drho
    return p.sigma2 * _d2corr_dphi2(spec.family, spec.kappa, dist, p.phi, rho, drho)
