"""Spatial prediction for censored data.

Implements the conditional-mean (kriging) predictor plus the four
estimation-and-prediction pipelines: bound imputation (two variants), the
iterative re-imputation scheme for left-censored data, and prediction from
a stochastic-approximation fit.  Also hosts the empirical variogram, its
weighted least-squares fit (by variable projection: a search over the range
alone, with the sill and nugget solved in closed form at each range),
Gaussian maximum likelihood on fully observed data, and a hold-out
cross-validation driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .covariance import (
    CovarianceSpec,
    CovParams,
    Lags,
    cholesky_sigma,
    correlation,
    cross_distance,
    distance_matrix,
)
from .errors import (
    ConfigurationError,
    DataValidationError,
    NumericalError,
    UnsupportedMethodError,
    check_count,
)
from .model import (
    ModelParams,
    SpatialDataset,
    TrendSpec,
    build_trend,
    criteria,
    impute_bounds,
    loglik,
    param_count,
    partition,
)
from .profile import default_search_box, profile_fit

METHODS = ("naive1", "naive2", "seminaive", "saem")

# The variogram fit's search over log phi: a grid of _VARIO_GRID log-spaced
# ranges, then Brent's method down to an interval of about _VARIO_TOL.
# Objectives closer than _VARIO_TIE times the count-weighted mean of gamma^2
# (the objective of the zero model) are ties, which go to the smaller range
# or the point already held, so a fit whose best range is not unique does
# not pick it by rounding
_VARIO_GRID = 128
_VARIO_TOL = 1e-7
_VARIO_TIE = 1e-12


@dataclass(frozen=True)
class PredictionResult:
    """Predicted means and standard deviations at target locations."""

    method: str
    coords_pred: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    params_used: ModelParams
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SeminaiveConfig:
    """Stopping constants (finite and > 0) and iteration cap (an integer
    >= 1) for the re-imputation scheme."""

    c1: float = 0.1
    c2: float = 2.0
    c3: float = 0.5
    max_iter: int = 20

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigurationError(f"seminaive {name} must be finite and > 0")
        check_count("seminaive max_iter", self.max_iter)


def krige(
    params: ModelParams,
    x_obs: np.ndarray,
    z_obs: np.ndarray,
    coords_obs: np.ndarray,
    x_pred: np.ndarray,
    coords_pred: np.ndarray,
    spec: CovarianceSpec,
    method: str = "krige",
    *,
    factor: Optional[np.ndarray] = None,
) -> PredictionResult:
    """Gaussian conditional mean and sd at target locations.

    The joint covariance places the nugget on the diagonal only, so the
    cross block between data and targets is ``sigma2 * rho(h)`` even at
    coincident coordinates.  The sd reads only the diagonal of the
    prediction covariance, so memory is linear in the number of targets.
    Data and targets that are not finite, or whose row counts disagree,
    raise :class:`DataValidationError`.

    With ``W = L^{-1} Sigma_op`` and ``r = z - X beta``, the mean is ``X_p
    beta + W' L^{-1} r`` and the variance ``sigma2 + tau2 - sum_i W_ij^2``.
    ``L`` is ``factor``, a lower Cholesky factor of ``Sigma`` at ``params``
    over the data rows as given, or is factored from the distances of
    ``coords_obs`` when that is None.  Solving with the factor keeps the
    digits an explicit inverse of ``Sigma`` loses as ``Sigma`` grows
    ill-conditioned (Higham 2002, ch. 14).
    """
    coords_obs = np.asarray(coords_obs, dtype=float)
    coords_pred = np.atleast_2d(np.asarray(coords_pred, dtype=float))
    x_obs = np.asarray(x_obs, dtype=float)
    x_pred = np.atleast_2d(np.asarray(x_pred, dtype=float))
    z_obs = np.asarray(z_obs, dtype=float)
    if x_pred.shape[1] != x_obs.shape[1]:
        raise DataValidationError("x_pred and x_obs column counts differ")
    if coords_pred.shape[0] != x_pred.shape[0]:
        raise DataValidationError("coords_pred and x_pred row counts differ")
    if not z_obs.shape[0] == x_obs.shape[0] == coords_obs.shape[0]:
        raise DataValidationError("z_obs, x_obs and coords_obs row counts differ")
    for name, arr in (("coords_pred", coords_pred), ("x_pred", x_pred), ("z_obs", z_obs),
                      ("x_obs", x_obs), ("coords_obs", coords_obs)):
        if not np.isfinite(arr).all():
            raise DataValidationError(f"{name} must be finite")

    p = params.cov
    cross = p.sigma2 * correlation(
        spec.family, spec.kappa, cross_distance(coords_pred, coords_obs), p.phi
    )
    resid = z_obs - x_obs @ params.beta
    lo = cholesky_sigma(distance_matrix(coords_obs), spec, p) if factor is None else factor
    w = solve_triangular(lo, cross.T, lower=True)  # L^{-1} Sigma_op
    mean = x_pred @ params.beta + w.T @ solve_triangular(lo, resid, lower=True)
    var = p.sigma2 + p.tau2 - np.einsum("ij,ij->j", w, w)
    sd = np.sqrt(np.maximum(var, 0.0))
    return PredictionResult(
        method=method,
        coords_pred=coords_pred,
        mean=np.atleast_1d(mean),
        sd=sd,
        params_used=params,
    )


def mspe(observed, predicted) -> float:
    """Mean squared prediction error."""
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if observed.shape != predicted.shape or observed.size == 0:
        raise DataValidationError("observed and predicted must match and be nonempty")
    return float(np.mean((observed - predicted) ** 2))


def sample_skewness(x) -> float:
    """Biased moment skewness ``m3 / m2^{3/2}``."""
    x = np.asarray(x, dtype=float)
    d = x - x.mean()
    m2 = np.mean(d**2)
    if m2 == 0:
        return 0.0
    return float(np.mean(d**3) / m2**1.5)


# ---------------------------------------------------------------------------
# Empirical variogram and weighted least-squares fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Variogram:
    """Binned classical (Matheron) semivariance estimates."""

    centers: np.ndarray
    gamma: np.ndarray
    counts: np.ndarray
    max_dist: float


def empirical_variogram(
    coords, z, n_bins: int = 13, max_dist: Optional[float] = None
) -> Variogram:
    """Classical semivariogram over equal-width distance bins.

    ``gamma_b = sum_{pairs in bin} (z_i - z_j)^2 / (2 N_b)``; empty bins are
    dropped.  ``max_dist`` defaults to half the largest pairwise distance.
    """
    coords = np.asarray(coords, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape[0] < 2:
        raise DataValidationError("variogram needs at least two sites")
    if n_bins < 1:
        raise ConfigurationError(f"need at least one distance bin, got {n_bins}")
    check_count("n_bins", n_bins)
    iu = np.triu_indices(z.shape[0], 1)
    d = distance_matrix(coords)[iu]
    if max_dist is None:
        max_dist = 0.5 * float(d.max())
    keep = d <= max_dist
    if not (0 < max_dist < np.inf and keep.any()):
        raise DataValidationError(
            f"max_dist must be finite and > 0 with a pair of sites within it, got {max_dist}"
        )
    dz2 = (z[iu[0]] - z[iu[1]]) ** 2
    d, dz2 = d[keep], dz2[keep]
    edges = np.linspace(0.0, max_dist, n_bins + 1)
    which = np.clip(np.digitize(d, edges) - 1, 0, n_bins - 1)
    counts = np.bincount(which, minlength=n_bins)
    sums = np.bincount(which, weights=dz2, minlength=n_bins)
    nonempty = counts > 0
    centers = 0.5 * (edges[:-1] + edges[1:])
    gamma = np.zeros(n_bins)
    gamma[nonempty] = sums[nonempty] / (2.0 * counts[nonempty])
    return Variogram(
        centers=centers[nonempty],
        gamma=gamma[nonempty],
        counts=counts[nonempty],
        max_dist=float(max_dist),
    )


def _sill_nugget_given_range(
    basis: np.ndarray, gamma: np.ndarray, counts: np.ndarray, sill: float,
    tau2: Optional[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best ``(sigma2, tau2)`` for each row of ``basis`` (``1 - rho`` at the
    bin centers, one row per range), and the objective they attain divided
    by the total count.

    The model ``tau2 + sigma2 * basis`` is linear in the pair, so each row
    is a convex quadratic over the box ``sigma2 in [1e-12 sill, 2 sill]``,
    ``tau2 in [0, 2 sill]``.  Its minimum is the weighted regression of
    ``gamma`` on the row when that lies inside the box, and otherwise the
    best of the four edges, each a clipped one-dimensional solve.  A fixed
    ``tau2`` leaves ``sigma2`` alone: one clipped solve.  A constant row
    (``phi`` far below every lag) has no regression, and its edges still
    reach the minimum; ties go to the first candidate.  The objective is
    taken about the weighted means ``bbar`` and ``gbar`` of the row and of
    ``gamma``, ``(t + s bbar - gbar)^2 + s^2 vbb - 2 s vbg + vgg`` with
    ``vbb``, ``vbg`` and ``vgg`` their weighted (co)variances, which
    cancels less than the raw sums of squares.
    """
    s_lo, hi = 1e-12 * sill, 2.0 * sill
    w = counts / counts.sum()
    gbar = w @ gamma
    gdev = gamma - gbar
    bbar = basis @ w
    dev = basis - bbar[..., None]
    # the mean of a constant row may round off its value: it has no spread
    vbb = np.where(basis.max(axis=-1) > basis.min(axis=-1), (dev * dev) @ w, 0.0)
    vbg = dev @ (w * gdev)
    bbar, vbb, vbg = bbar[..., None], vbb[..., None], vbg[..., None]
    b2 = vbb + bbar * bbar

    def best_sill(t):
        num = vbg + bbar * (gbar - t)
        s = np.divide(num, b2, out=np.full(num.shape, s_lo), where=b2 > 0)
        return np.clip(s, s_lo, hi)

    if tau2 is not None:
        cand_t = np.full(bbar.shape, tau2)
        cand_s = best_sill(cand_t)
    else:
        s_reg = np.divide(vbg, vbb, out=np.zeros_like(vbb), where=vbb > 0)
        t_reg = gbar - s_reg * bbar
        s_edge, t_edge = np.array([s_lo, hi]), np.array([0.0, hi])
        edges = np.broadcast_shapes(bbar.shape, (2,))
        cand_s = np.concatenate(
            [s_reg, np.broadcast_to(s_edge, edges), best_sill(t_edge)], axis=-1
        )
        cand_t = np.concatenate(
            [t_reg, np.clip(gbar - s_edge * bbar, 0.0, hi), np.broadcast_to(t_edge, edges)],
            axis=-1,
        )
    obj = (cand_t + cand_s * bbar - gbar) ** 2 + cand_s * (cand_s * vbb - 2.0 * vbg) + gdev**2 @ w
    if tau2 is None:
        inside = (vbb > 0) & (s_lo <= s_reg) & (s_reg <= hi) & (0.0 <= t_reg) & (t_reg <= hi)
        obj[..., :1] = np.where(inside, obj[..., :1], np.inf)
    k = np.argmin(obj, axis=-1)[..., None]
    return tuple(np.take_along_axis(a, k, axis=-1)[..., 0] for a in (cand_s, cand_t, obj))


def _brent_minimize(f, a: float, b: float, x: float, fx, tol: float, tie: float):
    """Brent's (1973) minimizer of ``f`` on ``[a, b]``, started from a point
    ``x`` in it whose value ``fx = f(x)`` is known: parabolic steps through
    the three best points met, golden-section steps where a parabola fails,
    until ``[a, b]`` is within about ``4 tol`` wide.  ``f`` returns a tuple
    whose first entry is the value; returns the best point met and that
    tuple there.  A point replaces the best one only if it is lower by more
    than ``tie``."""
    cgold = 0.5 * (3.0 - np.sqrt(5.0))
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx[0] - fv[0])
            q = (x - v) * (fx[0] - fw[0])
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0:
                p = -p
            q, e_prev, e = abs(q), e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                golden = False
                if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                    d = tol if m >= x else -tol
        if golden:
            e = (a if x >= m else b) - x
            d = cgold * e
        u = x + (d if abs(d) >= tol else (tol if d >= 0 else -tol))
        fu = f(u)
        if fu[0] < fx[0] - tie:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu[0] <= fw[0] or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu[0] <= fv[0] or v == x or v == w:
                v, fv = u, fu


def wls_variofit(vario: Variogram, spec: CovarianceSpec) -> CovParams:
    """Fit ``(sigma2, phi, tau2)`` to a binned variogram, weighting squared
    residuals by bin pair counts.  Initializer-grade accuracy only.  With a
    fixed nugget only ``(sigma2, phi)`` are fitted and ``tau2`` is the
    fixed value.

    The box scales with the data: ``sigma2`` and ``tau2`` are at most twice
    the largest binned semivariance and ``phi`` lies in ``[1e-12, 1]``
    times ``vario.max_dist``.  A variogram that is nearly linear over the
    bins otherwise lets the fit slide along a ridge of near-equal fits to a
    sill thousands of times the data's variance.

    The fit is by variable projection (Golub & Pereyra 1973): the model is
    linear in ``(sigma2, tau2)`` once ``phi`` is fixed, and their best
    values in the box have a closed form (``_sill_nugget_given_range``), so
    the search is over ``log phi`` alone.  It evaluates ``_VARIO_GRID``
    log-spaced ranges from the lower bound up in one pass, then refines the
    best of them by Brent's method between its two neighbours, to
    ``_VARIO_TOL`` in ``log phi``.
    """
    if vario.centers.shape[0] < 3:
        raise NumericalError("variogram fit needs at least 3 nonempty bins")
    g = vario.gamma
    sill = float(g.max())
    if not sill > 0:
        raise NumericalError("variogram fit needs a nonzero semivariance")
    counts = vario.counts.astype(float)
    tie = _VARIO_TIE * float(counts @ g**2) / counts.sum()
    tau2 = spec.fixed_nugget_value if spec.nugget_fixed else None
    phi_lo, phi_hi = 1e-12 * vario.max_dist, vario.max_dist

    def fit(log_phi):
        phi = np.clip(np.exp(log_phi), phi_lo, phi_hi)
        basis = 1.0 - correlation(spec.family, spec.kappa, vario.centers / phi[..., None], 1.0)
        sigma2, tau2_fit, obj = _sill_nugget_given_range(basis, g, counts, sill, tau2)
        return obj, sigma2, phi, tau2_fit

    grid = np.linspace(np.log(phi_lo), np.log(phi_hi), _VARIO_GRID)
    on_grid = fit(grid)
    i = int(np.argmax(on_grid[0] <= on_grid[0].min() + tie))
    _, (obj, *params) = _brent_minimize(
        lambda x: tuple(a[0] for a in fit(np.array([x]))),
        grid[max(i - 1, 0)], grid[min(i + 1, _VARIO_GRID - 1)], grid[i],
        tuple(a[i] for a in on_grid), _VARIO_TOL, tie,
    )
    if not np.isfinite(obj):
        raise NumericalError("variogram fit diverged")
    return CovParams(*map(float, params))


def initial_values(
    data: SpatialDataset, trend: TrendSpec, spec: CovarianceSpec
) -> ModelParams:
    """Automatic starting values: ordinary least squares on bound-imputed
    data (:func:`geocens.model.impute_bounds`) plus a weighted variogram
    fit of the residuals (which holds a fixed nugget).  That fit is by
    variable projection (:func:`wls_variofit`): a search over the range
    alone, with the sill and nugget in closed form at each range, on numpy
    and the package's correlation functions only."""
    y = impute_bounds(data)
    x = build_trend(data.coords, data.x_extra, trend)
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    try:
        cov = wls_variofit(empirical_variogram(data.coords, resid), spec)
    except NumericalError:
        var = max(float(np.var(resid)), 1e-8)
        dmax = float(distance_matrix(data.coords).max())
        tau2 = spec.fixed_nugget_value if spec.nugget_fixed else 0.2 * var
        cov = CovParams(sigma2=0.8 * var, phi=dmax / 3.0, tau2=tau2)
    return ModelParams(beta=beta, cov=cov)


# ---------------------------------------------------------------------------
# Gaussian maximum likelihood on fully observed (or imputed) data
# ---------------------------------------------------------------------------


def gaussian_ml_fit(
    y: np.ndarray,
    x: np.ndarray,
    lags: Lags,
    spec: CovarianceSpec,
    init: CovParams | np.ndarray,
    bounds: Optional[tuple] = None,
) -> tuple[ModelParams, float, np.ndarray, np.ndarray]:
    """Maximize the exact Gaussian log-likelihood over the covariance
    parameters, profiling the trend coefficients and the sill (or tying it
    to a fixed nugget).  Returns the fitted parameters, the attained
    log-likelihood, the lower Cholesky factor of ``Sigma`` at the fitted
    parameters over the rows of ``y``, and the ``theta = (phi, nu2)`` (or
    ``(phi,)``) at which the search stopped.  ``init`` is a
    :class:`geocens.covariance.CovParams`, or the ``theta`` a fit on the
    same ``lags`` and spec returned, which starts the search on the
    evaluation that fit left held.

    The fit is the profile search the CM step of the stochastic EM runs
    (:func:`geocens.profile.profile_fit`), with no censored block, from
    ``init`` within ``bounds`` (a pair of arrays over ``(phi, nu2)``;
    :func:`geocens.profile.default_search_box` when None); it starts on the
    exact Hessian of the objective, as no metric is handed between
    Gaussian-ML fits.  The trend coefficients, the sill and the factor
    ``sqrt(sigma2) L_Psi`` are those of the search's accepted evaluation at
    the optimum, so R is not formed and Sigma not factored again after the
    search.  ``lags`` is the :class:`geocens.covariance.Lags` of the sites'
    distances, which every evaluation reads (see :mod:`geocens.profile`).
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    lower, upper = default_search_box(lags.dist) if bounds is None else bounds
    fit = profile_fit(y, x, lags, spec, np.zeros((0, 0)), np.zeros(0, dtype=int), init,
                      lower, upper)
    ll = -float(fit.value + 0.5 * y.shape[0] * np.log(2 * np.pi))
    return fit.params, ll, fit.factor, fit.theta


# ---------------------------------------------------------------------------
# Prediction pipelines
# ---------------------------------------------------------------------------


def _impute_bounds(data: SpatialDataset, variant: str) -> np.ndarray:
    """Replace censored readings with their detection bound (or half of it
    for the second variant under left censoring)."""
    if data.cens_type == "interval":
        raise UnsupportedMethodError("bound imputation requires one-sided censoring")
    y = impute_bounds(data)
    # halving a right-censoring bound has no meaning; both variants impute
    # the bound itself
    if variant == "naive2" and data.cens_type == "left":
        y[data.cens == 1] /= 2.0
    return y


def predict_naive(
    data: SpatialDataset,
    trend: TrendSpec,
    spec: CovarianceSpec,
    variant: str,
    coords_pred,
    x_extra_pred=None,
    init: Optional[CovParams] = None,
    bounds: Optional[tuple] = None,
) -> PredictionResult:
    """Impute censored readings at the bound (variant ``naive1``) or half
    the bound (``naive2``), fit by Gaussian maximum likelihood, krige.
    The kriging step is handed the factor of ``Sigma`` the fit returns,
    so it forms neither the sites' distances nor a factor again (see
    :func:`krige`)."""
    if variant not in ("naive1", "naive2"):
        raise ConfigurationError("variant must be 'naive1' or 'naive2'")
    y = _impute_bounds(data, variant)
    x = build_trend(data.coords, data.x_extra, trend)
    if init is None:
        init = initial_values(data, trend, spec).cov
    lags = Lags(distance_matrix(data.coords))
    params, gauss_ll, factor, _ = gaussian_ml_fit(y, x, lags, spec, init, bounds)
    x_pred = build_trend(np.atleast_2d(coords_pred), x_extra_pred, trend)
    result = krige(params, x, y, data.coords, x_pred, coords_pred, spec, method=variant,
                   factor=factor)
    result.extra["gaussian_loglik"] = gauss_ll
    result.extra["imputed"] = y
    return result


def _loo_means(params, x, y, factor, idx) -> np.ndarray:
    """Leave-one-out kriging means at the rows ``idx``, each predicted from
    all other rows: ``y_i - [Sigma^{-1} r]_i / [Sigma^{-1}]_ii`` with
    ``r = y - X beta`` (Dubrule 1983).  Exact for a plug-in ``beta`` and a
    nugget on the diagonal only.  From ``factor``, a lower Cholesky factor
    ``L`` of ``Sigma`` at ``params``: ``Sigma^{-1} r`` by two triangular
    solves, ``[Sigma^{-1}]_ii`` as the squared norm of column ``i`` of
    ``L^{-1}``; no inverse and no factor is formed."""
    w = solve_triangular(factor, y - x @ params.beta, lower=True, check_finite=False)
    a = solve_triangular(factor, w, lower=True, trans="T", check_finite=False)
    e = solve_triangular(factor, np.eye(y.shape[0])[:, idx], lower=True, check_finite=False)
    return y[idx] - a[idx] / np.einsum("ij,ij->j", e, e)


def predict_seminaive(
    data: SpatialDataset,
    trend: TrendSpec,
    spec: CovarianceSpec,
    coords_pred,
    x_extra_pred=None,
    cfg: SeminaiveConfig = SeminaiveConfig(),
    init: Optional[CovParams] = None,
    bounds: Optional[tuple] = None,
) -> PredictionResult:
    """Iterative re-imputation predictor for left-censored data.

    Censored entries start at zero, are re-imputed each pass by
    leave-one-out kriging clamped into ``[0, bound]``, and the covariance
    is refitted after every pass.  Stops when, between passes, the fitted
    sill changes by at most ``c1`` relatively, stays below ``c2`` times the
    uncensored-data sill, and the imputed-data skewness exceeds ``c3``
    times the uncensored-data skewness; or at ``max_iter``.  The fits on
    all sites share one :class:`geocens.covariance.Lags`, and each refit
    starts at the ``theta`` where the last fit stopped, so on that fit's
    last evaluation when the fit stopped there;
    the fit to the uncensored sites alone has a ``Lags`` of its own.
    Every fit starts its search on the exact Hessian.  Each pass's
    leave-one-out means and the final kriging step read the factor of
    ``Sigma`` the last fit returned (see :func:`_loo_means` and
    :func:`krige`), so neither factors anything.
    """
    if data.cens_type != "left":
        raise UnsupportedMethodError("seminaive supports left censoring only")
    x = build_trend(data.coords, data.x_extra, trend)
    dist = distance_matrix(data.coords)
    if init is None:
        init = initial_values(data, trend, spec).cov
    part = partition(data)
    cens_idx, obs_idx = part.cens_idx, part.obs_idx

    y = data.value.astype(float).copy()
    y[cens_idx] = 0.0
    lags = Lags(dist)
    params, gauss_ll, factor, theta = gaussian_ml_fit(y, x, lags, spec, init, bounds)
    iterations = 0
    converged = cens_idx.size == 0

    if cens_idx.size:
        obs_fit, _, _, _ = gaussian_ml_fit(
            data.value[obs_idx], x[obs_idx], Lags(dist[np.ix_(obs_idx, obs_idx)]),
            spec, init, bounds,
        )
        sigma2_obs = obs_fit.cov.sigma2
        skew_obs = sample_skewness(data.value[obs_idx])
        bound = data.upper[cens_idx]

        for iterations in range(1, cfg.max_iter + 1):
            loo = _loo_means(params, x, y, factor, cens_idx)
            y_new = y.copy()
            y_new[cens_idx] = np.maximum(0.0, np.minimum(loo, bound))
            new_params, gauss_ll, factor, theta = gaussian_ml_fit(y_new, x, lags, spec, theta,
                                                                  bounds)
            rel_change = abs(new_params.cov.sigma2 - params.cov.sigma2) / params.cov.sigma2
            y = y_new
            params = new_params
            if (
                rel_change <= cfg.c1
                and new_params.cov.sigma2 <= cfg.c2 * sigma2_obs
                and sample_skewness(y) > cfg.c3 * skew_obs
            ):
                converged = True
                break

    x_pred = build_trend(np.atleast_2d(coords_pred), x_extra_pred, trend)
    result = krige(
        params, x, y, data.coords, x_pred, coords_pred, spec, method="seminaive", factor=factor
    )
    result.extra["gaussian_loglik"] = gauss_ll
    result.extra["imputed"] = y
    result.extra["iterations"] = iterations
    result.extra["converged"] = converged
    return result


def predict_saem(fit, x_pred, coords_pred) -> PredictionResult:
    """Krige with a completed fit's estimates, imputing censored readings
    by their fitted conditional means.  :func:`krige` factors ``Sigma`` at
    the estimates once, so a fresh fit and the same fit loaded from a file
    give the same predictions, bit for bit."""
    return krige(fit.params, fit.x, fit.zhat, fit.data.coords, x_pred, coords_pred, fit.spec,
                 method="saem")


# ---------------------------------------------------------------------------
# Hold-out comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodReport:
    """One comparison row: estimates, censored-data criteria, hold-out error."""

    method: str
    params: ModelParams
    loglik: float
    aic: float
    bic: float
    rmspe: float


def cross_validate(
    data: SpatialDataset,
    trend: TrendSpec,
    spec: CovarianceSpec,
    n_est: int,
    methods: Sequence[str],
    saem_config=None,
    seminaive_config: SeminaiveConfig = SeminaiveConfig(),
    init: Optional[CovParams] = None,
    bounds: Optional[tuple] = None,
    eval_seed: int = 20_25,
) -> list[MethodReport]:
    """Fit on the first ``n_est`` rows, predict the remaining rows, and
    report parameters, censored-data criteria, and root MSPE per method.

    ``methods`` is checked whole, non-empty and every name known, before
    any fit.  Hold-out rows must be uncensored (their readings are the
    comparison truth).  The reported log-likelihood is the censored-data
    likelihood of the estimation block evaluated at each method's estimates.
    """
    if not methods or any(m not in METHODS for m in methods):
        raise ConfigurationError(
            f"methods must be a non-empty list from {METHODS}, got {methods!r}"
        )
    if "saem" in methods and saem_config is None:
        raise ConfigurationError("saem method requires a saem_config")
    if not 1 <= n_est < data.n:
        raise DataValidationError("n_est must leave at least one hold-out row")
    check_count("n_est", n_est)
    est = SpatialDataset(
        coords=data.coords[:n_est],
        value=data.value[:n_est],
        cens=data.cens[:n_est],
        lower=data.lower[:n_est],
        upper=data.upper[:n_est],
        x_extra=None if data.x_extra is None else data.x_extra[:n_est],
        cens_type=data.cens_type,
    )
    hold_cens = data.cens[n_est:]
    if np.any(hold_cens == 1):
        raise DataValidationError("hold-out rows must be uncensored")
    coords_pred = data.coords[n_est:]
    x_extra_pred = None if data.x_extra is None else data.x_extra[n_est:]
    truth = data.value[n_est:]

    p = build_trend(est.coords, est.x_extra, trend).shape[1]
    k = param_count(p, spec.nugget_fixed)
    reports = []
    for method in methods:
        if method in ("naive1", "naive2"):
            res = predict_naive(
                est, trend, spec, method, coords_pred, x_extra_pred, init, bounds
            )
        elif method == "seminaive":
            res = predict_seminaive(
                est, trend, spec, coords_pred, x_extra_pred,
                seminaive_config, init, bounds,
            )
        else:
            from .saem import saem_fit

            fit = saem_fit(est, trend, spec, saem_config)
            x_pred = build_trend(coords_pred, x_extra_pred, trend)
            res = predict_saem(fit, x_pred, coords_pred)
        ll = loglik(res.params_used, est, trend, spec, rng=eval_seed)
        crit = criteria(ll.value, k, est.n)
        reports.append(
            MethodReport(
                method=method,
                params=res.params_used,
                loglik=ll.value,
                aic=crit.aic,
                bic=crit.bic,
                rmspe=float(np.sqrt(mspe(truth, res.mean))),
            )
        )
    return reports
