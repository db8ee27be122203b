"""Spatial censored linear model: data container, trend, and likelihood.

The response is a Gaussian random field with linear trend ``X beta`` and
covariance ``tau2 I + sigma2 R(phi)``.  Each site is either observed
exactly or known only to lie in an interval; the likelihood factors into
the exact density of the observed block times the conditional rectangle
probability of the censored block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .covariance import (
    CovarianceSpec,
    CovParams,
    cholesky_sigma,
    distance_matrix,
)
from .errors import DataValidationError, ModelSpecificationError
from .mvn import Rectangle, RectProb, logpdf_from_cholesky, mvn_rect_prob

CENS_TYPES = ("left", "right", "interval")


@dataclass(frozen=True)
class TrendSpec:
    """Mean-structure choice.

    ``cte`` is an intercept only, ``first`` adds the two coordinates as
    regressors, ``other`` uses an intercept plus the dataset's extra
    covariates.
    """

    kind: str = "cte"

    def __post_init__(self):
        if self.kind not in ("cte", "first", "other"):
            raise ModelSpecificationError(f"unknown trend kind {self.kind!r}")


@dataclass(frozen=True)
class ModelParams:
    """Full parameter vector: trend coefficients plus covariance parameters."""

    beta: np.ndarray
    cov: CovParams

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, float)))

    def as_array(self) -> np.ndarray:
        """Stacked ``(beta..., sigma2, phi, tau2)`` vector."""
        return np.concatenate([self.beta, self.cov.as_array()])


@dataclass(frozen=True)
class SpatialDataset:
    """Censored spatial observations.

    ``value`` holds the recorded reading for every site: the response when
    ``cens == 0``, the reported detection bound otherwise.  ``lower`` and
    ``upper`` carry the censoring interval for ``cens == 1`` rows (``-inf``
    lower bound for left censoring, ``+inf`` upper bound for right
    censoring); they are ignored for observed rows.  Every censored row
    needs at least one finite bound, and neither bound may be NaN.
    Coordinates and covariates must be finite.
    """

    coords: np.ndarray
    value: np.ndarray
    cens: np.ndarray
    lower: np.ndarray = field(default=None)
    upper: np.ndarray = field(default=None)
    x_extra: Optional[np.ndarray] = None
    cens_type: str = "left"

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        value = np.asarray(self.value, dtype=float)
        cens = np.asarray(self.cens, dtype=int)
        n = value.shape[0]
        if coords.ndim != 2 or coords.shape != (n, 2):
            raise DataValidationError("coords must be an (n, 2) array")
        if not np.isfinite(coords).all():
            raise DataValidationError("coords must be finite")
        if not np.isin(cens, (0, 1)).all():
            raise DataValidationError("cens must contain only 0 and 1")
        if self.cens_type not in CENS_TYPES:
            raise DataValidationError(f"unknown cens_type {self.cens_type!r}")
        lower = self.lower
        upper = self.upper
        if lower is None:
            lower = np.full(n, -np.inf)
        if upper is None:
            upper = np.full(n, np.inf)
        lower = np.asarray(lower, dtype=float).copy()
        upper = np.asarray(upper, dtype=float).copy()
        if lower.shape != (n,) or upper.shape != (n,):
            raise DataValidationError("lower/upper must be length-n vectors")
        lower[cens == 0] = -np.inf
        upper[cens == 0] = np.inf
        is_c = cens == 1
        if not np.isfinite(value[~is_c]).all():
            raise DataValidationError("observed rows require finite values")
        if np.isnan(lower[is_c]).any() or np.isnan(upper[is_c]).any():
            raise DataValidationError("censored rows require non-NaN bounds")
        if np.any(lower[is_c] >= upper[is_c]):
            raise DataValidationError("censored rows require lower < upper")
        if not np.all(np.isfinite(lower[is_c]) | np.isfinite(upper[is_c])):
            raise DataValidationError("censored rows require a finite bound")
        if self.cens_type == "left" and not np.all(np.isneginf(lower[is_c])):
            raise DataValidationError("left censoring requires lower = -inf")
        if self.cens_type == "right" and not np.all(np.isposinf(upper[is_c])):
            raise DataValidationError("right censoring requires upper = +inf")
        if self.x_extra is not None:
            x_extra = np.asarray(self.x_extra, dtype=float)
            if x_extra.ndim == 1:
                x_extra = x_extra[:, None]
            if x_extra.shape[0] != n:
                raise DataValidationError("x_extra row count must match n")
            if not np.isfinite(x_extra).all():
                raise DataValidationError("x_extra must be finite")
            object.__setattr__(self, "x_extra", x_extra)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "cens", cens)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n(self) -> int:
        return self.value.shape[0]

    @property
    def n_censored(self) -> int:
        return int(self.cens.sum())

    @classmethod
    def from_censored(
        cls,
        coords,
        values,
        cens,
        cens_type: str = "left",
        limits=None,
        x_extra=None,
    ) -> "SpatialDataset":
        """Build a dataset from a censoring indicator and detection limits.

        ``limits`` is the per-row (or scalar) detection bound for censored
        rows; it defaults to the recorded ``values`` there.
        """
        values = np.asarray(values, dtype=float)
        cens = np.asarray(cens, dtype=int)
        n = values.shape[0]
        if limits is None:
            bound = values.copy()
        else:
            bound = np.broadcast_to(np.asarray(limits, dtype=float), (n,)).copy()
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
        is_c = cens == 1
        if cens_type == "left":
            upper[is_c] = bound[is_c]
        elif cens_type == "right":
            lower[is_c] = bound[is_c]
        else:
            raise DataValidationError(
                "from_censored supports left/right; build interval data directly"
            )
        value = values.copy()
        value[is_c] = bound[is_c]
        return cls(
            coords=coords,
            value=value,
            cens=cens,
            lower=lower,
            upper=upper,
            x_extra=x_extra,
            cens_type=cens_type,
        )

    def fingerprint(self) -> str:
        """Stable SHA-256 of the numeric content, for provenance stamps."""
        import hashlib

        h = hashlib.sha256()
        for arr in (self.coords, self.value, self.cens, self.lower, self.upper):
            h.update(np.ascontiguousarray(arr).tobytes())
        if self.x_extra is not None:
            h.update(np.ascontiguousarray(self.x_extra).tobytes())
        h.update(self.cens_type.encode())
        return h.hexdigest()


@dataclass(frozen=True)
class Partition:
    """Observed and censored index sets, each in original order."""

    obs_idx: np.ndarray
    cens_idx: np.ndarray

    @property
    def order(self) -> np.ndarray:
        """All rows, observed first: ``obs_idx`` then ``cens_idx``."""
        return np.concatenate([self.obs_idx, self.cens_idx])


def build_trend(coords, x_extra, trend: TrendSpec) -> np.ndarray:
    """Trend matrix: ones / ones+coords / ones+covariates, full rank checked."""
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    if trend.kind == "cte":
        x = np.ones((n, 1))
    elif trend.kind == "first":
        x = np.column_stack([np.ones(n), coords])
    else:
        if x_extra is None:
            raise ModelSpecificationError("trend 'other' requires extra covariates")
        x_extra = np.asarray(x_extra, dtype=float)
        if x_extra.ndim == 1:
            x_extra = x_extra[:, None]
        x = np.column_stack([np.ones(n), x_extra])
    if not np.isfinite(x).all():
        raise DataValidationError(f"trend {trend.kind!r} needs finite coordinates and covariates")
    if np.linalg.matrix_rank(x) < min(x.shape):
        raise ModelSpecificationError("trend matrix is rank deficient")
    return x


def impute_bounds(data: SpatialDataset) -> np.ndarray:
    """The readings with each censored row set to its finite bound, or to
    the midpoint of its interval when both bounds are finite."""
    y = data.value.astype(float).copy()
    idx = np.flatnonzero(data.cens == 1)
    lo, hi = data.lower[idx], data.upper[idx]
    y[idx] = np.where(np.isfinite(hi), hi, lo)
    mid = np.isfinite(lo) & np.isfinite(hi)
    y[idx[mid]] = 0.5 * (lo[mid] + hi[mid])
    return y


def partition(data: SpatialDataset) -> Partition:
    """Indices of observed (``cens == 0``) and censored rows, original order."""
    cens = data.cens
    return Partition(
        obs_idx=np.flatnonzero(cens == 0), cens_idx=np.flatnonzero(cens == 1)
    )


def conditional_given_obs(lo, mu_all, values, n_obs):
    """Conditional law of the censored block given the observed block.

    ``lo`` is the lower Cholesky factor of ``Sigma`` over sites ordered
    observed first (:attr:`Partition.order`), ``mu_all`` the mean and
    ``values`` the readings in that order, and ``n_obs`` the number of
    observed sites.  With ``lo = [[L_oo, 0], [L_co, L_cc]]`` the censored
    block has mean ``mu_c + L_co L_oo^{-1} (values_o - mu_o)`` and
    covariance ``L_cc L_cc'``, and ``L_oo`` gives the Gaussian log density
    of the observed block.  Returns ``(mean, L_cc, log density)``.
    """
    l_oo = lo[:n_obs, :n_obs]
    wr = solve_triangular(l_oo, values[:n_obs] - mu_all[:n_obs], lower=True,
                          check_finite=False)
    mu = mu_all[n_obs:] + lo[n_obs:, :n_obs] @ wr
    return mu, lo[n_obs:, n_obs:], logpdf_from_cholesky(l_oo, wr)


@dataclass(frozen=True)
class LogLik:
    """Observed-data log-likelihood ``value = obs_term + log P``, where
    ``log P`` (``log_cens_prob``) is the log rectangle probability of the
    censored block, and ``se`` the Monte Carlo standard error of ``log P``
    and hence of ``value`` (0 when at most one site is censored).
    ``n_points`` counts the sample points of that estimate."""

    value: float
    se: float = 0.0
    n_points: int = 0
    log_cens_prob: float = 0.0

    @property
    def cens_prob(self) -> float:
        """``exp(log_cens_prob)``; 0 once it underflows, where
        ``log_cens_prob`` and ``value`` stay finite."""
        return math.exp(self.log_cens_prob)

    def __float__(self) -> float:
        return self.value


def loglik(
    params: ModelParams,
    data: SpatialDataset,
    trend: TrendSpec,
    spec: CovarianceSpec,
    rng=None,
) -> LogLik:
    """Observed-data log-likelihood of the censored spatial model.

    Factors ``Sigma`` once, over the sites ordered observed first, and
    conditions on the observed block (:func:`conditional_given_obs`, which
    also gives the exact Gaussian density of the observed block);
    :func:`loglik_from_conditional` then adds the log rectangle probability
    of the censored block.  ``rng`` (a seed, :class:`geocens.mvn.RngState`
    or ``Generator``) drives that estimate and is required when two or more
    sites are censored.
    """
    part = partition(data)
    order, cen = part.order, part.cens_idx
    x = build_trend(data.coords, data.x_extra, trend)[order]
    lo = cholesky_sigma(distance_matrix(data.coords[order]), spec, params.cov)
    mu, l_cc, obs_term = conditional_given_obs(lo, x @ params.beta, data.value[order],
                                               part.obs_idx.size)
    rect = Rectangle(lower=data.lower[cen], upper=data.upper[cen])
    return loglik_from_conditional(obs_term, mu, l_cc, rect, rng)


def loglik_from_conditional(obs_term: float, mu: np.ndarray, l_cc: np.ndarray,
                            rect: Rectangle, rng=None) -> LogLik:
    """Log-likelihood from the observed-block log density ``obs_term`` and
    the conditional law ``N(mu, l_cc l_cc')`` of the censored block, whose
    readings lie in ``rect``.  Only the log rectangle probability is
    estimated, at the tolerance (standard error of ``log P`` at most 1e-2)
    and point cap of :func:`geocens.mvn.mvn_rect_prob`'s defaults; it is
    computed in log space, so the value stays finite however small the
    probability.
    """
    if rect.dim == 0:
        return LogLik(value=obs_term)
    rp: RectProb = mvn_rect_prob(mu, l_cc @ l_cc.T, rect, rng=rng)
    return LogLik(value=obs_term + rp.log_prob, se=rp.log_prob_se, n_points=rp.n_points,
                  log_cens_prob=rp.log_prob)


@dataclass(frozen=True)
class Criteria:
    """Information criteria; ``aicc`` is None when ``n <= k + 1``."""

    aic: float
    bic: float
    aicc: Optional[float]


def param_count(p: int, nugget_fixed: bool) -> int:
    """Free-parameter count: trend coefficients plus 3 covariance
    parameters, or 2 when the nugget is held fixed."""
    return p + (2 if nugget_fixed else 3)


def criteria(loglik_value: float, n_params: int, n: int) -> Criteria:
    """AIC / BIC / small-sample-corrected AIC for a fitted model."""
    ll = float(loglik_value)
    k = n_params
    aic = -2.0 * ll + 2.0 * k
    bic = -2.0 * ll + k * np.log(n)
    aicc = aic + 2.0 * k * (k + 1.0) / (n - k - 1.0) if n > k + 1 else None
    return Criteria(aic=aic, bic=bic, aicc=aicc)
