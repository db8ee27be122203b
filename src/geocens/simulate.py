"""Seeded generation of censored Gaussian spatial datasets.

Draws a Gaussian random field with linear trend over estimation plus
hold-out sites, censors the estimation block at an empirical detection
limit, and returns the hold-out block uncensored as prediction truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .covariance import CovarianceSpec, CovParams, cholesky_sigma, distance_matrix
from .errors import ConfigurationError, DataValidationError, check_count
from .model import SpatialDataset, TrendSpec, build_trend
from .mvn import as_generator


@dataclass(frozen=True)
class SimConfig:
    """Settings for one simulated dataset.

    ``n_est`` (at least 1), ``n_pred`` and ``seed`` (at least 0) are
    integers, not ``bool``.  Coordinates are either supplied (``coords``,
    stacked estimation rows first) or drawn uniformly over ``coord_box``,
    ``((x0, x1), (y0, y1))`` with finite bounds and ``x0 < x1``,
    ``y0 < y1``.  For an ``other`` trend, covariates are drawn uniformly
    from ``covariate_ranges``.
    """

    n_est: int
    n_pred: int
    beta: Sequence[float]
    cov: CovParams
    spec: CovarianceSpec
    cens_level: float = 0.0
    cens_type: str = "left"
    trend: TrendSpec = field(default_factory=TrendSpec)
    coords: Optional[np.ndarray] = None
    coord_box: Tuple[Tuple[float, float], Tuple[float, float]] = ((0.0, 1.0), (0.0, 1.0))
    covariate_ranges: Optional[Sequence[Tuple[float, float]]] = None
    seed: int = 0

    def __post_init__(self):
        check_count("n_est", self.n_est)
        check_count("n_pred", self.n_pred, least=0)
        check_count("seed", self.seed, least=0)
        if not 0.0 <= self.cens_level < 1.0:
            raise ConfigurationError("cens_level must lie in [0, 1)")
        if self.cens_type not in ("left", "right"):
            raise ConfigurationError("cens_type must be 'left' or 'right'")
        if self.trend.kind == "other" and not self.covariate_ranges:
            raise ConfigurationError("trend 'other' needs covariate_ranges")
        box = np.asarray(self.coord_box, dtype=float)
        if box.shape != (2, 2) or not np.isfinite(box).all() or not np.all(box[:, 0] < box[:, 1]):
            raise DataValidationError("coord_box needs finite bounds with x0 < x1 and y0 < y1")


@dataclass(frozen=True)
class SimResult:
    """Estimation dataset, uncensored hold-out truth, and the detection
    limit that was applied (None when nothing was censored)."""

    data: SpatialDataset
    pred_coords: np.ndarray
    pred_x_extra: Optional[np.ndarray]
    pred_z: np.ndarray
    lod: Optional[float]


def simulate_scl(cfg: SimConfig) -> SimResult:
    """Draw one censored spatial dataset plus hold-out truth.

    The detection limit is the ``ceil(cens_level * n_est)``-th order
    statistic of the estimation block (mirrored for right censoring); the
    rows at or beyond it are flagged censored with the limit recorded as
    their reading.  Ties beyond the cut stay observed.
    """
    gen = as_generator(cfg.seed)
    n_total = cfg.n_est + cfg.n_pred

    if cfg.coords is not None:
        coords = np.asarray(cfg.coords, dtype=float)
        if coords.shape != (n_total, 2):
            raise DataValidationError("supplied coords must be (n_est + n_pred, 2)")
        if np.unique(coords, axis=0).shape[0] != n_total:
            raise DataValidationError("supplied coordinates must be distinct")
    else:
        (x0, x1), (y0, y1) = cfg.coord_box
        coords = np.column_stack(
            [gen.uniform(x0, x1, n_total), gen.uniform(y0, y1, n_total)]
        )
        if n_total != np.unique(coords, axis=0).shape[0]:
            raise DataValidationError("generated coordinates collide; change seed")

    x_extra = None
    if cfg.trend.kind == "other":
        cols = [gen.uniform(lo, hi, n_total) for (lo, hi) in cfg.covariate_ranges]
        x_extra = np.column_stack(cols)
    x = build_trend(coords, x_extra, cfg.trend)
    beta = np.asarray(cfg.beta, dtype=float)
    if beta.shape[0] != x.shape[1]:
        raise ConfigurationError(
            f"beta has length {beta.shape[0]} but trend matrix has {x.shape[1]} columns"
        )

    lo = cholesky_sigma(distance_matrix(coords), cfg.spec, cfg.cov)
    z = x @ beta + lo @ gen.standard_normal(n_total)

    z_est = z[: cfg.n_est]
    k = math.ceil(cfg.cens_level * cfg.n_est)
    cens = np.zeros(cfg.n_est, dtype=int)
    value = z_est.copy()
    lower = np.full(cfg.n_est, -np.inf)
    upper = np.full(cfg.n_est, np.inf)
    lod = None
    if k > 0:
        if cfg.cens_type == "left":
            order = np.argsort(z_est, kind="stable")
        else:
            order = np.argsort(-z_est, kind="stable")
        hit = order[:k]
        lod = float(z_est[order[k - 1]])
        cens[hit] = 1
        value[hit] = lod
        if cfg.cens_type == "left":
            upper[hit] = lod
        else:
            lower[hit] = lod

    data = SpatialDataset(
        coords=coords[: cfg.n_est],
        value=value,
        cens=cens,
        lower=lower,
        upper=upper,
        x_extra=None if x_extra is None else x_extra[: cfg.n_est],
        cens_type=cfg.cens_type,
    )
    return SimResult(
        data=data,
        pred_coords=coords[cfg.n_est :],
        pred_x_extra=None if x_extra is None else x_extra[cfg.n_est :],
        pred_z=z[cfg.n_est :],
        lod=lod,
    )


def inject_outliers(
    data: SpatialDataset, indices, magnitude_sd: float
) -> SpatialDataset:
    """Shift selected uncensored responses by ``magnitude_sd`` response
    standard deviations (sd taken before any shift is applied)."""
    if not np.isfinite(magnitude_sd):
        raise ConfigurationError(f"outlier magnitude_sd must be finite, got {magnitude_sd}")
    indices = np.atleast_1d(np.asarray(indices, dtype=int))
    if np.any((indices < 0) | (indices >= data.n)):
        raise DataValidationError(f"outlier indices must lie in [0, {data.n})")
    if np.any(data.cens[indices] == 1):
        raise DataValidationError("outlier indices must refer to uncensored rows")
    sd = float(np.std(data.value, ddof=1))
    value = data.value.copy()
    value[indices] += magnitude_sd * sd
    return replace(data, value=value)
