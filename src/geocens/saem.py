"""Stochastic-approximation EM estimation for the censored spatial model.

Each iteration runs one E-step, a few Gibbs sweeps of the censored block
under its conditional truncated normal law that continue the last
iteration's chain, folded into running estimates of the block's first and
second moments with a decreasing step size; then the M-step: the completed
log-likelihood maximized jointly in all parameters, the trend and the sill
profiled out and the range and relative nugget found by the bounded
gradient search that Gaussian maximum likelihood runs too
(:mod:`geocens.profile`).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .covariance import (
    CovarianceSpec, CovParams, Lags, _cholesky_inverse, cholesky_sigma, distance_matrix,
)
from .errors import ConfigurationError, DataValidationError, NumericalError, check_count
from .model import (
    Criteria,
    LogLik,
    ModelParams,
    SpatialDataset,
    TrendSpec,
    build_trend,
    conditional_given_obs,
    criteria,
    impute_bounds,
    loglik_from_conditional,
    param_count,
    partition,
)
from .mvn import Rectangle, RngState, _gibbs_sweeps
from .profile import ProfileFit, _gls, check_search_box, profile_fit

STOP_WINDOW = 10  # iterates per window of the stopping rule (path_drift)


@dataclass(frozen=True)
class SaemConfig:
    """Settings of the stochastic EM loop.

    ``m`` is the Monte Carlo sample size per iteration (values above 20
    trigger a warning: the stochastic approximation is designed for small
    samples), ``max_iter`` the iteration cap (both integers >= 1, not
    ``bool``), and ``pc`` the cut point:
    the first ``ceil(pc * max_iter)`` iterations run memoryless (step size
    one) before the decaying-step averaging phase begins.

    ``lower`` and ``upper`` bound the inner search over ``(phi, nu2)``,
    or ``phi`` alone for a fixed nugget (the box rule of
    :func:`geocens.profile.profile_fit`); the config rejects a box that
    breaks the search (:func:`geocens.profile.check_search_box`), and
    :func:`saem_fit` one of ``phi`` alone for a free nugget.
    ``seed`` must be an integer >= 0 (not ``bool``).  ``init_sigma2`` and
    ``init_phi`` (both finite and > 0) with ``init_nugget`` (finite and
    >= 0; 0 when None) seed the parameters; leave the first two None to use
    the automatic variogram-based initializer
    (:func:`geocens.predict.initial_values`), which accepts left-, right-
    and interval-censored data.  One of the two without the other is an
    error.

    ``tol`` is the relative tolerance of the stopping rule on the parameter
    path (:func:`path_drift`): the fit stops once, for every parameter, the
    change between the means of the last two windows of iterates plus the
    Monte Carlo standard error of the current iterate is below ``tol``
    times the parameter's size (for ``sigma2`` and ``tau2``, the sill
    ``sigma2 + tau2``).  ``tol = 0`` runs every iteration.

    Each E-step runs ``m`` Gibbs sweeps of the censored block and keeps
    every one: the chain carries over from one iteration to the next, so
    no sweep is discarded as burn-in.  The stopping window
    (:data:`STOP_WINDOW`) and the likelihood's precision (the defaults of
    :func:`geocens.mvn.mvn_rect_prob`: a standard error of ``log P`` of at
    most 1e-2, within a cap of 100 000 points) are fixed.
    """

    m: int = 15
    max_iter: int = 300
    pc: float = 0.2
    init_sigma2: Optional[float] = None
    init_phi: Optional[float] = None
    init_nugget: Optional[float] = None
    lower: tuple = (1e-4, 1e-4)
    upper: tuple = (1e4, 1e4)
    tol: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        check_count("m", self.m)
        check_count("max_iter", self.max_iter)
        if not 0.0 <= self.pc < 1.0:
            raise ConfigurationError("pc must lie in [0, 1)")
        if not self.tol >= 0:
            raise ConfigurationError("tol must be >= 0")
        check_count("seed", self.seed, least=0)
        check_start(self.init_sigma2, self.init_phi, self.init_nugget)
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        check_search_box(lower, upper)
        object.__setattr__(self, "lower", tuple(lower))
        object.__setattr__(self, "upper", tuple(upper))
        if self.m > 20:
            warnings.warn(
                "Monte Carlo sample per iteration above 20; the stochastic "
                "approximation is tuned for small samples",
                stacklevel=2,
            )


def check_start(sigma2: Optional[float], phi: Optional[float], nugget: Optional[float]):
    """Reject a start given by half (``sigma2`` without ``phi`` or the
    reverse), a start value that is not finite and > 0, and a nugget that
    is not finite and >= 0; None stands for a value not given."""
    if (sigma2 is None) != (phi is None):
        raise ConfigurationError("give both initial sigma2 and phi, or neither")
    if sigma2 is not None and not (0 < sigma2 < np.inf and 0 < phi < np.inf):
        raise ConfigurationError("initial sigma2 and phi must be finite and > 0")
    if nugget is not None and not 0 <= nugget < np.inf:
        raise ConfigurationError("initial nugget must be finite and >= 0")


def dense_second_moment(zhat: np.ndarray, zz: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The n x n second moment: ``zz`` in the block ``idx``, ``zhat zhat'``
    elsewhere."""
    out = np.outer(zhat, zhat)
    out[np.ix_(idx, idx)] = zz
    return out


@dataclass(frozen=True)
class SaemFit:
    """Completed fit: estimates, conditional moments, criteria, and the
    parameter trace.  ``loglik`` is estimated once, at ``params``.

    ``precision`` is ``Sigma^{-1}`` at ``params`` over the sites in data
    order, as :func:`saem_fit` forms it, or None for a fit built without it
    (:func:`geocens.cli.fit_from_payload`).  Only
    :func:`geocens.influence.local_influence` reads it (and factors
    ``Sigma`` when it is None).  :attr:`dist` is formed from the
    coordinates when first read and kept.
    """

    params: ModelParams
    zhat: np.ndarray
    zz_cc: np.ndarray
    loglik: LogLik
    criteria: Criteria
    trace_params: np.ndarray
    converged: bool
    iterations_used: int
    config: SaemConfig
    data: SpatialDataset
    trend: TrendSpec
    spec: CovarianceSpec
    x: np.ndarray = field(repr=False, default=None)
    fingerprint: str = ""
    precision: Optional[np.ndarray] = field(repr=False, default=None)

    @functools.cached_property
    def dist(self) -> np.ndarray:
        """Distance matrix of the sites, in data order."""
        return distance_matrix(self.data.coords)

    @property
    def zzhat(self) -> np.ndarray:
        """Dense n x n second moment, rebuilt from ``zhat`` and ``zz_cc``."""
        return dense_second_moment(self.zhat, self.zz_cc, partition(self.data).cens_idx)

    @property
    def aic(self) -> float:
        return self.criteria.aic

    @property
    def bic(self) -> float:
        return self.criteria.bic

    @property
    def aicc(self) -> Optional[float]:
        return self.criteria.aicc


def delta_schedule(k: int, max_iter: int, pc: float) -> float:
    """Step size: 1 through the cut point, then ``1 / (k - cut)``."""
    if not 1 <= k <= max_iter:
        raise ConfigurationError("iteration index out of range")
    cut = math.ceil(pc * max_iter)
    return 1.0 if k <= cut else 1.0 / (k - cut)


def path_drift(trace: np.ndarray, cut: int) -> np.ndarray:
    """Relative drift of the parameter path at iteration ``len(trace)``,
    one entry per parameter.

    ``cut`` is the last iteration with step size one, and ``trace`` holds
    at least ``2 * STOP_WINDOW`` rows after it.  The drift is the change
    between the means of the last two windows of :data:`STOP_WINDOW` rows
    plus the Monte Carlo standard error of the current iterate, over the
    magnitude of the last window's mean, or for ``sigma2`` and ``tau2`` of
    the sill ``|sigma2| + |tau2|``, so a nugget near 0 does not hold up the
    stop; a parameter that does not move reads 0.

    After the cut the step size ``delta_j = 1 / (j - cut)`` turns the
    moments into running means, so successive changes shrink whether or
    not the fit has converged.  The iterate at ``k`` averages ``k - cut``
    E-steps, and each step ``theta_j - theta_(j-1)`` is about ``delta_j``
    times one E-step's Monte Carlo error: the spread of the steps over
    ``delta_j``, divided by ``sqrt(k - cut)``, is the iterate's standard
    error.
    """
    w = STOP_WINDOW
    k = trace.shape[0]
    tail = trace[-2 * w :]
    prev, last = tail[:w].mean(axis=0), tail[w:].mean(axis=0)
    inverse_step = np.arange(k - 2 * w + 2, k + 1) - cut
    noise = np.diff(tail, axis=0) * inverse_step[:, None]
    change = np.abs(last - prev) + noise.std(axis=0, ddof=1) / math.sqrt(k - cut)
    size = np.abs(last)
    size[-3] = size[-1] = size[-3] + size[-1]  # sigma2 and tau2 on the sill's scale
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(change > 0, change / size, 0.0)


def _e_step(z_c, zz_cc, chain, mu, l_cc, rect, delta, m, rng):
    """One E-step: ``m`` Gibbs sweeps, all kept, of the censored block from
    ``chain`` under its conditional law (mean ``mu``, covariance factor
    ``l_cc``, swept on the precision it gives), then a step ``delta`` of
    the moments ``z_c`` and ``zz_cc`` towards the sample's.  Returns the
    new ``(z_c, zz_cc, chain)``."""
    samples = _gibbs_sweeps(mu, _cholesky_inverse(l_cc), rect, m, burn_in=0, thin=1,
                            rng=rng, start=chain)
    mc1 = samples.mean(axis=0)
    mc2 = samples.T @ samples / m
    return z_c + delta * (mc1 - z_c), zz_cc + delta * (mc2 - zz_cc), samples[-1]


def cm_step(
    zhat: np.ndarray,
    zz: np.ndarray,
    idx: np.ndarray,
    x: np.ndarray,
    lags: Lags,
    spec: CovarianceSpec,
    config: SaemConfig,
    start: CovParams | np.ndarray,
    metric: Optional[np.ndarray] = None,
    max_steps: Optional[int] = None,
) -> ProfileFit:
    """Conditional maximization given the current moment estimates.

    ``zz`` is the second moment of the block ``idx`` of the response; the
    second moment elsewhere is ``zhat zhat'``.  The step maximizes the
    completed log-likelihood jointly in all parameters: the profile search
    of :func:`geocens.profile.profile_fit` on ``zhat``, with the block's
    covariance ``zz - zhat_c zhat_c'`` added to the quadratic form, within
    the box of ``config``.  The search starts at ``start``, a
    :class:`geocens.covariance.CovParams` or the ``theta`` the last step's
    search stopped at, on ``metric``, the metric that search ended with,
    or on the exact Hessian of the objective when that is None (the first
    step of a fit).  It runs to convergence, or stops after ``max_steps``
    accepted steps when that is given.

    Returns the search's :class:`geocens.profile.ProfileFit`: the new
    parameters, the lower Cholesky factor of the covariance matrix at them
    (``sqrt(sigma2)`` times the factor of ``Psi`` that the search's
    accepted evaluation computed), and the metric and ``theta`` the search
    ended with, for the next step.  ``lags`` holds the distances and the
    last step's last evaluation, read when that was at the start's
    ``theta`` (:mod:`geocens.profile`).
    """
    cov_c = zz - np.outer(zhat[idx], zhat[idx])
    return profile_fit(zhat, x, lags, spec, cov_c, idx, start, config.lower, config.upper,
                       metric, max_steps)


def saem_fit(
    data: SpatialDataset,
    trend: TrendSpec,
    spec: CovarianceSpec,
    config: SaemConfig,
) -> SaemFit:
    """Run the full stochastic EM loop and return the completed fit.

    One Cholesky factor of ``Sigma`` over the sites ordered observed first
    (:attr:`geocens.model.Partition.order`) holds every block a parameter
    point needs.  Each CM step maximizes the completed log-likelihood in
    all parameters (:func:`cm_step`), so on uncensored data, where that is
    the log-likelihood, the fit lands on the Gaussian maximum-likelihood
    estimate whether the nugget is free or fixed.  Each CM step's result
    comes factored from the search that found it.  The start is factored here, and then again by the
    first CM search: that search starts at the start's range with nothing
    held on the ``Lags`` yet, so its first evaluation forms R and factors
    Psi there anew.  The observed block of a point's factor gives the
    observed-block log density, its lower blocks the conditional law of the censored
    block (:func:`geocens.model.conditional_given_obs`, which keeps the
    covariance as its factor ``L_cc``), and at the start the initial trend
    coefficients, by generalized least squares.  The next E-step
    sweeps on the precision from ``L_cc``; only the final likelihood
    estimate forms ``L_cc L_cc'``, for its rectangle probability.  Every
    CM search reads one :class:`geocens.covariance.Lags` of the ordered
    distances, and starts at the ``theta`` where the last one stopped, on
    the arrays that search left held there.  The first CM search starts on
    the exact Hessian of its objective; each later one on the metric the
    search before it ended with, which the loop carries from one step to
    the next beside the factor and ``theta`` (from the cut point on,
    successive CM objectives differ only by the step size of the moment
    update).  The CM searches through the cut point, where each objective
    is new, and at the last iteration run to convergence; every one in
    between stops after its first accepted step (:mod:`geocens.profile`).
    When the stopping rule ends the loop before the cap, that iteration's
    search is continued to convergence on the same moments, from where it
    stopped: the returned ``params``, and the last row of
    ``trace_params``, are always the converged CM maximizer of the final
    moments, while the rule reads the one-step iterate, as a fit without
    the rule does.

    The first moment is kept in the factor's order, observed sites first:
    its observed rows hold the readings, and each E-step updates its last
    ``n_c`` rows in place (none runs when nothing is censored).  The
    moments and the Gibbs chain start at the bounds the data impute
    (:func:`geocens.model.impute_bounds`), and the chain persists across
    iterations: each E-step makes ``config.m`` transitions under the
    current conditional law and keeps every draw (one transition kernel per
    iteration, as MCMC-SAEM needs; Kuhn & Lavielle 2004).  The memoryless
    phase before the cut point forgets the start.

    Iterates until the parameter path settles (every entry of
    :func:`path_drift` over the post-cut iterates below ``config.tol``,
    checked once two windows of them exist) or the iteration cap is
    reached.  The log-likelihood is then estimated once, at the final point,
    from the conditional law the loop already holds.

    The fit's ``precision`` is ``Sigma^{-1}`` at the final point, in data
    order: the ``potri`` inverse of the loop's last factor.  The arrays the
    last CM search held are dropped first, so forming it adds no n x n
    array beyond the loop's peak.
    """
    x = build_trend(data.coords, data.x_extra, trend)
    n, p = x.shape
    if n < p + 2:
        raise DataValidationError(f"need at least p + 2 = {p + 2} sites, got {n}")
    if len(config.lower) < 2 and not spec.nugget_fixed:
        raise ConfigurationError("search box bounds (phi, nu2) for a free nugget; got phi alone")
    cut = math.ceil(config.pc * config.max_iter)

    root = RngState(config.seed)
    gibbs_rng, ll_rng = root.spawn(2)

    if config.init_sigma2 is None:
        from .predict import initial_values

        cov = initial_values(data, trend, spec).cov
    else:
        tau2 = (
            spec.fixed_nugget_value
            if spec.nugget_fixed
            else (config.init_nugget if config.init_nugget is not None else 0.0)
        )
        cov = CovParams(
            sigma2=float(config.init_sigma2), phi=float(config.init_phi), tau2=float(tau2)
        )

    # Sigma, the trend and the first moment z are all in the observed-first order
    part = partition(data)
    order, n_obs = part.order, part.obs_idx.size
    x_o = x[order]
    cen_o = np.arange(n_obs, n)
    rect = Rectangle(lower=data.lower[part.cens_idx], upper=data.upper[part.cens_idx])
    z = impute_bounds(data)[order]
    zz_cc, chain = np.outer(z[n_obs:], z[n_obs:]), z[n_obs:].copy()

    trace_params = np.full((config.max_iter, p + 3), np.nan)
    converged = False
    iterations = 0

    lags = Lags(distance_matrix(data.coords[order]))
    lo = cholesky_sigma(lags.dist, spec, cov)
    params = ModelParams(beta=_gls(lo, x_o, z)[0], cov=cov)
    mu, l_cc, obs_term = conditional_given_obs(lo, x_o @ params.beta, z, n_obs)
    start, metric = cov, None
    for k in range(1, config.max_iter + 1):
        iterations = k
        try:
            if n_obs < n:
                z[n_obs:], zz_cc, chain = _e_step(
                    z[n_obs:], zz_cc, chain, mu, l_cc, rect,
                    delta_schedule(k, config.max_iter, config.pc), config.m, gibbs_rng,
                )
            # one accepted step between the cut and the last iteration
            steps = None if k <= cut or k == config.max_iter else 1
            new = cm_step(z, zz_cc, cen_o, x_o, lags, spec, config, start, metric, steps)
            trace_params[k - 1] = new.params.as_array()
            converged = k - cut >= 2 * STOP_WINDOW and bool(np.all(
                path_drift(trace_params[:k], cut) < config.tol
            ))
            if converged and steps is not None:
                # finish the stopped search on the same moments
                new = cm_step(z, zz_cc, cen_o, x_o, lags, spec, config, new.theta, new.metric)
                trace_params[k - 1] = new.params.as_array()
            params, lo, start, metric = new.params, new.factor, new.theta, new.metric
            mu, l_cc, obs_term = conditional_given_obs(lo, x_o @ params.beta, z, n_obs)
        except NumericalError as exc:
            raise NumericalError(f"iteration {k}: {exc}") from exc
        if converged:
            break

    lags.held = None
    back = np.argsort(order)
    prec = _cholesky_inverse(lo)[np.ix_(back, back)]
    ll = loglik_from_conditional(obs_term, mu, l_cc, rect, ll_rng)
    crit = criteria(ll.value, param_count(p, spec.nugget_fixed), n)
    return SaemFit(
        params=params,
        zhat=z[back],
        zz_cc=zz_cc,
        loglik=ll,
        criteria=crit,
        trace_params=trace_params[:iterations],
        converged=converged,
        iterations_used=iterations,
        config=config,
        data=data,
        trend=trend,
        spec=spec,
        x=x,
        fingerprint=data.fingerprint(),
        precision=prec,
    )
