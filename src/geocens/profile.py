"""The completed log-likelihood: its Hessian, and the profile search over
the range and relative nugget.

The conditional maximization of the stochastic EM
(:func:`geocens.saem.cm_step`) and Gaussian maximum likelihood
(:func:`geocens.predict.gaussian_ml_fit`) are one fit,
:func:`profile_fit`: it maximizes the completed Gaussian log-likelihood
jointly in ``(beta, sigma2, phi, nu2)`` by minimizing over ``theta = (phi,
nu2)``, or ``phi`` alone when the nugget is fixed at 0,

    f(theta) = 1/2 [n log sigma2 + log|Psi| + q / sigma2],
    Psi = R(phi) + nu2 I = L L',   Q = Psi^{-1},
    q = |L^{-1} r|^2 + sum(Q_cc * C),

where ``r = z - X beta`` is the residual of the first moment ``z`` of the
response and ``C`` the covariance of its block ``c`` (the censored rows in
the CM step, ``zz_cc - z_c z_c'``; empty for Gaussian ML).  The trend is
profiled by generalized least squares, and the sill by ``q / n`` (a free
nugget, or one fixed at 0 with ``nu2`` held at 0) or tied to ``tau2 /
nu2`` (a nugget fixed at ``tau2 > 0``, with ``(phi, nu2)`` searched), so
each CM step is a full M-step: SAEM with an exact M-step converges to
stationary points of the observed likelihood (Delyon, Lavielle & Moulines
1999, Ann. Statist.).  :func:`profile_fit` is the one place that turns a
covariance spec, a start and a box into a search: a box without a ``nu2``
component takes the range of :func:`default_search_box`, and a tied sill
floors ``nu2`` at 1e-10.  Each evaluation forms R(phi) and ``dR/dphi`` in
one kernel pass, and L and the lower triangle of Q (LAPACK ``potri``)
once, or reads all four from the last evaluation on the caller's
:class:`geocens.covariance.Lags` (see :func:`profile_objective`): each CM
step and each seminaive refit starts at the ``theta`` where the last
search on its distances stopped.  The evaluation reads Q off its triangle
and never mirrors it; the Hessian builder mirrors it once, into ``P = Q /
sigma2``.  The whitened residual ``L^{-1} r`` comes from the GLS fit (one
triangular solve of ``[X, z]``); L is handed back with the fitted trend
and sill.
The residual term of q stays on the factor: ``r' Q r`` loses accuracy as
the condition of Psi grows, and the search compares values at 1e-10.
With ``a = Q r``, ``B = Q[:, c]`` and ``Psi_j`` the derivatives of Psi
(``dR/dphi`` for ``phi``, ``I`` for ``nu2``), the sill held, the gradient
is closed form (Mardia & Marshall 1984, Biometrika):

    df/dtheta_j = 1/2 [l_j + q_j / sigma2],
    l_j = tr(Q Psi_j),   q_j = -(a' Psi_j a + tr(C B' Psi_j B)).

A GLS-profiled trend adds nothing to it (envelope theorem), and a sill
that moves with ``theta`` adds the chain term of ``n log s + q / s``.
``f`` is minus the completed log-likelihood with the trend and sill
profiled, so its exact Hessian is that of the log-likelihood in ``(beta,
sigma2, phi[, tau2])`` (:func:`_hessian`, which the influence diagnostics
read too) at the evaluation's profiled point, re-expressed in ``theta``
(``tau2 = nu2 sigma2``, or ``sigma2 = tau2 / nu2`` tied), and reduced to
minus its Schur complement over the profiled coordinates: the implicit
function theorem (Patefield 1977, Sankhya B).

The search is a projected Newton-type method with an epsilon-active set
(Bertsekas 1982, SIAM J. Control Optim.): the metric is the exact Hessian,
its eigenvalues made positive, after any step that needed backtracking or
showed no positive curvature, and a BFGS update otherwise; the step is
projected onto the box and halved until it meets the Armijo condition.
A search starts on a metric it is handed, or else on the exact Hessian,
and returns the metric it ended with.  Each CM step after the first in a
fit is handed the last one's: from the cut point on, successive CM
objectives differ only by the step size of the moment update, so the
metric carries over as in a warm-started quasi-Newton method (Nocedal &
Wright 2006, ch. 6), and a stale one corrects itself at the first halved
step.  Gaussian ML is never handed one: between seminaive passes the
imputed data change wholesale, so the last metric is no guide.

A search runs to convergence unless it is given a number of accepted
steps to stop after.  The SAEM loop (:func:`geocens.saem.saem_fit`) runs
its CM searches to convergence through the cut point, where each
objective is new, and at its final iterate; every search in between
takes one accepted step, one quasi-Newton step from where the last search
stopped on the metric it handed over.  EM stays convergent when its M-step
takes one Newton-type step (Lange 1995, J. R. Stat. Soc. B), and an
M-step error that shrinks with the step size leaves the SAEM limit
unchanged (Delyon, Lavielle & Moulines 1999, Ann. Statist.).  Gaussian ML
and :func:`geocens.saem.cm_step` called on its own run to convergence.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

import numpy as np
from scipy.linalg import lapack

from . import covariance
from .covariance import CovarianceSpec, CovParams
from .errors import ConfigurationError, NumericalError, SingularCovarianceError
from .model import ModelParams

# corr_dcorr_matrix and spd_cholesky are looked up on the covariance module
# at call time, so that a wrapper installed there (a profiler or a call
# counter) sees the search's evaluations too.

# The search stops when the Newton decrement -g'd falls to this value.  It
# is absolute: scaling the data shifts f by a constant and leaves g alone.
_DECREMENT_TOL = 1e-10

# A bound is active when the iterate lies within this share of the box
# width of it and the gradient points out of the box.
_ACTIVE_TOL = 1e-9

_ARMIJO = 1e-4
_MAX_ITER = 200

_Fitted = tuple[np.ndarray, float, np.ndarray]

_NU2_RANGE = (0.0, 1e3)  # of default_search_box, and of a box without nu2


def _gls(lo: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generalized least squares of ``y`` on ``x`` under the covariance
    ``lo lo'``: the coefficients and the whitened residual
    ``lo^{-1} (y - x beta)``, from one triangular solve of ``[x, y]``."""
    w, _ = lapack.dtrtrs(lo, np.column_stack([x, y]), lower=1)
    xw, yw = w[:, :-1], w[:, -1]
    beta, *_ = np.linalg.lstsq(xw, yw, rcond=None)
    return beta, yw - xw @ beta


def _off_diagonal(m: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of the C-contiguous square ``m`` as a
    strided ``(n - 1, n)`` view: each row of the flat array after its first
    entry, cut into rows of ``n + 1``, ends on a diagonal entry."""
    n = m.shape[0]
    return m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


class _Curvature:
    """The terms that the Hessian of the completed log-likelihood and the
    perturbation cross-derivatives of :mod:`geocens.influence` share at
    ``params``:
    ``cov_c`` is the covariance of the block ``idx``, ``rho`` and ``d_r``
    are R (read off its diagonal only) and ``dR/dphi`` over ``dist``, and
    ``prec`` is ``P = Sigma^{-1}``, C-contiguous.  With ``Sigma_k`` the
    derivative by the k-th covariance parameter (``R``, ``sigma2 dR/dphi``
    and ``I``), ``A_k = P Sigma_k``, ``tr_a[k] = tr(A_k)``, ``tr_aa[k, l] =
    tr(A_k A_l)``, ``u[k] = Sigma_k a``, ``v[k] = P u[k]``, ``s[k] = Sigma_k
    B`` and ``t[k] = P s[k]``; ``second`` holds, for each nonzero second
    derivative ``Sigma_kl`` by parameter position, ``(sum(P * Sigma_kl),
    a' Sigma_kl a, B' Sigma_kl B)``.

    The sill's terms come from ``P Sigma = I``: ``P R = (I - tau2 P) /
    sigma2``, ``R a = (r - tau2 a) / sigma2``, ``P R a = (a - tau2 P a) /
    sigma2``, ``R B = (E_c - tau2 B) / sigma2`` and ``P R B = (B - tau2 P
    B) / sigma2``, ``E_c`` the unit columns of ``idx``, each losing about
    ``log10(tau2 / sigma2)`` digits when the nugget dominates.  No n x n
    array of ``P R`` is formed: its traces are taken entry by entry from
    the diagonal ``1 - tau2 P_ii`` and the off-diagonal sums of ``P * P``
    and ``P * P dR/dphi`` (:func:`_off_diagonal`); the form ``n - 2 tau2
    tr P + tau2^2 tr(P^2)`` would cancel about twice as many digits.  The
    ``(sigma2, phi)`` terms are those of ``A_phi``, ``u[1]`` and ``s[1]``
    over ``sigma2``, and the ``(phi, phi)`` terms ``sigma2`` times those of
    ``d2R/dphi2``, whose array is dropped before ``P dR/dphi``, the one n
    x n product, is formed.  The n x n_c products are four: ``dR/dphi B``,
    ``P dR/dphi B``, ``P B`` and ``d2R/dphi2 B``.
    """

    def __init__(self, params, zhat, cov_c, idx, x, rho, d_r, dist, spec, prec):
        cov = params.cov
        sigma2, tau2 = cov.sigma2, cov.tau2
        self.x, self.beta = x, np.asarray(params.beta, dtype=float)
        self.idx, self.cov_c = idx, cov_c
        self.r = zhat - x @ self.beta
        self.a = a = prec @ self.r
        self.px = prec @ x
        self.b = b = prec[:, idx]

        d2 = covariance._d2corr_dphi2(spec.family, spec.kappa, dist, cov.phi, rho, d_r)
        phi_phi = (sigma2 * np.vdot(prec, d2), sigma2 * (a @ (d2 @ a)), sigma2 * (b.T @ (d2 @ b)))
        del d2
        da, db = d_r @ a, d_r @ b
        pa, pb = prec @ a, prec @ b
        m = prec @ d_r  # A_phi / sigma2
        diag_p, diag_m = np.diagonal(prec), np.diagonal(m)
        off_p = _off_diagonal(prec)
        pp = np.einsum("ij,ij->", off_p, off_p)
        pm = np.einsum("ij,ij->", off_p, _off_diagonal(m))
        mm = np.einsum("ij,ji->", m, m)
        trace_m = float(np.sum(diag_m))
        del m
        self.second = {(0, 1): (trace_m, a @ da, b.T @ db), (1, 1): phi_phi}

        e = 1.0 - tau2 * diag_p  # sigma2 times the diagonal of P R
        n_a = 2 if spec.nugget_fixed else 3
        self.tr_a = [np.sum(e) / sigma2, sigma2 * trace_m, np.sum(diag_p)][:n_a]
        # tr(A_k A_l) = sum(A_k * A_l') is sum(A_k * A_l) when either is
        # symmetric, as all but A_phi are
        sill_phi, sill_nugget = e @ diag_m - tau2 * pm, (e @ diag_p - tau2 * pp) / sigma2
        phi_nugget = sigma2 * (diag_m @ diag_p + pm)
        self.tr_aa = np.array([
            [(e @ e + tau2**2 * pp) / sigma2**2, sill_phi, sill_nugget],
            [sill_phi, sigma2**2 * mm, phi_nugget],
            [sill_nugget, phi_nugget, diag_p @ diag_p + pp],
        ])[:n_a, :n_a]
        s_sill = b * -tau2
        s_sill[idx, np.arange(idx.size)] += 1.0
        s_sill /= sigma2
        self.u = [(self.r - tau2 * a) / sigma2, sigma2 * da, a][:n_a]
        self.s = [s_sill, sigma2 * db, b][:n_a]
        self.v = [(a - tau2 * pa) / sigma2, sigma2 * (prec @ da), pa][:n_a]
        self.t = [(b - tau2 * pb) / sigma2, sigma2 * (prec @ db), pb][:n_a]


def _hessian(c: _Curvature) -> np.ndarray:
    """Hessian of the completed log-likelihood (the objective Q of
    :mod:`geocens.influence`) in ``(beta, sigma2, phi[, tau2])`` from the
    shared terms: log-det part ``1/2 [tr(A_a A_b) - sum(P * Sigma_ab)]``,
    quadratic part ``2 (Sigma_b a)' P (Sigma_a a) - a' Sigma_ab a
    + sum((2 (Sigma_b B)' P (Sigma_a B) - B' Sigma_ab B) * C)`` (entering
    with weight -1/2), beta-alpha block ``-(P X)' Sigma_a a``.
    """
    p = c.x.shape[1]
    n_a = len(c.u)
    h = np.zeros((p + n_a, p + n_a))
    h[:p, :p] = -(c.x.T @ c.px)
    for i in range(n_a):
        h[:p, p + i] = -(c.px.T @ c.u[i])
        for j in range(i, n_a):
            logdet = c.tr_aa[i, j]
            quad = 2.0 * float(c.u[j] @ c.v[i])
            block = 2.0 * (c.s[j].T @ c.t[i])
            second = c.second.get((i, j))
            if second is not None:
                logdet -= second[0]
                quad -= second[1]
                block -= second[2]
            quad += float(np.sum(block * c.cov_c))
            h[p + i, p + j] = 0.5 * logdet - 0.5 * quad
    return np.triu(h) + np.triu(h, 1).T


def profile_objective(
    theta: np.ndarray,
    lags: covariance.Lags,
    spec: CovarianceSpec,
    z: np.ndarray,
    x: np.ndarray,
    cov_c: np.ndarray,
    idx: np.ndarray,
) -> tuple[float, np.ndarray, Callable[[], np.ndarray], _Fitted]:
    """Value, gradient, Hessian builder and fitted trend and sill of ``f``
    at ``theta = (phi, nu2)``, or at ``theta = (phi,)`` with the relative
    nugget held at 0.

    ``z`` is the first moment of the response, whose trend on the design
    matrix ``x`` is profiled by generalized least squares, and ``cov_c``
    the covariance of its block ``idx`` (empty for Gaussian ML).  The sill
    is tied to ``tau2 / nu2`` when ``spec`` fixes the nugget at ``tau2``
    and ``nu2`` is searched, and profiled at ``q / n`` otherwise.

    The third element is a function of no arguments that returns the exact
    Hessian (:func:`_hessian` reduced to ``theta``) from the state of this
    evaluation, without evaluating R(phi) or factoring Psi again.  Raises
    :class:`SingularCovarianceError` when Psi cannot be factored.  The
    fourth element is ``(beta, sigma2, lo)``: the GLS trend, the sill of
    ``f`` and L.

    An evaluation forms R and ``dR/dphi`` in one kernel pass
    (:func:`geocens.covariance.corr_dcorr_matrix`) over ``lags``, the
    :class:`geocens.covariance.Lags` the caller keeps for its distances,
    and leaves its Psi, L, the lower triangle of Q that LAPACK ``potri``
    fills (the rest zero) and ``dR/dphi`` held there, keyed by ``(spec,
    phi, nu2)``.  An evaluation at that key reads them; any other drops
    them before it forms its own.  The evaluation reads Q off the triangle
    without mirroring it: ``tr(Q dR/dphi)`` is twice the sum over the
    triangle, as ``dR/dphi`` has a zero diagonal, ``a = Q r`` is one
    transposed triangular solve of the whitened residual, and ``Q[:, c]``
    is gathered from the triangle's columns and rows.  The Hessian builder
    mirrors it once, into ``P = Q / sigma2``.
    """
    dim = len(theta)
    phi = float(theta[0])
    nu2 = float(theta[1]) if dim > 1 else 0.0
    key = (spec, phi, nu2)
    held, lags.held = lags.held, None
    if held is None or held[0] != key:
        held = None  # a miss drops the held arrays before forming its own
        psi, d_phi = covariance.corr_dcorr_matrix(lags, spec, phi)
        psi[np.diag_indices_from(psi)] += nu2
        lo = covariance.spd_cholesky(psi)
        held = (key, (psi, lo, lapack.dpotri(lo, lower=1)[0], d_phi))
    lags.held = held
    psi, lo, tri, d_phi = held[1]
    n = lo.shape[0]
    beta, rw = _gls(lo, x, z)
    logdet = 2.0 * np.sum(np.log(np.diag(lo)))

    a, _ = lapack.dtrtrs(lo, rw, lower=1, trans=1)
    diag_q = np.diagonal(tri)
    b = tri[:, idx]  # Q[:, c] below the diagonal, zero above
    b += tri[idx].T  # and above it, the diagonal twice
    b[idx, np.arange(idx.size)] -= diag_q[idx]
    q = float(rw @ rw + np.sum(b[idx] * cov_c))
    da = d_phi @ a
    db = d_phi @ b
    q_grad = [-(a @ da + np.sum((b.T @ db) * cov_c))]
    ell = [2.0 * np.vdot(tri.T, d_phi)]
    if dim > 1:
        q_grad.append(-(a @ a + np.sum((b.T @ b) * cov_c)))
        ell.append(np.sum(diag_q))
    q_grad, ell = np.array(q_grad), np.array(ell)

    # the sill s and its derivative in theta
    ds = np.zeros(dim)
    if spec.nugget_fixed and dim > 1:
        s = spec.fixed_nugget_value / nu2
        ds[1] = -s / nu2
    else:
        s = max(q / n, 1e-300)
        ds = q_grad / n
    value = 0.5 * (n * np.log(s) + logdet + q / s)
    df_ds = 0.5 * (n / s - q / s**2)
    grad = 0.5 * (ell + q_grad / s) + df_ds * ds

    def hess() -> np.ndarray:
        # Psi differs from R only on the diagonal, which _Curvature skips
        p = x.shape[1]
        tau2 = spec.fixed_nugget_value if spec.nugget_fixed else nu2 * s
        prec = tri.T / s  # P's upper triangle, mirrored in place
        for j in range(1, n):
            prec[j, :j] = prec[:j, j]
        c = _Curvature(ModelParams(beta=beta, cov=CovParams(sigma2=s, phi=phi, tau2=tau2)),
                       z, cov_c, idx, x, psi, d_phi, lags.dist, spec, prec)
        h = -_hessian(c)  # of f's unprofiled form, in (beta, sigma2, phi[, tau2])
        jac, chain, kept = np.eye(h.shape[0]), np.zeros(h.shape), [p + 1]
        if dim > 1:
            # the chain term's log-likelihood gradient, in the sill or nugget
            k = 0 if spec.nugget_fixed else 2
            dq = 0.5 * (c.a @ c.u[k] + np.sum((c.b.T @ c.s[k]) * cov_c) - c.tr_a[k])
            if spec.nugget_fixed:  # nu2 in place of sigma2 = tau2 / nu2
                jac[p, p], chain[p, p], kept = -s / nu2, -2.0 * s / nu2**2 * dq, [p + 1, p]
            else:  # nu2 in place of tau2 = nu2 sigma2
                jac[p + 2, p], jac[p + 2, p + 2], kept = nu2, s, [p + 1, p + 2]
                chain[p, p + 2] = chain[p + 2, p] = -dq
        h = jac.T @ h @ jac + chain
        out = [i for i in range(p + 1) if i not in kept]
        return h[np.ix_(kept, kept)] - h[np.ix_(kept, out)] @ np.linalg.solve(
            h[np.ix_(out, out)], h[np.ix_(out, kept)])

    return float(value), grad, hess, (beta, s, lo)


def _positive_metric(h: np.ndarray) -> np.ndarray:
    """``h`` with its eigenvalues replaced by their absolute values, floored
    at 1e-10 of the largest; the identity if ``h`` is not finite."""
    if not np.all(np.isfinite(h)):
        return np.eye(h.shape[0])
    w, v = np.linalg.eigh(0.5 * (h + h.T))
    w = np.abs(w)
    top = w.max()
    if not top > 0:
        return np.eye(h.shape[0])
    return (v * np.maximum(w, 1e-10 * top)) @ v.T


def profile_search(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray, Callable[[], np.ndarray], Any]],
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    metric: Optional[np.ndarray] = None,
    max_steps: Optional[int] = None,
) -> tuple[np.ndarray, float, Any, Optional[np.ndarray]]:
    """Minimize ``fun`` (value, gradient, Hessian builder and fitted
    values, as returned by :func:`profile_objective`) over the box
    ``[lower, upper]`` from ``x0``; returns the minimizer, the minimum,
    the fitted values of the evaluation there and the metric the search
    ended with (``metric`` itself when ``x0`` evaluates to a value or
    gradient that is not finite).

    Each iteration fixes the coordinates whose bound is active (the
    iterate within ``_ACTIVE_TOL`` of the box width of it, the gradient
    pointing out), takes the Newton step of the metric on the others,
    projects it onto the box and halves it until the Armijo condition
    holds; the first trial takes twice the share of the Newton step that
    the last iteration accepted, at most all of it.  A trial at which
    ``fun`` raises :class:`SingularCovarianceError` counts as a failed
    trial, so the search closes on the edge of the region where Psi can be
    factored.  A halved trial that the box clips back onto the trial just
    rejected is not evaluated again.  The search starts on ``metric``, a
    positive-definite matrix such as the one an earlier search returned,
    or, when that is None, on the exact Hessian at ``x0``.  After a step
    that needed halving or showed no positive curvature (``s'y <= 0``) the
    metric is the exact Hessian at the new point; otherwise it takes the
    BFGS update.  An exact Hessian has its eigenvalues made positive.  The
    search stops when the Newton decrement ``-g'd`` is at most
    ``_DECREMENT_TOL``, when halving cannot bring the step's predicted
    decrease above that, or after ``_MAX_ITER`` iterations (``max_steps``
    when that is given; the metric is still updated at the last accepted
    point and handed back).  Raises
    :class:`NumericalError` when ``x0`` itself cannot be evaluated.

    Each Hessian builder is called, if at all, before the next evaluation,
    so one evaluation's state is held at a time, beside the fitted values
    of the accepted one (from :func:`profile_objective`, one n x n factor).
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    near = _ACTIVE_TOL * (upper - lower)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    try:
        f, g, hess, fitted = fun(x)
    except SingularCovarianceError as exc:
        raise NumericalError("covariance is singular at the search start") from exc
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        return x, float(f), fitted, metric
    h = _positive_metric(hess()) if metric is None else metric
    hess = None
    t = 1.0

    for _ in range(_MAX_ITER if max_steps is None else max_steps):
        active = ((x - lower <= near) & (g > 0)) | ((upper - x <= near) & (g < 0))
        free = ~active
        d = np.zeros_like(x)
        if free.any():
            d[free] = -np.linalg.solve(h[np.ix_(free, free)], g[free])
        decrement = -(g @ d)
        if not decrement > _DECREMENT_TOL:
            break
        t, halved, rejected = min(1.0, 2.0 * t), False, None
        while True:
            trial = np.clip(x + t * d, lower, upper)
            step = trial - x
            slope = g @ step
            # a halved step that the box clips back onto the trial just
            # rejected would fail the same test again
            if slope < 0 and not np.array_equal(trial, rejected):
                try:
                    ft, gt, hess, fitted_t = fun(trial)
                except SingularCovarianceError:
                    ft = np.inf
                if ft <= f + _ARMIJO * slope and np.all(np.isfinite(gt)):
                    break
                hess, rejected = None, trial
            t *= 0.5
            halved = True
            if t * decrement <= _DECREMENT_TOL:
                return x, float(f), fitted, h
        y = gt - g
        x, f, g, fitted = trial, ft, gt, fitted_t
        sy = step @ y
        if halved or not sy > 0:
            h = _positive_metric(hess())
        else:
            hs = h @ step
            h = h - np.outer(hs, hs) / (step @ hs) + np.outer(y, y) / sy
        hess = None
    return x, float(f), fitted, h


def default_search_box(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale-aware search box for ``(phi, nu2)``."""
    dmax = float(np.max(dist))
    return np.array([1e-4 * dmax, _NU2_RANGE[0]]), np.array([10.0 * dmax, _NU2_RANGE[1]])


def check_search_box(lower: np.ndarray, upper: np.ndarray) -> None:
    """Raise :class:`ConfigurationError`, naming the bound, unless the box
    bounds ``(phi, nu2)`` or ``phi`` alone on both sides, every bound is
    finite (an infinite one is epsilon-active everywhere), the lower
    ``phi`` bound > 0, the lower ``nu2`` >= 0 and each lower bound below
    its upper one."""
    if lower.size != upper.size or lower.size not in (1, 2):
        raise ConfigurationError(
            f"search box has {lower.size} lower and {upper.size} upper components; "
            "it bounds (phi, nu2) or phi alone")
    for side, bounds in (("lower", lower), ("upper", upper)):
        for name, bound in zip(("phi", "nu2"), bounds):
            if not np.isfinite(bound):
                raise ConfigurationError(
                    f"search box {side} {name} bound must be finite, got {bound}")
    if not lower[0] > 0:
        raise ConfigurationError(f"search box lower phi bound must be > 0, got {lower[0]}")
    if lower.size > 1 and not lower[1] >= 0:
        raise ConfigurationError(f"search box lower nu2 bound must be >= 0, got {lower[1]}")
    for name, low, high in zip(("phi", "nu2"), lower, upper):
        if not low < high:
            raise ConfigurationError(
                f"search box lower {name} bound must be below the upper, got {low} >= {high}")


class ProfileFit(NamedTuple):
    """The parameters, the minimum of ``f``, the factor ``sqrt(sigma2)
    L_Psi`` of Sigma there, the search's last metric and its ``theta``."""

    params: ModelParams
    value: float
    factor: np.ndarray
    metric: Optional[np.ndarray]
    theta: np.ndarray


def profile_fit(
    z: np.ndarray,
    x: np.ndarray,
    lags: covariance.Lags,
    spec: CovarianceSpec,
    cov_c: np.ndarray,
    idx: np.ndarray,
    start: CovParams | np.ndarray,
    lower,
    upper,
    metric: Optional[np.ndarray] = None,
    max_steps: Optional[int] = None,
) -> ProfileFit:
    """Maximize the completed Gaussian log-likelihood jointly in ``(beta,
    sigma2, phi, nu2)``: :func:`profile_search` on :func:`profile_objective`
    from ``start`` within the box ``[lower, upper]`` over ``(phi, nu2)``,
    handed ``metric`` and ``max_steps``.  ``start`` is a
    :class:`geocens.covariance.CovParams`, or the ``theta`` at which an
    earlier search on ``lags`` under ``spec`` stopped
    (:attr:`ProfileFit.theta`): that start reads the evaluation the search
    left held, where ``nu2 = tau2 / sigma2`` of its parameters need not
    round back to its ``theta``.

    ``spec`` sets what is searched.  A free nugget searches ``(phi, nu2)``
    and profiles the sill.  A nugget fixed at 0 searches ``phi`` alone
    (``nu2`` held at 0, a second box component ignored) and profiles the
    sill.  A nugget fixed at ``tau2 > 0`` searches ``(phi, nu2)`` with the
    sill tied to ``tau2 / nu2``, starting at ``nu2 = tau2 / sigma2`` of a
    ``start`` that is a point; a box without a ``nu2`` component takes
    :func:`default_search_box`'s range, and the lower ``nu2`` bound is
    floored at 1e-10.  The start is clipped into the box.  Raises
    :class:`NumericalError` when the search ends on a value that is not
    finite, and :class:`ConfigurationError` when the box fails
    :func:`check_search_box`.
    """
    lower = np.array(lower, dtype=float, ndmin=1)
    upper = np.array(upper, dtype=float, ndmin=1)
    check_search_box(lower, upper)
    fixed = spec.fixed_nugget_value if spec.nugget_fixed else None
    if fixed == 0.0:
        lower, upper = lower[:1], upper[:1]
    else:
        if lower.size < 2:
            lower, upper = np.append(lower, _NU2_RANGE[0]), np.append(upper, _NU2_RANGE[1])
        lower, upper = lower[:2], upper[:2]
        if fixed is not None:
            lower[1] = max(lower[1], 1e-10)  # a tied sill tau2 / nu2 stays finite
    if isinstance(start, CovParams):
        start = [start.phi, start.nu2 if fixed is None else fixed / start.sigma2]
    theta, value, (beta, sigma2, lo_psi), metric = profile_search(
        lambda t: profile_objective(t, lags, spec, z, x, cov_c, idx),
        np.clip(start[:lower.size], lower, upper), lower, upper, metric, max_steps,
    )
    if not np.isfinite(value):
        raise NumericalError("covariance search ended on a non-finite objective")
    nu2 = float(theta[1]) if theta.shape[0] > 1 else 0.0
    tau2 = fixed if fixed is not None else nu2 * sigma2
    cov = CovParams(sigma2=float(sigma2), phi=float(theta[0]), tau2=float(tau2))
    return ProfileFit(ModelParams(beta=beta, cov=cov), float(value),
                      np.sqrt(cov.sigma2) * lo_psi, metric, theta)
