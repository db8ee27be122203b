"""Profile search over the range and relative nugget.

The conditional maximization of the stochastic EM
(:func:`geocens.saem.cm_step`) and Gaussian maximum likelihood
(:func:`geocens.predict.gaussian_ml_fit`) minimize the same objective over
``theta = (phi, nu2)``, or ``phi`` alone when the nugget is held:

    f(theta) = 1/2 [n log sigma2 + log|Psi| + q / sigma2],
    Psi = R(phi) + nu2 I,
    q = r' Psi^{-1} r + sum((Psi^{-1})_cc * C),

where ``r`` is the residual of the first moment of the response and ``C``
the covariance of its block ``c`` (the censored rows in the CM step; empty
for Gaussian ML).  The CM step holds ``r`` and ``sigma2`` at their
conditional updates; Gaussian ML profiles the trend by generalized least
squares and the sill by ``q / n`` or, with a fixed nugget ``tau2``,
``tau2 / nu2``.  With ``Q = Psi^{-1}``, ``a = Q r`` and ``B = Q[:, c]``,
the gradient is closed form (Mardia & Marshall 1984, Biometrika):

    df/dtheta_j = 1/2 [sum(Q * D_j) - (a' D_j a + sum((B' D_j B) * C)) / sigma2]

with ``D_phi = dR/dphi`` and ``D_nu2 = I``.  A profiled trend or free sill
adds nothing (envelope theorem); a sill tied to ``nu2`` adds
``df/dsigma2 * dsigma2/dnu2``.  The search is the bounded quasi-Newton
method L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995, SIAM J. Sci. Comput.) on
that gradient, warm-started by the caller.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

from . import covariance
from .covariance import CovarianceSpec, _cholesky_inverse
from .errors import NumericalError, SingularCovarianceError

# corr_matrix, dcorr_matrix and spd_cholesky are looked up on the covariance
# module at call time, so that a wrapper installed there (a profiler or a
# call counter) sees the search's evaluations too.

# Box cuts after trials at which Psi cannot be factored (each halves the
# distance from the best point to the failed trial along one coordinate)
# before the search gives up.
_MAX_CUTS = 40

# A bound set by a cut is bisected back towards its failed trial until the
# two lie within this share of the box width.
_BISECT_TOL = 1e-6


def psi_cholesky(dist: np.ndarray, spec: CovarianceSpec, phi: float, nu2: float) -> np.ndarray:
    """Lower Cholesky factor of ``Psi = R(phi) + nu2 I``."""
    psi = covariance.corr_matrix(dist, spec, phi)
    psi[np.diag_indices_from(psi)] += nu2
    return covariance.spd_cholesky(psi)


def expected_quad(lo: np.ndarray, resid: np.ndarray, cov_c: np.ndarray, idx: np.ndarray) -> float:
    """``E[(z - mu)' S^{-1} (z - mu)]`` from the Cholesky factor ``lo`` of
    ``S``, the residual ``zhat - mu`` and the covariance ``cov_c`` of the
    block ``idx`` (zero elsewhere), without forming ``S^{-1}``."""
    rw = solve_triangular(lo, resid, lower=True)
    ew = solve_triangular(lo, np.eye(lo.shape[0])[:, idx], lower=True)
    return float(rw @ rw + np.sum((ew.T @ ew) * cov_c))


def _gls(lo: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generalized least squares of ``y`` on ``x`` under the covariance
    ``lo lo'``: the coefficients and the whitened residual
    ``lo^{-1} (y - x beta)``."""
    xw = solve_triangular(lo, x, lower=True)
    yw = solve_triangular(lo, y, lower=True)
    beta, *_ = np.linalg.lstsq(xw, yw, rcond=None)
    return beta, yw - xw @ beta


class _SingularTrial(Exception):
    """A search trial ``x`` at which Psi could not be factored."""

    def __init__(self, x: np.ndarray):
        super().__init__(x)
        self.x = x


def profile_objective(
    theta: np.ndarray,
    dist: np.ndarray,
    spec: CovarianceSpec,
    nuisance: Callable[[np.ndarray, float], tuple],
    cov_c: np.ndarray,
    idx: np.ndarray,
    nu2: Optional[float] = None,
) -> tuple[float, np.ndarray]:
    """Value and gradient of ``f`` at ``theta = (phi, nu2)``, or at
    ``theta = (phi,)`` with the relative nugget held at ``nu2``.

    ``nuisance(lo, nu2)`` returns ``(r, sigma2, dsigma2/dnu2)`` for the
    trial, given the lower Cholesky factor ``lo`` of its Psi.  ``cov_c`` is
    the covariance of the block ``idx`` of the response (empty for
    Gaussian ML).  Raises :class:`SingularCovarianceError` when Psi cannot
    be factored.
    """
    phi = float(theta[0])
    if nu2 is None:
        nu2 = float(theta[1])
    lo = psi_cholesky(dist, spec, phi, nu2)
    resid, sigma2, dsigma2 = nuisance(lo, nu2)
    n = lo.shape[0]
    q = expected_quad(lo, resid, cov_c, idx)
    value = 0.5 * (n * np.log(sigma2) + 2.0 * np.sum(np.log(np.diag(lo))) + q / sigma2)

    qi = _cholesky_inverse(lo)
    a = qi @ resid
    b = qi[:, idx]
    d_phi = covariance.dcorr_matrix(dist, spec, phi)
    quad_phi = a @ d_phi @ a + np.sum((b.T @ d_phi @ b) * cov_c)
    grad = [0.5 * (np.sum(qi * d_phi) - quad_phi / sigma2)]
    if len(theta) > 1:
        quad_nu2 = a @ a + np.sum((b.T @ b) * cov_c)
        dsill = 0.5 * (n / sigma2 - q / sigma2**2) * dsigma2
        grad.append(0.5 * (np.trace(qi) - quad_nu2 / sigma2) + dsill)
    return float(value), np.array(grad)


def profile_search(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Minimize ``fun`` (value and gradient) over the box ``[lower, upper]``
    by L-BFGS-B from ``x0``; returns the minimizer and the minimum.

    L-BFGS-B cannot step back from a trial without a finite value (it
    reports convergence at its start point instead), so a trial at which
    ``fun`` raises :class:`SingularCovarianceError` restarts the search from
    the best point found so far, with the box cut halfway from that point
    to the trial along the coordinate on which the trial moved furthest
    (relative to the box width).  A search that ends on a bound set by such
    a cut moves that bound halfway back towards the failed trial and
    restarts, so the cuts bisect towards the edge of the region where
    ``fun`` can be evaluated.  Cuts and bisections share a budget of
    ``_MAX_CUTS`` restarts.  Raises :class:`NumericalError` when ``x0``
    itself cannot be evaluated or the cuts do not settle.
    """
    lower = np.array(lower, dtype=float)
    upper = np.array(upper, dtype=float)
    width = upper - lower
    best_x = np.array(x0, dtype=float)
    best_f = np.inf
    failed = {}  # (coordinate, upper side?) -> the failed trial that set the bound
    settled = False

    def tracked(x):
        nonlocal best_x, best_f
        try:
            value, grad = fun(x)
        except SingularCovarianceError as exc:
            raise _SingularTrial(x.copy()) from exc
        if value < best_f:
            best_x, best_f = x.copy(), value
        return value, grad

    for _ in range(_MAX_CUTS):
        try:
            sol = minimize(
                tracked,
                best_x,
                jac=True,
                method="L-BFGS-B",
                bounds=list(zip(lower, upper)),
                options={"maxiter": 200},
            )
        except _SingularTrial as exc:
            if not np.isfinite(best_f):
                raise NumericalError("covariance is singular at the search start") from exc
            step = (exc.x - best_x) / width
            j = int(np.argmax(np.abs(step)))
            side = bool(step[j] > 0)
            (upper if side else lower)[j] = 0.5 * (best_x[j] + exc.x[j])
            failed[j, side] = exc.x[j]
            continue
        settled = True
        reopened = False
        for (j, side), bad in failed.items():
            bound = upper if side else lower
            if sol.x[j] == bound[j] and abs(bad - bound[j]) > _BISECT_TOL * width[j]:
                bound[j] = 0.5 * (bound[j] + bad)
                reopened = True
        if not reopened:
            return sol.x, float(sol.fun)
    if settled:
        return best_x, float(best_f)
    raise NumericalError("covariance search kept reaching singular covariances")
