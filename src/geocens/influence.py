"""Local influence diagnostics for completed fits.

The diagnostics analyze the curvature of the displacement of the
conditional expected complete-data objective

``Q(theta) = -(log|Sigma| + tr(M2 Sigma^{-1}) - 2 m1' Sigma^{-1} X beta
+ beta' X' Sigma^{-1} X beta) / 2``

under three perturbation schemes: an additive shift of the responses, a
diagonal rescaling of the covariance, and a rank-one shift of the design
matrix.  Each observation's aggregated contribution ``M(0)_l`` equals the
conformal normal curvature in its coordinate direction, lies in ``[0, 1]``
and sums to one; observations above ``mean + c* sd`` are flagged.

Every analytic derivative here is the literal derivative of
:func:`q_value` / :func:`perturbed_q_value`, so finite differences of
those functions are the ground truth the implementation is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve

from .covariance import (
    CovarianceSpec,
    CovParams,
    build_sigma,
    d2sigma,
    dsigma,
    spd_cholesky,
)
from .errors import DegenerateCurvatureError, DataValidationError, GeocensError
from .model import ModelParams

SCHEMES = ("response", "scale", "explanatory")


def _alpha_indices(nugget_fixed: bool) -> tuple[int, ...]:
    return (1, 2) if nugget_fixed else (1, 2, 3)


def _sigma_inverse(dist, spec, p: CovParams) -> np.ndarray:
    lo = spd_cholesky(build_sigma(dist, spec, p), jitter=1e-10 * (p.sigma2 + p.tau2))
    return cho_solve((lo, True), np.eye(lo.shape[0]))


def params_from_vector(theta: np.ndarray, p: int, nugget_fixed: bool,
                       fixed_nugget: float = 0.0) -> ModelParams:
    """Unpack ``(beta..., sigma2, phi[, tau2])`` into model parameters."""
    beta = theta[:p]
    sigma2, phi = theta[p], theta[p + 1]
    tau2 = fixed_nugget if nugget_fixed else theta[p + 2]
    return ModelParams(beta=beta, cov=CovParams(sigma2=sigma2, phi=phi, tau2=tau2))


def q_value(
    params: ModelParams,
    zhat: np.ndarray,
    zzhat: np.ndarray,
    x: np.ndarray,
    dist: np.ndarray,
    spec: CovarianceSpec,
) -> float:
    """The conditional expected complete-data objective at ``params`` with
    the moment estimates frozen (additive constant dropped)."""
    sigma = build_sigma(dist, spec, params.cov)
    lo = spd_cholesky(sigma)
    n = x.shape[0]
    s_inv = cho_solve((lo, True), np.eye(n))
    logdet = 2.0 * float(np.sum(np.log(np.diag(lo))))
    mu = x @ params.beta
    quad = float(np.sum(zzhat * s_inv) - 2.0 * zhat @ s_inv @ mu + mu @ s_inv @ mu)
    return -0.5 * (logdet + quad)


def perturbed_q_value(
    scheme: str,
    params: ModelParams,
    omega: np.ndarray,
    zhat: np.ndarray,
    zzhat: np.ndarray,
    x: np.ndarray,
    dist: np.ndarray,
    spec: CovarianceSpec,
) -> float:
    """The perturbed objective ``Q(theta, omega)`` for one scheme.

    ``response``: shifts every recorded response by ``omega`` (null point
    0), which replaces the moments by those of the shifted variable.
    ``scale``: multiplies the covariance by ``diag(omega)`` (null point 1);
    the expected quadratic form uses the symmetrized inverse.
    ``explanatory``: adds ``omega 1'`` to the design matrix (null point 0).
    """
    omega = np.asarray(omega, dtype=float)
    if scheme == "response":
        m1 = zhat - omega
        m2 = zzhat - np.outer(zhat, omega) - np.outer(omega, zhat) + np.outer(omega, omega)
        return q_value(params, m1, m2, x, dist, spec)
    if scheme == "explanatory":
        x_w = x + omega[:, None]
        return q_value(params, zhat, zzhat, x_w, dist, spec)
    if scheme != "scale":
        raise DataValidationError(f"unknown perturbation scheme {scheme!r}")
    sigma = build_sigma(dist, spec, params.cov)
    lo = spd_cholesky(sigma)
    n = x.shape[0]
    s_inv = cho_solve((lo, True), np.eye(n))
    a = s_inv / omega[None, :]  # Sigma^{-1} D(omega)^{-1}
    a_sym = 0.5 * (a + a.T)
    logdet = 2.0 * float(np.sum(np.log(np.diag(lo)))) + float(np.sum(np.log(omega)))
    mu = x @ params.beta
    quad = float(np.sum(zzhat * a_sym) - 2.0 * zhat @ a_sym @ mu + mu @ a_sym @ mu)
    return -0.5 * (logdet + quad)


def q_hessian(
    params: ModelParams,
    zhat: np.ndarray,
    zzhat: np.ndarray,
    x: np.ndarray,
    dist: np.ndarray,
    spec: CovarianceSpec,
) -> np.ndarray:
    """Hessian of :func:`q_value` in ``(beta, sigma2, phi[, tau2])``.

    Negative definite at a maximizer; the nugget row and column are absent
    when the covariance spec holds the nugget fixed.
    """
    n, p = x.shape
    alphas = _alpha_indices(spec.nugget_fixed)
    n_a = len(alphas)
    s_inv = _sigma_inverse(dist, spec, params.cov)
    mu = x @ params.beta
    r = zhat - mu
    sigma = build_sigma(dist, spec, params.cov)

    s_k = [dsigma(dist, spec, params.cov, k) for k in alphas]
    g_k = [-s_inv @ sk @ s_inv for sk in s_k]

    h = np.zeros((p + n_a, p + n_a))
    h[:p, :p] = -(x.T @ s_inv @ x)
    for a, gk in enumerate(g_k):
        h[:p, p + a] = x.T @ gk @ r
        h[p + a, :p] = h[:p, p + a]
    for a in range(n_a):
        for b in range(a, n_a):
            skl = d2sigma(dist, spec, params.cov, alphas[a], alphas[b])
            t_kl = (
                s_inv @ s_k[b] @ s_inv @ s_k[a] @ s_inv
                + s_inv @ s_k[a] @ s_inv @ s_k[b] @ s_inv
                - s_inv @ skl @ s_inv
            )
            logdet_part = 0.5 * (float(np.sum(t_kl * sigma)) + float(np.sum(g_k[a] * s_k[b])))
            quad = float(
                np.sum(zzhat * t_kl) - 2.0 * zhat @ t_kl @ mu + mu @ t_kl @ mu
            )
            h[p + a, p + b] = logdet_part - 0.5 * quad
            h[p + b, p + a] = h[p + a, p + b]
    return 0.5 * (h + h.T)


def _delta_common(params, zhat, x, dist, spec):
    s_inv = _sigma_inverse(dist, spec, params.cov)
    alphas = _alpha_indices(spec.nugget_fixed)
    g_k = [
        -s_inv @ dsigma(dist, spec, params.cov, k) @ s_inv for k in alphas
    ]
    mu = x @ params.beta
    return s_inv, g_k, mu, zhat - mu


def delta_response(
    params: ModelParams,
    zhat: np.ndarray,
    zzhat: np.ndarray,
    x: np.ndarray,
    dist: np.ndarray,
    spec: CovarianceSpec,
) -> np.ndarray:
    """Cross derivative of the response-shift scheme at the null point.

    Row block for the trend coefficients is ``-X' Sigma^{-1}``; the row for
    each covariance parameter is ``(dSigma^{-1}/dalpha_k) (zhat - X beta)``.
    """
    n, p = x.shape
    s_inv, g_k, _, r = _delta_common(params, zhat, x, dist, spec)
    delta = np.zeros((p + len(g_k), n))
    delta[:p] = -(x.T @ s_inv)
    for a, gk in enumerate(g_k):
        delta[p + a] = gk @ r
    return delta


def delta_scale(
    params: ModelParams,
    zhat: np.ndarray,
    zzhat: np.ndarray,
    x: np.ndarray,
    dist: np.ndarray,
    spec: CovarianceSpec,
) -> np.ndarray:
    """Cross derivative of the covariance-rescaling scheme at the null
    point (all scale factors one)."""
    n, p = x.shape
    s_inv, g_k, mu, r = _delta_common(params, zhat, x, dist, spec)
    delta = np.zeros((p + len(g_k), n))
    a_mat = x.T @ s_inv  # p x n
    s_inv_r = s_inv @ r
    delta[:p] = -0.5 * (a_mat * r[None, :] + x.T * s_inv_r[None, :])
    for a, gk in enumerate(g_k):
        gk_m2_diag = np.sum(gk * zzhat, axis=1)  # diag of G_k M2 (both symmetric)
        gk_zhat = gk @ zhat
        gk_mu = gk @ mu
        delta[p + a] = 0.5 * (gk_m2_diag - gk_zhat * mu - zhat * gk_mu + mu * gk_mu)
    return delta


def delta_explanatory(
    params: ModelParams,
    zhat: np.ndarray,
    zzhat: np.ndarray,
    x: np.ndarray,
    dist: np.ndarray,
    spec: CovarianceSpec,
) -> np.ndarray:
    """Cross derivative of the design-shift scheme at the null point."""
    n, p = x.shape
    s_inv, g_k, _, r = _delta_common(params, zhat, x, dist, spec)
    delta = np.zeros((p + len(g_k), n))
    beta_sum = float(np.sum(params.beta))
    s_inv_r = s_inv @ r
    delta[:p] = s_inv_r[None, :] - beta_sum * (x.T @ s_inv)
    for a, gk in enumerate(g_k):
        delta[p + a] = beta_sum * (gk @ r)
    return delta


_DELTA_BUILDERS = {
    "response": delta_response,
    "scale": delta_scale,
    "explanatory": delta_explanatory,
}

_RANK_THRESHOLD = 1e-10


def curvature_matrix(q_hess: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """PSD curvature matrix ``F = Delta' (-H)^{-1} Delta`` of the
    displacement function; ``2 F`` is the full normal-curvature matrix."""
    f = delta.T @ np.linalg.solve(-q_hess, delta)
    return 0.5 * (f + f.T)


def m0(q_hess: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Aggregated eigenvector contributions ``M(0)``.

    Eigenvalues of the curvature matrix below ``1e-10`` of the largest are
    treated as zero; the survivors are normalized so that the result sums
    to one and each entry equals the conformal normal curvature in that
    coordinate direction.
    """
    values, _ = _m0_with_spectrum(q_hess, delta)
    return values


def _m0_with_spectrum(q_hess: np.ndarray, delta: np.ndarray):
    f = curvature_matrix(q_hess, delta)
    eigval, eigvec = np.linalg.eigh(2.0 * f)
    eigval, eigvec = eigval[::-1], eigvec[:, ::-1]
    keep = eigval > _RANK_THRESHOLD * max(eigval[0], 0.0)
    if eigval.size == 0 or eigval[0] <= 0 or not keep.any():
        raise DegenerateCurvatureError("all curvature eigenvalues are negligible")
    lam = eigval[keep]
    vec = eigvec[:, keep]
    lam_norm = lam / lam.sum()
    return (vec**2) @ lam_norm, lam


def classify(m0_values: np.ndarray, c_star: float) -> tuple[float, np.ndarray]:
    """Benchmark ``mean + c* sd`` and the strict-exceedance flags."""
    m0_values = np.asarray(m0_values, dtype=float)
    if m0_values.shape[0] < 2:
        raise DataValidationError("classification needs at least two observations")
    benchmark = float(np.mean(m0_values) + c_star * np.std(m0_values, ddof=1))
    return benchmark, m0_values > benchmark


@dataclass(frozen=True)
class SchemeDiagnostics:
    """Per-scheme influence summary."""

    scheme: str
    m0: np.ndarray
    benchmark: float
    flags: np.ndarray
    rank: int
    top_eigenvalues: np.ndarray

    @property
    def atypical(self) -> np.ndarray:
        return np.flatnonzero(self.flags)


@dataclass(frozen=True)
class InfluenceReport:
    """Diagnostics for the three schemes; a scheme that failed numerically
    is None with the reason recorded in ``errors``."""

    response: Optional[SchemeDiagnostics]
    scale: Optional[SchemeDiagnostics]
    explanatory: Optional[SchemeDiagnostics]
    c_star: float
    errors: dict

    def scheme(self, name: str) -> Optional[SchemeDiagnostics]:
        if name not in SCHEMES:
            raise DataValidationError(f"unknown scheme {name!r}")
        return getattr(self, name)


def local_influence(fit, c_star: float = 3.0) -> InfluenceReport:
    """Run all three perturbation schemes on a completed fit.

    Uses the fit's moment estimates and estimates; with a fixed nugget the
    analysis runs on the reduced parameter system without the nugget row.
    """
    args = (fit.params, fit.zhat, fit.zzhat, fit.x, fit.dist, fit.spec)
    hess = q_hessian(*args)
    results: dict[str, Optional[SchemeDiagnostics]] = {}
    errors: dict[str, str] = {}
    for scheme in SCHEMES:
        try:
            delta = _DELTA_BUILDERS[scheme](*args)
            values, lam = _m0_with_spectrum(hess, delta)
            benchmark, flags = classify(values, c_star)
            results[scheme] = SchemeDiagnostics(
                scheme=scheme,
                m0=values,
                benchmark=benchmark,
                flags=flags,
                rank=int(lam.size),
                top_eigenvalues=lam[: min(5, lam.size)] / lam.sum(),
            )
        except (GeocensError, np.linalg.LinAlgError) as exc:
            # a numerically failing scheme must not sink the others
            results[scheme] = None
            errors[scheme] = str(exc)
    return InfluenceReport(
        response=results["response"],
        scale=results["scale"],
        explanatory=results["explanatory"],
        c_star=c_star,
        errors=errors,
    )
