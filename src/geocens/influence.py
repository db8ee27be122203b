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

The moments are taken as in the CM step: the first moment ``zhat`` and
``zz``, the second moment of the censored rows ``c`` (``fit.zz_cc``);
elsewhere the second moment is ``zhat zhat'``, so with
``C = zz - zhat_c zhat_c'`` the expected quadratic form is
``r' P r + sum(P_cc * C)``, ``r = zhat - X beta``, ``P = Sigma^{-1}``.
No dense n x n second moment is read.

Cost of one :func:`local_influence` call.  What the Hessian and the three
cross-derivative matrices share is formed once, by
:class:`geocens.profile._Curvature`, which gives the profile search its
exact Hessian too: ``P`` from the fit (``SaemFit.precision``; a loaded fit
holds none, and ``P`` is then formed by one Cholesky factor and one LAPACK
``potri``), ``R`` and ``dR/dphi`` from one kernel pass, ``d2R/dphi2``
from them, one n x n product (``P dR/dphi``), four products with the n_c
censored columns of ``P``, and traces and quadratic forms; the sill's
term ``P R`` is never formed as an n x n array.  Beyond what the fit
holds, a call peaks at about five n x n arrays: the distances on their
first read, R, ``dR/dphi``, and ``d2R/dphi2`` or ``P dR/dphi``.
``M(0)`` comes from a k x k eigenproblem (k = p + 2 or p + 3 parameters)
instead of the n x n curvature matrix: with the thin QR ``Delta' = Q R`` and
``R (-H)^{-1} R' = W Lambda W'``, the eigenpairs of ``2 F`` are
``(2 Lambda, Q W)`` and zero.

:func:`q_value` and :func:`perturbed_q_value` evaluate the objective
densely; every analytic derivative here is the literal derivative of
those functions, so their finite differences are the ground truth the
implementation is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import covariance
from .covariance import CovarianceSpec, CovParams, _cholesky_inverse, cholesky_sigma, spd_cholesky
from .errors import ConfigurationError, DataValidationError, DegenerateCurvatureError, GeocensError
from .model import ModelParams, partition
from .profile import _Curvature, _hessian

SCHEMES = ("response", "scale", "explanatory")


def params_from_vector(theta: np.ndarray, p: int, nugget_fixed: bool,
                       fixed_nugget: float = 0.0) -> ModelParams:
    """Unpack ``(beta..., sigma2, phi[, tau2])`` into model parameters."""
    beta = theta[:p]
    sigma2, phi = theta[p], theta[p + 1]
    tau2 = fixed_nugget if nugget_fixed else theta[p + 2]
    return ModelParams(beta=beta, cov=CovParams(sigma2=sigma2, phi=phi, tau2=tau2))


def _dense_q(logdet: float, prec: np.ndarray, zhat, zzhat, mu) -> float:
    quad = float(np.sum(zzhat * prec) - 2.0 * zhat @ prec @ mu + mu @ prec @ mu)
    return -0.5 * (logdet + quad)


def q_value(
    params: ModelParams,
    zhat: np.ndarray,
    zzhat: np.ndarray,
    x: np.ndarray,
    dist: np.ndarray,
    spec: CovarianceSpec,
) -> float:
    """The conditional expected complete-data objective at ``params`` with
    the dense moment estimates frozen (additive constant dropped)."""
    lo = cholesky_sigma(dist, spec, params.cov)
    logdet = 2.0 * float(np.sum(np.log(np.diag(lo))))
    return _dense_q(logdet, _cholesky_inverse(lo), zhat, zzhat, x @ params.beta)


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
    lo = cholesky_sigma(dist, spec, params.cov)
    a = _cholesky_inverse(lo) / omega[None, :]  # Sigma^{-1} D(omega)^{-1}
    logdet = 2.0 * float(np.sum(np.log(np.diag(lo)))) + float(np.sum(np.log(omega)))
    return _dense_q(logdet, 0.5 * (a + a.T), zhat, zzhat, x @ params.beta)


def _curvature(params, zhat, zz, idx, x, dist, spec, prec=None) -> _Curvature:
    """The shared terms at ``params``, ``zz`` the second moment of the rows
    ``idx`` (all when None): R and ``dR/dphi`` from one kernel pass, and
    ``P`` from them when the caller holds no ``prec`` (a fit's precision)."""
    cov = params.cov
    idx = np.arange(x.shape[0]) if idx is None else np.asarray(idx, dtype=int)
    rho, d_r = covariance.corr_dcorr_matrix(covariance.Lags(dist), spec, cov.phi)
    if prec is None:
        sigma = rho * cov.sigma2
        sigma[np.diag_indices_from(sigma)] += cov.tau2
        prec = _cholesky_inverse(spd_cholesky(sigma))
    return _Curvature(params, zhat, zz - np.outer(zhat[idx], zhat[idx]), idx, x, rho, d_r,
                      dist, spec, prec)


def _response_rows(c: _Curvature) -> np.ndarray:
    return np.vstack([-c.px.T, *(-v for v in c.v)])


def _scale_rows(c: _Curvature) -> np.ndarray:
    beta_rows = -0.5 * (c.px.T * c.r[None, :] + c.x.T * c.a[None, :])
    rows = []
    for v, s in zip(c.v, c.s):
        # diag(dSigma^{-1}/dalpha_k M2): r * (G_k r) plus, on the censored
        # rows, the diagonal of G_k[c, c] C with G_k[c, c] = -B' Sigma_k B
        row = -c.r * v
        row[c.idx] -= np.sum((c.b.T @ s) * c.cov_c, axis=1)
        rows.append(0.5 * row)
    return np.vstack([beta_rows, *rows])


def _explanatory_rows(c: _Curvature) -> np.ndarray:
    beta_sum = float(np.sum(c.beta))
    beta_rows = c.a[None, :] - beta_sum * c.px.T
    return np.vstack([beta_rows, *(-beta_sum * v for v in c.v)])


def q_hessian(
    params: ModelParams,
    zhat: np.ndarray,
    zz: np.ndarray,
    x: np.ndarray,
    dist: np.ndarray,
    spec: CovarianceSpec,
    idx: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Hessian of :func:`q_value` in ``(beta, sigma2, phi[, tau2])``.

    ``zz`` is the second moment of the rows ``idx`` of the response (the
    dense n x n moment when ``idx`` is None); elsewhere it is
    ``zhat zhat'``.  Negative definite at a maximizer; the nugget row and
    column are absent when the covariance spec holds the nugget fixed.
    """
    return _hessian(_curvature(params, zhat, zz, idx, x, dist, spec))


def delta_response(params, zhat, zz, x, dist, spec, idx=None) -> np.ndarray:
    """Cross derivative of the response-shift scheme at the null point
    (moments as in :func:`q_hessian`).

    Row block for the trend coefficients is ``-X' Sigma^{-1}``; the row for
    each covariance parameter is ``(dSigma^{-1}/dalpha_k) (zhat - X beta)``.
    """
    return _response_rows(_curvature(params, zhat, zz, idx, x, dist, spec))


def delta_scale(params, zhat, zz, x, dist, spec, idx=None) -> np.ndarray:
    """Cross derivative of the covariance-rescaling scheme at the null
    point (all scale factors one; moments as in :func:`q_hessian`)."""
    return _scale_rows(_curvature(params, zhat, zz, idx, x, dist, spec))


def delta_explanatory(params, zhat, zz, x, dist, spec, idx=None) -> np.ndarray:
    """Cross derivative of the design-shift scheme at the null point
    (moments as in :func:`q_hessian`)."""
    return _explanatory_rows(_curvature(params, zhat, zz, idx, x, dist, spec))


# scheme -> cross-derivative rows from the shared terms
_DELTA_BUILDERS = {
    "response": _response_rows,
    "scale": _scale_rows,
    "explanatory": _explanatory_rows,
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
    # 2F = Q (2 R (-H)^{-1} R') Q' with Delta' = Q R: the nonzero spectrum
    # of 2F is that of the k x k middle factor, its eigenvectors Q W
    q, rr = np.linalg.qr(delta.T)
    s = rr @ np.linalg.solve(-q_hess, rr.T)
    eigval, w = np.linalg.eigh(s + s.T)
    eigval, w = eigval[::-1], w[:, ::-1]
    if eigval.size == 0 or eigval[0] <= 0:
        raise DegenerateCurvatureError("all curvature eigenvalues are negligible")
    keep = eigval > _RANK_THRESHOLD * eigval[0]
    lam = eigval[keep]
    vec = q @ w[:, keep]
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
    is None with the reason recorded in ``errors``.

    ``hessian_eigenvalues`` are the eigenvalues of ``-H`` (ascending);
    ``M(0)`` assumes the estimates maximize Q, which
    ``hessian_negative_definite`` states.
    """

    response: Optional[SchemeDiagnostics]
    scale: Optional[SchemeDiagnostics]
    explanatory: Optional[SchemeDiagnostics]
    c_star: float
    errors: dict
    hessian_eigenvalues: np.ndarray
    hessian_negative_definite: bool

    def scheme(self, name: str) -> Optional[SchemeDiagnostics]:
        if name not in SCHEMES:
            raise DataValidationError(f"unknown scheme {name!r}")
        return getattr(self, name)


def local_influence(fit, c_star: float = 3.0) -> InfluenceReport:
    """Run all three perturbation schemes on a completed fit.

    Uses the fit's first moment, the second moment of its censored block,
    its estimates and its precision matrix when it holds one
    (``SaemFit.precision``); with a fixed nugget the
    analysis runs on the reduced parameter system without the nugget row.
    Raises :class:`ConfigurationError` when ``c_star`` is not finite.
    """
    if not np.isfinite(c_star):
        raise ConfigurationError(f"c_star must be finite, got {c_star}")
    shared = _curvature(fit.params, fit.zhat, fit.zz_cc, partition(fit.data).cens_idx,
                        fit.x, fit.dist, fit.spec, fit.precision)
    hess = _hessian(shared)
    neg_eig = np.linalg.eigvalsh(-hess)
    results: dict[str, Optional[SchemeDiagnostics]] = {}
    errors: dict[str, str] = {}
    for scheme in SCHEMES:
        try:
            delta = _DELTA_BUILDERS[scheme](shared)
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
        hessian_eigenvalues=neg_eig,
        hessian_negative_definite=bool(neg_eig[0] > 0),
    )
