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
cross-derivative matrices share is formed once (:class:`_Curvature`):
``P`` is read from the fit (``SaemFit.precision``, which a fit from
:func:`geocens.saem.saem_fit` holds; a loaded fit holds none, and ``P`` is
then formed from one Cholesky factor and one LAPACK ``potri``), ``R`` and
``dR/dphi`` come from one kernel pass, ``d2R/dphi2`` in closed form from
them, then ``a = P r``, ``B = P[:, c]`` and ``A_k = P Sigma_k``
(``Sigma_k = dSigma/dalpha_k``).  Only the range's ``A_k`` is an n x n
product: the nugget's is ``P`` itself and the sill's is
``(I - tau2 P) / sigma2``, from ``P Sigma = I``.  Products with the n_c
columns of ``B`` complete the set.  Every Hessian entry is then a trace or
a quadratic form in these.
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
from .covariance import CovarianceSpec, CovParams, cholesky_sigma
from .covariance import _cholesky_inverse, _d2corr_dphi2, spd_cholesky
from .errors import ConfigurationError, DataValidationError, DegenerateCurvatureError, GeocensError
from .model import ModelParams, partition

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


class _Curvature:
    """The terms the Hessian of Q and the three cross-derivative matrices
    share at one parameter point, formed once.

    ``zz`` is the second moment of the rows ``idx`` (all rows when None).
    ``prec`` is ``P = Sigma^{-1}`` at ``params`` when the caller holds it (a
    fit's precision); when None, ``Sigma`` is formed from this point's
    ``R``, factored and inverted here.  With ``Sigma_k`` the derivative by
    the k-th covariance parameter (``R``, ``sigma2 dR/dphi`` and ``I``),
    ``A_k = P Sigma_k``, ``tr_aa[k, l] = tr(A_k A_l)``, ``u[k] = Sigma_k a``,
    ``v[k] = P u[k]``, ``s[k] = Sigma_k B`` and ``t[k] = P s[k]``;
    ``sig_kl`` holds the nonzero second derivatives by parameter position.
    The sill's terms come from ``P Sigma = I``, without a product by ``R``:
    ``P R = (I - tau2 P) / sigma2``, ``R a = (r - tau2 a) / sigma2`` and
    ``R B = (E_c - tau2 B) / sigma2``, ``E_c`` the unit columns of ``idx``.
    Each loses about ``log10(tau2 / sigma2)`` digits when the nugget
    dominates.  ``A_phi = P sigma2 dR/dphi`` is the one n x n product.
    """

    def __init__(self, params, zhat, zz, idx, x, dist, spec, prec=None):
        n = x.shape[0]
        cov = params.cov
        sigma2, tau2 = cov.sigma2, cov.tau2
        idx = np.arange(n) if idx is None else np.asarray(idx, dtype=int)
        self.x, self.beta = x, np.asarray(params.beta, dtype=float)
        self.idx = idx

        # d2 Sigma / d sigma2 d phi = dR/dphi
        rho, d_r = covariance.corr_dcorr_matrix(covariance.Lags(dist), spec, cov.phi)
        d2_r = _d2corr_dphi2(spec.family, spec.kappa, dist, cov.phi, rho, d_r)
        self.sig_kl = {(0, 1): d_r, (1, 1): sigma2 * d2_r}
        del d2_r
        if prec is None:
            sigma = np.multiply(rho, sigma2, out=rho)
            sigma[np.diag_indices_from(sigma)] += tau2
            prec = _cholesky_inverse(spd_cholesky(sigma))
        del rho
        self.prec = prec

        self.r = zhat - x @ self.beta
        self.a = prec @ self.r
        self.px = prec @ x
        self.b = prec[:, idx]
        self.cov_c = zz - np.outer(zhat[idx], zhat[idx])
        a_sill = prec * -tau2
        a_sill[np.diag_indices(n)] += 1.0
        a_sill /= sigma2
        s_sill = self.b * -tau2
        s_sill[idx, np.arange(idx.size)] += 1.0
        s_sill /= sigma2
        sig_phi = sigma2 * d_r
        n_a = 2 if spec.nugget_fixed else 3
        a_k = [a_sill, prec @ sig_phi, prec][:n_a]
        # sum(A_k * A_l') is sum(A_k * A_l) when either is symmetric, as
        # all but A_phi are
        self.tr_aa = np.empty((n_a, n_a))
        for i in range(n_a):
            for j in range(i, n_a):
                left = a_k[i].T if i == j == 1 else a_k[i]
                self.tr_aa[i, j] = self.tr_aa[j, i] = np.vdot(left, a_k[j])
        self.u = [(self.r - tau2 * self.a) / sigma2, sig_phi @ self.a, self.a][:n_a]
        self.s = [s_sill, sig_phi @ self.b, self.b][:n_a]
        self.v = [prec @ u for u in self.u]
        self.t = [prec @ s for s in self.s]


def _hessian(c: _Curvature) -> np.ndarray:
    """Hessian of Q from the shared terms:

    log-det part ``1/2 [tr(A_a A_b) - sum(P * Sigma_ab)]``, quadratic part
    ``2 (Sigma_b a)' P (Sigma_a a) - a' Sigma_ab a
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
            s_ij = c.sig_kl.get((i, j))
            if s_ij is not None:
                logdet -= float(np.vdot(c.prec, s_ij))
                quad -= float(c.a @ s_ij @ c.a)
                block -= c.b.T @ (s_ij @ c.b)
            quad += float(np.sum(block * c.cov_c))
            h[p + i, p + j] = 0.5 * logdet - 0.5 * quad
    return np.triu(h) + np.triu(h, 1).T


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
    return _hessian(_Curvature(params, zhat, zz, idx, x, dist, spec))


def delta_response(params, zhat, zz, x, dist, spec, idx=None) -> np.ndarray:
    """Cross derivative of the response-shift scheme at the null point
    (moments as in :func:`q_hessian`).

    Row block for the trend coefficients is ``-X' Sigma^{-1}``; the row for
    each covariance parameter is ``(dSigma^{-1}/dalpha_k) (zhat - X beta)``.
    """
    return _response_rows(_Curvature(params, zhat, zz, idx, x, dist, spec))


def delta_scale(params, zhat, zz, x, dist, spec, idx=None) -> np.ndarray:
    """Cross derivative of the covariance-rescaling scheme at the null
    point (all scale factors one; moments as in :func:`q_hessian`)."""
    return _scale_rows(_Curvature(params, zhat, zz, idx, x, dist, spec))


def delta_explanatory(params, zhat, zz, x, dist, spec, idx=None) -> np.ndarray:
    """Cross derivative of the design-shift scheme at the null point
    (moments as in :func:`q_hessian`)."""
    return _explanatory_rows(_Curvature(params, zhat, zz, idx, x, dist, spec))


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
    shared = _Curvature(fit.params, fit.zhat, fit.zz_cc, partition(fit.data).cens_idx,
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
