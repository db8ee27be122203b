"""Reference computations made apart from geocens, and the checks that
compare each operation's output with them or with a property the method
must have.  A failed check raises :class:`CheckFailed`."""

from __future__ import annotations

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import kv

LOG_2PI = float(np.log(2.0 * np.pi))

# Tolerances.  Dense LU/slogdet against geocens' Cholesky route agree to
# ~1e-12 relative at these sizes; 1e-8 leaves room for conditioning.
REL_TOL = 1e-8
M0_SUM_TOL = 1e-10
# Gross-error gates on estimates, wide enough to hold on every seed of
# the designs (see README): beta within 8 GLS standard errors at the
# generating parameters, sill and range within a factor of 4, nugget
# within half the total variance.  A design whose range is below its site
# spacing (``truth["phi_identified"]`` false) gates the range by the
# search box alone.
BETA_SE_MULT = 8.0
COV_FACTOR = 4.0


class CheckFailed(Exception):
    """An operation's output disagrees with its reference or property."""


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


def close(a, b, scale, tol=REL_TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol * scale))


# ---------------------------------------------------------------------------
# model pieces written from their definitions
# ---------------------------------------------------------------------------


def distances(a, b) -> np.ndarray:
    diff = np.asarray(a, float)[:, None, :] - np.asarray(b, float)[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def correlation(family: str, kappa: float, h: np.ndarray, phi: float) -> np.ndarray:
    u = h / phi
    if family == "exponential":
        return np.exp(-u)
    if family == "matern":
        with np.errstate(invalid="ignore", over="ignore"):
            rho = 2.0 ** (1.0 - kappa) / gamma_fn(kappa) * u**kappa * kv(kappa, u)
        return np.nan_to_num(np.where(u == 0.0, 1.0, rho), nan=0.0)
    raise ValueError(f"no reference correlation for {family!r}")


def covariance(model, coords_a, coords_b, sigma2, phi, tau2=0.0) -> np.ndarray:
    """``sigma2 * rho(h)``, plus ``tau2`` on the diagonal when a is b."""
    c = sigma2 * correlation(model["family"], model["kappa"], distances(coords_a, coords_b), phi)
    if coords_a is coords_b:
        c[np.diag_indices_from(c)] += tau2
    return c


def gauss_logpdf(y, mean, cov) -> float:
    sign, logdet = np.linalg.slogdet(cov)
    require(sign > 0, "reference covariance is not positive definite")
    r = y - mean
    return float(-0.5 * (y.shape[0] * LOG_2PI + logdet + r @ np.linalg.solve(cov, r)))


def conditional_normal(model, coords_o, z_o, x_o, coords_p, x_p, beta, sigma2, phi, tau2):
    """Mean and sd of the targets given the data, from the joint normal law
    (the nugget sits on the diagonal only)."""
    s_oo = covariance(model, coords_o, coords_o, sigma2, phi, tau2)
    s_op = covariance(model, coords_o, coords_p, sigma2, phi)
    k = np.linalg.solve(s_oo, s_op)
    mean = x_p @ beta + k.T @ (z_o - x_o @ beta)
    var = sigma2 + tau2 - np.sum(s_op * k, axis=0)
    return mean, np.sqrt(np.maximum(var, 0.0))


def gls_beta_se(model, coords, x, truth) -> np.ndarray:
    """Standard errors of the GLS trend estimate at the generating
    parameters: ``sqrt(diag((X' Sigma^-1 X)^-1))``."""
    sigma = covariance(model, coords, coords, truth["sigma2"], truth["phi"], truth["tau2"])
    info = x.T @ np.linalg.solve(sigma, x)
    return np.sqrt(np.diag(np.linalg.inv(info)))


def semivariogram(coords, z, n_bins: int):
    """Classical binned semivariance over equal-width bins up to half the
    largest distance; empty bins dropped."""
    i, j = np.triu_indices(len(z), k=1)
    d = distances(coords, coords)[i, j]
    dz2 = (z[i] - z[j]) ** 2
    max_dist = 0.5 * d.max()
    keep = d <= max_dist
    d, dz2 = d[keep], dz2[keep]
    edges = np.linspace(0.0, max_dist, n_bins + 1)
    which = np.clip(np.digitize(d, edges) - 1, 0, n_bins - 1)
    counts = np.bincount(which, minlength=n_bins)
    sums = np.bincount(which, weights=dz2, minlength=n_bins)
    ok = counts > 0
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers[ok], sums[ok] / (2.0 * counts[ok]), counts[ok]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_fit(f: dict, case: dict):
    """Properties every SAEM fit must have.  ``f`` holds plain arrays:
    beta, sigma2, phi, tau2, zhat, zzhat, iterations_used, max_iter,
    lower, upper (search box); ``case`` the dataset and its design."""
    require(f["iterations_used"] == f["max_iter"],
            f"fit stopped at {f['iterations_used']} of {f['max_iter']} iterations")
    est = np.concatenate([f["beta"], [f["sigma2"], f["phi"], f["tau2"]]])
    require(np.all(np.isfinite(est)), "non-finite estimate")
    lo, hi = f["lower"], f["upper"]
    require(lo[0] <= f["phi"] <= hi[0], f"phi {f['phi']} outside [{lo[0]}, {hi[0]}]")
    if len(lo) > 1:
        nu2 = f["tau2"] / f["sigma2"]
        require(lo[1] <= nu2 <= hi[1], f"nu2 {nu2} outside [{lo[1]}, {hi[1]}]")
    require(f["sigma2"] > 0, "non-positive sill")

    value, cens = case["value"], case["cens"]
    obs, cen = cens == 0, cens == 1
    zhat, zzhat = f["zhat"], f["zzhat"]
    require(np.array_equal(zhat[obs], value[obs]), "zhat differs from data on observed rows")
    require(np.all(zhat[cen] >= case["lower"][cen]) and np.all(zhat[cen] <= case["upper"][cen]),
            "zhat outside the censoring interval")
    d = np.diag(zzhat)
    require(np.all(d >= zhat**2 - 1e-12 * np.maximum(1.0, zhat**2)),
            "diag(zzhat) < zhat^2: second moment below the squared first")

    truth, model = case["truth"], case["model"]
    se = case["beta_se"]
    dev = np.abs(f["beta"] - truth["beta"])
    require(np.all(dev <= BETA_SE_MULT * se),
            f"beta {f['beta']} more than {BETA_SE_MULT} GLS se from {truth['beta']}")
    for name in ("sigma2", "phi") if truth.get("phi_identified", True) else ("sigma2",):
        ratio = f[name] / truth[name]
        require(1.0 / COV_FACTOR <= ratio <= COV_FACTOR,
                f"{name} {f[name]:.4g} not within x{COV_FACTOR} of {truth[name]}")
    if not model["nugget_fixed"]:
        require(abs(f["tau2"] - truth["tau2"]) <= 0.5 * (truth["sigma2"] + truth["tau2"]),
                f"tau2 {f['tau2']:.4g} far from {truth['tau2']}")


def check_loglik(ll_value: float, cens_prob: float, f: dict, case: dict):
    """``loglik - log P(censored block)`` is the Gaussian density of the
    observed block; compare with a dense slogdet/solve evaluation."""
    obs = case["cens"] == 0
    c = case["coords"][obs]
    cov = covariance(case["model"], c, c, f["sigma2"], f["phi"], f["tau2"])
    ref = gauss_logpdf(case["value"][obs], case["x"][obs] @ f["beta"], cov)
    got = ll_value - np.log(cens_prob)
    require(close(got, ref, abs(ref)), f"observed-block loglik {got!r} vs dense {ref!r}")


def check_prediction(mean, sd, f: dict, case: dict, z):
    """Kriging output against the dense conditional normal formula, with
    data ``z`` at the estimation sites."""
    ref_m, ref_s = conditional_normal(
        case["model"], case["coords"], z, case["x"], case["coords_pred"], case["x_pred"],
        f["beta"], f["sigma2"], f["phi"], f["tau2"],
    )
    scale = max(1.0, float(np.max(ref_s)))
    require(close(mean, ref_m, scale), "prediction means differ from the dense formula")
    require(close(sd, ref_s, scale), "prediction sds differ from the dense formula")


def check_naive_loglik(gauss_ll: float, params, imputed, case: dict):
    c = case["coords"]
    cov = covariance(case["model"], c, c, params.cov.sigma2, params.cov.phi, params.cov.tau2)
    ref = gauss_logpdf(imputed, case["x"] @ params.beta, cov)
    require(close(gauss_ll, ref, abs(ref)), f"naive1 Gaussian loglik {gauss_ll!r} vs dense {ref!r}")


def check_influence(schemes: dict, c_star: float):
    """``schemes`` maps each scheme to (m0, flags) or None (a failed scheme)."""
    for name, entry in schemes.items():
        require(entry is not None, f"influence scheme {name} failed")
        m0, flags = (np.asarray(v) for v in entry)
        require(np.all(m0 >= -1e-12) and np.all(m0 <= 1.0 + 1e-12), f"{name}: M(0) outside [0, 1]")
        require(abs(m0.sum() - 1.0) <= M0_SUM_TOL, f"{name}: M(0) sums to {m0.sum()!r}")
        bench = m0.mean() + c_star * m0.std(ddof=1)
        require(np.array_equal(flags.astype(bool), m0 > bench), f"{name}: flags differ from mean + c*sd")
