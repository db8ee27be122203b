"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's own code paths: rejection sampling
instead of Gibbs, plain Monte Carlo and one-dimensional quadrature instead
of the tilted rectangle-probability estimator, dense naive formulas instead
of Cholesky pipelines, and generic numeric optimization on closed-form
likelihoods instead of the EM loop.  The numpy scalar Gibbs loop is an
earlier form of the library's sampler, kept as the arithmetic that sampler
must reproduce bit for bit.
"""

import math
from typing import Callable

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.integrate import quad
from scipy.optimize import least_squares, minimize, minimize_scalar
from scipy.special import gamma, kv, log_ndtr, ndtr, ndtri, ndtri_exp

from geocens.covariance import (
    _cholesky_inverse,
    build_sigma,
    cholesky_sigma,
    correlation,
    d2sigma,
    distance_matrix,
    dsigma,
    spd_cholesky,
)
from geocens.errors import NumericalError, SingularCovarianceError
from geocens.model import build_trend, conditional_given_obs, partition


def rejection_tmvn(mean, cov, lower, upper, n_keep, rng, max_draws=5_000_000):
    """Draw from a box-truncated normal by plain rejection."""
    mean = np.asarray(mean, float)
    cov = np.atleast_2d(np.asarray(cov, float))
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    out = []
    drawn = 0
    chunk = max(4 * n_keep, 1000)
    while sum(len(o) for o in out) < n_keep:
        drawn += chunk
        if drawn > max_draws:
            raise RuntimeError("rejection oracle acceptance rate too low")
        z = rng.multivariate_normal(mean, cov, size=chunk, method="cholesky")
        ok = np.all((z >= lower) & (z <= upper), axis=1)
        out.append(z[ok])
    return np.concatenate(out)[:n_keep]


def crude_mc_rect_prob(mean, cov, lower, upper, n_draws, rng):
    """Plain Monte Carlo rectangle probability with its standard error."""
    z = rng.multivariate_normal(
        np.asarray(mean, float), np.atleast_2d(cov), size=n_draws, method="cholesky"
    )
    inside = np.all((z >= np.asarray(lower)) & (z <= np.asarray(upper)), axis=1)
    p = inside.mean()
    se = np.sqrt(max(p * (1 - p), 1e-12) / n_draws)
    return p, se


def batch_means_se(samples_1d, n_batches=40):
    """Standard error of a (possibly autocorrelated) chain mean via batch
    means."""
    samples_1d = np.asarray(samples_1d, float)
    m = len(samples_1d) // n_batches
    if m < 2:
        raise ValueError("chain too short for the requested batch count")
    means = samples_1d[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(n_batches))


def gaussian_ml_oracle(y, x, dist, corr_fn, init, bounds, tau2=None):
    """Direct numeric maximum likelihood for the fully observed Gaussian
    model, independent of the package's estimation code.

    ``corr_fn(dist, phi)`` returns the correlation matrix.  Optimizes the
    profile likelihood over ``(phi, nu2)`` inside ``bounds``, the trend
    profiled by GLS and the sill by ``q / n``; with a fixed nugget ``tau2``
    the sill is tied to ``tau2 / nu2``, or, for ``tau2 = 0``, ``nu2`` is
    held at 0 and ``phi`` is searched alone (``init`` and ``bounds`` then
    have one component).  Returns ``(beta, sigma2, phi, tau2, loglik)``.
    """
    y = np.asarray(y, float)
    x = np.asarray(x, float)
    n = len(y)

    def profile(theta):
        phi = theta[0]
        nu2 = theta[1] if len(theta) > 1 else 0.0
        psi = corr_fn(dist, phi) + nu2 * np.eye(n)
        try:
            sign, logdet = np.linalg.slogdet(psi)
            if sign <= 0:
                return np.inf, None, None
            psi_inv = np.linalg.inv(psi)
        except np.linalg.LinAlgError:
            return np.inf, None, None
        xtp = x.T @ psi_inv
        beta = np.linalg.solve(xtp @ x, xtp @ y)
        r = y - x @ beta
        q = float(r @ psi_inv @ r)
        sigma2 = tau2 / nu2 if tau2 else q / n
        nll = 0.5 * (n * np.log(2 * np.pi) + n * np.log(sigma2) + logdet + q / sigma2)
        return nll, beta, sigma2

    res = minimize(
        lambda t: profile(t)[0],
        x0=np.asarray(init, float),
        method="Nelder-Mead",
        bounds=bounds,
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
    )
    nll, beta, sigma2 = profile(res.x)
    phi = float(res.x[0])
    nugget = tau2 if tau2 is not None else float(res.x[1]) * sigma2
    return beta, sigma2, phi, float(nugget), -float(nll)


def wls_variofit_oracle(centers, gamma, counts, max_dist, family, kappa, fixed_tau2=None):
    """Weighted least-squares variogram fit by ``least_squares`` from many
    starts, independent of the package's search.

    Minimizes ``sum counts * (tau2 + sigma2 (1 - rho(h; phi)) - gamma)^2``
    over the box ``sigma2 in [1e-12 sill, 2 sill]``, ``phi in [1e-12, 1] *
    max_dist``, ``tau2 in [0, 2 sill]`` (``sill = max gamma``), with
    ``tau2`` held at ``fixed_tau2`` when given.  Starts at 12 log-spaced
    ranges from ``max_dist / 1000`` up, each with three splits of the sill
    between ``sigma2`` and ``tau2``.  Returns ``((sigma2, phi, tau2),
    objective)`` at the best end point.
    """
    centers, gamma = np.asarray(centers, float), np.asarray(gamma, float)
    w = np.sqrt(np.asarray(counts, float))
    sill = float(gamma.max())
    k = 3 if fixed_tau2 is None else 2

    def full(theta):
        return tuple(theta) if k == 3 else (*theta, fixed_tau2)

    def residuals(theta):
        s2, phi, t2 = full(theta)
        return w * (t2 + s2 * (1.0 - correlation(family, kappa, centers, phi)) - gamma)

    lower = np.array([1e-12 * sill, 1e-12 * max_dist, 0.0])[:k]
    upper = np.array([2.0 * sill, max_dist, 2.0 * sill])[:k]
    best = None
    for phi0 in np.geomspace(1e-3, 1.0, 12) * max_dist:
        for share in (0.2, 0.5, 0.8):
            x0 = np.clip(np.array([(1.0 - share) * sill, phi0, share * sill])[:k], lower, upper)
            sol = least_squares(residuals, x0, bounds=(lower, upper), method="trf",
                                xtol=1e-12, ftol=1e-12, gtol=1e-12)
            value = float(np.sum(sol.fun**2))
            if best is None or value < best[1]:
                best = (full(sol.x), value)
    return best


def precision_derivative(sigma, ds_k):
    """``d Sigma^{-1} / d a_k = -Sigma^{-1} (d Sigma / d a_k) Sigma^{-1}``
    with a dense inverse."""
    si = np.linalg.inv(sigma)
    return -si @ ds_k @ si


def precision_second_derivative(sigma, ds_k, ds_l, ds_kl):
    """``d^2 Sigma^{-1} / d a_k d a_l`` from the first and second
    derivatives of Sigma, with a dense inverse."""
    si = np.linalg.inv(sigma)
    return si @ ds_l @ si @ ds_k @ si + si @ ds_k @ si @ ds_l @ si - si @ ds_kl @ si


def _dense_influence_terms(params, zhat, x, dist, spec):
    """Dense inverse, precision derivatives ``G_k`` and residual shared by
    the reference Hessian and cross-derivatives."""
    alphas = (1, 2) if spec.nugget_fixed else (1, 2, 3)
    sigma = build_sigma(dist, spec, params.cov)
    si = np.linalg.inv(sigma)
    s_k = [dsigma(dist, spec, params.cov, k) for k in alphas]
    g_k = [-si @ sk @ si for sk in s_k]
    mu = x @ np.asarray(params.beta, float)
    return alphas, sigma, si, s_k, g_k, mu, zhat - mu


def q_hessian_dense(params, zhat, zzhat, x, dist, spec):
    """Hessian of the expected complete-data objective with the dense n x n
    second moment ``zzhat``, written with explicit inverses and the second
    derivative of the precision ``T_kl`` term by term."""
    p = x.shape[1]
    alphas, sigma, si, s_k, g_k, mu, r = _dense_influence_terms(params, zhat, x, dist, spec)
    n_a = len(alphas)
    h = np.zeros((p + n_a, p + n_a))
    h[:p, :p] = -(x.T @ si @ x)
    for a, gk in enumerate(g_k):
        h[:p, p + a] = x.T @ gk @ r
        h[p + a, :p] = h[:p, p + a]
    for a in range(n_a):
        for b in range(a, n_a):
            skl = d2sigma(dist, spec, params.cov, alphas[a], alphas[b])
            t_kl = (
                si @ s_k[b] @ si @ s_k[a] @ si
                + si @ s_k[a] @ si @ s_k[b] @ si
                - si @ skl @ si
            )
            logdet_part = 0.5 * (float(np.sum(t_kl * sigma)) + float(np.sum(g_k[a] * s_k[b])))
            quad = float(np.sum(zzhat * t_kl) - 2.0 * zhat @ t_kl @ mu + mu @ t_kl @ mu)
            h[p + a, p + b] = logdet_part - 0.5 * quad
            h[p + b, p + a] = h[p + a, p + b]
    return 0.5 * (h + h.T)


def delta_dense(scheme, params, zhat, zzhat, x, dist, spec):
    """Cross derivative of one perturbation scheme at its null point with
    the dense second moment ``zzhat`` and explicit inverses."""
    n, p = x.shape
    _, _, si, _, g_k, mu, r = _dense_influence_terms(params, zhat, x, dist, spec)
    delta = np.zeros((p + len(g_k), n))
    if scheme == "response":
        delta[:p] = -(x.T @ si)
        for a, gk in enumerate(g_k):
            delta[p + a] = gk @ r
    elif scheme == "scale":
        si_r = si @ r
        delta[:p] = -0.5 * ((x.T @ si) * r[None, :] + x.T * si_r[None, :])
        for a, gk in enumerate(g_k):
            gk_m2_diag = np.sum(gk * zzhat, axis=1)  # diag of G_k M2 (both symmetric)
            gk_zhat, gk_mu = gk @ zhat, gk @ mu
            delta[p + a] = 0.5 * (gk_m2_diag - gk_zhat * mu - zhat * gk_mu + mu * gk_mu)
    else:
        beta_sum = float(np.sum(params.beta))
        delta[:p] = (si @ r)[None, :] - beta_sum * (x.T @ si)
        for a, gk in enumerate(g_k):
            delta[p + a] = beta_sum * (gk @ r)
    return delta


def m0_dense(q_hess, delta, threshold=1e-10):
    """``M(0)`` and the kept eigenvalues from ``eigh`` of the n x n
    normal-curvature matrix ``2 Delta' (-H)^{-1} Delta``."""
    f = delta.T @ np.linalg.solve(-q_hess, delta)
    eigval, eigvec = np.linalg.eigh(f + f.T)
    eigval, eigvec = eigval[::-1], eigvec[:, ::-1]
    keep = eigval > threshold * max(eigval[0], 0.0)
    lam = eigval[keep]
    return (eigvec[:, keep] ** 2) @ (lam / lam.sum()), lam


def loo_kriging_means(y, x, beta, sigma, idx):
    """Leave-one-out kriging mean at each row of ``idx`` by one dense
    solve per row on the covariance ``sigma`` of all rows with that row
    removed (the direct loop the closed form replaces)."""
    y = np.asarray(y, float)
    mu = np.asarray(x, float) @ np.asarray(beta, float)
    out = np.empty(len(idx))
    for j, i in enumerate(idx):
        keep = np.arange(len(y)) != i
        w = np.linalg.solve(sigma[np.ix_(keep, keep)], y[keep] - mu[keep])
        out[j] = mu[i] + sigma[i, keep] @ w
    return out


def central_hessian(f, x0, rel_step=1e-4):
    """Dense central-difference Hessian of a scalar function."""
    x0 = np.asarray(x0, float)
    n = x0.size
    h = rel_step * np.maximum(np.abs(x0), 1.0)
    hess = np.zeros((n, n))
    f0 = f(x0)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        hess[i, i] = (f(x0 + ei) - 2 * f0 + f(x0 - ei)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            hess[i, j] = (
                f(x0 + ei + ej) - f(x0 + ei - ej) - f(x0 - ei + ej) + f(x0 - ei - ej)
            ) / (4 * h[i] * h[j])
            hess[j, i] = hess[i, j]
    return hess


def central_mixed_derivative(f, theta0, omega0, rel_step_t=1e-4, rel_step_w=1e-4):
    """Mixed second derivative matrix d^2 f / d theta d omega' by a
    four-point central stencil; returns shape (len(theta), len(omega))."""
    theta0 = np.asarray(theta0, float)
    omega0 = np.asarray(omega0, float)
    ht = rel_step_t * np.maximum(np.abs(theta0), 1.0)
    hw = rel_step_w * np.maximum(np.abs(omega0), 1.0)
    out = np.zeros((theta0.size, omega0.size))
    for j in range(theta0.size):
        tj = np.zeros_like(theta0)
        tj[j] = ht[j]
        for i in range(omega0.size):
            wi = np.zeros_like(omega0)
            wi[i] = hw[i]
            out[j, i] = (
                f(theta0 + tj, omega0 + wi)
                - f(theta0 + tj, omega0 - wi)
                - f(theta0 - tj, omega0 + wi)
                + f(theta0 - tj, omega0 - wi)
            ) / (4 * ht[j] * hw[i])
    return out


def log_interval_prob(a, b):
    """``log(Phi(b) - Phi(a))`` for scalars ``a < b``: the interval is
    reflected into the lower half-line, where ``log_ndtr`` keeps its
    precision, and the difference is taken as ``Phi(b) (1 - Phi(a)/Phi(b))``."""
    if a + b > 0:
        a, b = -b, -a
    la, lb = float(log_ndtr(a)), float(log_ndtr(b))
    return lb + float(np.log(-np.expm1(la - lb)))


def ordered_cholesky_scalar(corr, lower, upper):
    """Cholesky factor with the Genz variable ordering, one candidate at a
    time: each pivot recomputes every remaining variable's conditional
    variance and shift from scratch and copies the permuted matrix.

    Variables are permuted so that the most restrictive coordinate is
    integrated first (smallest conditional log probability given truncated
    expected values of earlier coordinates), which stabilizes the
    separation-of-variables integrand.  The ordering is a deterministic
    function of the problem, so permuting the input reproduces the same
    internal order.
    """
    n = corr.shape[0]
    c = corr.copy()
    a = lower.copy()
    b = upper.copy()
    ell = np.zeros((n, n))
    y = np.zeros(n)
    eps = 1e-12
    for i in range(n):
        best_j, best_p = i, np.inf
        for j in range(i, n):
            var_j = c[j, j] - ell[j, :i] @ ell[j, :i]
            sd_j = np.sqrt(max(var_j, eps))
            s = ell[j, :i] @ y[:i]
            p_j = log_interval_prob((a[j] - s) / sd_j, (b[j] - s) / sd_j)
            if p_j < best_p:
                best_p, best_j = p_j, j
        if best_j != i:
            idx = np.arange(n)
            idx[i], idx[best_j] = best_j, i
            c = c[np.ix_(idx, idx)]
            a[[i, best_j]] = a[[best_j, i]]
            b[[i, best_j]] = b[[best_j, i]]
            ell[[i, best_j], :i] = ell[[best_j, i], :i]
        var_i = c[i, i] - ell[i, :i] @ ell[i, :i]
        ell[i, i] = np.sqrt(max(var_i, eps))
        for j in range(i + 1, n):
            ell[j, i] = (c[j, i] - ell[j, :i] @ ell[i, :i]) / ell[i, i]
        s = ell[i, :i] @ y[:i]
        ai = (a[i] - s) / ell[i, i]
        bi = (b[i] - s) / ell[i, i]
        # phi(a) / P - phi(b) / P, each ratio in log space
        lp_i = log_interval_prob(ai, bi) + 0.5 * np.log(2 * np.pi)
        y[i] = np.exp(-0.5 * ai * ai - lp_i) - np.exp(-0.5 * bi * bi - lp_i)
    return ell, a, b


def matern_correlation_kv(kappa, h, phi):
    """Matern correlation ``c u^kappa K_kappa(u)``, ``u = h / phi``,
    ``c = 2^(1 - kappa) / Gamma(kappa)``, with one Bessel ``kv`` call per
    lag: 1 at ``u = 0`` and 0 where ``kv`` underflows."""
    u = np.asarray(h, dtype=float) / phi
    c = 2.0 ** (1.0 - kappa) / gamma(kappa)
    with np.errstate(invalid="ignore", over="ignore"):
        rho = c * np.power(u, kappa) * kv(kappa, u)
    return np.nan_to_num(np.where(u == 0.0, 1.0, rho), nan=0.0)


def matern_dcorr_dphi_kv(kappa, h, phi):
    """``d rho / d phi = (c / phi) u^(kappa + 1) K_(kappa - 1)(u)`` of the
    Matern correlation, one ``kv`` call per lag: 0 at ``u = 0`` and where
    ``kv`` underflows."""
    u = np.asarray(h, dtype=float) / phi
    c = 2.0 ** (1.0 - kappa) / gamma(kappa)
    with np.errstate(invalid="ignore", over="ignore"):
        out = c / phi * np.power(u, kappa + 1.0) * kv(kappa - 1.0, u)
    return np.nan_to_num(np.where(u == 0.0, 0.0, out), nan=0.0)


def dcorr_dphi_closed_form(family, kappa, h, phi):
    """``d rho / d phi`` of the exponential, Gaussian and powered-exponential
    correlations, each evaluating its own ``exp`` rather than reading
    ``rho``: the earlier form of the library's derivatives, which those
    must reproduce bit for bit."""
    u = h / phi
    if family == "exponential":
        return np.exp(-u) * u / phi
    if family == "gaussian":
        return np.exp(-(u**2)) * 2.0 * u**2 / phi
    if family == "powered-exponential":
        g = np.power(u, kappa)
        return kappa * g / phi * np.exp(-g)
    raise ValueError(family)


def dense_profile_value(dist, corr, phi, nu2, z, x, cov_c, idx, tau2=None):
    """The profile objective ``1/2 [n log s + log|Psi| + q / s]`` at
    ``(phi, nu2)`` from ``slogdet`` and ``inv`` of ``Psi = R + nu2 I``,
    with ``R = corr(dist, phi)``; ``q = r' Psi^{-1} r + sum((Psi^{-1})_cc
    * C)``, with the trend of ``z`` on ``x`` fitted by GLS through the
    dense inverse.  The sill ``s`` is ``tau2 / nu2`` when ``tau2`` is
    given, and ``q / n`` otherwise.  Returns the value, the GLS
    coefficients and ``s``."""
    n = len(z)
    psi = corr(dist, phi) + nu2 * np.eye(n)
    sign, logdet = np.linalg.slogdet(psi)
    assert sign > 0
    qi = np.linalg.inv(psi)
    beta = np.linalg.solve(x.T @ qi @ x, x.T @ qi @ z)
    r = z - x @ beta
    q = r @ qi @ r + np.sum(qi[np.ix_(idx, idx)] * cov_c)
    s = q / n if tau2 is None else tau2 / nu2
    return 0.5 * (n * np.log(s) + logdet + q / s), beta, s


def gls_refit(dist, spec, phi, nu2, x, y, fixed_tau=None):
    """GLS trend coefficients and sill at ``(phi, nu2)`` from a fresh
    Cholesky factor of ``Psi = R(phi) + nu2 I``: the sill is ``fixed_tau /
    nu2`` when a nugget is fixed and ``nu2 > 0``, the whitened residual sum
    of squares over ``n`` otherwise.  This is the refit Gaussian ML once
    made after its search."""
    psi = correlation(spec.family, spec.kappa, dist, phi) + nu2 * np.eye(len(y))
    lo = cholesky(psi, lower=True)
    xw = solve_triangular(lo, x, lower=True)
    yw = solve_triangular(lo, y, lower=True)
    beta, *_ = np.linalg.lstsq(xw, yw, rcond=None)
    rw = yw - xw @ beta
    if fixed_tau is not None and nu2 > 0:
        return beta, fixed_tau / nu2
    return beta, float(rw @ rw) / len(y)


def conditional_cens_given_obs(params, data, trend, spec):
    """Conditional mean and covariance of the censored block given the
    observed block, from one factor of ``Sigma`` over the sites ordered
    observed first (:func:`geocens.model.conditional_given_obs`)."""
    part = partition(data)
    order = part.order
    x = build_trend(data.coords, data.x_extra, trend)[order]
    lo = cholesky_sigma(distance_matrix(data.coords[order]), spec, params.cov)
    mu, l_cc, _ = conditional_given_obs(lo, x @ params.beta, data.value[order],
                                        part.obs_idx.size)
    return mu, l_cc @ l_cc.T


def trunc_std_ppf_probability_space(u, a, b):
    """Truncated standard normal quantile by ``ndtri`` of a difference of
    normal CDFs, taken in whichever tail keeps it from cancelling, on numpy
    scalars: the library's earlier quantile, kept as a reference away from
    the far tails.  Past 34 sd, where that difference underflows, it uses an
    exponential tail approximation, off by up to 7.5e-5 relative."""
    if b <= 0.0:
        return -trunc_std_ppf_probability_space(1.0 - u, -b, -a)
    if a >= 34.0:
        if np.isinf(b):
            x = a - np.log1p(-u) / a
        else:
            width = -np.expm1(-a * (b - a))
            x = a - np.log1p(-u * width) / a
        return min(max(x, a), b if np.isfinite(b) else x)
    if a >= 0.0:
        pa = ndtr(-a)
        pb = ndtr(-b)
        x = -ndtri(pa - u * (pa - pb))
    else:
        pa = ndtr(a)
        pb = ndtr(b)
        x = ndtri(pa + u * (pb - pa))
    if np.isfinite(x):
        return min(max(x, a), b)
    return a if u < 0.5 else b


def trunc_std_ppf_bisect(u, a, b):
    """Truncated standard normal quantile by bisection of the log
    probability of the lower part ``[a, x]`` (upper part ``[x, b]`` when
    ``u > 0.5``) against ``log u`` (``log(1 - u)``): no inverse CDF, and the
    smaller part keeps its relative precision in both tails.  Infinite
    bounds are cut at +-60 sd."""
    total = log_interval_prob(a, b)
    lo, hi = max(a, -60.0), min(b, 60.0)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if u <= 0.5:
            below = log_interval_prob(a, mid) - total < np.log(u)
        else:
            below = log_interval_prob(mid, b) - total > np.log1p(-u)
        lo, hi = (mid, hi) if below else (lo, mid)


def _trunc_std_ppf_numpy(u, a, b):
    """The library's log-space truncated normal quantile on numpy scalars;
    ``log`` and ``exp`` are libm's (``math``), as the library takes them,
    since numpy's may differ in the last place."""
    flip = b > -a
    if flip:
        u, a, b = 1.0 - u, -b, -a
    lb = log_ndtr(b)
    if np.isneginf(a):
        x = ndtri_exp(lb + math.log(u or 5e-324))
    else:
        la = log_ndtr(a)
        p = u + (1.0 - u) * math.exp(la - lb)
        x = max(ndtri_exp(lb + math.log(p) if p else la), a)
    x = min(x, b)
    return -x if flip else x


def tmvn_gibbs_numpy(mean, cov, lower, upper, n_samples, burn_in, thin, gen, start=None):
    """Coordinate-wise Gibbs sampler for a box-truncated normal, one numpy
    scalar update and one generator call per coordinate: each update forms
    the whole residual ``x - mean`` and draws its own uniform."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = mean.shape[0]
    lam = _cholesky_inverse(spd_cholesky(cov))
    cond_sd = 1.0 / np.sqrt(np.diag(lam))
    if start is None:
        x = np.clip(mean, lower, upper)
    else:
        x = np.clip(np.asarray(start, dtype=float).copy(), lower, upper)
    out = np.empty((n_samples, n))
    kept = 0
    sweep = 0
    while kept < n_samples:
        sweep += 1
        for i in range(n):
            r = lam[i] @ (x - mean) - lam[i, i] * (x[i] - mean[i])
            m_i = mean[i] - r / lam[i, i]
            a = (lower[i] - m_i) / cond_sd[i]
            b = (upper[i] - m_i) / cond_sd[i]
            u = gen.random()
            x[i] = m_i + cond_sd[i] * _trunc_std_ppf_numpy(u, a, b)
            if x[i] < lower[i]:
                x[i] = lower[i]
            elif x[i] > upper[i]:
                x[i] = upper[i]
        if sweep > burn_in and (sweep - burn_in) % thin == 0:
            out[kept] = x
            kept += 1
    return out


def equicorrelated_log_prob(upper, rho):
    """``log P(X <= upper)`` for ``X ~ N(0, R)`` with the equicorrelation
    matrix ``R = (1 - rho) I + rho 11'``, ``0 <= rho < 1``.

    Given ``W ~ N(0, 1)``, ``X_i = sqrt(rho) W + sqrt(1 - rho) e_i`` with
    iid standard ``e_i``, so ``P`` is the one-dimensional integral of
    ``phi(w) prod_i Phi((u_i - sqrt(rho) w) / sqrt(1 - rho))``.  Its log is
    concave; adaptive quadrature runs on the integrand divided by its
    maximum, between the points where the log has fallen by 700 on either
    side, and the log of the maximum is added back.
    """
    u = np.asarray(upper, dtype=float)
    s, c = np.sqrt(rho), np.sqrt(1.0 - rho)

    def log_f(w):
        return -0.5 * w * w - 0.5 * np.log(2.0 * np.pi) + log_ndtr((u - s * w) / c).sum()

    mode = minimize_scalar(lambda w: -log_f(w), bracket=(-1.0, 1.0)).x
    top = log_f(mode)
    ends = []
    for sign in (-1.0, 1.0):
        step = 1.0
        while top - log_f(mode + sign * step) < 700.0:
            step *= 2.0
        ends.append(mode + sign * step)
    val, _ = quad(lambda w: np.exp(log_f(w) - top), ends[0], ends[1], points=[mode],
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return float(top + np.log(val))


def censored_pair_loglik(beta, sigma2, phi, tau2, coords, value, cens):
    """Exact log-likelihood of a constant-mean exponential field with two
    left-censored sites, each read below the bound in ``value``.

    The Gaussian log density of the observed block (dense solves) plus the
    log of the bivariate probability that both censored readings lie below
    their bounds given it.  With the conditional law standardized to the
    bounds ``b`` and correlation ``rho``, that probability is the integral
    over ``x < b_1`` of ``phi(x) Phi((b_2 - rho x) / sqrt(1 - rho^2))``, by
    adaptive quadrature.
    """
    coords = np.asarray(coords, dtype=float)
    value = np.asarray(value, dtype=float)
    o, c = cens == 0, cens == 1
    assert c.sum() == 2
    h = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))
    sigma = sigma2 * np.exp(-h / phi) + tau2 * np.eye(value.shape[0])
    s_oo, s_co, s_cc = sigma[np.ix_(o, o)], sigma[np.ix_(c, o)], sigma[np.ix_(c, c)]
    r = value[o] - beta
    sign, logdet = np.linalg.slogdet(s_oo)
    if sign <= 0:
        return -np.inf
    logdens = -0.5 * (r.size * np.log(2.0 * np.pi) + logdet + r @ np.linalg.solve(s_oo, r))
    mu = beta + s_co @ np.linalg.solve(s_oo, r)
    cov = s_cc - s_co @ np.linalg.solve(s_oo, s_co.T)
    sd = np.sqrt(np.diag(cov))
    b = (value[c] - mu) / sd
    rho = cov[0, 1] / (sd[0] * sd[1])
    root = np.sqrt(1.0 - rho * rho)
    prob, _ = quad(lambda x: np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
                   * ndtr((b[1] - rho * x) / root), -np.inf, b[0], epsabs=0.0, epsrel=1e-12,
                   limit=200)
    return float(logdens + np.log(prob))


# ---------------------------------------------------------------------------
# the L-BFGS-B profile search the library used before its projected Newton
# search; it takes ``fun`` returning value and gradient only
# ---------------------------------------------------------------------------

# Box cuts after trials at which Psi cannot be factored (each halves the
# distance from the best point to the failed trial along one coordinate)
# before the search gives up.
_MAX_CUTS = 40

# A bound set by a cut is bisected back towards its failed trial until the
# two lie within this share of the box width.
_BISECT_TOL = 1e-6


class _SingularTrial(Exception):
    """A search trial ``x`` at which Psi could not be factored."""

    def __init__(self, x: np.ndarray):
        super().__init__(x)
        self.x = x


def lbfgsb_profile_search(
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
