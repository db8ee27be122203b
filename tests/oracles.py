"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's own code paths: rejection sampling
instead of Gibbs, plain Monte Carlo instead of lattice rules, dense naive
formulas instead of Cholesky pipelines, and generic numeric optimization
on closed-form likelihoods instead of the EM loop.
"""

import numpy as np
from scipy.optimize import minimize


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


def gaussian_ml_oracle(y, x, dist, corr_fn, init, bounds):
    """Direct numeric maximum likelihood for the fully observed Gaussian
    model, independent of the package's estimation code.

    ``corr_fn(dist, phi)`` returns the correlation matrix.  Optimizes the
    profile likelihood over ``(phi, nu2)`` inside ``bounds`` and returns
    ``(beta, sigma2, phi, tau2, loglik)``.
    """
    y = np.asarray(y, float)
    x = np.asarray(x, float)
    n = len(y)

    def profile(theta):
        phi, nu2 = theta
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
        sigma2 = float(r @ psi_inv @ r) / n
        nll = 0.5 * (n * np.log(2 * np.pi) + n * np.log(sigma2) + logdet + n)
        return nll, beta, sigma2

    res = minimize(
        lambda t: profile(t)[0],
        x0=np.asarray(init, float),
        method="Nelder-Mead",
        bounds=bounds,
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
    )
    nll, beta, sigma2 = profile(res.x)
    phi, nu2 = res.x
    return beta, sigma2, float(phi), float(nu2 * sigma2), -float(nll)


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
