import numpy as np
import pytest
from numpy.testing import assert_allclose

from geocens import (
    CovarianceSpec,
    CovParams,
    ModelParams,
    TrendSpec,
    cm_step,
    saem_fit,
)
from geocens import covariance, predict, saem
from geocens.covariance import build_sigma, correlation, distance_matrix
from geocens.errors import NumericalError, SingularCovarianceError
from geocens.model import build_trend
from geocens.predict import _ml_nuisance
from geocens.covariance import _cholesky_inverse
from geocens.profile import profile_objective, profile_search

from study import SPEC as STUDY_SPEC
from study import TREND as STUDY_TREND
from study import simulate_study_data, study_config
from test_saem import base_config, sim_left

SPEC_EXP = CovarianceSpec("exponential")
FAMILY_SPECS = [
    CovarianceSpec("exponential"),
    CovarianceSpec("gaussian"),
    CovarianceSpec("spherical"),
    CovarianceSpec("matern", kappa=1.5),
    CovarianceSpec("matern", kappa=0.3),
    CovarianceSpec("powered-exponential", kappa=1.3),
]


def gradient_setup(seed=0, n=25):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 4, size=(n, 2))
    x = np.column_stack([np.ones(n), coords[:, 0]])
    y = x @ np.array([1.0, 0.5]) + rng.normal(size=n)
    return distance_matrix(coords), x, y, rng


def central_gradient(f, theta, rel_step=1e-6):
    out = np.empty(len(theta))
    for j in range(len(theta)):
        e = np.zeros(len(theta))
        e[j] = rel_step * max(abs(theta[j]), 1.0)
        out[j] = (f(theta + e) - f(theta - e)) / (2 * e[j])
    return out


# ---------------------------------------------------------------------------
# analytic gradient of the shared objective
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: f"{s.family}-{s.kappa}")
def test_cm_form_gradient_matches_central_differences(spec):
    # residual and sill held, a censored block with its own covariance
    dist, x, y, rng = gradient_setup()
    idx = np.array([2, 5, 7, 11, 19])
    w = rng.normal(size=(idx.size, idx.size + 3))
    cov_c = w @ w.T / (idx.size + 3)
    resid = y - x @ np.array([1.1, 0.4])

    def nuisance(lo, nu2):
        return resid, 1.3, 0.0

    for theta, nu2 in [(np.array([0.9, 0.3]), None), (np.array([0.9]), 0.2)]:
        def f(t):
            return profile_objective(t, dist, spec, nuisance, cov_c, idx, nu2)

        _, grad = f(theta)
        assert_allclose(grad, central_gradient(lambda t: f(t)[0], theta), rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: f"{s.family}-{s.kappa}")
def test_gaussian_ml_form_gradient_matches_central_differences(spec):
    # trend profiled by GLS, sill by rss / n or pinned at tau2 / nu2; the
    # central differences re-profile both at every step
    dist, x, y, _ = gradient_setup(seed=1)
    none = np.zeros(0, dtype=int)
    for fixed_tau, theta, nu2 in [
        (None, np.array([0.9, 0.3]), None),
        (0.4, np.array([0.9, 0.3]), None),
        (0.0, np.array([0.9]), 0.0),
    ]:
        def f(t):
            def nuisance(lo, nu2_t):
                return _ml_nuisance(lo, nu2_t, y, x, fixed_tau)[1:]

            return profile_objective(t, dist, spec, nuisance, np.zeros((0, 0)), none, nu2)

        _, grad = f(theta)
        assert_allclose(grad, central_gradient(lambda t: f(t)[0], theta), rtol=1e-6, atol=1e-7)


# ---------------------------------------------------------------------------
# search budget: R(phi) evaluations per search
# ---------------------------------------------------------------------------


def count_corr_calls(monkeypatch, fn_owner, fn_name):
    """Count corr_matrix calls made inside ``fn_owner.fn_name``; returns
    the counter dict (``calls`` of the function, ``corr`` inside it)."""
    counts = {"calls": 0, "corr": 0, "inside": False}
    corr_matrix, fn = covariance.corr_matrix, getattr(fn_owner, fn_name)

    def counted_corr(*args, **kwargs):
        counts["corr"] += counts["inside"]
        return corr_matrix(*args, **kwargs)

    def counted_fn(*args, **kwargs):
        counts["calls"] += 1
        counts["inside"] = True
        try:
            return fn(*args, **kwargs)
        finally:
            counts["inside"] = False

    monkeypatch.setattr(covariance, "corr_matrix", counted_corr)
    monkeypatch.setattr(fn_owner, fn_name, counted_fn)
    return counts


def test_cm_step_budget_study_design_one_dimensional(monkeypatch):
    # Matern kappa = 0.3, nugget fixed at zero: the range is searched alone
    counts = count_corr_calls(monkeypatch, saem, "cm_step")
    data = simulate_study_data(3, n=60).data
    saem_fit(data, STUDY_TREND, STUDY_SPEC, study_config(3, max_iter=10))
    assert counts["calls"] == 10
    assert counts["corr"] / counts["calls"] <= 10


def test_cm_step_budget_exponential_two_dimensional(monkeypatch):
    counts = count_corr_calls(monkeypatch, saem, "cm_step")
    data = sim_left(seed=1, n=60).data
    saem_fit(data, TrendSpec("cte"), CovarianceSpec("exponential"), base_config(max_iter=10))
    assert counts["calls"] == 10
    assert counts["corr"] / counts["calls"] <= 15


@pytest.mark.parametrize(
    "spec",
    [
        CovarianceSpec("exponential"),
        CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.2),
        CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.0),
        CovarianceSpec("matern", kappa=0.3),
    ],
    ids=["free", "fixed-0.2", "fixed-0", "matern-free"],
)
def test_gaussian_ml_fit_budget(monkeypatch, spec):
    data = sim_left(seed=1, n=60, cens=0.0).data
    x = build_trend(data.coords, None, TrendSpec("cte"))
    dist = distance_matrix(data.coords)
    counts = count_corr_calls(monkeypatch, predict, "gaussian_ml_fit")
    predict.gaussian_ml_fit(data.value, x, dist, spec, CovParams(1.0, 0.8, 0.1))
    assert counts["corr"] <= 35


# ---------------------------------------------------------------------------
# trials at which the covariance cannot be factored
# ---------------------------------------------------------------------------


def test_profile_search_steps_back_from_singular_trials():
    # minimum at 3, but nothing above 2 can be evaluated
    def fun(t):
        if t[0] > 2.0:
            raise SingularCovarianceError("forced")
        return float((t[0] - 3.0) ** 2), np.array([2.0 * (t[0] - 3.0)])

    theta, value = profile_search(fun, np.array([0.5]), np.array([0.0]), np.array([10.0]))
    assert theta[0] <= 2.0
    assert np.isfinite(value) and value <= fun(np.array([0.5]))[0]

    with pytest.raises(NumericalError):
        profile_search(fun, np.array([2.5]), np.array([0.0]), np.array([10.0]))


def test_profile_search_closes_on_the_singular_boundary():
    # the same objective: after the cuts the search bisects its cut bound
    # back towards the failed trials and ends at the edge, 2
    def fun(t):
        if t[0] > 2.0:
            raise SingularCovarianceError("forced")
        return float((t[0] - 3.0) ** 2), np.array([2.0 * (t[0] - 3.0)])

    theta, value = profile_search(fun, np.array([0.5]), np.array([0.0]), np.array([10.0]))
    assert 2.0 - 1e-3 <= theta[0] <= 2.0
    assert value == pytest.approx(fun(theta)[0])


def test_cholesky_inverse_allocates_one_matrix():
    import tracemalloc
    from scipy.linalg import cholesky

    n = 400
    rng = np.random.default_rng(5)
    a = rng.normal(size=(n, n))
    mat = a @ a.T / n + np.eye(n)
    lo = cholesky(mat, lower=True)
    tracemalloc.start()
    try:
        inv = _cholesky_inverse(lo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * n * 8, peak / (n * n * 8)
    assert np.array_equal(inv, inv.T)
    assert np.abs(inv - np.linalg.inv(mat)).max() < 1e-10


def test_cm_step_with_singular_covariance_above_phi_cut(monkeypatch):
    # the unconstrained maximizer lies near phi = 1; every trial above the
    # cut fails to factor, so the step must end at a finite objective below
    # the cut that is no worse than at its start
    res = sim_left(seed=13)
    data = res.data
    x = build_trend(data.coords, None, TrendSpec("cte"))
    dist = distance_matrix(data.coords)
    prev = ModelParams(beta=[1.5], cov=CovParams(sigma2=1.0, phi=0.2, tau2=0.2))
    zhat = data.value.astype(float)
    zzhat = np.outer(zhat, zhat) + 0.1 * np.eye(data.n)
    cfg = base_config()
    sigma = build_sigma(dist, SPEC_EXP, prev.cov)
    free = cm_step(
        zhat, zzhat, np.arange(data.n), x, dist, SPEC_EXP, cfg, prev, np.linalg.cholesky(sigma)
    )
    cut = 0.5 * (prev.cov.phi + free.cov.phi)

    last_phi, failed = {}, []
    corr_matrix, spd_cholesky = covariance.corr_matrix, covariance.spd_cholesky

    def noting_corr(dist_, spec_, phi):
        last_phi["phi"] = phi
        return corr_matrix(dist_, spec_, phi)

    def failing_cholesky(mat, jitter=None):
        if last_phi["phi"] > cut:
            failed.append(last_phi["phi"])
            raise SingularCovarianceError("forced above the cut")
        return spd_cholesky(mat, jitter)

    monkeypatch.setattr(covariance, "corr_matrix", noting_corr)
    monkeypatch.setattr(covariance, "spd_cholesky", failing_cholesky)
    new = cm_step(
        zhat, zzhat, np.arange(data.n), x, dist, SPEC_EXP, cfg, prev, np.linalg.cholesky(sigma)
    )
    monkeypatch.undo()

    def profile(phi, nu2):
        sig = new.cov.sigma2 * (correlation("exponential", 0.0, dist, phi) + nu2 * np.eye(data.n))
        si = np.linalg.inv(sig)
        mu = x @ new.beta
        quad = np.sum(zzhat * si) - 2 * zhat @ si @ mu + mu @ si @ mu
        return -0.5 * (np.linalg.slogdet(sig)[1] + quad)

    assert failed and new.cov.phi <= cut
    start_nu2 = prev.cov.tau2 / prev.cov.sigma2
    assert np.isfinite(profile(new.cov.phi, new.cov.nu2))
    assert profile(new.cov.phi, new.cov.nu2) >= profile(prev.cov.phi, start_nu2)

