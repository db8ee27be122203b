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
from geocens import covariance, predict, profile, saem
from geocens.covariance import Lags, build_sigma, correlation, distance_matrix
from geocens.errors import NumericalError, SingularCovarianceError
from geocens.influence import q_hessian
from geocens.model import build_trend
from geocens.covariance import _cholesky_inverse
from geocens.profile import _ARMIJO, profile_objective, profile_search

from oracles import dense_profile_value, gls_refit, lbfgsb_profile_search
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


def central_jacobian(g, theta, rel_step=1e-5):
    """Central differences of the vector function ``g``: column ``j`` is
    the derivative in ``theta[j]``."""
    cols = []
    for j in range(len(theta)):
        e = np.zeros(len(theta))
        e[j] = rel_step * max(abs(theta[j]), 1.0)
        cols.append((g(theta + e) - g(theta - e)) / (2 * e[j]))
    return np.column_stack(cols)


# the trend-profiled forms: sill profiled (2-D), sill tied to tau2 / nu2
# (2-D) and phi alone with nu2 = 0, keyed by the fixed nugget (None: free)
FORMS = [
    (None, np.array([0.9, 0.3])),
    (0.4, np.array([0.9, 0.3])),
    (0.0, np.array([0.9])),
]
NO_BLOCK = (np.zeros((0, 0)), np.zeros(0, dtype=int))


def censored_block(rng):
    # a block of the response with its own covariance, as the CM step
    # completes the censored rows
    idx = np.array([2, 5, 7, 11, 19])
    w = rng.normal(size=(idx.size, idx.size + 3))
    return w @ w.T / (idx.size + 3), idx


def form_setup(block):
    """Distances, design, response and the ``(cov_c, idx)`` of ``block``
    ("none" or "censored")."""
    dist, x, y, rng = gradient_setup(seed=1)
    return dist, x, y, (NO_BLOCK if block == "none" else censored_block(rng))


def with_nugget(spec, nugget):
    """``spec`` with its nugget free (None) or fixed at ``nugget``."""
    if nugget is None:
        return spec
    return CovarianceSpec(spec.family, kappa=spec.kappa, nugget_fixed=True,
                          fixed_nugget_value=nugget)


# Gaussian ML with the sill profiled, tied to a fixed nugget, and with a
# zero nugget (phi searched alone)
ML_SPECS = [
    CovarianceSpec("exponential"),
    CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.2),
    CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.0),
    CovarianceSpec("matern", kappa=0.3),
]
ML_IDS = ["free", "fixed-0.2", "fixed-0", "matern-free"]
FAMILY_IDS = [f"{s.family}-{s.kappa}" for s in FAMILY_SPECS]


# ---------------------------------------------------------------------------
# analytic gradient and Hessian of the shared objective: the trend profiled
# by GLS, the sill by q / n or tied to tau2 / nu2, with and without a
# censored block; the central differences re-profile both at every step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", ["none", "censored"])
@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=FAMILY_IDS)
def test_profile_form_gradient_matches_central_differences(spec, block):
    dist, x, y, (cov_c, idx) = form_setup(block)
    lags = Lags(dist)
    for nugget, theta in FORMS:
        def f(t):
            return profile_objective(t, lags, with_nugget(spec, nugget), y, x, cov_c, idx)

        _, grad, _, _ = f(theta)
        assert_allclose(grad, central_gradient(lambda t: f(t)[0], theta), rtol=1e-6, atol=1e-7)


def assert_hessian_matches(f, theta):
    _, _, hess, _ = f(theta)
    want = central_jacobian(lambda t: f(t)[1], theta)
    assert_allclose(hess(), want, rtol=1e-6, atol=1e-9 * np.abs(want).max())


@pytest.mark.parametrize("block", ["none", "censored"])
@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=FAMILY_IDS)
def test_profile_form_hessian_matches_central_differences(spec, block):
    dist, x, y, (cov_c, idx) = form_setup(block)
    lags = Lags(dist)
    for nugget, theta in FORMS:
        form = with_nugget(spec, nugget)
        assert_hessian_matches(lambda t: profile_objective(t, lags, form, y, x, cov_c, idx), theta)


@pytest.mark.parametrize("block", ["none", "censored"])
@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=FAMILY_IDS)
def test_value_and_fitted_values_match_dense_oracle(spec, block):
    # q from the whitened GLS residual and the censored block of the
    # inverse, against slogdet and inv of Psi
    def corr(d, phi):
        return correlation(spec.family, spec.kappa, d, phi)

    dist, x, y, (cov_c, idx) = form_setup(block)
    for nugget, theta in FORMS:
        value, _, _, (beta, s, _) = profile_objective(theta, Lags(dist), with_nugget(spec, nugget),
                                                      y, x, cov_c, idx)
        nu2 = theta[1] if len(theta) > 1 else 0.0
        tied = nugget if len(theta) > 1 else None
        want, beta_o, s_o = dense_profile_value(dist, corr, theta[0], nu2, y, x, cov_c, idx,
                                                tau2=tied)
        assert value == pytest.approx(want, rel=1e-10)
        assert_allclose(beta, beta_o, rtol=1e-10)
        assert s == pytest.approx(s_o, rel=1e-10)


def test_hessian_builder_reuses_the_evaluation(monkeypatch):
    # the Hessian is built from the evaluation's own R, dR/dphi and inverse
    dist, x, y, (cov_c, idx) = form_setup("censored")
    _, _, hess, _ = profile_objective(np.array([0.9, 0.3]), Lags(dist), SPEC_EXP, y, x, cov_c,
                                      idx)

    def forbidden(*args, **kwargs):
        raise AssertionError("the Hessian evaluated the covariance again")

    for name in ("corr_dcorr_matrix", "corr_matrix", "spd_cholesky"):
        monkeypatch.setattr(covariance, name, forbidden)
    assert np.all(np.isfinite(hess()))


def q_sill_nugget_gradient(params, z, cov_c, idx, x, dist, spec):
    """``dQ/dsigma2`` and ``dQ/dtau2`` of the completed log-likelihood,
    dense: ``1/2 [tr(P Sigma_k P M) - tr(P Sigma_k)]`` with ``M`` the
    second moment of the residual."""
    cov = params.cov
    corr = covariance.corr_matrix(dist, spec, cov.phi)
    prec = np.linalg.inv(build_sigma(dist, spec, cov))
    r = z - x @ params.beta
    m2 = np.outer(r, r)
    m2[np.ix_(idx, idx)] += cov_c
    pmp = prec @ m2 @ prec
    return (0.5 * (np.vdot(pmp, corr) - np.vdot(prec, corr)),
            0.5 * (np.trace(pmp) - np.trace(prec)))


def schur_profiled_hessian(theta, nugget, spec, fitted, z, x, dist, cov_c, idx):
    """Minus the Schur complement of the public Hessian of Q, taken at the
    evaluation's profiled point and re-expressed in ``theta`` (``tau2 = nu2
    sigma2`` for a free nugget, ``sigma2 = tau2 / nu2`` for a tied sill),
    over the profiled coordinates: the Hessian of the profiled ``f`` by the
    implicit function theorem; with the absolute diagonal of the
    re-expressed Hessian in ``theta`` before the elimination."""
    beta, s, _ = fitted
    p = x.shape[1]
    phi, nu2 = theta[0], (theta[1] if len(theta) > 1 else 0.0)
    form = with_nugget(spec, nugget)
    params = ModelParams(beta=beta, cov=CovParams(s, phi, nu2 * s if nugget is None else nugget))
    zz = cov_c + np.outer(z[idx], z[idx])
    h = -q_hessian(params, z, zz, x, dist, form, idx=idx)  # of -Q in (beta, sigma2, phi[, tau2])
    g_sill, g_nugget = q_sill_nugget_gradient(params, z, cov_c, idx, x, dist, form)
    jac = np.eye(h.shape[0])
    if nugget is None:  # (beta, sigma2, phi, nu2)
        jac[p + 2, p], jac[p + 2, p + 2] = nu2, s
        h = jac.T @ h @ jac
        h[p, p + 2] -= g_nugget
        h[p + 2, p] -= g_nugget
        kept = [p + 1, p + 2]
    elif len(theta) > 1:  # (beta, nu2, phi)
        jac[p, p] = -s / nu2
        h = jac.T @ h @ jac
        h[p, p] -= g_sill * 2.0 * s / nu2**2
        kept = [p + 1, p]
    else:  # (beta, sigma2, phi)
        kept = [p + 1]
    out = [i for i in range(h.shape[0]) if i not in kept]
    h_kept = h[np.ix_(kept, kept)]
    return h_kept - h[np.ix_(kept, out)] @ np.linalg.solve(
        h[np.ix_(out, out)], h[np.ix_(out, kept)]), np.abs(np.diag(h_kept))


# the FORMS points and the edges of the box: a nugget near 0, a dominating
# one and a short range
SCHUR_THETAS = {
    None: [np.array(t) for t in ([0.9, 0.3], [0.9, 1e-8], [0.9, 1e-4], [0.9, 50.0],
                                 [0.05, 0.3])],
    0.0: [np.array([0.9]), np.array([0.05])],
}
SCHUR_THETAS[0.4] = SCHUR_THETAS[None]


@pytest.mark.parametrize("nugget", [None, 0.4, 0.0], ids=["free", "tied", "zero"])
@pytest.mark.parametrize("block", ["none", "censored"])
@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=FAMILY_IDS)
def test_profile_hessian_is_the_schur_complement_of_the_q_hessian(spec, block, nugget):
    # one Hessian of the completed log-likelihood: the search's exact
    # Hessian in theta equals the influence Hessian in (beta, sigma2, phi[,
    # tau2]), re-expressed in theta with the profiled coordinates eliminated
    dist, x, y, (cov_c, idx) = form_setup(block)
    lags = Lags(dist)
    form = with_nugget(spec, nugget)
    for theta in SCHUR_THETAS[nugget]:
        _, _, hess, fitted = profile_objective(theta, lags, form, y, x, cov_c, idx)
        want, diag = schur_profiled_hessian(theta, nugget, spec, fitted, y, x, dist, cov_c, idx)
        # relative to the curvature before the elimination, entry by entry,
        # so that a change of scale of phi or nu2 leaves the test as it is
        # (the spherical range below the nearest lag leaves f flat in nu2)
        got = hess()
        assert np.all(np.abs(got - want) <= 1e-10 * np.sqrt(np.outer(diag, diag))), (theta, got,
                                                                                     want)


# ---------------------------------------------------------------------------
# search budget: profile evaluations per search, each bound about 1.5x
# what the search spends on its test
# ---------------------------------------------------------------------------


def record_searches(monkeypatch, owner, name):
    """One record per call of ``owner.name`` (a search): the points
    ``(phi, nu2)`` of its profile evaluations, with their ``(theta, value,
    gradient)`` (an infinite value where Psi could not be factored), the
    size of their distance matrix, the ``Lags`` they were given, the
    indices of the evaluations whose Hessian builder was called, and the
    kernel passes (``corr_dcorr_matrix``, one per evaluation that forms R)
    and ``spd_cholesky`` calls made inside the call."""
    searches, inside = [], [False]
    corr_dcorr, spd_cholesky = covariance.corr_dcorr_matrix, covariance.spd_cholesky
    search, objective = getattr(owner, name), profile.profile_objective

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            if inside[0]:
                searches[-1][key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded_search(*args, **kwargs):
        searches.append({"points": [], "evals": [], "builds": [], "n": None, "lags": None,
                         "corr": 0, "chol": 0})
        inside[0] = True
        try:
            return search(*args, **kwargs)
        finally:
            inside[0] = False

    def recorded_objective(theta, lags, *args):
        rec = searches[-1]
        rec["points"].append((float(theta[0]), float(theta[1]) if len(theta) > 1 else 0.0))
        rec["n"], rec["lags"] = lags.dist.shape[0], lags
        k = len(rec["evals"])
        try:
            value, grad, hess, fitted = objective(theta, lags, *args)
        except SingularCovarianceError:
            rec["evals"].append((np.copy(theta), np.inf, None))
            raise
        rec["evals"].append((np.copy(theta), value, grad))

        def built():
            rec["builds"].append(k)
            return hess()

        return value, grad, built, fitted

    monkeypatch.setattr(covariance, "corr_dcorr_matrix", counted(corr_dcorr, "corr"))
    monkeypatch.setattr(covariance, "spd_cholesky", counted(spd_cholesky, "chol"))
    monkeypatch.setattr(owner, name, recorded_search)
    monkeypatch.setattr(profile, "profile_objective", recorded_objective)
    return searches


def test_cm_step_budget_study_design_one_dimensional(monkeypatch):
    # Matern kappa = 0.3, nugget fixed at zero: the range is searched alone
    searches = record_searches(monkeypatch, saem, "cm_step")
    data = simulate_study_data(3, n=60).data
    saem_fit(data, STUDY_TREND, STUDY_SPEC, study_config(3, max_iter=10))
    assert len(searches) == 10
    assert sum(len(rec["points"]) for rec in searches) / len(searches) <= 4.5


def test_cm_step_budget_exponential_two_dimensional(monkeypatch):
    searches = record_searches(monkeypatch, saem, "cm_step")
    data = sim_left(seed=1, n=60).data
    saem_fit(data, TrendSpec("cte"), CovarianceSpec("exponential"), base_config(max_iter=10))
    assert len(searches) == 10
    assert sum(len(rec["points"]) for rec in searches) / len(searches) <= 7


@pytest.mark.parametrize("spec, budget", zip(ML_SPECS, [17, 17, 12, 17]), ids=ML_IDS)
def test_gaussian_ml_fit_budget(monkeypatch, spec, budget):
    data = sim_left(seed=1, n=60, cens=0.0).data
    x = build_trend(data.coords, None, TrendSpec("cte"))
    dist = distance_matrix(data.coords)
    searches = record_searches(monkeypatch, predict, "gaussian_ml_fit")
    predict.gaussian_ml_fit(data.value, x, Lags(dist), spec, CovParams(1.0, 0.8, 0.1))
    assert len(searches[0]["points"]) <= budget


@pytest.mark.parametrize("spec", ML_SPECS, ids=ML_IDS)
def test_gaussian_ml_fit_forms_r_once_per_evaluation(monkeypatch, spec):
    # the trend and sill at the optimum come from the search's own
    # evaluation there, not from a refit; each evaluation forms R and
    # dR/dphi in one kernel pass
    data = sim_left(seed=1, n=60, cens=0.0).data
    x = build_trend(data.coords, None, TrendSpec("cte"))
    dist = distance_matrix(data.coords)
    counts = {"corr_dcorr_matrix": 0, "corr_matrix": 0, "evaluations": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("corr_dcorr_matrix", "corr_matrix"):
        monkeypatch.setattr(covariance, name, counted(getattr(covariance, name), name))
    monkeypatch.setattr(profile, "profile_objective",
                        counted(profile.profile_objective, "evaluations"))
    predict.gaussian_ml_fit(data.value, x, Lags(dist), spec, CovParams(1.0, 0.8, 0.1))
    assert counts["evaluations"] > 1
    assert counts["corr_dcorr_matrix"] == counts["evaluations"]
    assert counts["corr_matrix"] == 0


@pytest.mark.parametrize("spec", ML_SPECS[:3], ids=ML_IDS[:3])
def test_gaussian_ml_fit_trend_and_sill_are_the_gls_at_the_optimum(monkeypatch, spec):
    data = sim_left(seed=1, n=60, cens=0.0).data
    x = build_trend(data.coords, None, TrendSpec("cte"))
    dist = distance_matrix(data.coords)
    found, search = [], profile.profile_search

    def recording(*args):
        out = search(*args)
        found.append(out[0])
        return out

    monkeypatch.setattr(profile, "profile_search", recording)
    params, _, _, _ = predict.gaussian_ml_fit(data.value, x, Lags(dist), spec,
                                              CovParams(1.0, 0.8, 0.1))
    (theta,) = found
    nu2 = theta[1] if len(theta) > 1 else 0.0
    fixed_tau = spec.fixed_nugget_value if spec.nugget_fixed else None
    beta, sigma2 = gls_refit(dist, spec, theta[0], nu2, x, data.value, fixed_tau)
    assert params.cov.phi == theta[0]
    assert_allclose(params.beta, beta, rtol=1e-12)
    assert params.cov.sigma2 == pytest.approx(sigma2, rel=1e-12)


# ---------------------------------------------------------------------------
# trials at which the covariance cannot be factored
# ---------------------------------------------------------------------------


def singular_above_two(t):
    # minimum at 3, but nothing above 2 can be evaluated
    if t[0] > 2.0:
        raise SingularCovarianceError("forced")
    value, grad = float((t[0] - 3.0) ** 2), np.array([2.0 * (t[0] - 3.0)])
    return value, grad, lambda: np.array([[2.0]]), None


def test_profile_search_steps_back_from_singular_trials():
    fun = singular_above_two

    theta, value, _, _ = profile_search(fun, np.array([0.5]), np.array([0.0]), np.array([10.0]))
    assert theta[0] <= 2.0
    assert np.isfinite(value) and value <= fun(np.array([0.5]))[0]

    with pytest.raises(NumericalError):
        profile_search(fun, np.array([2.5]), np.array([0.0]), np.array([10.0]))


def test_profile_search_closes_on_the_singular_boundary():
    # the same objective: the failed trials halve the steps, which close
    # on the edge, 2
    fun = singular_above_two

    theta, value, _, _ = profile_search(fun, np.array([0.5]), np.array([0.0]), np.array([10.0]))
    assert 2.0 - 1e-3 <= theta[0] <= 2.0
    assert value == pytest.approx(fun(theta)[0])


# ---------------------------------------------------------------------------
# the search against the L-BFGS-B oracle
# ---------------------------------------------------------------------------


def recorded_searches(monkeypatch, run):
    """The ``(fun, x0, lower, upper, metric)`` of every profile search that
    ``run()`` makes, ``metric`` being the start metric it was handed (None:
    the exact Hessian)."""
    searches = []
    search = profile.profile_search

    def recording(fun, x0, lower, upper, metric=None, max_steps=None):
        searches.append((fun, np.copy(x0), np.copy(lower), np.copy(upper),
                         None if metric is None else np.copy(metric)))
        return search(fun, x0, lower, upper, metric, max_steps)

    monkeypatch.setattr(profile, "profile_search", recording)
    run()
    monkeypatch.undo()
    return searches


def assert_no_higher_than_oracle(searches):
    for fun, x0, lower, upper, metric in searches:
        _, value, _, _ = profile_search(fun, x0, lower, upper, metric)
        _, want = lbfgsb_profile_search(lambda t: fun(t)[:2], x0, lower, upper)
        assert value <= want + 1e-9 * max(1.0, abs(want)), (value, want)


def test_search_matches_oracle_on_study_design_cm_steps(monkeypatch):
    data = simulate_study_data(3, n=60).data
    searches = recorded_searches(monkeypatch, lambda: saem_fit(
        data, STUDY_TREND, STUDY_SPEC, study_config(3, max_iter=6)))
    assert len(searches) == 6 and all(len(x0) == 1 for _, x0, *_ in searches)
    assert [metric is None for *_, metric in searches] == [True] + [False] * 5
    assert_no_higher_than_oracle(searches)


def test_search_matches_oracle_on_exponential_cm_steps(monkeypatch):
    data = sim_left(seed=1, n=60).data
    searches = recorded_searches(monkeypatch, lambda: saem_fit(
        data, TrendSpec("cte"), SPEC_EXP, base_config(max_iter=6)))
    assert len(searches) == 6 and all(len(x0) == 2 for _, x0, *_ in searches)
    assert [metric is None for *_, metric in searches] == [True] + [False] * 5
    assert_no_higher_than_oracle(searches)


@pytest.mark.parametrize("spec", ML_SPECS, ids=ML_IDS)
def test_search_matches_oracle_on_gaussian_ml(monkeypatch, spec):
    data = sim_left(seed=1, n=60, cens=0.0).data
    x = build_trend(data.coords, None, TrendSpec("cte"))
    dist = distance_matrix(data.coords)
    searches = recorded_searches(monkeypatch, lambda: predict.gaussian_ml_fit(
        data.value, x, Lags(dist), spec, CovParams(1.0, 0.8, 0.1)))
    assert len(searches) == 1 and searches[0][-1] is None
    assert_no_higher_than_oracle(searches)


def test_first_step_descends_from_a_rounding_error_inside_a_bound():
    # nu2 starts one rounding error above its lower bound, the gradient
    # pointing out of the box; the unconstrained minimizer (5, -3) projects
    # to a point above the start, so a step that treats nu2 as free and
    # clips it climbs, while holding it on its bound reaches the constrained
    # minimizer (2.3, 1e-4) in one step
    hess = np.array([[1.0, 0.9], [0.9, 1.0]])
    centre = np.array([5.0, -3.0])
    values = []

    def fun(t):
        r = t - centre
        values.append(0.5 * r @ hess @ r)
        return values[-1], hess @ r, lambda: hess, None

    lower, upper = np.array([0.05, 1e-4]), np.array([20.0, 10.0])
    x0 = np.array([4.0, 1e-4 * (1.0 + 2.0**-52)])
    assert x0[1] > lower[1] and fun(x0)[1][1] > 0
    values.clear()
    theta, value, _, _ = profile_search(fun, x0, lower, upper)
    assert values[1] < values[0]
    assert_allclose(theta, [5.0 - 0.9 * (1e-4 + 3.0), 1e-4], rtol=1e-12)
    assert value == pytest.approx(0.5 * 0.19 * (1e-4 + 3.0) ** 2, rel=1e-12)


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


def test_hessian_build_allocates_at_most_three_and_a_half_matrices():
    # beyond what its evaluation holds, the build forms P = Q / sigma2 (the
    # one mirror), d2R/dphi2 and P dR/dphi, the last after the second is
    # dropped, and n x n_c blocks; the parent's 4.6 n^2 held a scaled copy
    # of Q, the sill's P R and a scaled copy of P dR/dphi
    import tracemalloc

    n, n_c = 500, 50
    rng = np.random.default_rng(9)
    dist = distance_matrix(rng.uniform(0, 10, size=(n, 2)))
    g = rng.normal(size=(n_c, n_c))
    _, _, hess, _ = profile_objective(np.array([1.0, 0.1]), Lags(dist), SPEC_EXP,
                                      rng.normal(size=n), np.ones((n, 1)), g @ g.T / n_c,
                                      np.arange(n - n_c, n))
    tracemalloc.start()
    try:
        h = hess()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(h))
    assert peak <= 3.5 * n * n * 8, peak / (n * n * 8)


@pytest.mark.parametrize("nugget", [None, 0.0, 0.3], ids=["free", "fixed-0", "fixed-0.3"])
@pytest.mark.parametrize("family_spec", FAMILY_SPECS, ids=lambda s: f"{s.family}-{s.kappa}")
def test_cm_step_returns_the_factor_of_sigma_at_its_point(family_spec, nugget):
    # sqrt(sigma2) times the search's factor of Psi = R + nu2 I is the
    # factor of Sigma = sigma2 R + tau2 I at the returned parameters
    spec = with_nugget(family_spec, nugget)
    data = sim_left(seed=14, cens=0.3).data
    x = build_trend(data.coords, None, TrendSpec("cte"))
    dist = distance_matrix(data.coords)
    tau2 = 0.2 if nugget is None else nugget
    prev = ModelParams(beta=[1.5], cov=CovParams(sigma2=1.0, phi=1.0, tau2=tau2))
    cen = np.flatnonzero(data.cens == 1)
    zhat = data.value.astype(float)
    zz_cc = np.outer(zhat[cen], zhat[cen]) + 0.1 * np.eye(cen.size)
    cfg = base_config() if nugget is None else base_config(lower=(0.05,), upper=(20.0,))
    new, _, lo, _, _ = cm_step(zhat, zz_cc, cen, x, Lags(dist), spec, cfg, prev.cov)
    want = covariance.cholesky_sigma(dist, spec, new.cov)
    assert np.array_equal(np.triu(lo, 1), np.zeros_like(lo))
    assert np.abs(lo - want).max() <= 1e-12 * np.abs(want).max()


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
    free = cm_step(zhat, zzhat, np.arange(data.n), x, Lags(dist), SPEC_EXP, cfg, prev.cov).params
    cut = 0.5 * (prev.cov.phi + free.cov.phi)

    last_phi, failed = {}, []
    corr_dcorr, spd_cholesky = covariance.corr_dcorr_matrix, covariance.spd_cholesky

    def noting_corr(lags_, spec_, phi):
        last_phi["phi"] = phi
        return corr_dcorr(lags_, spec_, phi)

    def failing_cholesky(mat):
        if last_phi["phi"] > cut:
            failed.append(last_phi["phi"])
            raise SingularCovarianceError("forced above the cut")
        return spd_cholesky(mat)

    monkeypatch.setattr(covariance, "corr_dcorr_matrix", noting_corr)
    monkeypatch.setattr(covariance, "spd_cholesky", failing_cholesky)
    new = cm_step(zhat, zzhat, np.arange(data.n), x, Lags(dist), SPEC_EXP, cfg, prev.cov).params
    monkeypatch.undo()

    def completed(phi, nu2):
        sig = new.cov.sigma2 * (correlation("exponential", 0.0, dist, phi) + nu2 * np.eye(data.n))
        si = np.linalg.inv(sig)
        mu = x @ new.beta
        quad = np.sum(zzhat * si) - 2 * zhat @ si @ mu + mu @ si @ mu
        return -0.5 * (np.linalg.slogdet(sig)[1] + quad)

    assert failed and new.cov.phi <= cut
    start_nu2 = prev.cov.tau2 / prev.cov.sigma2
    assert np.isfinite(completed(new.cov.phi, new.cov.nu2))
    assert completed(new.cov.phi, new.cov.nu2) >= completed(prev.cov.phi, start_nu2)


def test_profile_search_does_not_evaluate_a_clipped_trial_twice():
    # a flat bowl centred far outside the box with a ridge at its near
    # corner: the Newton step overshoots the box, the clipped corner is
    # rejected, and the halved steps clip back onto that corner until they
    # fall inside the box; the corner is evaluated once
    centre, ridge = np.array([1000.0, -1000.0]), np.array([10.0, 0.0])
    seen = []

    def fun(t):
        seen.append(tuple(t))
        e = np.exp(-np.sum((t - ridge) ** 2))
        value = 1e-3 * np.sum((t - centre) ** 2) + 20.0 * e
        grad = 2e-3 * (t - centre) - 40.0 * e * (t - ridge)
        return float(value), grad, lambda: np.diag([2e-3, 2e-3]), None

    lower, upper = np.array([0.0, 0.0]), np.array([10.0, 10.0])
    theta, value, _, _ = profile_search(fun, np.array([5.0, 5.0]), lower, upper)
    assert len(seen) == len(set(seen))
    assert seen.count((10.0, 0.0)) == 1
    assert value < fun(np.array([5.0, 5.0]))[0] and np.all((lower <= theta) & (theta <= upper))


# ---------------------------------------------------------------------------
# the held evaluation: a search that starts where the last one on the same
# Lags stopped reads that evaluation's Psi, L, Q and dR/dphi instead of
# forming them again
# ---------------------------------------------------------------------------


def served_starts(searches, n):
    """Searches over ``n`` sites that start at the last point evaluated by
    the search over ``n`` sites before them."""
    last, served = None, 0
    for rec in searches:
        if rec["n"] == n:
            served += rec["points"][0] == last
            last = rec["points"][-1]
    return served


def discard_held(monkeypatch):
    """Every profile evaluation forms its own arrays."""
    objective = profile.profile_objective

    def fresh(theta, lags, *args):
        lags.held = None
        return objective(theta, lags, *args)

    monkeypatch.setattr(profile, "profile_objective", fresh)


def test_cm_step_starts_on_the_last_search_evaluation(monkeypatch):
    # study design (Matern kappa = 0.3, nugget fixed at zero): every search
    # ends on the point it accepts, and the next one starts there, so every
    # search after the first forms R and factors Psi once less
    searches = record_searches(monkeypatch, saem, "cm_step")
    data = simulate_study_data(3, n=60).data
    fit = saem_fit(data, STUDY_TREND, STUDY_SPEC, study_config(3, max_iter=10))
    assert len(searches) == fit.iterations_used == 10
    ends = [rec["points"][-1] for rec in searches]
    assert ends == [(phi, 0.0) for phi in fit.trace_params[:, -2]]
    served = served_starts(searches, data.n)
    assert served == fit.iterations_used - 1
    evaluations = sum(len(rec["points"]) for rec in searches)
    assert sum(rec["corr"] for rec in searches) == evaluations - served
    assert sum(rec["chol"] for rec in searches) == evaluations - served


def nugget_case(setting):
    if setting == "fixed-zero":
        data = simulate_study_data(3, n=60).data
        return data, STUDY_TREND, STUDY_SPEC, study_config(3, max_iter=10)
    spec = SPEC_EXP if setting == "free" else CovarianceSpec(
        "exponential", nugget_fixed=True, fixed_nugget_value=0.2)
    box = {} if setting == "free" else {"lower": (0.05,), "upper": (20.0,)}
    return sim_left(seed=1, n=60).data, TrendSpec("cte"), spec, base_config(max_iter=10, **box)


@pytest.mark.parametrize("setting", ["fixed-zero", "free", "fixed-0.2"])
def test_saem_fit_with_the_handover_equals_a_fit_without(monkeypatch, setting):
    # the held arrays are only read, so the fit is bitwise the same; on
    # every nugget path every search after the first starts at the theta
    # where the last one stopped, on its held evaluation (with nu2
    # searched, a start at nu2 = tau2 / sigma2 of the last point need not
    # round back to that theta: 7 of 9 served for free and fixed-0.2 here)
    case = nugget_case(setting)
    searches = record_searches(monkeypatch, saem, "cm_step")
    fit = saem_fit(*case)
    monkeypatch.undo()
    discard_held(monkeypatch)
    plain = saem_fit(*case)
    for field in ("zhat", "zz_cc", "trace_params"):
        assert np.array_equal(getattr(fit, field), getattr(plain, field)), field
    assert np.array_equal(fit.params.as_array(), plain.params.as_array())
    assert fit.loglik.value == plain.loglik.value
    assert fit.iterations_used == plain.iterations_used
    served = sum(len(rec["points"]) - rec["corr"] for rec in searches)
    assert served == served_starts(searches, case[0].n) == len(searches) - 1


@pytest.mark.parametrize("spec", [
    SPEC_EXP, CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.0),
], ids=["free", "fixed-zero"])
def test_seminaive_with_the_handover_equals_one_without(monkeypatch, spec):
    # the refits on all sites share one Lags, and each starts at the theta
    # where the last fit on it stopped, on its held evaluation (with a free
    # nugget, a start at the last fit's nu2 = tau2 / sigma2 missed 1 of 3
    # here); the fit to the uncensored sites has distances, and so a Lags,
    # of its own
    from geocens.predict import predict_seminaive

    data = sim_left(seed=5, n=60, cens=0.3).data
    n_obs = data.n - data.n_censored
    args = (data, TrendSpec("cte"), spec, data.coords[:5])
    searches = record_searches(monkeypatch, predict, "gaussian_ml_fit")
    got = predict_seminaive(*args)
    monkeypatch.undo()
    discard_held(monkeypatch)
    want = predict_seminaive(*args)
    for a, b in ((got.mean, want.mean), (got.sd, want.sd),
                 (got.extra["imputed"], want.extra["imputed"]),
                 (got.params_used.as_array(), want.params_used.as_array())):
        assert np.array_equal(a, b)
    assert got.extra["gaussian_loglik"] == want.extra["gaussian_loglik"]
    assert got.extra["iterations"] == want.extra["iterations"] >= 1

    (obs,) = [rec for rec in searches if rec["n"] == n_obs]
    assert obs["corr"] == len(obs["points"])
    full = [rec for rec in searches if rec["n"] == data.n]
    assert len(full) == got.extra["iterations"] + 1
    assert all(rec["lags"] is full[0]["lags"] is not obs["lags"] for rec in full)
    served = sum(len(rec["points"]) - rec["corr"] for rec in full)
    assert served == served_starts(searches, data.n) == len(full) - 1


def test_one_lags_serves_nothing_across_specs(monkeypatch):
    # the held evaluation is keyed by (spec, phi, nu2): evaluations and
    # searches under two specs at the same (phi, nu2) on one Lags each form
    # their own arrays, and equal those on fresh Lags bit for bit
    dist, x, y, _ = gradient_setup(seed=1)
    zero = {"nugget_fixed": True, "fixed_nugget_value": 0.0}
    specs = [CovarianceSpec("matern", kappa=0.3, **zero),
             CovarianceSpec("matern", kappa=1.5, **zero),
             CovarianceSpec("exponential", **zero), SPEC_EXP]
    theta = np.array([0.9])
    shared = Lags(dist)
    for spec in specs + specs:
        got = profile_objective(theta, shared, spec, y, x, *NO_BLOCK)
        assert shared.held[0] == (spec, 0.9, 0.0)
        want = profile_objective(theta, Lags(dist), spec, y, x, *NO_BLOCK)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert np.array_equal(got[2](), want[2]())
        for a, b in zip(got[3], want[3]):
            assert np.array_equal(a, b)

    # a search that starts exactly where the last search on its Lags
    # stopped, under another spec
    first, _, _, _ = predict.gaussian_ml_fit(y, x, shared, specs[0], CovParams(1.0, 0.8, 0.0))
    assert shared.held[0] == (specs[0], first.cov.phi, 0.0)
    searches = record_searches(monkeypatch, predict, "gaussian_ml_fit")
    got, got_ll, got_lo, _ = predict.gaussian_ml_fit(y, x, shared, specs[1], first.cov)
    want, want_ll, want_lo, _ = predict.gaussian_ml_fit(y, x, Lags(dist), specs[1], first.cov)
    assert searches[0]["points"][0] == (first.cov.phi, 0.0)
    assert [rec["corr"] for rec in searches] == [len(rec["points"]) for rec in searches]
    assert searches[0]["points"] == searches[1]["points"]
    assert np.array_equal(got.as_array(), want.as_array()) and got_ll == want_ll
    assert np.array_equal(got_lo, want_lo)


# ---------------------------------------------------------------------------
# the handed metric: each CM search after the first starts on the metric
# the search before it ended with; Gaussian-ML searches start on the exact
# Hessian
# ---------------------------------------------------------------------------


def quadratic_with_builds(hess, centre):
    """``f(t) = (t - c)' A (t - c) / 2`` with the points it was evaluated at
    and the indices of those whose Hessian builder was called."""
    points, builds = [], []

    def fun(t):
        k = len(points)
        points.append(np.copy(t))
        r = t - centre

        def built():
            builds.append(k)
            return hess

        return 0.5 * r @ hess @ r, hess @ r, built, None

    return fun, points, builds


@pytest.mark.parametrize("scale", [None, 1.0, 0.01], ids=["cold", "exact", "small"])
def test_profile_search_starts_on_a_handed_metric(scale):
    # no metric: the exact Hessian is built at the start.  Handed A itself,
    # the search takes the Newton step and builds nothing; BFGS keeps an
    # exact metric on a quadratic, so it returns A.  Handed A / 100, the
    # first step overshoots 100-fold and is halved, and the Hessian is built
    # at the point accepted after the halving, not at the start.
    hess, centre = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([3.0, 2.0])
    fun, points, builds = quadratic_with_builds(hess, centre)
    lower, upper = np.zeros(2), np.full(2, 10.0)
    theta, value, _, metric = profile_search(
        fun, np.array([1.0, 1.0]), lower, upper, None if scale is None else scale * hess)
    assert_allclose(theta, centre, atol=1e-8)
    assert_allclose(metric, hess, rtol=1e-8)
    if scale is None:
        assert builds == [0]
    elif scale == 1.0:
        assert builds == [] and len(points) == 2
    else:
        (k,) = builds
        values = [0.5 * (t - centre) @ hess @ (t - centre) for t in points]
        assert k > 1 and values[k - 1] > values[0] > values[k]


def accepted_steps(rec):
    """``(index, corrective)`` of each evaluation a recorded search
    accepted, replaying its Armijo test on the recorded values and
    gradients; ``corrective`` when the step needed halving or showed no
    positive curvature."""
    base, rejected, out = 0, False, []
    for k in range(1, len(rec["evals"])):
        x, f, g = rec["evals"][k]
        xb, fb, gb = rec["evals"][base]
        step = x - xb
        if f <= fb + _ARMIJO * (gb @ step) and np.all(np.isfinite(g)):
            out.append((k, rejected or not step @ (g - gb) > 0))
            base, rejected = k, False
        else:
            rejected = True
    return out


def corrective_steps(rec):
    """Indices of the evaluations a recorded search accepted after a step
    that needed halving or showed no positive curvature: the points at
    which the search builds the exact Hessian, its start aside."""
    return [k for k, corrective in accepted_steps(rec) if corrective]


@pytest.mark.parametrize("setting", ["fixed-zero", "free", "fixed-0.2"])
def test_cm_searches_after_the_first_start_on_the_handed_metric(monkeypatch, setting):
    # the first search builds the exact Hessian at its start; each later
    # one is handed the metric the search before it returned, and builds
    # the Hessian only after a halved step or one with no positive
    # curvature.
    case = nugget_case(setting)
    handed, search = [], profile.profile_search

    def noting(fun, x0, lower, upper, metric=None, max_steps=None):
        out = search(fun, x0, lower, upper, metric, max_steps)
        handed.append((metric, out[3]))
        return out

    monkeypatch.setattr(profile, "profile_search", noting)
    searches = record_searches(monkeypatch, saem, "cm_step")
    fit = saem_fit(*case)
    assert len(searches) == len(handed) == fit.iterations_used == 10
    assert handed[0][0] is None
    assert all(given is last for (given, _), (_, last) in zip(handed[1:], handed))
    for k, rec in enumerate(searches):
        assert rec["builds"] == [0] * (k == 0) + corrective_steps(rec), k
    assert sum(len(rec["builds"]) for rec in searches) <= 3


@pytest.mark.parametrize("setting", ["free", "fixed-0.2"])
def test_cm_searches_after_the_cut_take_one_step_until_the_last(monkeypatch, setting):
    # through the cut each CM objective is new and its search runs to
    # convergence, as does the last iteration's; every search in between
    # stops after its first accepted step.  Each search is given its own
    # copy of the first moment, which saem_fit updates in place, so that a
    # recorded search can be run again on its own moments
    data, trend, spec, cfg = nugget_case(setting)
    cut = int(np.ceil(cfg.pc * cfg.max_iter))
    ended, search, cm = [], profile.profile_search, saem.cm_step

    def noting(fun, x0, lower, upper, metric=None, max_steps=None):
        out = search(fun, x0, lower, upper, metric, max_steps)
        ended.append((fun, lower, upper, out))
        return out

    monkeypatch.setattr(profile, "profile_search", noting)
    monkeypatch.setattr(saem, "cm_step",
                        lambda zhat, *args, **kwargs: cm(zhat.copy(), *args, **kwargs))
    searches = record_searches(monkeypatch, saem, "cm_step")
    fit = saem_fit(data, trend, spec, cfg)
    monkeypatch.undo()
    assert len(searches) == fit.iterations_used == cfg.max_iter > cut + 1
    full = list(range(cut)) + [cfg.max_iter - 1]
    for k, rec in enumerate(searches):
        steps = len(accepted_steps(rec))
        if k in full:
            assert steps >= 1, k
        else:
            assert steps == 1, k
    # a search run to convergence, started again where it ended on the
    # metric it ended with, takes no further step
    for k in full:
        fun, lower, upper, (theta, value, _, metric) = ended[k]
        again, again_value, _, _ = profile_search(fun, theta, lower, upper, metric)
        assert np.array_equal(again, theta) and again_value == value, k


def right_censored_case():
    # right-censored data, nugget fixed at 0.2
    from geocens.simulate import SimConfig, simulate_scl

    data = simulate_scl(SimConfig(
        n_est=60, n_pred=0, beta=[2.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
        spec=SPEC_EXP, cens_level=0.3, cens_type="right", coord_box=((0.0, 6.0), (0.0, 6.0)),
        seed=4,
    )).data
    spec = CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.2)
    return data, TrendSpec("cte"), spec, base_config(max_iter=60, lower=(0.05,), upper=(20.0,))


LONG_FITS = {
    "exponential-free": lambda: (sim_left(seed=1, n=60).data, TrendSpec("cte"), SPEC_EXP,
                                 base_config(max_iter=60)),
    "matern-0.3-zero": lambda: (simulate_study_data(3, n=60).data, STUDY_TREND, STUDY_SPEC,
                                study_config(3, max_iter=60)),
    "right-fixed-0.2": right_censored_case,
    "gaussian-free": lambda: (sim_left(seed=1, n=60).data, TrendSpec("cte"),
                              CovarianceSpec("gaussian"), base_config(max_iter=60)),
}


@pytest.mark.parametrize("design", LONG_FITS)
def test_one_step_cm_searches_reach_the_limit_of_full_ones(monkeypatch, design):
    # the moments average over the E-steps after the cut, so a CM step
    # that stops short by an error shrinking with the step size leaves the
    # limit of the fit alone (Delyon, Lavielle & Moulines 1999)
    case = LONG_FITS[design]()
    fit = saem_fit(*case)
    search = profile.profile_search
    monkeypatch.setattr(profile, "profile_search",
                        lambda fun, x0, lower, upper, metric=None, max_steps=None:
                        search(fun, x0, lower, upper, metric))
    full = saem_fit(*case)
    got, want = fit.params.as_array(), full.params.as_array()
    # sigma2 and tau2 on the sill's scale, as the stopping rule reads them
    size = np.abs(want)
    size[-3] = size[-1] = size[-3] + size[-1]
    assert np.all(np.abs(got - want) <= 1e-3 * size), (got, want)


@pytest.mark.parametrize("spec", [
    SPEC_EXP, CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.0),
], ids=["free", "fixed-zero"])
def test_gaussian_ml_searches_start_on_the_exact_hessian(monkeypatch, spec):
    # naive1, naive2, the seminaive fit to the uncensored sites and every
    # seminaive refit on the shared Lags build the Hessian at their start
    from geocens.predict import predict_naive, predict_seminaive

    data = sim_left(seed=2, n=60, cens=0.3).data
    searches = record_searches(monkeypatch, predict, "gaussian_ml_fit")
    for variant in ("naive1", "naive2"):
        predict_naive(data, TrendSpec("cte"), spec, variant, data.coords[:5])
    got = predict_seminaive(data, TrendSpec("cte"), spec, data.coords[:5])
    assert len(searches) == 2 + 2 + got.extra["iterations"] >= 5
    for rec in searches:
        assert rec["builds"] == [0] + corrective_steps(rec)
