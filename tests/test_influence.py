import numpy as np
import pytest
from numpy.testing import assert_allclose

from geocens import (
    CovarianceSpec,
    CovParams,
    DegenerateCurvatureError,
    ModelParams,
    TrendSpec,
    classify,
    delta_explanatory,
    delta_response,
    delta_scale,
    local_influence,
    m0,
    perturbed_q_value,
    q_hessian,
    q_value,
    saem_fit,
)
from geocens.covariance import distance_matrix
from geocens.influence import _m0_with_spectrum, curvature_matrix, params_from_vector
from geocens.model import build_trend
from geocens.saem import dense_second_moment

from oracles import (
    central_hessian,
    central_mixed_derivative,
    delta_dense,
    m0_dense,
    q_hessian_dense,
)

ALL_SPECS = [
    CovarianceSpec("exponential"),
    CovarianceSpec("gaussian"),
    CovarianceSpec("spherical"),
    CovarianceSpec("matern", kappa=0.7),
    CovarianceSpec("powered-exponential", kappa=1.4),
]


def synthetic_instance(seed, n=12, p=2, nugget_fixed=False):
    """Random geometry, moments, and parameters for derivative checks."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 6, size=(n, 2))
    x = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])[:, :p]
    zhat = rng.normal(1.0, 1.5, n)
    w = rng.normal(size=(n, n + 2)) * 0.4
    zzhat = np.outer(zhat, zhat) + w @ w.T / (n + 2)
    params = ModelParams(
        beta=rng.normal(0, 1, p),
        cov=CovParams(
            sigma2=rng.uniform(0.8, 2.5),
            phi=rng.uniform(0.8, 2.5),
            tau2=0.0 if nugget_fixed else rng.uniform(0.1, 0.6),
        ),
    )
    return coords, x, zhat, zzhat, params


def theta_of(params, nugget_fixed):
    t = [*params.beta, params.cov.sigma2, params.cov.phi]
    if not nugget_fixed:
        t.append(params.cov.tau2)
    return np.array(t)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_q_hessian_matches_finite_differences(spec):
    coords, x, zhat, zzhat, params = synthetic_instance(3)
    dist = distance_matrix(coords)
    p = x.shape[1]
    theta0 = theta_of(params, nugget_fixed=False)

    def f(theta):
        pr = params_from_vector(theta, p, nugget_fixed=False)
        return q_value(pr, zhat, zzhat, x, dist, spec)

    want = central_hessian(f, theta0, rel_step=2e-4)
    got = q_hessian(params, zhat, zzhat, x, dist, spec)
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err < 1e-4, (spec.family, err)


def test_q_hessian_beta_block_closed_form():
    spec = CovarianceSpec("exponential")
    coords, x, zhat, zzhat, params = synthetic_instance(5)
    dist = distance_matrix(coords)
    from geocens.covariance import build_sigma

    si = np.linalg.inv(build_sigma(dist, spec, params.cov))
    got = q_hessian(params, zhat, zzhat, x, dist, spec)
    # the objective is maximized, so the coefficient block is negative definite
    assert_allclose(got[:2, :2], -(x.T @ si @ x), rtol=1e-10)


def test_q_hessian_fixed_nugget_drops_row():
    spec = CovarianceSpec("gaussian", nugget_fixed=True, fixed_nugget_value=0.0)
    coords, x, zhat, zzhat, params = synthetic_instance(6, nugget_fixed=True)
    dist = distance_matrix(coords)
    h = q_hessian(params, zhat, zzhat, x, dist, spec)
    assert h.shape == (4, 4)  # p=2 plus (sigma2, phi)

    def f(theta):
        pr = params_from_vector(theta, 2, nugget_fixed=True, fixed_nugget=0.0)
        return q_value(pr, zhat, zzhat, x, dist, spec)

    want = central_hessian(f, theta_of(params, nugget_fixed=True), rel_step=2e-4)
    assert np.abs(h - want).max() / np.abs(want).max() < 1e-4


# ---------------------------------------------------------------------------
# perturbation cross-derivatives vs finite differences in omega
# ---------------------------------------------------------------------------


def mixed_fd(scheme, spec, params, zhat, zzhat, x, dist, nugget_fixed=False):
    p = x.shape[1]
    n = x.shape[0]
    omega0 = np.ones(n) if scheme == "scale" else np.zeros(n)

    def f(theta, omega):
        pr = params_from_vector(theta, p, nugget_fixed=nugget_fixed)
        return perturbed_q_value(scheme, pr, omega, zhat, zzhat, x, dist, spec)

    return central_mixed_derivative(
        f, theta_of(params, nugget_fixed), omega0, rel_step_t=2e-4, rel_step_w=2e-4
    )


@pytest.mark.parametrize("scheme,builder", [
    ("response", delta_response),
    ("scale", delta_scale),
    ("explanatory", delta_explanatory),
])
def test_delta_matches_mixed_finite_difference(scheme, builder):
    spec = CovarianceSpec("exponential")
    for seed in (0, 1, 2):
        coords, x, zhat, zzhat, params = synthetic_instance(seed, n=8)
        dist = distance_matrix(coords)
        got = builder(params, zhat, zzhat, x, dist, spec)
        want = mixed_fd(scheme, spec, params, zhat, zzhat, x, dist)
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err < 1e-4, (scheme, seed, err)


def test_delta_response_beta_block_closed_form():
    spec = CovarianceSpec("gaussian")
    coords, x, zhat, zzhat, params = synthetic_instance(9)
    dist = distance_matrix(coords)
    from geocens.covariance import build_sigma

    si = np.linalg.inv(build_sigma(dist, spec, params.cov))
    got = delta_response(params, zhat, zzhat, x, dist, spec)
    assert_allclose(got[:2], -(x.T @ si), rtol=1e-9)


def test_delta_response_zero_alpha_rows_at_fitted_zero_moments():
    # a fit with all-zero conditional means and matching coefficients has
    # zero residual, so every covariance-parameter row vanishes
    spec = CovarianceSpec("exponential")
    coords, x, _, _, params0 = synthetic_instance(10)
    dist = distance_matrix(coords)
    n = coords.shape[0]
    zhat = np.zeros(n)
    zzhat = np.eye(n) * 0.5
    params = ModelParams(beta=np.zeros(x.shape[1]), cov=params0.cov)
    d = delta_response(params, zhat, zzhat, x, dist, spec)
    assert_allclose(d[2:], 0.0, atol=1e-14)


def test_delta_explanatory_zero_for_zero_moments_and_beta():
    spec = CovarianceSpec("exponential")
    coords, x, _, _, params0 = synthetic_instance(11)
    dist = distance_matrix(coords)
    n = coords.shape[0]
    params = ModelParams(beta=np.zeros(x.shape[1]), cov=params0.cov)
    d = delta_explanatory(params, np.zeros(n), np.eye(n), x, dist, spec)
    assert_allclose(d, 0.0, atol=1e-14)


def test_delta_scale_single_site_scalar_reduction():
    # n=1: the whole machinery collapses to scalars that can be written out
    spec = CovarianceSpec("exponential")
    dist = np.zeros((1, 1))
    x = np.array([[1.0]])
    zhat = np.array([1.3])
    zzhat = np.array([[2.5]])
    params = ModelParams(beta=[0.4], cov=CovParams(sigma2=1.5, phi=1.0, tau2=0.5))
    s = params.cov.sigma2 + params.cov.tau2
    r = zhat[0] - 0.4
    d = delta_scale(params, zhat, zzhat, x, dist, spec)
    assert d[0, 0] == pytest.approx(-r / s, rel=1e-12)
    # covariance rows: 0.5 * g_k * (m2 - 2 zhat mu + mu^2) with g_k = -s_k/s^2
    for row, s_k in zip(d[1:], (1.0, 0.0, 1.0)):  # dSigma/d(sigma2,phi,tau2) at h=0
        g_k = -s_k / s**2
        want = 0.5 * g_k * (zzhat[0, 0] - 2 * zhat[0] * 0.4 + 0.4**2)
        assert row[0] == pytest.approx(want, rel=1e-12)


def test_delta_scale_fixed_nugget_shape():
    spec = CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.0)
    coords, x, zhat, zzhat, params = synthetic_instance(12, nugget_fixed=True)
    dist = distance_matrix(coords)
    d = delta_scale(params, zhat, zzhat, x, dist, spec)
    assert d.shape == (x.shape[1] + 2, coords.shape[0])
    want = mixed_fd("scale", spec, params, zhat, zzhat, x, dist, nugget_fixed=True)
    assert np.abs(d - want).max() / np.abs(want).max() < 1e-4


# ---------------------------------------------------------------------------
# shared-term Hessian and cross-derivatives vs the dense reference formulas
# ---------------------------------------------------------------------------


def censored_block_instance(seed, spec, n=18, n_c=7):
    """Random instance whose second moment is ``zhat zhat'`` outside a
    proper censored subset ``idx`` and has a nonzero covariance ``C`` in
    it; returns the block ``zz`` and the dense moment built from it."""
    coords, x, zhat, _, params = synthetic_instance(seed, n=n, nugget_fixed=spec.nugget_fixed)
    if spec.nugget_fixed:
        params = ModelParams(beta=params.beta, cov=CovParams(
            sigma2=params.cov.sigma2, phi=params.cov.phi, tau2=spec.fixed_nugget_value))
    rng = np.random.default_rng(seed + 1000)
    idx = np.sort(rng.choice(n, n_c, replace=False))
    w = rng.normal(size=(n_c, n_c + 2)) * 0.4
    zz = np.outer(zhat[idx], zhat[idx]) + w @ w.T / (n_c + 2)
    dist = distance_matrix(coords)
    return params, zhat, zz, idx, dense_second_moment(zhat, zz, idx), x, dist


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("nugget", ["free", "fixed"])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_hessian_and_deltas_match_dense_oracles(spec, nugget):
    if nugget == "fixed":
        spec = CovarianceSpec(spec.family, kappa=spec.kappa, nugget_fixed=True,
                              fixed_nugget_value=0.3)
    params, zhat, zz, idx, dense, x, dist = censored_block_instance(21, spec)
    assert np.abs(zz - np.outer(zhat[idx], zhat[idx])).max() > 0.01
    got = q_hessian(params, zhat, zz, x, dist, spec, idx=idx)
    want = q_hessian_dense(params, zhat, dense, x, dist, spec)
    assert got.shape == (x.shape[1] + (2 if spec.nugget_fixed else 3),) * 2
    assert rel_err(got, want) < 1e-10
    # the dense moment with every row as the block gives the same Hessian
    assert rel_err(q_hessian(params, zhat, dense, x, dist, spec), want) < 1e-10
    for scheme, builder in (("response", delta_response), ("scale", delta_scale),
                            ("explanatory", delta_explanatory)):
        got = builder(params, zhat, zz, x, dist, spec, idx=idx)
        want = delta_dense(scheme, params, zhat, dense, x, dist, spec)
        assert rel_err(got, want) < 1e-10, scheme
        assert rel_err(builder(params, zhat, dense, x, dist, spec), want) < 1e-10, scheme


def test_local_influence_reads_the_censored_block():
    # local_influence works from (zhat, zz_cc); the dense reference built
    # from the fit's dense second moment gives the same M(0)
    fit = _small_fit()
    report = local_influence(fit)
    hess = q_hessian_dense(fit.params, fit.zhat, fit.zzhat, fit.x, fit.dist, fit.spec)
    for scheme in ("response", "scale", "explanatory"):
        delta = delta_dense(scheme, fit.params, fit.zhat, fit.zzhat, fit.x, fit.dist, fit.spec)
        want, lam = m0_dense(hess, delta)
        diag = report.scheme(scheme)
        assert_allclose(diag.m0, want, rtol=0, atol=1e-10)
        assert diag.rank == lam.size


# ---------------------------------------------------------------------------
# M(0), conformal curvature, classification
# ---------------------------------------------------------------------------


def random_curvature_instance(seed, n=15, k=5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, k))
    q_hess = -(a @ a.T + k * np.eye(k))  # negative definite
    delta = rng.normal(size=(k, n))
    return q_hess, delta


def test_m0_rank_one_indicator():
    k, n, j = 3, 6, 2
    q_hess = -np.eye(k)
    delta = np.zeros((k, n))
    delta[0, j] = 2.0
    values = m0(q_hess, delta)
    want = np.zeros(n)
    want[j] = 1.0
    assert_allclose(values, want, atol=1e-12)


def test_m0_sums_to_one_and_is_conformal_curvature():
    for seed in range(20):
        q_hess, delta = random_curvature_instance(seed)
        values = m0(q_hess, delta)
        assert values.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(values >= -1e-12) and np.all(values <= 1.0 + 1e-12)
        f = curvature_matrix(q_hess, delta)
        direct = np.diag(f) / np.trace(f)
        assert_allclose(values, direct, atol=1e-10)


def test_m0_degenerate_curvature_raises():
    with pytest.raises(DegenerateCurvatureError):
        m0(-np.eye(2), np.zeros((2, 4)))


def test_curvature_matrix_psd():
    for seed in range(10):
        q_hess, delta = random_curvature_instance(seed)
        eig = np.linalg.eigvalsh(curvature_matrix(q_hess, delta))
        assert eig.min() >= -1e-8 * max(eig.max(), 1.0)


def assert_m0_matches_eigh(q_hess, delta):
    values, lam = _m0_with_spectrum(q_hess, delta)
    want, want_lam = m0_dense(q_hess, delta)
    assert lam.size == want_lam.size
    assert_allclose(values, want, rtol=0, atol=1e-12)
    assert_allclose(lam, want_lam, rtol=1e-10, atol=0)


def test_low_rank_m0_matches_eigh_of_curvature_matrix():
    for seed in range(20):
        assert_m0_matches_eigh(*random_curvature_instance(seed))


def test_low_rank_m0_matches_eigh_for_indefinite_hessian():
    for seed in range(10):
        q_hess, delta = random_curvature_instance(seed)
        w, v = np.linalg.eigh(-q_hess)
        w[:2] = -w[:2]  # -H with two negative eigenvalues
        indefinite = -(v * w) @ v.T
        assert np.linalg.eigvalsh(-indefinite).min() < 0
        assert_m0_matches_eigh(indefinite, delta)


def test_low_rank_m0_matches_eigh_for_rank_deficient_delta():
    for seed in range(10):
        q_hess, delta = random_curvature_instance(seed)
        delta[3] = delta[0] - 2.0 * delta[1]  # rank 4
        delta[4] = 0.0  # rank 3
        assert_m0_matches_eigh(q_hess, delta)
        assert _m0_with_spectrum(q_hess, delta)[1].size == 3


def test_classify_constant_vector_no_flags():
    benchmark, flags = classify(np.full(5, 0.2), 3.0)
    assert benchmark == pytest.approx(0.2)
    assert not flags.any()


def test_classify_direct_arithmetic():
    values = np.array([0.7, 0.1, 0.1, 0.1])
    benchmark, flags = classify(values, 1.0)
    assert benchmark == pytest.approx(0.55)
    assert list(flags) == [True, False, False, False]


def test_classify_monotone_in_cstar():
    rng = np.random.default_rng(33)
    values = rng.uniform(0, 1, 50)
    flags_by_c = [classify(values, c)[1].sum() for c in (0.5, 1.0, 2.0, 3.0, 5.0)]
    assert all(a >= b for a, b in zip(flags_by_c, flags_by_c[1:]))


# ---------------------------------------------------------------------------
# end-to-end report
# ---------------------------------------------------------------------------


def test_local_influence_report_properties():
    from study import run_study

    fit, report, _ = run_study(700, inject_three=False, max_iter=8)
    for name in ("response", "scale", "explanatory"):
        diag = report.scheme(name)
        assert diag is not None, report.errors
        assert diag.m0.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(diag.m0 >= -1e-12) and np.all(diag.m0 <= 1.0)
        assert diag.flags.dtype == bool
        assert diag.rank >= 1


def test_local_influence_flags_injected_outliers():
    from study import run_study

    fit, report, targets = run_study(601, inject_three=True, max_iter=10)
    flagged = set(report.response.atypical.tolist())
    assert set(targets.tolist()) <= flagged


def test_local_influence_clean_data_low_flag_rate():
    from study import run_study

    rates = []
    for seed in (701, 702, 703):
        fit, report, _ = run_study(seed, inject_three=False, max_iter=8)
        rates.append(report.response.flags.mean())
    assert np.mean(rates) <= 0.05


def _small_fit(spec=CovarianceSpec("exponential")):
    from geocens import SaemConfig
    from geocens.simulate import SimConfig, simulate_scl

    res = simulate_scl(SimConfig(
        n_est=30, n_pred=0, beta=[2.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
        spec=spec, cens_level=0.2, coord_box=((0.0, 6.0), (0.0, 6.0)), seed=4,
    ))
    cfg = SaemConfig(m=5, max_iter=4, init_sigma2=1.0, init_phi=1.0, init_nugget=0.1,
                     lower=(0.05, 1e-4), upper=(20.0, 10.0), tol=0.0, seed=1)
    return saem_fit(res.data, TrendSpec("cte"), spec, cfg)


def test_local_influence_on_matern_takes_one_kernel_pass_each(monkeypatch):
    # R and dR/dphi take one fused Matern kernel pass, which reads both
    # tables on one segment lookup; d2R/dphi2 is formed from them.  The fit
    # has built the kernel tables, and every lag of the pairwise triangle
    # lies inside them, so no Bessel kv call is left.
    import geocens.covariance as cov
    import geocens.influence as inf

    fit = _small_fit(CovarianceSpec("matern", kappa=0.3))
    passes, kv_calls = [], []
    real_kernels, real_kv = cov._matern_kernels, cov.kv

    def counting_kernels(pairs, u, t):
        passes.append(tuple(pairs))
        return real_kernels(pairs, u, t)

    def counting_kv(*args):
        kv_calls.append(args[0])
        return real_kv(*args)

    def no_d2sigma(*args):
        raise AssertionError("local_influence called d2sigma")

    monkeypatch.setattr(cov, "_matern_kernels", counting_kernels)
    monkeypatch.setattr(cov, "kv", counting_kv)
    monkeypatch.setattr(cov, "d2sigma", no_d2sigma)
    # also a reference bound by name inside the influence module
    monkeypatch.setattr(inf, "d2sigma", no_d2sigma, raising=False)
    report = local_influence(fit)
    assert report.response is not None, report.errors
    assert passes == [((0.3, 0.3), (-0.7, 1.3))]
    assert kv_calls == []


@pytest.mark.parametrize("c_star", [np.nan, np.inf, -np.inf])
def test_local_influence_rejects_a_non_finite_c_star(c_star):
    # a NaN benchmark flags nothing, and NaN is not valid JSON in influence.json
    from geocens import ConfigurationError

    with pytest.raises(ConfigurationError, match="c_star"):
        local_influence(_small_fit(), c_star=c_star)


def test_local_influence_records_numerical_failure_of_one_scheme(monkeypatch):
    import geocens.influence as inf
    from geocens.errors import SingularCovarianceError

    def singular(*args):
        raise SingularCovarianceError("not positive definite")

    monkeypatch.setitem(inf._DELTA_BUILDERS, "scale", singular)
    report = local_influence(_small_fit())
    assert report.scale is None
    assert "not positive definite" in report.errors["scale"]
    assert report.response is not None and report.explanatory is not None


def test_local_influence_propagates_programming_errors(monkeypatch):
    import geocens.influence as inf

    def broken(*args):
        raise TypeError("bad argument")

    monkeypatch.setitem(inf._DELTA_BUILDERS, "scale", broken)
    with pytest.raises(TypeError, match="bad argument"):
        local_influence(_small_fit())


def test_local_influence_reports_negative_definite_hessian_on_study_fit():
    from study import run_study

    _, report, _ = run_study(702, inject_three=False, max_iter=8)
    assert report.hessian_negative_definite
    assert report.hessian_eigenvalues.shape == (5,)  # p=3 plus (sigma2, phi)
    assert np.all(np.diff(report.hessian_eigenvalues) >= 0)
    assert report.hessian_eigenvalues[0] > 0


def test_local_influence_flags_indefinite_hessian_and_keeps_m0(monkeypatch):
    import geocens.influence as inf

    fit = _small_fit()
    real_hessian = inf._hessian

    def indefinite(shared):
        h = real_hessian(shared)
        w, v = np.linalg.eigh(-h)
        w[0] = -w[0]
        return -(v * w) @ v.T

    monkeypatch.setattr(inf, "_hessian", indefinite)
    report = local_influence(fit)
    assert not report.hessian_negative_definite
    assert report.hessian_eigenvalues[0] < 0
    for name in ("response", "scale", "explanatory"):
        diag = report.scheme(name)
        assert diag is not None, report.errors
        assert diag.m0.sum() == pytest.approx(1.0, abs=1e-8)


FIT_SPECS = [
    CovarianceSpec("exponential"),
    CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.0),
    CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.2),
]
FIT_IDS = ["free", "fixed-zero", "fixed-0.2"]


@pytest.mark.parametrize("spec", FIT_SPECS, ids=FIT_IDS)
def test_local_influence_on_a_fresh_fit_reads_its_precision(monkeypatch, spec):
    # the fit hands over the precision its last CM search formed: no factor
    # and no inverse of Sigma, and one correlation pass for R and dR/dphi
    import geocens.covariance as cov
    import geocens.influence as inf

    fit = _small_fit(spec)
    passes = []
    real_pass = cov.corr_dcorr_matrix

    def counting_pass(*args):
        passes.append(args[2])
        return real_pass(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("local_influence factored or inverted Sigma")

    monkeypatch.setattr(cov, "corr_dcorr_matrix", counting_pass)
    for mod in (cov, inf):
        monkeypatch.setattr(mod, "spd_cholesky", forbidden)
        monkeypatch.setattr(mod, "_cholesky_inverse", forbidden)
    monkeypatch.setattr(cov, "corr_matrix", forbidden)
    report = local_influence(fit)
    assert report.response is not None, report.errors
    assert passes == [fit.params.cov.phi]


def test_local_influence_on_a_fresh_fit_peaks_below_five_and_a_half_matrices():
    # above what the fit holds: its distances (read first here), R and
    # dR/dphi, then d2R/dphi2 and P dR/dphi one after the other, and n x n_c
    # blocks; the parent's 6.6 n^2 also held the sill's P R and a scaled
    # copy of d2R/dphi2 and of P dR/dphi
    import tracemalloc

    from geocens import SaemConfig
    from geocens.simulate import SimConfig, simulate_scl

    n = 300
    res = simulate_scl(SimConfig(
        n_est=n, n_pred=0, beta=[10.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
        spec=CovarianceSpec("exponential"), cens_level=0.1,
        coord_box=((0.0, 10.0), (0.0, 10.0)), seed=4,
    ))
    cfg = SaemConfig(m=5, max_iter=4, init_sigma2=1.5, init_phi=0.8, init_nugget=0.1,
                     lower=(0.05, 1e-4), upper=(20.0, 10.0), tol=0.0, seed=1)
    fit = saem_fit(res.data, TrendSpec("cte"), CovarianceSpec("exponential"), cfg)
    tracemalloc.start()
    try:
        report = local_influence(fit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.response is not None, report.errors
    assert peak <= 5.5 * n * n * 8, peak / (n * n * 8)


@pytest.mark.parametrize("spec", FIT_SPECS, ids=FIT_IDS)
def test_a_loaded_fit_gives_the_fresh_fits_diagnostics(spec):
    # fit.json holds no precision: on the loaded fit, local_influence
    # factors Sigma itself and agrees with the fresh fit's precision
    import json

    from geocens.cli import _json_default, fit_from_payload, fit_to_payload

    fresh = _small_fit(spec)
    loaded = fit_from_payload(json.loads(json.dumps(fit_to_payload(fresh), default=_json_default)))
    assert loaded.precision is None
    want, got = local_influence(fresh), local_influence(loaded)
    for scheme in ("response", "scale", "explanatory"):
        assert_allclose(got.scheme(scheme).m0, want.scheme(scheme).m0, rtol=0, atol=1e-12)
        assert got.scheme(scheme).rank == want.scheme(scheme).rank
        assert np.array_equal(got.scheme(scheme).flags, want.scheme(scheme).flags)
    assert_allclose(got.hessian_eigenvalues, want.hessian_eigenvalues, rtol=1e-10)


@pytest.mark.parametrize("nugget", ["free", "fixed"])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_nugget_dominated_hessian_and_deltas_match_dense_oracles(spec, nugget):
    # the sill's terms come from P Sigma = I, which cancels about
    # log10(tau2 / sigma2) digits; at tau2 / sigma2 = 1e3 they still meet
    # the dense oracles' bound
    tau2 = 1e3 * 0.7
    if nugget == "fixed":
        spec = CovarianceSpec(spec.family, kappa=spec.kappa, nugget_fixed=True,
                              fixed_nugget_value=tau2)
    params, zhat, zz, idx, dense, x, dist = censored_block_instance(21, spec)
    params = ModelParams(beta=params.beta, cov=CovParams(sigma2=0.7, phi=params.cov.phi,
                                                         tau2=tau2))
    got = q_hessian(params, zhat, zz, x, dist, spec, idx=idx)
    want = q_hessian_dense(params, zhat, dense, x, dist, spec)
    assert rel_err(got, want) < 1e-10
    # the sill's entries are far below the largest: hold each to the bound
    assert np.all(np.abs(got - want) < 1e-10 * np.abs(want))
    for scheme, builder in (("response", delta_response), ("scale", delta_scale),
                            ("explanatory", delta_explanatory)):
        got = builder(params, zhat, zz, x, dist, spec, idx=idx)
        want = delta_dense(scheme, params, zhat, dense, x, dist, spec)
        assert rel_err(got, want) < 1e-10, scheme
