import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_solve

from geocens import (
    ConfigurationError,
    CovarianceSpec,
    CovParams,
    DataValidationError,
    Lags,
    ModelParams,
    NumericalError,
    SeminaiveConfig,
    SpatialDataset,
    TrendSpec,
    UnsupportedMethodError,
    cross_validate,
    empirical_variogram,
    gaussian_ml_fit,
    krige,
    mspe,
    predict_naive,
    predict_seminaive,
    wls_variofit,
)
from geocens import covariance
from geocens.covariance import (
    build_sigma,
    cholesky_sigma,
    correlation,
    cross_distance,
    distance_matrix,
)
from geocens.model import build_trend
from geocens.predict import Variogram, _loo_means, initial_values, sample_skewness
from geocens.simulate import SimConfig, simulate_scl

from oracles import gaussian_ml_oracle, loo_kriging_means, wls_variofit_oracle

SPEC_EXP = CovarianceSpec("exponential")


def observed_setup(seed=0, n=10):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 4, size=(n, 2))
    x = np.column_stack([np.ones(n), coords])
    beta = np.array([1.0, 0.5, -0.2])
    z = x @ beta + rng.normal(0, 1, n)
    return coords, x, z, beta


@pytest.mark.parametrize("field, value", [
    ("c1", np.nan), ("c2", np.nan), ("c3", np.nan), ("c1", np.inf), ("c2", np.inf),
    ("c3", -np.inf), ("c1", 0.0), ("c3", -0.5), ("max_iter", 0),
])
def test_seminaive_config_names_the_bad_field(field, value):
    # NaN passed a min(...) <= 0 check and ran every seminaive fit to the
    # iteration cap; each field is checked on its own and named
    with pytest.raises(ConfigurationError, match=f"seminaive {field} must"):
        SeminaiveConfig(**{field: value})


def test_krige_exact_interpolation_no_nugget():
    coords, x, z, beta = observed_setup()
    params = ModelParams(beta=beta, cov=CovParams(sigma2=1.5, phi=1.0, tau2=0.0))
    res = krige(params, x, z, coords, x, coords, SPEC_EXP)
    assert_allclose(res.mean, z, atol=1e-8)
    assert np.all(res.sd <= 1e-6)


@pytest.mark.parametrize("field", ["coords_pred", "x_pred"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_krige_rejects_non_finite_targets(field, bad):
    coords, x, z, beta = observed_setup()
    params = ModelParams(beta=beta, cov=CovParams(sigma2=1.5, phi=1.0, tau2=0.1))
    targets = {"coords_pred": coords[:3].copy(), "x_pred": x[:3].copy()}
    targets[field][1, 1] = bad
    with pytest.raises(DataValidationError, match=f"{field} must be finite"):
        krige(params, x, z, coords, targets["x_pred"], targets["coords_pred"], SPEC_EXP)


@pytest.mark.parametrize("bad", ["z_obs-nan", "x_obs-inf", "coords_obs-nan", "z_obs-short",
                                 "coords_obs-short"])
@pytest.mark.parametrize("path", ["factor", "none"])
def test_krige_rejects_bad_data_on_both_paths(path, bad):
    # a factor handed in hid non-finite coordinates from krige, and with
    # none the factorization raised scipy's ValueError on non-finite data
    coords, x, z, beta = observed_setup()
    params = ModelParams(beta=beta, cov=CovParams(sigma2=1.5, phi=1.0, tau2=0.1))
    lo = cholesky_sigma(distance_matrix(coords), SPEC_EXP, params.cov)
    given = {"factor": lo} if path == "factor" else {}
    data = {"z_obs": z.copy(), "x_obs": x.copy(), "coords_obs": coords.copy()}
    field, fault = bad.split("-")
    if fault == "short":
        data[field] = data[field][:-1]
        match = "row counts differ"
    else:
        data[field][2, ...] = np.nan if fault == "nan" else np.inf
        match = f"{field} must be finite"
    with pytest.raises(DataValidationError, match=match):
        krige(params, data["x_obs"], data["z_obs"], data["coords_obs"], x[:3], coords[:3],
              SPEC_EXP, **given)


def test_krige_decorrelated_limit_spherical():
    coords, x, z, beta = observed_setup(seed=1)
    spec = CovarianceSpec("spherical")
    params = ModelParams(beta=beta, cov=CovParams(sigma2=2.0, phi=0.5, tau2=0.3))
    far = np.array([[100.0, 100.0]])
    x_far = np.array([[1.0, 100.0, 100.0]])
    res = krige(params, x, z, coords, x_far, far, spec)
    assert res.mean[0] == pytest.approx(float((x_far @ beta)[0]), rel=1e-12)
    assert res.sd[0] == pytest.approx(np.sqrt(2.3), rel=1e-12)


def test_krige_matches_dense_algebra_oracle():
    # 3 observed sites, 1 target, assembled with plain dense inverses
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    coords_pred = np.array([[0.5, 0.5]])
    x = np.column_stack([np.ones(3), coords[:, 0]])
    x_pred = np.array([[1.0, 0.5]])
    z = np.array([1.0, 2.0, 0.5])
    params = ModelParams(beta=[0.4, 0.3], cov=CovParams(sigma2=1.2, phi=0.7, tau2=0.2))
    p = params.cov

    s_oo = build_sigma(distance_matrix(coords), SPEC_EXP, p)
    s_po = p.sigma2 * correlation(
        "exponential", 0.0, cross_distance(coords_pred, coords), p.phi
    )
    s_pp = np.array([[p.sigma2 + p.tau2]])
    resid = z - x @ params.beta
    want_mean = x_pred @ params.beta + s_po @ np.linalg.inv(s_oo) @ resid
    want_var = s_pp - s_po @ np.linalg.inv(s_oo) @ s_po.T

    res = krige(params, x, z, coords, x_pred, coords_pred, SPEC_EXP)
    assert res.mean[0] == pytest.approx(float(want_mean[0]), rel=1e-10)
    assert res.sd[0] == pytest.approx(float(np.sqrt(want_var[0, 0])), rel=1e-10)


@pytest.mark.parametrize("spec", [
    CovarianceSpec("exponential"),
    CovarianceSpec("gaussian"),
    CovarianceSpec("spherical"),
    CovarianceSpec("matern", kappa=0.7),
    CovarianceSpec("powered-exponential", kappa=1.4),
], ids=lambda s: s.family)
def test_krige_matches_dense_inverse_oracle_every_family(spec):
    # several targets, the last on a data site, with a nugget: the full
    # prediction covariance from dense inverses gives the sds on its diagonal
    coords, x, z, beta = observed_setup(seed=6, n=12)
    rng = np.random.default_rng(7)
    coords_pred = np.vstack([rng.uniform(0, 4, size=(6, 2)), coords[3]])
    x_pred = np.column_stack([np.ones(7), coords_pred])
    params = ModelParams(beta=beta, cov=CovParams(sigma2=1.3, phi=1.6, tau2=0.25))
    p = params.cov

    s_oo_inv = np.linalg.inv(build_sigma(distance_matrix(coords), spec, p))
    s_po = p.sigma2 * correlation(
        spec.family, spec.kappa, cross_distance(coords_pred, coords), p.phi
    )
    s_pp = build_sigma(distance_matrix(coords_pred), spec, p)
    want_mean = x_pred @ beta + s_po @ s_oo_inv @ (z - x @ beta)
    want_sd = np.sqrt(np.diag(s_pp - s_po @ s_oo_inv @ s_po.T))

    res = krige(params, x, z, coords, x_pred, coords_pred, spec)
    assert_allclose(res.mean, want_mean, rtol=1e-10)
    assert_allclose(res.sd, want_sd, rtol=1e-10)
    assert res.sd[-1] > 0.0


def test_krige_memory_is_linear_in_targets():
    # 4 000 targets on 100 sites: any n_p x n_p float array is 128 MB
    import tracemalloc

    coords, x, z, beta = observed_setup(seed=8, n=100)
    coords_pred = np.random.default_rng(9).uniform(0, 4, size=(4000, 2))
    x_pred = np.column_stack([np.ones(4000), coords_pred])
    params = ModelParams(beta=beta, cov=CovParams(sigma2=1.0, phi=1.0, tau2=0.1))
    tracemalloc.start()
    try:
        res = krige(params, x, z, coords, x_pred, coords_pred, SPEC_EXP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.sd.shape == (4000,) and np.all(res.sd > 0)
    assert peak < 50e6


def test_gaussian_ml_fit_peaks_below_five_point_six_matrices():
    # an evaluation's L, potri's triangle and dR/dphi, beside the Hessian
    # build's arrays; the parent's 6.1 n^2 also held Psi
    import tracemalloc

    n = 300
    data = simulate_scl(SimConfig(
        n_est=n, n_pred=0, beta=[10.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
        spec=SPEC_EXP, cens_level=0.1, coord_box=((0.0, 10.0), (0.0, 10.0)), seed=4,
    )).data
    lags = Lags(distance_matrix(data.coords))
    tracemalloc.start()
    try:
        params, ll, _, _ = gaussian_ml_fit(data.value, np.ones((n, 1)), lags, SPEC_EXP,
                                           CovParams(1.5, 0.8, 0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(ll) and params.cov.phi > 0
    assert peak <= 5.6 * n * n * 8, peak / (n * n * 8)


def test_krige_linear_in_observations_at_fixed_beta():
    coords, x, z, beta = observed_setup(seed=2)
    params = ModelParams(beta=np.zeros(3), cov=CovParams(sigma2=1.0, phi=1.0, tau2=0.1))
    target = np.array([[2.0, 2.0]])
    x_t = np.array([[1.0, 2.0, 2.0]])
    z2 = np.random.default_rng(3).normal(size=len(z))
    m1 = krige(params, x, z, coords, x_t, target, SPEC_EXP).mean
    m2 = krige(params, x, z2, coords, x_t, target, SPEC_EXP).mean
    m12 = krige(params, x, 2.0 * z + 3.0 * z2, coords, x_t, target, SPEC_EXP).mean
    assert m12[0] == pytest.approx(2.0 * m1[0] + 3.0 * m2[0], abs=1e-10)


def test_mspe_trivial_and_manual():
    assert mspe([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mspe([0.0, 0.0], [1.0, -1.0]) == 1.0
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=10), rng.normal(size=10)
    manual = sum((ai - bi) ** 2 for ai, bi in zip(a, b)) / 10.0
    assert mspe(a, b) == pytest.approx(manual, rel=1e-12)
    with pytest.raises(DataValidationError):
        mspe([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# variogram utilities
# ---------------------------------------------------------------------------


def test_variogram_constant_field_is_zero():
    coords = np.random.default_rng(5).uniform(0, 3, size=(20, 2))
    v = empirical_variogram(coords, np.full(20, 7.0))
    assert_allclose(v.gamma, 0.0)


def test_variogram_two_points_single_bin():
    coords = np.array([[0.0, 0.0], [1.0, 0.0]])
    z = np.array([3.0, 1.0])
    v = empirical_variogram(coords, z, n_bins=1, max_dist=2.0)
    assert v.gamma[0] == pytest.approx((3.0 - 1.0) ** 2 / 2.0)
    assert v.counts[0] == 1


@pytest.mark.parametrize("n_bins", [2.5, True, np.float64(3.0)])
def test_variogram_bin_count_must_be_an_integer(n_bins):
    coords = np.random.default_rng(5).uniform(0, 3, size=(20, 2))
    with pytest.raises(ConfigurationError, match="n_bins must be an integer"):
        empirical_variogram(coords, np.arange(20.0), n_bins=n_bins)


def test_variogram_bin_count_below_one_keeps_its_error():
    coords = np.random.default_rng(5).uniform(0, 3, size=(20, 2))
    with pytest.raises(ConfigurationError, match="at least one distance bin"):
        empirical_variogram(coords, np.arange(20.0), n_bins=0)


@pytest.mark.parametrize("n_est, error, match", [
    (30.5, ConfigurationError, "n_est must be an integer"),
    (True, ConfigurationError, "n_est must be an integer"),
    (0, DataValidationError, "hold-out row"),
    (40, DataValidationError, "hold-out row"),
])
def test_cross_validate_checks_the_estimation_count(n_est, error, match):
    sim = simulate_scl(SimConfig(n_est=40, n_pred=0, beta=[1.0], cov=CovParams(1.0, 1.0, 0.1),
                                 spec=SPEC_EXP, seed=2))
    with pytest.raises(error, match=match):
        cross_validate(sim.data, TrendSpec("cte"), SPEC_EXP, n_est, ["naive1"])


def test_wls_variofit_recovers_range_roughly():
    cov = CovParams(sigma2=2.0, phi=1.0, tau2=0.0)
    res = simulate_scl(
        SimConfig(
            n_est=200,
            n_pred=0,
            beta=[0.0],
            cov=cov,
            spec=SPEC_EXP,
            cens_level=0.0,
            coord_box=((0.0, 10.0), (0.0, 10.0)),
            seed=8,
        )
    )
    vario = empirical_variogram(res.data.coords, res.data.value)
    fit = wls_variofit(vario, SPEC_EXP)
    # variogram fits are noisy; initializer-grade accuracy only
    assert 0.5 * cov.phi <= fit.phi <= 1.5 * cov.phi
    assert 0.4 * cov.sigma2 <= fit.sigma2 + fit.tau2 <= 2.0 * cov.sigma2


def test_wls_variofit_box_follows_the_data_scale():
    # a field in tiny units fits inside its own box; a flat one is a
    # NumericalError, which initial_values falls back from
    rng = np.random.default_rng(11)
    coords = rng.uniform(0, 5, size=(40, 2))
    vario = empirical_variogram(coords, 1e-9 * rng.normal(size=40))
    fit = wls_variofit(vario, SPEC_EXP)
    assert 0 < fit.sigma2 <= 2.0 * vario.gamma.max()
    assert 0 < fit.phi <= vario.max_dist
    with pytest.raises(NumericalError):
        wls_variofit(empirical_variogram(coords, np.full(40, 3.0)), SPEC_EXP)


def test_wls_variofit_holds_a_fixed_nugget():
    # the Matern design of the CLI chain: a free fit puts the nugget at 0.53;
    # with the nugget fixed at 0.1 only (sigma2, phi) move, and the
    # automatic start inherits that fit
    matern = CovarianceSpec("matern", kappa=0.3)
    fixed = CovarianceSpec("matern", kappa=0.3, nugget_fixed=True, fixed_nugget_value=0.1)
    res = simulate_scl(SimConfig(
        n_est=80, n_pred=20, beta=[10.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.1),
        spec=matern, cens_level=0.15, coord_box=((0.0, 6.0), (0.0, 6.0)), seed=3,
    ))
    vario = empirical_variogram(res.data.coords, res.data.value)
    free = wls_variofit(vario, matern)
    assert free.tau2 > 0.3
    fit = wls_variofit(vario, fixed)
    assert fit.tau2 == 0.1
    model = lambda p: p.tau2 + p.sigma2 * (1.0 - correlation("matern", 0.3, vario.centers, p.phi))
    w = vario.counts
    # the fixed-nugget fit is the best (sigma2, phi) for tau2 = 0.1
    pinned = CovParams(sigma2=free.sigma2, phi=free.phi, tau2=0.1)
    assert np.sum(w * (model(fit) - vario.gamma) ** 2) < np.sum(w * (model(pinned) - vario.gamma) ** 2)
    start = initial_values(res.data, TrendSpec("cte"), fixed)
    assert start.cov.tau2 == 0.1
    assert start.cov.sigma2 == pytest.approx(fit.sigma2, rel=1e-12)  # the constant
    assert start.cov.phi == pytest.approx(fit.phi, rel=1e-12)  # trend leaves gamma as is


def variofit_case(seed):
    """Empirical variogram of one simulated field, with its nugget: n in
    [40, 250) sites uniform on [0, 8]^2, covariance 2 exp(-d / U(0.3, 3))
    plus a nugget U(0, 1)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 250))
    coords = rng.uniform(0, 8, (n, 2))
    phi, tau2 = rng.uniform(0.3, 3), rng.uniform(0, 1)
    sigma = 2.0 * np.exp(-distance_matrix(coords) / phi) + tau2 * np.eye(n)
    z = np.linalg.cholesky(sigma) @ rng.normal(size=n)
    return empirical_variogram(coords, z), tau2


VARIOFIT_FAMILIES = [("exponential", 0.0), ("gaussian", 0.0), ("spherical", 0.0),
                     ("matern", 0.3), ("powered-exponential", 1.2)]
VARIOFIT_CASES = (
    [(0, family, kappa, False) for family, kappa in VARIOFIT_FAMILIES + [("matern", 1.5)]]
    + [(1, family, kappa, True) for family, kappa in VARIOFIT_FAMILIES]
    # a single trust-region start from (0.8 sill, max_dist / 3, 0.2 sill)
    # stopped on a worse local optimum on these, by up to half the objective
    + [(seed, "spherical", 0.0, False) for seed in (6, 9, 14, 20)]
    + [(9, "gaussian", 0.0, False)]
    # every spherical range between the first two bin centers fits equally
    # well: the tie goes to the same range at any scale of gamma
    + [(11, "spherical", 0.0, False)]
)


@pytest.mark.parametrize(
    "seed,family,kappa,fixed", VARIOFIT_CASES,
    ids=[f"{f}{k or ''}-seed{s}-{'fixed' if x else 'free'}" for s, f, k, x in VARIOFIT_CASES],
)
def test_wls_variofit_matches_a_multistart_oracle(seed, family, kappa, fixed):
    # the variable-projection fit reaches the best objective many
    # least-squares starts find, stays in its box, and scales with gamma
    vario, tau2 = variofit_case(seed)
    spec = CovarianceSpec(family, kappa, nugget_fixed=fixed, fixed_nugget_value=tau2 if fixed else 0.0)
    fit = wls_variofit(vario, spec)

    def objective(p):
        model = p.tau2 + p.sigma2 * (1.0 - correlation(family, kappa, vario.centers, p.phi))
        return np.sum(vario.counts * (model - vario.gamma) ** 2)

    _, best = wls_variofit_oracle(
        vario.centers, vario.gamma, vario.counts, vario.max_dist, family, kappa,
        tau2 if fixed else None,
    )
    assert objective(fit) <= best * (1.0 + 1e-6)
    sill = vario.gamma.max()
    assert 1e-12 * sill <= fit.sigma2 <= 2.0 * sill
    assert 1e-12 * vario.max_dist <= fit.phi <= vario.max_dist
    if fixed:
        assert fit.tau2 == tau2
    else:
        assert 0.0 <= fit.tau2 <= 2.0 * sill

    for c in (1e3, 0.37):
        scaled = wls_variofit(
            dataclasses.replace(vario, gamma=c * vario.gamma),
            dataclasses.replace(spec, fixed_nugget_value=c * spec.fixed_nugget_value),
        )
        assert_allclose(
            [scaled.sigma2, scaled.phi, scaled.tau2], [c * fit.sigma2, fit.phi, c * fit.tau2],
            rtol=1e-6, atol=0.0,
        )


def tie_variogram(name):
    """A variogram whose best fits are not unique: ``flat`` (constant),
    ``falling`` (its first bin above the rest, so no exponential range
    beats a constant) or ``step`` (its first bin below a flat rest)."""
    counts = np.arange(20, 30)
    if name == "flat":
        gamma = np.full(10, 1.5)
    elif name == "step":
        gamma = np.r_[0.9, np.ones(9)]
    else:
        rng = np.random.default_rng(20)
        counts = rng.integers(5, 200, size=10)
        gamma = np.r_[1.7, 1.5 + 0.05 * rng.normal(size=9)]
    return Variogram(centers=np.linspace(0.25, 4.75, 10), gamma=gamma, counts=counts,
                     max_dist=5.0)


@pytest.mark.parametrize("name,family", [
    ("flat", "exponential"), ("falling", "exponential"), ("step", "spherical"),
])
def test_wls_variofit_breaks_ties_alike_at_any_scale(name, family):
    # every range below the first bin center fits a flat or falling
    # variogram as well as any: there 1 - rho is constant over the bins and
    # the weighted normal equations are singular, and every split of the
    # constant between sigma2 and tau2 fits as well.  Every spherical range
    # from about 1.4 times the first bin center to the second fits the step
    # exactly.  The fit takes the same range and split whatever the scale
    # of gamma, with no warning
    vario = tie_variogram(name)
    spec = CovarianceSpec(family)
    fits = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1.0, 1e3, 0.37, 7.0):
            fit = wls_variofit(dataclasses.replace(vario, gamma=c * vario.gamma), spec)
            fits.append([fit.sigma2 / c, fit.phi, fit.tau2 / c])
    assert_allclose(fits, [fits[0]] * 4, rtol=1e-12, atol=0.0)
    sigma2, phi, tau2 = fits[0]
    if family == "exponential":
        # phi on its lower bound, and the first edge: sigma2 on its lower
        # bound, tau2 the rest of the weighted mean
        assert phi == pytest.approx(1e-12 * vario.max_dist, rel=1e-12)
        assert sigma2 == pytest.approx(1e-12 * vario.gamma.max(), rel=1e-12)
        assert tau2 + sigma2 == pytest.approx(np.average(vario.gamma, weights=vario.counts), rel=1e-12)
    else:
        model = tau2 + sigma2 * (1.0 - correlation(family, 0.0, vario.centers, phi))
        assert_allclose(model, vario.gamma, rtol=1e-12)


# ---------------------------------------------------------------------------
# Gaussian ML on observed data
# ---------------------------------------------------------------------------


def test_gaussian_ml_matches_independent_oracle():
    res = simulate_scl(
        SimConfig(
            n_est=60,
            n_pred=0,
            beta=[1.0, 0.4, -0.3],
            cov=CovParams(sigma2=1.5, phi=1.0, tau2=0.2),
            spec=SPEC_EXP,
            cens_level=0.0,
            trend=TrendSpec("first"),
            coord_box=((0.0, 6.0), (0.0, 6.0)),
            seed=21,
        )
    )
    data = res.data
    from geocens.model import build_trend

    x = build_trend(data.coords, None, TrendSpec("first"))
    dist = distance_matrix(data.coords)
    init = CovParams(sigma2=1.0, phi=0.8, tau2=0.1)
    bounds = (np.array([0.05, 0.0]), np.array([20.0, 10.0]))
    params, ll, _, _ = gaussian_ml_fit(data.value, x, Lags(dist), SPEC_EXP, init, bounds)

    beta_o, s2_o, phi_o, tau2_o, ll_o = gaussian_ml_oracle(
        data.value,
        x,
        dist,
        lambda d, phi: correlation("exponential", 0.0, d, phi),
        init=[0.8, 0.1 / 1.0],
        bounds=[(0.05, 20.0), (0.0, 10.0)],
    )
    assert ll == pytest.approx(ll_o, abs=1e-5)
    assert_allclose(params.beta, beta_o, rtol=1e-4)
    assert params.cov.sigma2 == pytest.approx(s2_o, rel=1e-3)
    assert params.cov.phi == pytest.approx(phi_o, rel=1e-3)
    assert params.cov.tau2 == pytest.approx(tau2_o, rel=1e-2, abs=1e-3)


@pytest.mark.xfail(strict=True, reason="a cold search from the CLI's start stops on the lower "
                   "range bound, 10.6 log-likelihood units below the interior maximum")
def test_gaussian_ml_from_the_cli_start_reaches_the_interior_maximum():
    # the seminaive first fit of a CLI chain (`geocens simulate --n-est 160
    # --n-pred 40 --beta 10 --sigma2 2 --phi 1 --tau2 0.2 --cens-level 0.5
    # --box 0,8,0,8 --seed 2001025171`, censored readings at 0, sill tied to
    # tau2 = 0.2), from the CLI's start in the default box, ends at phi =
    # 1e-4 dmax with loglik -493.24; started near the maximum it ends at
    # phi = 0.356 with loglik -482.61
    data = simulate_scl(SimConfig(
        n_est=160, n_pred=40, beta=[10.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
        spec=SPEC_EXP, cens_level=0.5, coord_box=((0.0, 8.0), (0.0, 8.0)), seed=2001025171,
    )).data
    y = np.where(data.cens == 1, 0.0, data.value)
    x, dist = np.ones((data.n, 1)), distance_matrix(data.coords)
    tied = CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.2)
    _, want, _, _ = gaussian_ml_fit(y, x, Lags(dist), tied, CovParams(29.0, 0.36, 0.2))
    assert want == pytest.approx(-482.61, abs=0.01)
    _, got, _, _ = gaussian_ml_fit(y, x, Lags(dist), tied, CovParams(1.5, 1.0, 0.2))
    assert got >= want - 1e-6, (got, want)


# (lower, upper, the bound named in the error)
BAD_BOXES = {
    "infinite-upper-phi": ((0.05, 0.0), (np.inf, 10.0), "upper phi bound must be finite"),
    "infinite-upper-nu2": ((0.05, 0.0), (20.0, np.inf), "upper nu2 bound must be finite"),
    "zero-lower-phi": ((0.0, 0.0), (20.0, 10.0), "lower phi bound must be > 0"),
    "negative-lower-nu2": ((0.05, -0.1), (20.0, 10.0), "lower nu2 bound must be >= 0"),
    "reversed": ((20.0, 0.0), (0.05, 10.0), "lower phi bound must be below the upper"),
    "three-components": ((0.05, 0.0, 0.0), (20.0, 10.0, 10.0),
                         "has 3 lower and 3 upper components"),
}


@pytest.mark.parametrize("caller", ["gaussian_ml_fit", "naive1", "seminaive", "crossval"])
@pytest.mark.parametrize("box", list(BAD_BOXES))
def test_gaussian_ml_rejects_a_search_box_that_breaks_the_search(caller, box):
    # an infinite bound left its coordinate at the start, as the
    # epsilon-active test read it as active everywhere, phi = 0 raised
    # scipy's ValueError from the factorization, a reversed box returned
    # its upper phi bound and a third component was dropped unread
    lower, upper, named = BAD_BOXES[box]
    bounds = (np.array(lower), np.array(upper))
    data = simulate_scl(SimConfig(n_est=30, n_pred=0, beta=[1.0], cov=CovParams(1.0, 1.0, 0.1),
                                  spec=SPEC_EXP, cens_level=0.2, seed=2)).data
    trend, init = TrendSpec("cte"), CovParams(sigma2=1.0, phi=1.0, tau2=0.1)
    calls = {
        "gaussian_ml_fit": lambda: gaussian_ml_fit(
            data.value, np.ones((data.n, 1)), Lags(distance_matrix(data.coords)), SPEC_EXP,
            init, bounds),
        "naive1": lambda: predict_naive(data, trend, SPEC_EXP, "naive1", data.coords[:3],
                                        init=init, bounds=bounds),
        "seminaive": lambda: predict_seminaive(data, trend, SPEC_EXP, data.coords[:3],
                                               init=init, bounds=bounds),
        "crossval": lambda: cross_validate(
            data, trend, SPEC_EXP, int(np.flatnonzero(data.cens)[-1]) + 1, ["naive1"],
            init=init, bounds=bounds),
    }
    with pytest.raises(ConfigurationError, match=f"search box {named}"):
        calls[caller]()


# ---------------------------------------------------------------------------
# naive and seminaive pipelines
# ---------------------------------------------------------------------------


def censored_sim(seed=30, cens_level=0.2, n=60, beta=10.0):
    # positive-valued field so the detection limit is positive, as in the
    # environmental applications the re-imputation scheme is meant for
    return simulate_scl(
        SimConfig(
            n_est=n,
            n_pred=10,
            beta=[beta],
            cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
            spec=SPEC_EXP,
            cens_level=cens_level,
            coord_box=((0.0, 6.0), (0.0, 6.0)),
            seed=seed,
        )
    )


def test_naive_variants_identical_without_censoring():
    res = censored_sim(cens_level=0.0)
    a = predict_naive(res.data, TrendSpec("cte"), SPEC_EXP, "naive1", res.pred_coords)
    b = predict_naive(res.data, TrendSpec("cte"), SPEC_EXP, "naive2", res.pred_coords)
    assert_allclose(a.mean, b.mean)
    assert_allclose(a.sd, b.sd)


def test_naive_imputation_definitions():
    from geocens.predict import _impute_bounds

    coords = np.random.default_rng(1).uniform(0, 1, size=(4, 2))
    data = SpatialDataset.from_censored(
        coords,
        values=np.array([5.0, 2.0, 4.0, 3.0]),
        cens=np.array([0, 1, 0, 0]),
        cens_type="left",
        limits=np.array([0.0, 2.0, 0.0, 0.0]),
    )
    assert _impute_bounds(data, "naive1")[1] == 2.0
    assert _impute_bounds(data, "naive2")[1] == 1.0
    right = SpatialDataset.from_censored(
        coords,
        values=np.array([5.0, 2.0, 4.0, 3.0]),
        cens=np.array([0, 1, 0, 0]),
        cens_type="right",
        limits=np.array([0.0, 2.0, 0.0, 0.0]),
    )
    # halving is meaningless under right censoring: both variants use the bound
    assert _impute_bounds(right, "naive1")[1] == 2.0
    assert _impute_bounds(right, "naive2")[1] == 2.0


def test_naive_rejects_interval_censoring():
    coords = np.random.default_rng(2).uniform(0, 1, size=(5, 2))
    data = SpatialDataset(
        coords=coords,
        value=np.array([1.0, 1.0, 2.0, 0.5, 1.5]),
        cens=np.array([0, 1, 0, 0, 0]),
        lower=np.array([-np.inf, 0.0, -np.inf, -np.inf, -np.inf]),
        upper=np.array([np.inf, 1.5, np.inf, np.inf, np.inf]),
        cens_type="interval",
    )
    with pytest.raises(UnsupportedMethodError):
        predict_naive(data, TrendSpec("cte"), SPEC_EXP, "naive1", coords[:1])


def test_seminaive_requires_left_censoring():
    res = simulate_scl(
        SimConfig(
            n_est=40,
            n_pred=5,
            beta=[1.0],
            cov=CovParams(sigma2=1.0, phi=1.0, tau2=0.1),
            spec=SPEC_EXP,
            cens_level=0.1,
            cens_type="right",
            coord_box=((0.0, 5.0), (0.0, 5.0)),
            seed=31,
        )
    )
    with pytest.raises(UnsupportedMethodError):
        predict_seminaive(res.data, TrendSpec("cte"), SPEC_EXP, res.pred_coords)


def test_seminaive_without_censoring_equals_naive():
    res = censored_sim(cens_level=0.0, seed=32)
    a = predict_seminaive(res.data, TrendSpec("cte"), SPEC_EXP, res.pred_coords)
    b = predict_naive(res.data, TrendSpec("cte"), SPEC_EXP, "naive1", res.pred_coords)
    assert a.extra["iterations"] == 0
    assert_allclose(a.mean, b.mean, rtol=1e-8)


def test_seminaive_imputations_stay_in_bounds():
    res = censored_sim(seed=33, n=50)
    out = predict_seminaive(
        res.data,
        TrendSpec("cte"),
        SPEC_EXP,
        res.pred_coords,
        cfg=SeminaiveConfig(max_iter=4),
    )
    cens = res.data.cens == 1
    imputed = out.extra["imputed"][cens]
    assert np.all(imputed >= 0.0)
    assert np.all(imputed <= res.data.upper[cens] + 1e-12)


def test_seminaive_clamp_identity_when_predictions_inside():
    # when every leave-one-out prediction already falls inside [0, bound]
    # the clamp changes nothing: verify against the raw kriging values
    res = censored_sim(seed=35, n=40)
    out = predict_seminaive(
        res.data,
        TrendSpec("cte"),
        SPEC_EXP,
        res.pred_coords,
        cfg=SeminaiveConfig(max_iter=1),
    )
    cens_idx = np.flatnonzero(res.data.cens == 1)
    y_before = res.data.value.copy()
    y_before[cens_idx] = 0.0
    imputed = out.extra["imputed"][cens_idx]
    inside = (imputed > 0.0) & (imputed < res.data.upper[cens_idx])
    assert inside.any()  # clamp acted as identity for these rows


def test_loo_closed_form_matches_direct_loop():
    # half the sites left-censored and imputed at their bound; first-order
    # trend so that the plug-in mean varies by site
    res = censored_sim(seed=36, cens_level=0.5, n=60)
    data = res.data
    cens_idx = np.flatnonzero(data.cens == 1)
    y = data.value.copy()
    y[cens_idx] = data.upper[cens_idx]
    x = build_trend(data.coords, None, TrendSpec("first"))
    params = ModelParams(
        beta=[9.5, 0.1, -0.05], cov=CovParams(sigma2=2.0, phi=1.3, tau2=0.2)
    )
    dist = distance_matrix(data.coords)
    got = _loo_means(params, x, y, cholesky_sigma(dist, SPEC_EXP, params.cov), cens_idx)
    sigma = build_sigma(dist, SPEC_EXP, params.cov)
    want = loo_kriging_means(y, x, params.beta, sigma, cens_idx)
    assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_seminaive_first_pass_matches_direct_loop():
    res = censored_sim(seed=37, cens_level=0.5, n=40)
    data = res.data
    out = predict_seminaive(
        data, TrendSpec("cte"), SPEC_EXP, res.pred_coords,
        cfg=SeminaiveConfig(max_iter=1),
    )
    cens_idx = np.flatnonzero(data.cens == 1)
    y0 = data.value.copy()
    y0[cens_idx] = 0.0
    x = np.ones((data.n, 1))
    dist = distance_matrix(data.coords)
    init = initial_values(data, TrendSpec("cte"), SPEC_EXP).cov
    params, _, _, _ = gaussian_ml_fit(y0, x, Lags(dist), SPEC_EXP, init, None)
    sigma = build_sigma(dist, SPEC_EXP, params.cov)
    loo = loo_kriging_means(y0, x, params.beta, sigma, cens_idx)
    want = np.maximum(0.0, np.minimum(loo, data.upper[cens_idx]))
    assert_allclose(out.extra["imputed"][cens_idx], want, rtol=1e-10, atol=1e-10)


def test_naive_rejects_degenerate_detection_limit():
    # a "LOD at -inf" stress dataset is rejected at validation time, so the
    # imputation path can never produce NaN
    coords = np.random.default_rng(3).uniform(0, 1, size=(5, 2))
    with pytest.raises(DataValidationError):
        SpatialDataset.from_censored(
            coords,
            values=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
            cens=np.array([0, 1, 0, 0, 0]),
            cens_type="left",
            limits=np.array([0.0, -np.inf, 0.0, 0.0, 0.0]),
        )


def test_predict_saem_geometry_mismatch_raises():
    from geocens import SaemConfig, predict_saem, saem_fit

    res = censored_sim(cens_level=0.0, seed=36, n=30)
    fit = saem_fit(
        res.data,
        TrendSpec("cte"),
        SPEC_EXP,
        SaemConfig(m=5, max_iter=5, init_sigma2=2.0, init_phi=1.0,
                   init_nugget=0.1, lower=(0.05, 0.0), upper=(20.0, 10.0), seed=1),
    )
    bad_x = np.ones((10, 2))  # fit used an intercept-only trend
    with pytest.raises(DataValidationError):
        predict_saem(fit, bad_x, res.pred_coords)


def test_skewness_matches_direct_formula():
    x = np.array([1.0, 2.0, 2.0, 7.0])
    d = x - x.mean()
    want = np.mean(d**3) / np.mean(d**2) ** 1.5
    assert sample_skewness(x) == pytest.approx(want, rel=1e-12)
    assert sample_skewness(np.ones(5)) == 0.0


KRIGE_FAMILIES = [
    CovarianceSpec("exponential"),
    CovarianceSpec("gaussian"),
    CovarianceSpec("spherical"),
    CovarianceSpec("matern", kappa=1.5),
    CovarianceSpec("matern", kappa=0.3),
    CovarianceSpec("powered-exponential", kappa=1.3),
]
NUGGETS = {"free": {}, "fixed-0.2": {"nugget_fixed": True, "fixed_nugget_value": 0.2},
           "fixed-0": {"nugget_fixed": True, "fixed_nugget_value": 0.0}}


def dense_kriging(params, x, z, coords, x_pred, coords_pred, spec):
    """Mean and sd from dense LU solves with Sigma, no Cholesky factor.  Not
    from an explicit inverse: on a Gaussian covariance with no nugget, its
    sd was off by 8.7e-13 relative to a 40-digit solve, against 4e-14 here."""
    p = params.cov
    s_po = p.sigma2 * correlation(spec.family, spec.kappa, cross_distance(coords_pred, coords),
                                  p.phi)
    w = np.linalg.solve(build_sigma(distance_matrix(coords), spec, p), s_po.T).T
    mean = x_pred @ params.beta + w @ (z - x @ params.beta)
    return mean, np.sqrt(p.sigma2 + p.tau2 - np.einsum("ij,ij->i", w, s_po))


@pytest.fixture()
def kriging_counts(monkeypatch):
    """Counts of the factorizations and distance matrices formed inside
    ``krige``, however it is reached."""
    from geocens import predict

    counts = {"spd_cholesky": 0, "distance_matrix": 0}
    inside = [False]

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += inside[0]
            return fn(*args, **kwargs)
        return wrapper

    def krige_counted(*args, **kwargs):
        inside[0] = True
        try:
            return krige(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(covariance, "spd_cholesky",
                        counting("spd_cholesky", covariance.spd_cholesky))
    monkeypatch.setattr(predict, "distance_matrix",
                        counting("distance_matrix", predict.distance_matrix))
    monkeypatch.setattr(predict, "krige", krige_counted)
    return counts


def family_case(spec, nugget, seed=41):
    spec = dataclasses.replace(spec, **NUGGETS[nugget])
    res = censored_sim(seed=seed, cens_level=0.25, n=40)
    x_pred = np.ones((res.pred_coords.shape[0], 1))
    return spec, res, x_pred


@pytest.mark.parametrize("nugget", list(NUGGETS))
@pytest.mark.parametrize("spec", KRIGE_FAMILIES, ids=lambda s: f"{s.family}-{s.kappa}")
def test_predict_saem_on_a_fresh_fit_equals_the_fit_loaded_from_fit_json(
        kriging_counts, tmp_path, spec, nugget):
    # one kriging path: a fresh fit, which holds Sigma^{-1}, and the same
    # fit written to fit.json and read back, which holds none, each factor
    # Sigma once and give the same predictions bit for bit
    import json

    from geocens import SaemConfig, predict_saem, saem_fit
    from geocens.cli import fit_from_payload, fit_to_payload, write_json

    spec, res, x_pred = family_case(spec, nugget)
    fit = saem_fit(res.data, TrendSpec("cte"), spec, SaemConfig(
        m=4, max_iter=4, init_sigma2=2.0, init_phi=1.0, init_nugget=0.2,
        lower=(0.05, 1e-4), upper=(20.0, 10.0), tol=0.0, seed=3,
    ))
    write_json(tmp_path / "fit.json", fit_to_payload(fit))
    loaded = fit_from_payload(json.loads((tmp_path / "fit.json").read_text()))
    assert fit.precision is not None and loaded.precision is None
    got = predict_saem(fit, x_pred, res.pred_coords)
    assert kriging_counts == {"spd_cholesky": 1, "distance_matrix": 1}
    want = predict_saem(loaded, x_pred, res.pred_coords)
    assert kriging_counts == {"spd_cholesky": 2, "distance_matrix": 2}
    assert np.array_equal(got.mean, want.mean)
    assert np.array_equal(got.sd, want.sd)
    mean, sd = dense_kriging(fit.params, fit.x, fit.zhat, res.data.coords, x_pred,
                             res.pred_coords, spec)
    assert_allclose(got.mean, mean, rtol=1e-12)
    assert_allclose(got.sd, sd, rtol=1e-12)


@pytest.mark.parametrize("nugget", list(NUGGETS))
@pytest.mark.parametrize("spec", KRIGE_FAMILIES, ids=lambda s: f"{s.family}-{s.kappa}")
def test_naive_kriging_reads_the_factor_its_search_left(kriging_counts, spec, nugget):
    # the kriging step of predict_naive takes the factor its Gaussian-ML
    # fit returns: no distance matrix of the data sites, no factor
    spec, res, x_pred = family_case(spec, nugget)
    got = predict_naive(res.data, TrendSpec("cte"), spec, "naive1", res.pred_coords)
    assert kriging_counts == {"spd_cholesky": 0, "distance_matrix": 0}
    y, params = got.extra["imputed"], got.params_used
    x = np.ones((res.data.n, 1))
    want = krige(params, x, y, res.data.coords, x_pred, res.pred_coords, spec)
    assert_allclose(got.mean, want.mean, rtol=1e-12)
    assert_allclose(got.sd, want.sd, rtol=1e-12)
    mean, sd = dense_kriging(params, x, y, res.data.coords, x_pred, res.pred_coords, spec)
    assert_allclose(got.mean, mean, rtol=1e-12)
    assert_allclose(got.sd, sd, rtol=1e-12)


def test_seminaive_kriging_reads_the_factor_its_last_fit_left(kriging_counts):
    res = censored_sim(seed=37, cens_level=0.5, n=40)
    got = predict_seminaive(res.data, TrendSpec("cte"), SPEC_EXP, res.pred_coords)
    assert kriging_counts == {"spd_cholesky": 0, "distance_matrix": 0}
    want = krige(got.params_used, np.ones((res.data.n, 1)), got.extra["imputed"],
                 res.data.coords, np.ones((10, 1)), res.pred_coords, SPEC_EXP)
    assert_allclose(got.mean, want.mean, rtol=1e-12)
    assert_allclose(got.sd, want.sd, rtol=1e-12)


@pytest.mark.parametrize("given", [True, False], ids=["factor", "none"])
def test_krige_factors_sigma_only_without_a_factor(kriging_counts, given):
    # a factor of Sigma at the estimate is used as given; without one, the
    # distances of the data sites are formed and Sigma is factored once
    from geocens import predict

    coords, x, z, beta = observed_setup(seed=6, n=30)
    coords_pred = np.random.default_rng(7).uniform(0, 4, size=(5, 2))
    x_pred = np.column_stack([np.ones(5), coords_pred])
    params = ModelParams(beta=beta, cov=CovParams(sigma2=1.3, phi=1.6, tau2=0.25))
    lo = cholesky_sigma(distance_matrix(coords), SPEC_EXP, params.cov) if given else None
    got = predict.krige(params, x, z, coords, x_pred, coords_pred, SPEC_EXP, factor=lo)
    assert kriging_counts == {"spd_cholesky": int(not given), "distance_matrix": int(not given)}
    mean, sd = dense_kriging(params, x, z, coords, x_pred, coords_pred, SPEC_EXP)
    assert_allclose(got.mean, mean, rtol=1e-12)
    assert_allclose(got.sd, sd, rtol=1e-12)


@pytest.mark.parametrize("nugget", list(NUGGETS))
@pytest.mark.parametrize("spec", KRIGE_FAMILIES, ids=lambda s: f"{s.family}-{s.kappa}")
def test_gaussian_ml_fit_returns_the_factor_of_sigma_at_its_estimate(spec, nugget):
    spec, res, _ = family_case(spec, nugget)
    y = res.data.value
    dist = distance_matrix(res.data.coords)
    params, _, lo, _ = gaussian_ml_fit(y, np.ones((res.data.n, 1)), Lags(dist), spec,
                                       CovParams(1.0, 0.8, 0.1))
    want = cholesky_sigma(dist, spec, params.cov)
    assert np.array_equal(np.triu(lo, 1), np.zeros_like(lo))
    assert np.max(np.abs(lo - want)) <= 1e-12 * np.max(np.abs(want))


def factorizations_inside(monkeypatch, names):
    """Counts of the calls to the ``predict`` functions ``names``, and of
    the LAPACK Cholesky factorizations (``potrf``) and inversions from a
    factor (``potri``) made inside them."""
    from geocens import predict

    counts = {"dpotrf": 0, "dpotri": 0, "calls": 0}
    inside = [False]

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += inside[0]
            return fn(*args, **kwargs)
        return wrapper

    def flagged(fn):
        def wrapper(*args, **kwargs):
            counts["calls"] += 1
            inside[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] = False
        return wrapper

    for routine in ("dpotrf", "dpotri"):
        monkeypatch.setattr(covariance.lapack, routine,
                            counting(routine, getattr(covariance.lapack, routine)))
    for name in names:
        monkeypatch.setattr(predict, name, flagged(getattr(predict, name)))
    return counts


@pytest.mark.parametrize("nugget", list(NUGGETS))
@pytest.mark.parametrize("method", ["naive1", "naive2", "seminaive"])
def test_predictors_factor_nothing_after_their_fits_with_nothing_held(monkeypatch, method,
                                                                      nugget):
    # each Gaussian-ML fit leaves nothing held on its Lags, so the kriging
    # and leave-one-out steps can only use the factor the fit returned
    from geocens import predict

    spec = dataclasses.replace(SPEC_EXP, **NUGGETS[nugget])
    res = censored_sim(seed=37, cens_level=0.5, n=40)

    def run():
        if method == "seminaive":
            return predict.predict_seminaive(res.data, TrendSpec("cte"), spec, res.pred_coords)
        return predict.predict_naive(res.data, TrendSpec("cte"), spec, method, res.pred_coords)

    want = run()
    fit = predict.gaussian_ml_fit

    def fit_and_clear(y, x, lags, *args, **kwargs):
        out = fit(y, x, lags, *args, **kwargs)
        lags.held = None
        return out

    monkeypatch.setattr(predict, "gaussian_ml_fit", fit_and_clear)
    counts = factorizations_inside(monkeypatch, ("krige", "_loo_means"))
    got = run()
    passes = got.extra.get("iterations", 0)
    assert counts == {"dpotrf": 0, "dpotri": 0, "calls": 1 + passes}
    assert passes == want.extra.get("iterations", 0)
    assert passes >= (method == "seminaive")
    for a, b in ((got.mean, want.mean), (got.sd, want.sd),
                 (got.extra["imputed"], want.extra["imputed"])):
        assert_allclose(a, b, rtol=1e-12, atol=0)


def long_double_kriging(params, x, z, coords, x_pred, coords_pred, spec, refinements=4):
    """Kriging mean and sd from the float64 ``Sigma`` and cross block,
    solved by iterative refinement with residuals in ``np.longdouble``: a
    reference for the solve alone, whatever the condition of ``Sigma``."""
    p = params.cov
    sigma = build_sigma(distance_matrix(coords), spec, p)
    cross = p.sigma2 * correlation(spec.family, spec.kappa, cross_distance(coords, coords_pred),
                                   p.phi)
    resid = z - x @ params.beta
    rhs = np.column_stack([resid, cross]).astype(np.longdouble)
    lo = (np.linalg.cholesky(sigma), True)
    sigma_ld = sigma.astype(np.longdouble)
    sol = cho_solve(lo, rhs.astype(float)).astype(np.longdouble)
    for _ in range(refinements):
        sol += cho_solve(lo, (rhs - sigma_ld @ sol).astype(float))
    mean = x_pred @ params.beta + (cross.T.astype(np.longdouble) @ sol[:, 0]).astype(float)
    var = (p.sigma2 + p.tau2) - np.einsum("ij,ij->j", cross.astype(np.longdouble), sol[:, 1:])
    return mean, np.sqrt(var.astype(float))


# (spec, tau2, n, side of the square of sites): condition numbers of
# Sigma about 1e9 and 5e7, where kriging from an explicit inverse of Sigma
# put the sd off by up to 1.8e-6
ILL_CONDITIONED = {
    "matern-2.5-tau2-0-n160": (CovarianceSpec("matern", kappa=2.5), 0.0, 160, 4.0),
    "gaussian-tau2-1e-6-n300": (CovarianceSpec("gaussian"), 1e-6, 300, 6.0),
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64")
@pytest.mark.parametrize("case", list(ILL_CONDITIONED))
def test_factor_kriging_matches_a_long_double_reference_when_sigma_is_ill_conditioned(case):
    # smooth covariances with little or no nugget: kriging from a factor
    # keeps its digits, whether the factor is handed in (the naive and
    # seminaive predictors) or formed inside krige (predict_saem, on a fit
    # that holds Sigma^{-1} as a fresh fit does)
    from geocens import SaemConfig, predict_saem
    from geocens.model import LogLik
    from geocens.saem import SaemFit

    spec, tau2, n, side = ILL_CONDITIONED[case]
    rng = np.random.default_rng(5)
    coords = rng.uniform(0, side, size=(n, 2))
    coords_pred = rng.uniform(0, side, size=(40, 2))
    params = ModelParams(beta=np.array([10.0]), cov=CovParams(sigma2=2.0, phi=1.0, tau2=tau2))
    lo = cholesky_sigma(distance_matrix(coords), spec, params.cov)
    z = 10.0 + lo @ rng.normal(size=n)  # a draw of the field
    x, x_pred = np.ones((n, 1)), np.ones((40, 1))
    mean, sd = long_double_kriging(params, x, z, coords, x_pred, coords_pred, spec)
    fit = SaemFit(
        params=params, zhat=z, zz_cc=np.zeros((0, 0)), loglik=LogLik(0.0),
        trace_params=params.as_array()[None],
        converged=True, iterations_used=1, config=SaemConfig(),
        data=SpatialDataset(coords=coords, value=z, cens=np.zeros(n, dtype=int)),
        trend=TrendSpec("cte"), spec=spec,
        precision=np.linalg.inv(build_sigma(distance_matrix(coords), spec, params.cov)),
    )
    for got in (krige(params, x, z, coords, x_pred, coords_pred, spec),
                krige(params, x, z, coords, x_pred, coords_pred, spec, factor=lo),
                predict_saem(fit, x_pred, coords_pred)):
        assert np.max(np.abs(got.sd - sd)) <= 1e-10
        assert np.max(np.abs(got.mean - mean)) <= 1e-10 * np.max(np.abs(mean))
