import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize
from scipy.stats import multivariate_normal

from geocens import (
    CovarianceSpec,
    CovParams,
    ModelParams,
    RngState,
    SaemConfig,
    SeminaiveConfig,
    SpatialDataset,
    TrendSpec,
    cm_step,
    delta_schedule,
    krige,
    loglik,
    predict_saem,
    saem_fit,
    tmvn_gibbs,
)
from geocens.covariance import Lags, build_sigma, cholesky_sigma, correlation, distance_matrix
from geocens.model import build_trend, conditional_given_obs, partition
from geocens.mvn import Rectangle
from geocens.profile import profile_objective
from geocens.saem import STOP_WINDOW, _e_step, dense_second_moment, path_drift
from geocens.simulate import SimConfig, simulate_scl

from oracles import censored_pair_loglik, conditional_cens_given_obs, gaussian_ml_oracle

SPEC_EXP = CovarianceSpec("exponential")


def test_delta_schedule_values():
    assert delta_schedule(1, 200, 0.2) == 1.0
    assert delta_schedule(40, 200, 0.2) == 1.0  # cut point is ceil(0.2*200)=40
    assert delta_schedule(41, 200, 0.2) == 1.0  # first decaying step is 1/(41-40)
    assert delta_schedule(42, 200, 0.2) == pytest.approx(0.5)
    assert delta_schedule(140, 200, 0.2) == pytest.approx(0.01)


def test_config_validation_and_m_warning():
    with pytest.raises(Exception):
        SaemConfig(m=0)
    with pytest.warns(UserWarning):
        SaemConfig(m=25)


@pytest.mark.parametrize("field, value", [
    ("tol", np.nan), ("lower", (np.nan, 1e-4)), ("upper", (20.0, np.nan)),
])
def test_config_rejects_nan_settings(field, value):
    # a NaN tolerance never stops the fit, and a NaN bound is no box
    from geocens.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        SaemConfig(**{field: value})


@pytest.mark.parametrize("lower, upper, named", [
    ((1e-4, 1e-4), (np.inf, 10.0), "upper phi bound must be finite"),
    ((1e-4, 1e-4), (20.0, np.inf), "upper nu2 bound must be finite"),
    ((-np.inf, 1e-4), (20.0, 10.0), "lower phi bound must be finite"),
    ((0.05, -np.inf), (20.0, 10.0), "lower nu2 bound must be finite"),
    ((0.0, 0.0), (20.0, 10.0), "lower phi bound must be > 0"),
    ((-1.0, 0.0), (20.0, 10.0), "lower phi bound must be > 0"),
    ((0.0,), (20.0,), "lower phi bound must be > 0"),
    ((0.05, -0.1), (20.0, 10.0), "lower nu2 bound must be >= 0"),
    ((20.0, 0.0), (0.05, 10.0), "lower phi bound must be below the upper"),
    ((0.05, 10.0), (20.0, 1.0), "lower nu2 bound must be below the upper"),
    ((0.05, 0.0, 0.0), (20.0, 10.0, 10.0), "has 3 lower and 3 upper components"),
    ((0.05, 0.0), (20.0,), "has 2 lower and 1 upper components"),
])
def test_config_rejects_a_search_box_that_breaks_the_search(lower, upper, named):
    # an infinite bound is always epsilon-active, so the search left that
    # coordinate at its start in every iteration; phi = 0 is no correlation;
    # a reversed box or one of another length is no box over (phi, nu2)
    from geocens.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match=f"search box {named}"):
        SaemConfig(lower=lower, upper=upper)


@pytest.mark.parametrize("config, field, value", [
    (SaemConfig, "m", np.nan), (SaemConfig, "max_iter", np.nan), (SaemConfig, "m", 2.5),
    (SaemConfig, "max_iter", True), (SaemConfig, "m", 0), (SaemConfig, "max_iter", -3),
    (SeminaiveConfig, "max_iter", np.nan), (SeminaiveConfig, "max_iter", 2.5),
    (SeminaiveConfig, "max_iter", False),
])
def test_config_counts_must_be_integers_of_at_least_one(config, field, value):
    # NaN and fractions passed a "< 1" check and failed later with a
    # TypeError or ValueError inside the fit; a bool is no count
    from geocens.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match=f"{field} must be an integer >= 1"):
        config(**{field: value})
    assert config(**{field: np.int64(3)})


SIM_BASE = dict(n_est=40, n_pred=5, beta=[10.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
                spec=SPEC_EXP)


@pytest.mark.parametrize("config, field, value, least", [
    (SaemConfig, "seed", np.nan, 0), (SaemConfig, "seed", 1.5, 0), (SaemConfig, "seed", True, 0),
    (SaemConfig, "seed", -1, 0),
    (SimConfig, "seed", np.nan, 0), (SimConfig, "seed", 1.5, 0), (SimConfig, "seed", True, 0),
    (SimConfig, "n_est", 40.5, 1), (SimConfig, "n_est", np.nan, 1), (SimConfig, "n_est", True, 1),
    (SimConfig, "n_est", 0, 1), (SimConfig, "n_pred", 2.5, 0), (SimConfig, "n_pred", np.nan, 0),
    (SimConfig, "n_pred", -1, 0),
], ids=lambda v: repr(v) if not isinstance(v, type) else v.__name__)
def test_config_seeds_and_site_counts_must_be_integers(config, field, value, least):
    # a NaN seed failed inside the fit, a fractional or bool seed fitted as
    # another seed, and a fractional or NaN site count raised numpy's
    # TypeError; each is named in a ConfigurationError
    from geocens.errors import ConfigurationError

    base = SIM_BASE if config is SimConfig else {}
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer >= {least}"):
        config(**{**base, field: value})
    assert config(**{**base, field: np.int64(least)})


@pytest.mark.parametrize("start", [
    {"init_sigma2": 1.5}, {"init_phi": 1.0},
    {"init_sigma2": -1.0, "init_phi": 1.0}, {"init_sigma2": 1.0, "init_phi": 0.0},
    {"init_sigma2": np.inf, "init_phi": 1.0}, {"init_sigma2": 1.0, "init_phi": np.nan},
    {"init_nugget": -0.1}, {"init_nugget": np.nan},
    {"init_sigma2": 1.0, "init_phi": 1.0, "init_nugget": np.inf},
], ids=["sigma2-alone", "phi-alone", "negative-sigma2", "zero-phi", "infinite-sigma2",
        "nan-phi", "negative-nugget", "nan-nugget", "infinite-nugget"])
def test_config_rejects_a_half_or_invalid_start(start):
    # a start given by half used to fall back to the variogram start while
    # the config still recorded the half that was given
    from geocens.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="initial"):
        SaemConfig(**start)


@pytest.mark.parametrize("nugget_fixed, lower, upper", [
    (False, (0.05,), (5.0,)),
    (False, (0.05, 1e-4, 1e-4), (5.0, 10.0, 10.0)),
    (True, (0.05, 1e-4, 1e-4), (5.0, 10.0, 10.0)),
], ids=["free-nugget-1", "free-nugget-3", "fixed-nugget-3"])
def test_saem_fit_rejects_box_that_does_not_match_the_search(nugget_fixed, lower, upper):
    # a free nugget searches (phi, nu2), a fixed one phi alone (a second
    # component is allowed and ignored); any other box length is an error,
    # raised by the config for three components and by the fit for one
    from geocens.errors import ConfigurationError

    spec = CovarianceSpec("exponential", nugget_fixed=nugget_fixed)
    with pytest.raises(ConfigurationError, match="search box"):
        config = SaemConfig(m=5, max_iter=3, init_sigma2=2.0, init_phi=1.0,
                            lower=lower, upper=upper, seed=1)
        saem_fit(sim_left(seed=3, n=60, cens=0.0).data, TrendSpec("cte"), spec, config)


def sim_left(seed=0, n=40, cens=0.2, n_pred=0):
    return simulate_scl(
        SimConfig(
            n_est=n,
            n_pred=n_pred,
            beta=[2.0],
            cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
            spec=SPEC_EXP,
            cens_level=cens,
            coord_box=((0.0, 6.0), (0.0, 6.0)),
            seed=seed,
        )
    )


def base_config(**kw):
    defaults = dict(
        m=10,
        max_iter=50,
        pc=0.2,
        init_sigma2=1.0,
        init_phi=1.0,
        init_nugget=0.1,
        lower=(0.05, 1e-4),
        upper=(20.0, 10.0),
        tol=0.0,
        seed=5,
    )
    defaults.update(kw)
    return SaemConfig(**defaults)


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------


PARAMS = ModelParams(beta=[2.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2))


def conditional_law(data, params=PARAMS):
    """The censored block's conditional mean and covariance factor from one
    factor of Sigma over the sites ordered observed first, as the fit forms
    them, with the block's rectangle and indices."""
    part = partition(data)
    order = part.order
    x = build_trend(data.coords, None, TrendSpec("cte"))[order]
    lo = cholesky_sigma(distance_matrix(data.coords[order]), SPEC_EXP, params.cov)
    mu, l_cc, _ = conditional_given_obs(lo, x @ params.beta, data.value[order],
                                        part.obs_idx.size)
    cen = part.cens_idx
    return mu, l_cc, Rectangle(data.lower[cen], data.upper[cen]), cen


def test_e_step_no_censoring_pins_moments():
    # with nothing censored no E-step runs: the first moment stays the
    # readings and the second their outer product
    data = sim_left(cens=0.0).data
    fit = saem_fit(data, TrendSpec("cte"), SPEC_EXP, base_config(max_iter=5))
    assert fit.zz_cc.shape == (0, 0)
    assert_allclose(fit.zhat, data.value)
    assert_allclose(fit.zzhat, np.outer(data.value, data.value))


def test_e_step_delta_one_replaces_with_mc_average():
    data = sim_left(seed=3).data
    mu, l_cc, rect, cen = conditional_law(data)
    m = base_config().m
    start = np.clip(data.value[cen], rect.lower, rect.upper)
    z_c, zz_cc, _ = _e_step(np.full(cen.size, -123.0), np.full((cen.size, cen.size), 99.0),
                            start, mu, l_cc, rect, 1.0, m, RngState(7))

    # replay the sampling with the same stream and average by hand
    mu, s = conditional_cens_given_obs(PARAMS, data, TrendSpec("cte"), SPEC_EXP)
    samples = tmvn_gibbs(mu, s, rect, n_samples=m, burn_in=0, rng=RngState(7), start=start)
    assert_allclose(z_c, samples.mean(axis=0), atol=1e-12)
    assert_allclose(zz_cc, samples.T @ samples / m, atol=1e-12)


def test_e_step_scalar_truncated_mean_recovery():
    # single left-censored site, nearly independent of the observed ones:
    # the running mean of memoryless iterations must approach the analytic
    # truncated-normal mean
    coords = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
    value = np.array([1.0, 1.2, 0.5])
    cens = np.array([1, 0, 0])
    data = SpatialDataset.from_censored(
        coords, value, cens, cens_type="left", limits=np.array([1.0, 0.0, 0.0])
    )
    mu, l_cc, rect, _ = conditional_law(
        data, ModelParams(beta=[0.0], cov=CovParams(sigma2=1.0, phi=1.0, tau2=0.0)))
    z_c, zz_cc, chain = data.value[:1].copy(), np.full((1, 1), data.value[0] ** 2), data.value[:1]
    rng = RngState(11)
    draws = []
    for _ in range(300):  # step size one: never leaves warm-up
        z_c, zz_cc, chain = _e_step(z_c, zz_cc, chain, mu, l_cc, rect, 1.0, 15, rng)
        draws.append(z_c[0])
    draws = np.asarray(draws)
    # analytic mean of N(0,1) truncated to (-inf, 1]
    from scipy.stats import norm

    alpha = 1.0
    want = -norm.pdf(alpha) / norm.cdf(alpha)
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean() - want) < 4 * se


def censored_dataset(kind, seed=3):
    """An n=40 simulation censored on the left, the right, or on intervals
    (the left-censored rows with a lower bound under their upper one)."""
    data = simulate_scl(SimConfig(
        n_est=40, n_pred=0, beta=[2.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
        spec=SPEC_EXP, cens_level=0.3, cens_type="right" if kind == "right" else "left",
        coord_box=((0.0, 6.0), (0.0, 6.0)), seed=seed,
    )).data
    if kind != "interval":
        return data
    width = np.random.default_rng(seed).uniform(0.5, 2.0, data.n)
    lower = np.where(data.cens == 1, data.upper - width, -np.inf)
    return SpatialDataset(coords=data.coords, value=data.value, cens=data.cens,
                          lower=lower, upper=data.upper, cens_type="interval")


@pytest.mark.parametrize("kind", ["left", "right", "interval"])
def test_e_step_draws_from_the_factor_as_from_its_covariance(kind):
    # the E-step sweeps on the precision from L_cc; tmvn_gibbs factors
    # L_cc L_cc' and inverts it, so the draws agree to rounding
    data = censored_dataset(kind)
    mu, l_cc, rect, cen = conditional_law(data)
    m = 15
    start = np.clip(data.value[cen], rect.lower, rect.upper)
    z_c, zz_cc, chain = _e_step(data.value[cen], np.zeros((cen.size, cen.size)), start,
                                mu, l_cc, rect, 1.0, m, RngState(7))

    samples = tmvn_gibbs(mu, l_cc @ l_cc.T, rect, n_samples=m, burn_in=0, rng=RngState(7),
                         start=start)
    assert cen.size > 5
    assert_allclose(chain, samples[-1], rtol=1e-12)
    assert_allclose(z_c, samples.mean(axis=0), rtol=1e-12)
    assert_allclose(zz_cc, samples.T @ samples / m, rtol=1e-12)


def test_e_step_draws_one_uniform_per_coordinate_update():
    # m sweeps of n_c coordinates, every one kept: no burn-in is discarded
    data = censored_dataset("left")
    mu, l_cc, rect, cen = conditional_law(data)
    m, n_c = 15, cen.size
    rng = RngState(7)
    _e_step(data.value[cen], np.zeros((n_c, n_c)), data.value[cen], mu, l_cc, rect, 1.0, m, rng)

    want = RngState(7).generator
    want.random(m * n_c)
    assert n_c > 5
    assert rng.generator.bit_generator.state == want.bit_generator.state


def test_e_step_continues_the_chain_of_the_last_one():
    # the second E-step makes its m transitions from the chain the first
    # one left, under the law at the new parameters
    data = censored_dataset("interval")
    m = 10
    mu, l_cc, rect, cen = conditional_law(data)
    rng = RngState(7)
    start = np.clip(data.value[cen], rect.lower, rect.upper)
    z_c, zz_cc, chain = _e_step(data.value[cen], np.zeros((cen.size, cen.size)), start,
                                mu, l_cc, rect, 1.0, m, rng)

    replay = RngState(7).generator
    replay.bit_generator.state = rng.generator.bit_generator.state
    second = ModelParams(beta=[1.5], cov=CovParams(sigma2=2.5, phi=0.8, tau2=0.3))
    mu, l_cc, _, _ = conditional_law(data, second)
    z_c, zz_cc, last = _e_step(z_c, zz_cc, chain, mu, l_cc, rect, 1.0, m, rng)

    samples = tmvn_gibbs(mu, l_cc @ l_cc.T, rect, n_samples=m, burn_in=0, rng=replay,
                         start=chain)
    assert_allclose(last, samples[-1], rtol=1e-12)
    assert_allclose(z_c, samples.mean(axis=0), rtol=1e-12)
    assert_allclose(zz_cc, samples.T @ samples / m, rtol=1e-12)


@pytest.mark.parametrize("cens", [0.3, 0.0])
def test_saem_fit_runs_one_e_step_per_iteration_with_censored_sites(monkeypatch, cens):
    # one E-step per iteration, at that iteration's step size, each from
    # the chain the last one left (the first from the imputed bounds);
    # with nothing censored there is nothing to sample and none runs
    from geocens import saem
    from geocens.model import impute_bounds

    calls = []
    e_step = saem._e_step

    def counted(*args):
        calls.append((args[2].copy(), args[6], e_step(*args)))
        return calls[-1][2]

    monkeypatch.setattr(saem, "_e_step", counted)
    data = sim_left(seed=22, cens=cens).data
    fit = saem_fit(data, TrendSpec("cte"), SPEC_EXP, base_config(max_iter=7, pc=0.5))
    assert fit.iterations_used == 7
    want = [delta_schedule(k, 7, 0.5) for k in range(1, 8)] if cens else []
    assert [delta for _, delta, _ in calls] == want
    if cens:
        starts = [chain for chain, _, _ in calls]
        assert np.array_equal(starts[0], impute_bounds(data)[partition(data).cens_idx])
        for start, (_, _, (_, _, last)) in zip(starts[1:], calls):
            assert np.array_equal(start, last)


# ---------------------------------------------------------------------------
# CM-step
# ---------------------------------------------------------------------------


def test_cm_step_beta_is_gls():
    # the trend is profiled: the GLS fit under Sigma at the returned point
    res = sim_left(cens=0.0, seed=9)
    data = res.data
    x = build_trend(data.coords, None, TrendSpec("cte"))
    dist = distance_matrix(data.coords)
    prev = ModelParams(beta=[0.0], cov=CovParams(sigma2=1.5, phi=0.8, tau2=0.3))
    zhat = data.value
    zzhat = np.outer(zhat, zhat)
    cfg = base_config()
    new = cm_step(zhat, zzhat, np.arange(data.n), x, Lags(dist), SPEC_EXP, cfg, prev.cov).params
    si = np.linalg.inv(build_sigma(dist, SPEC_EXP, new.cov))
    want = np.linalg.solve(x.T @ si @ x, x.T @ si @ zhat)
    assert_allclose(new.beta, want, rtol=1e-10)


def test_cm_step_square_design_residual_free_sill():
    # with a square invertible design the fitted mean interpolates zhat, so
    # the profiled sill q / n at the returned (phi, nu2) is the pure trace
    # term
    coords = np.array([[0.0, 0.0], [1.0, 0.0]])
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    dist = distance_matrix(coords)
    prev = ModelParams(beta=[0.0, 0.0], cov=CovParams(sigma2=1.0, phi=1.0, tau2=0.0))
    zhat = np.array([0.7, -0.4])
    zzhat = np.outer(zhat, zhat) + 0.5 * np.eye(2)
    cfg = base_config()
    new = cm_step(zhat, zzhat, np.arange(2), x, Lags(dist), SPEC_EXP, cfg, prev.cov).params
    psi_inv = np.linalg.inv(build_sigma(dist, SPEC_EXP, new.cov) / new.cov.sigma2)
    want = np.sum((zzhat - np.outer(zhat, zhat)) * psi_inv) / 2.0
    assert new.cov.sigma2 == pytest.approx(want, rel=1e-10)


def test_cm_step_dominates_random_feasible_points():
    res = sim_left(seed=13)
    data = res.data
    x = build_trend(data.coords, None, TrendSpec("cte"))
    dist = distance_matrix(data.coords)
    prev = ModelParams(beta=[1.5], cov=CovParams(sigma2=1.0, phi=1.0, tau2=0.2))
    zhat = data.value.astype(float)
    zzhat = np.outer(zhat, zhat) + 0.1 * np.eye(data.n)
    cfg = base_config()
    new = cm_step(zhat, zzhat, np.arange(data.n), x, Lags(dist), SPEC_EXP, cfg, prev.cov).params

    def profile(phi, nu2, sigma2, beta):
        psi = correlation("exponential", 0.0, dist, phi) + nu2 * np.eye(data.n)
        sig = sigma2 * psi
        si = np.linalg.inv(sig)
        mu = x @ beta
        quad = np.sum(zzhat * si) - 2 * zhat @ si @ mu + mu @ si @ mu
        return -0.5 * (np.linalg.slogdet(sig)[1] + quad)

    attained = profile(new.cov.phi, new.cov.nu2, new.cov.sigma2, new.beta)
    rng = np.random.default_rng(17)
    for _ in range(25):
        phi = rng.uniform(*[cfg.lower[0], cfg.upper[0]])
        nu2 = rng.uniform(cfg.lower[1], min(cfg.upper[1], 3.0))
        assert attained >= profile(phi, nu2, new.cov.sigma2, new.beta) - 1e-6


def test_cm_step_censored_block_equals_dense_moments():
    # the block form (zz of the censored rows only) and the dense form
    # (idx = all rows, full n x n second moment) are the same objective
    res = sim_left(seed=14, cens=0.3)
    data = res.data
    x = build_trend(data.coords, None, TrendSpec("cte"))
    dist = distance_matrix(data.coords)
    prev = ModelParams(beta=[1.5], cov=CovParams(sigma2=1.0, phi=1.0, tau2=0.2))
    cen = np.flatnonzero(data.cens == 1)
    assert 0 < cen.size < data.n
    rng = np.random.default_rng(3)
    zhat = data.value.astype(float)
    zhat[cen] = data.upper[cen] - rng.uniform(0.1, 0.5, cen.size)
    w = rng.normal(size=(cen.size, cen.size + 2))
    zz_cc = np.outer(zhat[cen], zhat[cen]) + w @ w.T / (cen.size + 2)
    zzhat = dense_second_moment(zhat, zz_cc, cen)
    for spec, cfg in [
        (SPEC_EXP, base_config()),
        (
            CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.2),
            base_config(lower=(0.05,), upper=(20.0,)),
        ),
    ]:
        block = cm_step(zhat, zz_cc, cen, x, Lags(dist), spec, cfg, prev.cov).params
        dense = cm_step(zhat, zzhat, np.arange(data.n), x, Lags(dist), spec, cfg, prev.cov).params
        assert_allclose(block.as_array(), dense.as_array(), rtol=1e-10)


# ---------------------------------------------------------------------------
# full loop
# ---------------------------------------------------------------------------


def test_saem_zero_censoring_matches_ml_oracle():
    data = sim_left(cens=0.0, seed=20, n=50).data
    cfg = base_config(max_iter=120, tol=0.0, seed=2)
    fit = saem_fit(data, TrendSpec("cte"), SPEC_EXP, cfg)
    assert fit.iterations_used == cfg.max_iter
    _assert_matches_ml_oracle(fit, data, cfg)


def _assert_matches_ml_oracle(fit, data, cfg):
    # the oracle searches what the fit searches: (phi, nu2) from the
    # config's start within its box, or phi alone for a nugget fixed at 0
    spec = fit.spec
    tau2 = spec.fixed_nugget_value if spec.nugget_fixed else None
    init, bounds = [cfg.init_phi], [(cfg.lower[0], cfg.upper[0])]
    if tau2 != 0.0:
        init.append((cfg.init_nugget if tau2 is None else tau2) / cfg.init_sigma2)
        bounds.append((cfg.lower[1], cfg.upper[1]))
    beta_o, s2_o, phi_o, tau2_o, ll_o = gaussian_ml_oracle(
        data.value,
        build_trend(data.coords, None, TrendSpec("cte")),
        distance_matrix(data.coords),
        lambda d, phi: correlation(spec.family, spec.kappa, d, phi),
        init=init,
        bounds=bounds,
        tau2=tau2,
    )
    assert_allclose(fit.params.beta, beta_o, rtol=1e-4)
    assert fit.params.cov.sigma2 == pytest.approx(s2_o, rel=1e-4)
    assert fit.params.cov.phi == pytest.approx(phi_o, rel=1e-4)
    assert fit.params.cov.tau2 == pytest.approx(tau2_o, rel=1e-4, abs=1e-6)
    assert fit.loglik.value == pytest.approx(ll_o, abs=1e-6)


@pytest.mark.parametrize("nugget", [None, 0.0, 0.2, 0.5],
                         ids=["free", "fixed-0", "fixed-0.2", "fixed-0.5"])
@pytest.mark.parametrize("family", [SPEC_EXP, CovarianceSpec("matern", kappa=1.5)],
                         ids=["exponential", "matern-1.5"])
def test_saem_uncensored_fit_lands_on_the_gaussian_mle(family, nugget):
    # with nothing censored the completed log-likelihood is the
    # log-likelihood, so each M-step maximizes it and the fit must end at
    # its maximizer, whatever the nugget path (criterion 4's design)
    data = simulate_scl(SimConfig(
        n_est=50, n_pred=0, beta=[2.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
        spec=family, cens_level=0.0, coord_box=((0.0, 6.0), (0.0, 6.0)), seed=20,
    )).data
    spec = family if nugget is None else CovarianceSpec(
        family.family, kappa=family.kappa, nugget_fixed=True, fixed_nugget_value=nugget)
    cfg = base_config(max_iter=120, tol=0.0, seed=2)
    fit = saem_fit(data, TrendSpec("cte"), spec, cfg)
    assert fit.iterations_used == cfg.max_iter
    _assert_matches_ml_oracle(fit, data, cfg)


def exact_censored_mle(data, tau2):
    """``(beta, sigma2, phi, tau2)`` maximizing the exact likelihood of
    :func:`oracles.censored_pair_loglik` by Nelder-Mead over ``beta`` and
    the logs of the others (``tau2`` held when given), from the
    simulation's parameters and restarted once where the first run ended."""
    def nll(t):
        nugget = np.exp(t[3]) if tau2 is None else tau2
        return -censored_pair_loglik(t[0], np.exp(t[1]), np.exp(t[2]), nugget,
                                     data.coords, data.value, data.cens)

    t = [2.0, np.log(2.0), 0.0] + ([np.log(0.2)] if tau2 is None else [])
    for _ in range(2):
        t = minimize(nll, t, method="Nelder-Mead",
                     options={"xatol": 1e-9, "fatol": 1e-12, "maxfev": 20_000}).x
    return np.array([t[0], np.exp(t[1]), np.exp(t[2]), np.exp(t[3]) if tau2 is None else tau2])


@pytest.mark.parametrize("tau2", [0.0, None, 0.2], ids=["fixed-0", "free", "fixed-0.2"])
def test_saem_censored_fit_lands_on_the_exact_mle(tau2):
    # SAEM converges to a stationary point of the observed likelihood
    # (Delyon, Lavielle & Moulines 1999): on 16 sites with 2 censored, where
    # that likelihood is exact by one-dimensional quadrature, six long fits
    # must average within 3 standard errors of its maximizer.  On this
    # design the free-nugget maximizer holds tau2 (1.17) inside the box,
    # so tau2 is compared there
    data = simulate_scl(SimConfig(
        n_est=16, n_pred=0, beta=[2.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
        spec=SPEC_EXP, cens_level=0.125, coord_box=((0.0, 4.0), (0.0, 4.0)), seed=5,
    )).data
    assert data.n_censored == 2
    spec = SPEC_EXP if tau2 is None else CovarianceSpec(
        "exponential", nugget_fixed=True, fixed_nugget_value=tau2)
    fits = np.array([
        saem_fit(data, TrendSpec("cte"), spec,
                 SaemConfig(m=15, max_iter=300, tol=0.0, seed=seed)).params.as_array()
        for seed in range(6)
    ])
    mle = exact_censored_mle(data, tau2)
    compared = [0, 1, 2]
    if tau2 is None and mle[3] > 1e-3 * (mle[1] + mle[3]):
        compared.append(3)
    mean = fits.mean(axis=0)[compared]
    se = fits.std(axis=0, ddof=1)[compared] / np.sqrt(len(fits))
    assert np.all(np.abs(mean - mle[compared]) <= 3.0 * se), (mean, mle[compared], se)


def test_saem_deterministic_given_seed():
    res = sim_left(seed=21)
    cfg = base_config(max_iter=15, seed=77)
    a = saem_fit(res.data, TrendSpec("cte"), SPEC_EXP, cfg)
    b = saem_fit(res.data, TrendSpec("cte"), SPEC_EXP, cfg)
    assert np.array_equal(a.params.as_array(), b.params.as_array())
    assert np.array_equal(a.zhat, b.zhat)
    assert np.array_equal(a.zzhat, b.zzhat)
    assert a.loglik.value == b.loglik.value


def test_saem_fit_invariants():
    res = sim_left(seed=22)
    cfg = base_config(max_iter=20)
    fit = saem_fit(res.data, TrendSpec("cte"), SPEC_EXP, cfg)
    obs = res.data.cens == 0
    assert_allclose(fit.zhat[obs], res.data.value[obs])
    assert_allclose(fit.zzhat, fit.zzhat.T)
    eig = np.linalg.eigvalsh(fit.zzhat - np.outer(fit.zhat, fit.zhat))
    assert eig.min() > -1e-6
    cens = ~obs
    # censored conditional means respect the censoring interval
    assert np.all(fit.zhat[cens] <= res.data.upper[cens])
    assert fit.iterations_used == 20
    assert not fit.converged  # tol=0 never triggers


def test_saem_fit_stores_only_the_censored_second_moment():
    res = sim_left(seed=22)
    fit = saem_fit(res.data, TrendSpec("cte"), SPEC_EXP, base_config(max_iter=8))
    cen = res.data.cens == 1
    assert fit.zz_cc.shape == (cen.sum(), cen.sum())
    zzhat = fit.zzhat
    outside = ~np.outer(cen, cen)
    assert np.array_equal(zzhat[outside], np.outer(fit.zhat, fit.zhat)[outside])
    assert np.array_equal(zzhat[np.ix_(cen, cen)], fit.zz_cc)


def test_saem_fit_builds_sigma_once_per_parameter_point(monkeypatch):
    # budget outside the CM searches: the start point alone is built and
    # factored, over all n sites; every later point comes factored from the
    # search that found it, and neither the observed block nor the censored
    # block's conditional covariance is factored again
    from collections import Counter

    from geocens import covariance, mvn, profile

    counts = {"outside": 0, "searching": False}
    factors = Counter()
    corr_matrix, objective = covariance.corr_matrix, profile.profile_objective
    spd_cholesky = covariance.spd_cholesky

    def counted_corr(*args, **kwargs):
        counts["outside"] += not counts["searching"]
        return corr_matrix(*args, **kwargs)

    def counted_cholesky(mat, *args, **kwargs):
        if not counts["searching"]:
            factors[mat.shape[0]] += 1
        return spd_cholesky(mat, *args, **kwargs)

    def counted_objective(*args, **kwargs):
        counts["searching"] = True
        try:
            return objective(*args, **kwargs)
        finally:
            counts["searching"] = False

    data = sim_left(seed=22).data
    monkeypatch.setattr(covariance, "corr_matrix", counted_corr)
    monkeypatch.setattr(profile, "profile_objective", counted_objective)
    for mod in (covariance, mvn):
        monkeypatch.setattr(mod, "spd_cholesky", counted_cholesky)
    fit = saem_fit(data, TrendSpec("cte"), SPEC_EXP, base_config(max_iter=12))
    n_obs = data.n - data.n_censored
    assert 0 < n_obs < data.n
    assert fit.iterations_used == 12
    assert counts["outside"] == 1
    assert factors[data.n] == 1
    assert factors[n_obs] == 0 and factors[data.n_censored] == 0


def test_saem_fit_loglik_observed_block_is_the_dense_density():
    res = sim_left(seed=22)
    data = res.data
    fit = saem_fit(data, TrendSpec("cte"), SPEC_EXP, base_config(max_iter=8))
    obs = data.cens == 0
    sigma = build_sigma(distance_matrix(data.coords), SPEC_EXP, fit.params.cov)
    want = multivariate_normal.logpdf(data.value[obs], (fit.x @ fit.params.beta)[obs],
                                      sigma[np.ix_(obs, obs)])
    got = fit.loglik.value - np.log(fit.loglik.cens_prob)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("tol", [0.0, 0.05])
def test_saem_fit_estimates_the_likelihood_once_per_fit(monkeypatch, tol):
    # the loop never estimates the likelihood; the fit's loglik is one
    # estimate at the final point, whether the fit converges or runs out
    from geocens import model

    calls = []
    rect_prob = model.mvn_rect_prob

    def counted(*args, **kwargs):
        calls.append(rect_prob(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(model, "mvn_rect_prob", counted)
    fit = saem_fit(sim_left(seed=22).data, TrendSpec("cte"), SPEC_EXP,
                   base_config(max_iter=30, tol=tol))
    assert fit.converged == (tol > 0)
    assert len(calls) == 1
    assert fit.loglik.cens_prob == calls[0].prob
    assert not hasattr(fit, "trace_loglik")


def test_path_drift_is_scale_free_and_zero_on_a_still_path():
    rng = np.random.default_rng(0)
    cut = 7
    trace = 1.0 + 0.1 * rng.standard_normal((cut + 2 * STOP_WINDOW + 3, 4))
    trace[:, 3] = 0.0  # a parameter held at zero, as a fixed nugget of 0
    drift = path_drift(trace, cut)
    assert drift.shape == (4,)
    assert np.all(drift[:3] > 0) and drift[3] == 0.0
    assert_allclose(path_drift(25.0 * trace, cut), drift, rtol=1e-12)
    still = np.tile([2.0, 1.5, 0.3, 0.0], (cut + 2 * STOP_WINDOW, 1))
    assert np.array_equal(path_drift(still, cut), np.zeros(4))


def test_path_drift_measures_sigma2_and_tau2_on_the_sill():
    # a nugget near 0 that moves as little as sigma2 in absolute terms is
    # as settled as sigma2: both are measured against the sill, so the
    # nugget's own small size does not hold up the stop
    rng = np.random.default_rng(1)
    cut, w = 7, STOP_WINDOW
    trace = np.array([10.0, 1.5, 1.0, 0.04]) + 2e-4 * rng.standard_normal((cut + 2 * w + 5, 4))
    k, tail = trace.shape[0], trace[-2 * w:]
    last = tail[w:].mean(axis=0)
    steps = np.diff(tail, axis=0) * (np.arange(k - 2 * w + 2, k + 1) - cut)[:, None]
    change = np.abs(last - tail[:w].mean(axis=0)) + steps.std(axis=0, ddof=1) / np.sqrt(k - cut)
    sill = abs(last[1]) + abs(last[3])
    drift = path_drift(trace, cut)
    assert_allclose(drift, change / [abs(last[0]), sill, abs(last[2]), sill], rtol=1e-12)
    assert np.all(drift < 1e-2) and change[3] / last[3] > 1e-2


def test_a_fresh_saem_fit_peaks_below_eight_and_a_half_matrices():
    # the loop's peak: the distances, the held evaluation (L, potri's
    # triangle, dR/dphi) and the Hessian build's n x n arrays; the
    # parent's 8.9 n^2 also held Psi
    import tracemalloc

    n = 300
    res = simulate_scl(SimConfig(
        n_est=n, n_pred=0, beta=[10.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
        spec=SPEC_EXP, cens_level=0.1, coord_box=((0.0, 10.0), (0.0, 10.0)), seed=4,
    ))
    cfg = SaemConfig(m=5, max_iter=8, init_sigma2=1.5, init_phi=0.8, init_nugget=0.1,
                     lower=(0.05, 1e-4), upper=(20.0, 10.0), tol=0.0, seed=1)
    tracemalloc.start()
    try:
        fit = saem_fit(res.data, TrendSpec("cte"), SPEC_EXP, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.iterations_used == 8 and np.isfinite(fit.loglik.value)
    assert peak <= 8.5 * n * n * 8, peak / (n * n * 8)


def _first_settled(fit, tol):
    """First iteration at which every entry of path_drift is below tol."""
    cut = int(np.ceil(fit.config.pc * fit.config.max_iter))
    for k in range(cut + 2 * STOP_WINDOW, fit.config.max_iter + 1):
        if np.all(path_drift(fit.trace_params[:k], cut) < tol):
            return k
    return None


@pytest.mark.parametrize("cens, pc", [(0.2, 0.2), (0.0, 0.2), (0.2, 0.6)])
def test_saem_fit_never_stops_in_the_memoryless_phase(cens, pc):
    # even a tolerance every change passes waits for two windows of
    # post-cut iterates; with a late cut the fit runs to the cap
    cfg = base_config(max_iter=40, pc=pc, tol=1.0)
    fit = saem_fit(sim_left(seed=22, cens=cens).data, TrendSpec("cte"), SPEC_EXP, cfg)
    cut = int(np.ceil(pc * cfg.max_iter))
    assert fit.iterations_used > cut
    assert fit.iterations_used == min(cut + 2 * STOP_WINDOW, cfg.max_iter)
    assert fit.converged == (cut + 2 * STOP_WINDOW <= cfg.max_iter)


def test_saem_uncensored_fit_stops_early_and_matches_ml_oracle():
    # with no censoring the path is deterministic, so it settles and the
    # rule stops the fit well before the cap, at the Gaussian ML estimate
    data = sim_left(cens=0.0, seed=20, n=50).data
    cfg = base_config(max_iter=120, tol=1e-6, seed=2)
    fit = saem_fit(data, TrendSpec("cte"), SPEC_EXP, cfg)
    assert fit.converged
    assert fit.iterations_used < cfg.max_iter
    assert fit.iterations_used == _first_settled(fit, cfg.tol)
    _assert_matches_ml_oracle(fit, data, cfg)


def test_saem_censored_fit_with_a_loose_tol_stops_before_the_cap(monkeypatch):
    # the fit stops at the first iteration whose path drift, Monte Carlo
    # standard error included, is below tol for every parameter; the CM
    # search of that iteration, stopped after one step, is then run to
    # convergence on the same moments
    from geocens import saem

    calls, cm = [], saem.cm_step

    def recording(zhat, zz, idx, x, lags, spec, config, start, *args, **kwargs):
        out = cm(zhat, zz, idx, x, lags, spec, config, start, *args, **kwargs)
        calls.append((zhat.copy(), zz, idx, x, lags.dist, start, out))
        return out

    monkeypatch.setattr(saem, "cm_step", recording)
    cfg = base_config(max_iter=60, tol=0.05)
    fit = saem_fit(sim_left(seed=22, n=60).data, TrendSpec("cte"), SPEC_EXP, cfg)
    monkeypatch.undo()
    k = fit.iterations_used
    assert fit.converged
    assert k < cfg.max_iter
    # the same data and seed without the rule take the same path up to the
    # stop, whose iterate is the one the rule settled on
    full = saem_fit(sim_left(seed=22, n=60).data, TrendSpec("cte"), SPEC_EXP,
                    base_config(max_iter=60, tol=0.0))
    assert k == _first_settled(full, cfg.tol)
    assert np.array_equal(full.trace_params[: k - 1], fit.trace_params[:-1])
    assert np.array_equal(fit.trace_params[-1], fit.params.as_array())
    # the last row is the converged CM maximizer of the final moments: the
    # stopped search is continued from where it stopped, and a full search
    # from the previous iterate reaches the same objective
    assert len(calls) == k + 1 and calls[-1][-2] is calls[-2][-1].theta
    zhat, zz, idx, x, dist, _, _ = calls[-1]
    start = calls[-2][-2]
    want = cm_step(zhat, zz, idx, x, Lags(dist), SPEC_EXP, cfg, start).params
    got = fit.params
    cov_c = zz - np.outer(zhat[idx], zhat[idx])

    def value(cov):
        return profile_objective(np.array([cov.phi, cov.nu2]), Lags(dist), SPEC_EXP, zhat, x,
                                 cov_c, idx)[0]

    assert value(got.cov) == pytest.approx(value(want.cov), rel=1e-9, abs=1e-9)
    # the trend and sill are profiled at the search's end point, so they
    # move with the range and nugget
    assert_allclose(got.as_array(), want.as_array(), rtol=1e-3)


def test_saem_shift_equivariance():
    res = sim_left(seed=23)
    data = res.data
    cfg = base_config(max_iter=12, seed=3)
    fit0 = saem_fit(data, TrendSpec("cte"), SPEC_EXP, cfg)
    c = 25.0
    shifted = SpatialDataset(
        coords=data.coords,
        value=data.value + c,
        cens=data.cens,
        lower=data.lower + c,
        upper=data.upper + c,
        cens_type=data.cens_type,
    )
    fit1 = saem_fit(shifted, TrendSpec("cte"), SPEC_EXP, cfg)
    assert fit1.params.beta[0] == pytest.approx(fit0.params.beta[0] + c, abs=1e-6)
    assert fit1.params.cov.sigma2 == pytest.approx(fit0.params.cov.sigma2, rel=1e-6)
    assert fit1.params.cov.phi == pytest.approx(fit0.params.cov.phi, rel=1e-6)
    assert fit1.params.cov.tau2 == pytest.approx(fit0.params.cov.tau2, rel=1e-6)


def test_saem_scale_equivariance():
    res = sim_left(seed=24)
    data = res.data
    c = 3.0
    cfg0 = base_config(max_iter=12, seed=4)
    cfg1 = base_config(
        max_iter=12,
        seed=4,
        init_sigma2=cfg0.init_sigma2 * c**2,
        init_nugget=cfg0.init_nugget * c**2,
    )
    fit0 = saem_fit(data, TrendSpec("cte"), SPEC_EXP, cfg0)
    scaled = SpatialDataset(
        coords=data.coords,
        value=data.value * c,
        cens=data.cens,
        lower=data.lower * c,
        upper=data.upper * c,
        cens_type=data.cens_type,
    )
    fit1 = saem_fit(scaled, TrendSpec("cte"), SPEC_EXP, cfg1)
    assert fit1.params.beta[0] == pytest.approx(c * fit0.params.beta[0], rel=1e-4)
    assert fit1.params.cov.sigma2 == pytest.approx(
        c**2 * fit0.params.cov.sigma2, rel=1e-4
    )
    assert fit1.params.cov.tau2 == pytest.approx(c**2 * fit0.params.cov.tau2, rel=1e-4)
    assert fit1.params.cov.phi == pytest.approx(fit0.params.cov.phi, rel=1e-4)


def test_saem_loglik_trace_improves():
    # the log-likelihood along the post-cut parameter path, each point
    # estimated with the same seed (common random numbers), should rise
    # from its first value and show no sustained decrease
    res = sim_left(seed=25, n=50)
    cfg = base_config(max_iter=60, seed=6)
    fit = saem_fit(res.data, TrendSpec("cte"), SPEC_EXP, cfg)
    cut = 12  # ceil(0.2 * 60)
    evaluated = np.array([
        loglik(ModelParams(beta=row[:1], cov=CovParams(*row[1:])), res.data,
               TrendSpec("cte"), SPEC_EXP, rng=RngState(11)).value
        for row in fit.trace_params[cut:]
    ])
    assert evaluated.size >= 20
    noise = np.std(np.diff(evaluated[len(evaluated) // 2 :]))
    assert evaluated[-1] >= evaluated[0] - 2 * noise
    window = 20
    for i in range(len(evaluated) - window):
        assert evaluated[i + window] - evaluated[i] >= -4 * max(noise, 1e-8)


def test_predict_saem_no_censoring_equals_plain_krige():
    res = sim_left(cens=0.0, seed=26, n_pred=8)
    cfg = base_config(max_iter=30)
    fit = saem_fit(res.data, TrendSpec("cte"), SPEC_EXP, cfg)
    x_pred = np.ones((8, 1))
    via_fit = predict_saem(fit, x_pred, res.pred_coords)
    direct = krige(
        fit.params, fit.x, res.data.value, res.data.coords, x_pred,
        res.pred_coords, SPEC_EXP,
    )
    assert_allclose(via_fit.mean, direct.mean)
    assert_allclose(via_fit.sd, direct.sd)
    assert np.all(via_fit.sd > 0)


def test_saem_interval_censoring():
    # interval-censored rows are handled by the same machinery: readings
    # known only to lie in [v - 0.5, v + 0.7]
    res = sim_left(cens=0.0, seed=29, n=30)
    data = res.data
    rng = np.random.default_rng(1)
    idx = rng.choice(30, size=6, replace=False)
    cens = np.zeros(30, dtype=int)
    cens[idx] = 1
    lower = np.full(30, -np.inf)
    upper = np.full(30, np.inf)
    lower[idx] = data.value[idx] - 0.5
    upper[idx] = data.value[idx] + 0.7
    interval = SpatialDataset(
        coords=data.coords, value=data.value, cens=cens,
        lower=lower, upper=upper, cens_type="interval",
    )
    fit = saem_fit(interval, TrendSpec("cte"), SPEC_EXP, base_config(max_iter=12))
    assert np.all(fit.zhat[idx] >= lower[idx])
    assert np.all(fit.zhat[idx] <= upper[idx])
    assert np.isfinite(fit.loglik.value)


def test_saem_fit_starts_interval_data_without_initial_values():
    # the automatic start imputes interval rows at their midpoints and
    # one-sided rows at their finite bound
    res = sim_left(cens=0.0, seed=29, n=30)
    data = res.data
    lower, upper = np.full(30, -np.inf), np.full(30, np.inf)
    lower[:4], upper[:4] = data.value[:4] - 0.5, data.value[:4] + 0.7
    upper[4:6] = data.value[4:6] + 0.3
    lower[6:8] = data.value[6:8] - 0.3
    cens = (np.arange(30) < 8).astype(int)
    interval = SpatialDataset(
        coords=data.coords, value=data.value, cens=cens,
        lower=lower, upper=upper, cens_type="interval",
    )
    cfg = base_config(max_iter=12, init_sigma2=None, init_phi=None, init_nugget=None)
    fit = saem_fit(interval, TrendSpec("cte"), SPEC_EXP, cfg)
    assert np.all((fit.zhat[:8] >= lower[:8]) & (fit.zhat[:8] <= upper[:8]))
    assert np.isfinite(fit.loglik.value)
    assert np.all(np.isfinite(fit.params.as_array()))


def test_saem_recovery_simulated_censored_data():
    # 15% left censoring; the intercept estimate should sit within a few
    # standard errors of the generating value
    res = sim_left(seed=27, n=120, cens=0.15)
    cfg = base_config(max_iter=40, seed=8)
    fit = saem_fit(res.data, TrendSpec("cte"), SPEC_EXP, cfg)
    assert abs(fit.params.beta[0] - 2.0) < 0.8
    assert 0.3 < fit.params.cov.sigma2 < 8.0


PRECISION_SPECS = [
    CovarianceSpec("exponential"),
    CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.0),
    CovarianceSpec("exponential", nugget_fixed=True, fixed_nugget_value=0.2),
]
PRECISION_IDS = ["free", "fixed-zero", "fixed-0.2"]


@pytest.mark.parametrize("spec", PRECISION_SPECS, ids=PRECISION_IDS)
def test_fit_precision_is_the_inverse_in_data_order(spec):
    # the loop factors Sigma over the sites ordered observed first: the
    # fit's precision is put back in data order
    data = sim_left(seed=41, cens=0.3).data
    assert not np.array_equal(np.argsort(data.cens, kind="stable"), np.arange(data.n))
    fit = saem_fit(data, TrendSpec("cte"), spec, base_config(max_iter=8))
    want = np.linalg.inv(build_sigma(distance_matrix(data.coords), spec, fit.params.cov))
    got = fit.precision
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_fit_holds_no_more_n_by_n_arrays_than_the_precision():
    # the fit keeps the precision, not the distance matrix, until the
    # distances are read: the first read forms them from the coordinates
    # and keeps them, so every later read (each local_influence call)
    # adds nothing
    data = sim_left(seed=41, cens=0.3).data
    fit = saem_fit(data, TrendSpec("cte"), SPEC_EXP, base_config(max_iter=4))
    n, n_c = data.n, data.n_censored

    def held_bytes():
        return sum(v.nbytes for v in vars(fit).values() if isinstance(v, np.ndarray))

    budget = 8 * (n * n + n_c * n_c + fit.x.size + fit.trace_params.size + n)
    assert held_bytes() <= budget
    assert np.array_equal(fit.dist, distance_matrix(data.coords))
    assert held_bytes() <= budget + 8 * n * n
    assert fit.dist is fit.dist
    assert held_bytes() <= budget + 8 * n * n
