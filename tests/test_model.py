import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import multivariate_normal

from geocens import (
    ConfigurationError,
    CovarianceSpec,
    CovParams,
    DataValidationError,
    ModelParams,
    ModelSpecificationError,
    SpatialDataset,
    TrendSpec,
    build_trend,
    criteria,
    loglik,
    param_count,
    partition,
)
from geocens.model import impute_bounds

from oracles import conditional_cens_given_obs


def toy_dataset(seed=0, n=12, n_cens=3, cens_type="left"):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 5, size=(n, 2))
    values = rng.normal(1.0, 2.0, size=n)
    cens = np.zeros(n, dtype=int)
    idx = rng.choice(n, size=n_cens, replace=False)
    cens[idx] = 1
    if cens_type == "left":
        limits = values[idx] + 0.5
    else:
        limits = values[idx] - 0.5
    full_limits = np.zeros(n)
    full_limits[idx] = limits
    return SpatialDataset.from_censored(
        coords, values, cens, cens_type=cens_type, limits=full_limits
    )


def test_build_trend_cte():
    coords = np.zeros((4, 2))
    x = build_trend(coords, None, TrendSpec("cte"))
    assert_allclose(x, np.ones((4, 1)))


def test_build_trend_first():
    coords = np.array([[0.0, 0.0], [1.0, 2.0]])
    x = build_trend(coords, None, TrendSpec("first"))
    assert_allclose(x, [[1.0, 0.0, 0.0], [1.0, 1.0, 2.0]])


def test_build_trend_other_collinear_raises():
    coords = np.zeros((5, 2))
    x_extra = np.column_stack([np.ones(5), np.ones(5) * 2.0])
    with pytest.raises(ModelSpecificationError):
        build_trend(coords, x_extra, TrendSpec("other"))


def test_partition_all_observed():
    data = toy_dataset(n_cens=0)
    part = partition(data)
    assert part.cens_idx.size == 0
    assert part.obs_idx.size == data.n


def test_partition_all_censored():
    n = 6
    coords = np.random.default_rng(1).uniform(0, 1, size=(n, 2))
    data = SpatialDataset.from_censored(
        coords, np.ones(n), np.ones(n, dtype=int), limits=np.ones(n)
    )
    part = partition(data)
    assert part.obs_idx.size == 0
    assert part.cens_idx.size == n


def test_partition_mixed_block_shapes():
    data = toy_dataset(seed=3, n=5, n_cens=2)
    part = partition(data)
    assert part.obs_idx.size == 3 and part.cens_idx.size == 2
    assert sorted(np.concatenate([part.obs_idx, part.cens_idx])) == list(range(5))


def test_dataset_invariants():
    coords = np.zeros((3, 2))
    with pytest.raises(DataValidationError):
        SpatialDataset(coords=coords, value=[1.0, np.nan, 2.0], cens=[0, 0, 0])
    with pytest.raises(DataValidationError):
        SpatialDataset(coords=coords, value=[1.0, 1.0, 2.0], cens=[0, 2, 0])


@pytest.mark.parametrize("field", ["coords", "x_extra"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_coordinates_and_covariates(field, bad):
    # they used to surface later, in a Cholesky factor, an SVD or the variogram
    arrays = {"coords": np.arange(6.0).reshape(3, 2), "x_extra": np.ones((3, 2))}
    arrays[field][1, 1] = bad
    with pytest.raises(DataValidationError, match=f"{field} must be finite"):
        SpatialDataset(value=[1.0, 2.0, 3.0], cens=[0, 1, 0], upper=[np.inf, 2.0, np.inf],
                       **arrays)


def test_trend_matrix_rejects_non_finite_covariates():
    x_extra = np.array([[0.5], [np.nan]])
    with pytest.raises(DataValidationError, match="finite"):
        build_trend(np.zeros((2, 2)), x_extra, TrendSpec("other"))


@pytest.mark.parametrize("cens_type", ["left", "right", "interval"])
@pytest.mark.parametrize("lower,upper", [
    (-np.inf, np.inf), (np.nan, 2.0), (-np.inf, np.nan), (np.nan, np.nan), (0.5, np.nan),
], ids=["no-finite-bound", "nan-lower", "nan-upper", "nan-both", "finite-lower-nan-upper"])
def test_dataset_rejects_censored_row_without_a_usable_bound(cens_type, lower, upper):
    coords = np.arange(6.0).reshape(3, 2)
    with pytest.raises(DataValidationError, match="bound"):
        SpatialDataset(
            coords=coords, value=[1.0, 2.0, 3.0], cens=[0, 1, 0],
            lower=[-np.inf, lower, -np.inf], upper=[np.inf, upper, np.inf],
            cens_type=cens_type,
        )


def test_conditional_scalar_case():
    # One observed, one censored site at distance 1, exponential correlation,
    # unit sill, no nugget, zero trend, observed value 1:
    # mu = e^{-1} * 1, S = 1 - e^{-2}, by direct scalar algebra.
    coords = np.array([[0.0, 0.0], [1.0, 0.0]])
    data = SpatialDataset.from_censored(
        coords, np.array([1.0, 0.0]), np.array([0, 1]), limits=np.array([0.0, 0.0])
    )
    params = ModelParams(beta=[0.0], cov=CovParams(sigma2=1.0, phi=1.0, tau2=0.0))
    mu, s = conditional_cens_given_obs(
        params, data, TrendSpec("cte"), CovarianceSpec("exponential")
    )
    assert mu[0] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert s[0, 0] == pytest.approx(1.0 - np.exp(-2.0), rel=1e-12)


def test_conditional_independent_blocks():
    # with zero cross correlation the conditional law is the marginal one
    coords = np.array([[0.0, 0.0], [100.0, 100.0]])
    data = SpatialDataset.from_censored(
        coords, np.array([1.0, 0.0]), np.array([0, 1]), limits=np.array([0.0, 0.0])
    )
    params = ModelParams(beta=[0.3], cov=CovParams(sigma2=2.0, phi=0.5, tau2=0.1))
    mu, s = conditional_cens_given_obs(
        params, data, TrendSpec("cte"), CovarianceSpec("gaussian")
    )
    assert mu[0] == pytest.approx(0.3)
    assert s[0, 0] == pytest.approx(2.1)


def test_conditional_no_censored_rows_empty():
    data = toy_dataset(n_cens=0)
    params = ModelParams(beta=[0.0], cov=CovParams(sigma2=1.0, phi=1.0))
    mu, s = conditional_cens_given_obs(
        params, data, TrendSpec("cte"), CovarianceSpec("exponential")
    )
    assert mu.shape == (0,) and s.shape == (0, 0)


@pytest.mark.parametrize("n_obs", [0, 7, 12])
@pytest.mark.parametrize(
    "family,kappa",
    [("exponential", 0.0), ("gaussian", 0.0), ("spherical", 0.0), ("matern", 0.7),
     ("powered-exponential", 1.5)],
)
def test_conditional_given_obs_equals_dense_schur_complement(family, kappa, n_obs):
    # the blocks of one observed-first factor against the dense formulas,
    # including no observed rows (unconditional law) and no censored rows
    from geocens.covariance import build_sigma, distance_matrix
    from geocens.model import conditional_given_obs

    n = 12
    rng = np.random.default_rng(8)
    coords = rng.uniform(0, 5, size=(n, 2))
    spec = CovarianceSpec(family, kappa=kappa)
    sigma = build_sigma(distance_matrix(coords), spec, CovParams(sigma2=2.0, phi=1.5, tau2=0.3))
    mu_all = rng.normal(size=n)
    values = rng.normal(1.0, 2.0, size=n)
    mu, l_cc, logdens = conditional_given_obs(np.linalg.cholesky(sigma), mu_all, values, n_obs)
    cond = l_cc @ l_cc.T

    o, c = slice(0, n_obs), slice(n_obs, n)
    gain = np.linalg.solve(sigma[o, o], sigma[o, c]).T  # Sigma_co Sigma_oo^{-1}
    r = values[o] - mu_all[o]
    assert_allclose(mu, mu_all[c] + gain @ r, rtol=1e-12, atol=1e-12)
    assert_allclose(cond, sigma[c, c] - gain @ sigma[o, c], rtol=1e-12, atol=1e-12)
    want = -0.5 * (
        n_obs * np.log(2 * np.pi)
        + np.linalg.slogdet(sigma[o, o])[1]
        + r @ np.linalg.solve(sigma[o, o], r)
    )
    assert logdens == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_loglik_no_censoring_exact():
    data = toy_dataset(n_cens=0)
    spec = CovarianceSpec("exponential")
    params = ModelParams(beta=[0.5], cov=CovParams(sigma2=2.0, phi=1.5, tau2=0.3))
    ll = loglik(params, data, TrendSpec("cte"), spec, rng=0)
    from geocens.covariance import build_sigma, distance_matrix

    sigma = build_sigma(distance_matrix(data.coords), spec, params.cov)
    want = multivariate_normal.logpdf(data.value, np.full(data.n, 0.5), sigma)
    assert ll.value == pytest.approx(want, rel=1e-12)
    assert ll.se == 0.0


def test_loglik_factors_the_observed_block_once(monkeypatch):
    from geocens import covariance, mvn

    calls = []
    real = covariance.spd_cholesky

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    for mod in (covariance, mvn):
        monkeypatch.setattr(mod, "spd_cholesky", counted)
    data = toy_dataset(n=20, n_cens=5)
    params = ModelParams(beta=[0.5], cov=CovParams(sigma2=2.0, phi=1.5, tau2=0.3))
    loglik(params, data, TrendSpec("cte"), CovarianceSpec("exponential"), rng=0)
    assert len(calls) == 1


def test_loglik_infinite_rectangle_equals_subset():
    # a censored row whose interval covers the whole line in double
    # precision contributes probability one (a row with no finite bound is
    # rejected by the dataset)
    data = toy_dataset(seed=5, n=8, n_cens=0)
    cens = data.cens.copy()
    cens[2] = 1
    upper = np.full(8, np.inf)
    upper[2] = 1e300
    with_inf = SpatialDataset(
        coords=data.coords,
        value=data.value,
        cens=cens,
        lower=None,
        upper=upper,
        cens_type="interval",
    )
    keep = np.arange(8) != 2
    subset = SpatialDataset(
        coords=data.coords[keep], value=data.value[keep], cens=data.cens[keep]
    )
    spec = CovarianceSpec("gaussian")
    params = ModelParams(beta=[0.0], cov=CovParams(sigma2=1.0, phi=1.0, tau2=0.2))
    ll_inf = loglik(params, with_inf, TrendSpec("cte"), spec, rng=1)
    ll_sub = loglik(params, subset, TrendSpec("cte"), spec, rng=1)
    assert ll_inf.value == pytest.approx(ll_sub.value, abs=1e-10)


def test_loglik_row_permutation_invariant():
    data = toy_dataset(seed=9, n=10, n_cens=3)
    spec = CovarianceSpec("exponential")
    params = ModelParams(beta=[1.0], cov=CovParams(sigma2=2.0, phi=1.0, tau2=0.2))
    perm = np.random.default_rng(2).permutation(10)
    permuted = SpatialDataset(
        coords=data.coords[perm],
        value=data.value[perm],
        cens=data.cens[perm],
        lower=data.lower[perm],
        upper=data.upper[perm],
        cens_type=data.cens_type,
    )
    ll_a = loglik(params, data, TrendSpec("cte"), spec, rng=7)
    ll_b = loglik(params, permuted, TrendSpec("cte"), spec, rng=7)
    assert ll_a.value == pytest.approx(ll_b.value, abs=1e-9)


def test_conditional_covariance_spd():
    # the conditional covariance of the censored block inherits positive
    # definiteness from the full covariance
    for seed in range(5):
        data = toy_dataset(seed=seed, n=14, n_cens=5)
        params = ModelParams(
            beta=[0.5], cov=CovParams(sigma2=1.5, phi=1.2, tau2=0.05)
        )
        _, s = conditional_cens_given_obs(
            params, data, TrendSpec("cte"), CovarianceSpec("matern", kappa=1.0)
        )
        assert np.linalg.eigvalsh(s).min() > 0


def test_loglik_without_a_seed_names_the_seed():
    data = toy_dataset(seed=3, n_cens=3)
    params = ModelParams(beta=[1.0], cov=CovParams(2.0, 1.5, 0.3))
    with pytest.raises(ConfigurationError, match="seed"):
        loglik(params, data, TrendSpec("cte"), CovarianceSpec("exponential"))


def test_impute_bounds_takes_the_finite_bound_or_the_interval_midpoint():
    coords = np.random.default_rng(4).uniform(0, 1, size=(4, 2))
    data = SpatialDataset(
        coords=coords,
        value=np.array([5.0, 2.0, 4.0, 3.0]),
        cens=np.array([0, 1, 1, 1]),
        lower=np.array([-np.inf, -np.inf, 1.0, 2.5]),
        upper=np.array([np.inf, 2.0, 2.0, np.inf]),
        cens_type="interval",
    )
    assert impute_bounds(data).tolist() == [5.0, 2.0, 1.5, 2.5]


def test_loglik_zero_probability_rectangle():
    # a censored interval so far in the tail that its probability underflows
    # to 0 in double precision; its log does not, and the likelihood is the
    # observed block's density times the 1-D conditional probability, whose
    # upper bound adds nothing at 1e5 sd: log Phi(-(1e5 - mu) / sd)
    from scipy.special import log_ndtr

    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    data = SpatialDataset(
        coords=coords,
        value=np.array([0.0, 0.1, 1e5]),
        cens=np.array([0, 0, 1]),
        lower=np.array([-np.inf, -np.inf, 1e5]),
        upper=np.array([np.inf, np.inf, 1e5 + 1.0]),
        cens_type="interval",
    )
    params = ModelParams(beta=[0.0], cov=CovParams(sigma2=1.0, phi=1.0))
    ll = loglik(params, data, TrendSpec("cte"), CovarianceSpec("exponential"), rng=0)
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    sigma = np.exp(-dist)
    w = np.linalg.solve(sigma[:2, :2], sigma[:2, 2])
    mu, sd = w @ data.value[:2], np.sqrt(sigma[2, 2] - w @ sigma[:2, 2])
    want = (multivariate_normal.logpdf(data.value[:2], np.zeros(2), sigma[:2, :2])
            + log_ndtr(-(1e5 - mu) / sd))
    assert np.isfinite(ll.value) and ll.cens_prob == 0.0
    assert ll.value == pytest.approx(want, rel=1e-12)
    assert ll.se == 0.0


def test_criteria_reference_values():
    # print-summary consistency: loglik -353.601 with 6 parameters and 100
    # sites gives AIC 719.202, BIC 734.833, corrected AIC 720.105
    crit = criteria(-353.601, 6, 100)
    assert crit.aic == pytest.approx(719.202, abs=1e-3)
    assert crit.bic == pytest.approx(734.833, abs=1e-3)
    assert crit.aicc == pytest.approx(720.105, abs=1e-3)


def test_criteria_zero_case():
    crit = criteria(0.0, 0, 10)
    assert (crit.aic, crit.bic, crit.aicc) == (0.0, 0.0, 0.0)


def test_criteria_hand_computed():
    crit = criteria(-10.0, 2, 20)
    assert crit.aic == pytest.approx(24.0)
    assert crit.bic == pytest.approx(20.0 + 2 * np.log(20))
    assert crit.aicc == pytest.approx(24.0 + 12.0 / 17.0)


def test_criteria_small_n_aicc_absent():
    assert criteria(-5.0, 4, 5).aicc is None


def test_param_count():
    assert param_count(3, nugget_fixed=False) == 6
    assert param_count(3, nugget_fixed=True) == 5
