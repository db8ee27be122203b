import numpy as np
import pytest
from numpy.testing import assert_allclose

from geocens import (
    ConfigurationError,
    CovarianceSpec,
    CovParams,
    DataValidationError,
    SimConfig,
    TrendSpec,
    inject_outliers,
    simulate_scl,
)
from geocens.predict import empirical_variogram


def base_config(**kw):
    defaults = dict(
        n_est=200,
        n_pred=40,
        beta=[1.0],
        cov=CovParams(sigma2=2.0, phi=0.8, tau2=0.2),
        spec=CovarianceSpec("exponential"),
        cens_level=0.15,
        cens_type="left",
        trend=TrendSpec("cte"),
        coord_box=((0.0, 5.0), (0.0, 5.0)),
        seed=1,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def test_zero_censoring_has_no_censored_rows():
    res = simulate_scl(base_config(cens_level=0.0))
    assert res.data.n_censored == 0
    assert res.lod is None


@pytest.mark.parametrize("box", [((0.0, np.nan), (0.0, 6.0)), ((0.0, np.inf), (0.0, 6.0)),
                                 ((6.0, 0.0), (0.0, 6.0)), ((0.0, 6.0), (1.0, 1.0))])
def test_coord_box_must_be_finite_and_increasing(box):
    with pytest.raises(DataValidationError, match="coord_box"):
        base_config(coord_box=box)


def test_censored_count_matches_percentile_definition():
    res = simulate_scl(base_config())
    assert res.data.n_censored == 30  # ceil(0.15 * 200)


def test_left_censoring_relations():
    res = simulate_scl(base_config(seed=7))
    data = res.data
    cens = data.cens == 1
    # censored readings are recorded at the detection limit
    assert_allclose(data.value[cens], res.lod)
    assert np.all(np.isneginf(data.lower[cens]))
    # every uncensored response exceeds the limit
    assert np.all(data.value[~cens] > res.lod)


def test_right_censoring_mirrored():
    res = simulate_scl(base_config(cens_type="right", seed=3))
    data = res.data
    cens = data.cens == 1
    assert np.all(np.isposinf(data.upper[cens]))
    assert np.all(data.value[~cens] < res.lod)


def test_deterministic_given_seed():
    a = simulate_scl(base_config(seed=11))
    b = simulate_scl(base_config(seed=11))
    assert np.array_equal(a.data.value, b.data.value)
    assert np.array_equal(a.pred_z, b.pred_z)
    c = simulate_scl(base_config(seed=12))
    assert not np.array_equal(a.data.value, c.data.value)


def test_holdout_block_uncensored_truth():
    res = simulate_scl(base_config())
    assert res.pred_coords.shape == (40, 2)
    assert res.pred_z.shape == (40,)
    assert np.all(np.isfinite(res.pred_z))


def test_other_trend_covariates():
    cfg = base_config(
        beta=[5.0, 3.0, 1.0],
        trend=TrendSpec("other"),
        covariate_ranges=[(0.0, 1.0), (2.0, 3.0)],
    )
    res = simulate_scl(cfg)
    assert res.data.x_extra.shape == (200, 2)
    assert res.pred_x_extra.shape == (40, 2)
    assert np.all((res.data.x_extra[:, 1] >= 2.0) & (res.data.x_extra[:, 1] <= 3.0))


def test_moment_and_variogram_recovery_large_sample():
    # the field statistics should be consistent with the generating values
    cov = CovParams(sigma2=2.0, phi=0.5, tau2=0.3)
    cfg = base_config(
        n_est=2000,
        n_pred=0,
        cens_level=0.0,
        cov=cov,
        coord_box=((0.0, 20.0), (0.0, 20.0)),
        seed=5,
    )
    res = simulate_scl(cfg)
    z = res.data.value
    assert abs(z.mean() - 1.0) < 0.25
    # the variogram sill far beyond the range approaches sigma2 + tau2
    vario = empirical_variogram(res.data.coords, z, n_bins=12, max_dist=6.0)
    far = vario.gamma[vario.centers > 3.0]
    assert abs(far.mean() - (cov.sigma2 + cov.tau2)) < 0.5


def test_inject_outliers_definition():
    res = simulate_scl(base_config(seed=9))
    data = res.data
    clean_sd = np.std(data.value, ddof=1)
    ok = np.flatnonzero(data.cens == 0)[:3]
    bumped = inject_outliers(data, ok, 5.0)
    assert_allclose(bumped.value[ok], data.value[ok] + 5.0 * clean_sd)
    untouched = np.setdiff1d(np.arange(data.n), ok)
    assert_allclose(bumped.value[untouched], data.value[untouched])


def test_inject_outliers_zero_magnitude_identity():
    res = simulate_scl(base_config(seed=10))
    ok = np.flatnonzero(res.data.cens == 0)[:2]
    same = inject_outliers(res.data, ok, 0.0)
    assert_allclose(same.value, res.data.value)


def test_inject_outliers_rejects_censored_rows():
    res = simulate_scl(base_config(seed=13))
    bad = np.flatnonzero(res.data.cens == 1)[:1]
    with pytest.raises(DataValidationError):
        inject_outliers(res.data, bad, 5.0)


def test_inject_outliers_rejects_indices_outside_the_rows():
    data = simulate_scl(base_config(seed=13)).data
    for bad in ([-1], [data.n]):
        with pytest.raises(DataValidationError):
            inject_outliers(data, bad, 5.0)


@pytest.mark.parametrize("magnitude", [np.nan, np.inf, -np.inf])
def test_inject_outliers_rejects_a_non_finite_magnitude(magnitude):
    # a NaN shift used to surface as "observed rows require finite
    # values", blaming the data for the setting
    data = simulate_scl(base_config(seed=13)).data
    ok = np.flatnonzero(data.cens == 0)[:1]
    with pytest.raises(ConfigurationError, match="magnitude_sd"):
        inject_outliers(data, ok, magnitude)


def test_inject_outliers_sd_from_pre_injection_values():
    # applying two shifts one after another must compound, proving the sd
    # is recomputed from the already-shifted data the second time
    res = simulate_scl(base_config(seed=14))
    ok = np.flatnonzero(res.data.cens == 0)[:1]
    once = inject_outliers(res.data, ok, 5.0)
    twice = inject_outliers(once, ok, 5.0)
    sd0 = np.std(res.data.value, ddof=1)
    sd1 = np.std(once.value, ddof=1)
    assert twice.value[ok[0]] == pytest.approx(
        res.data.value[ok[0]] + 5.0 * sd0 + 5.0 * sd1
    )
