import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular
from scipy.special import log_ndtr, ndtr

from geocens import (
    ConfigurationError,
    CovarianceSpec,
    CovParams,
    DataValidationError,
    Rectangle,
    RngState,
    mvn_rect_prob,
    tmvn_gibbs,
    tmvn_moments,
)

from geocens.covariance import build_sigma, distance_matrix
from geocens.mvn import _ordered_cholesky, _trunc_std_ppf, logpdf_from_cholesky

from oracles import (
    batch_means_se,
    crude_mc_rect_prob,
    equicorrelated_log_prob,
    ordered_cholesky_scalar,
    rejection_tmvn,
    tmvn_gibbs_numpy,
    trunc_std_ppf_bisect,
    trunc_std_ppf_probability_space,
)


def test_rectangle_rejects_equal_bounds():
    with pytest.raises(DataValidationError):
        Rectangle(lower=[0.0, 1.0], upper=[1.0, 1.0])


def test_logpdf_standard_normal_at_origin():
    assert logpdf_from_cholesky(np.eye(1), np.zeros(1)) == pytest.approx(
        -0.5 * np.log(2 * np.pi)
    )


def test_logpdf_at_mean_is_half_logdet():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + 3 * np.eye(3)
    mean = rng.normal(size=3)
    want = -0.5 * np.log(np.linalg.det(2 * np.pi * cov))
    lo = np.linalg.cholesky(cov)
    w = solve_triangular(lo, mean - mean, lower=True)
    assert logpdf_from_cholesky(lo, w) == pytest.approx(want, rel=1e-12)


def test_logpdf_matches_naive_quadratic_form():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + 2 * np.eye(3)
    mean = rng.normal(size=3)
    x = rng.normal(size=3)
    diff = x - mean
    want = -0.5 * (
        3 * np.log(2 * np.pi)
        + np.log(np.linalg.det(cov))
        + diff @ np.linalg.inv(cov) @ diff
    )
    lo = np.linalg.cholesky(cov)
    w = solve_triangular(lo, x - mean, lower=True)
    assert logpdf_from_cholesky(lo, w) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# rectangle probabilities
# ---------------------------------------------------------------------------


def test_rect_prob_half_line_univariate():
    rect = Rectangle(lower=[0.0], upper=[np.inf])
    res = mvn_rect_prob([0.0], [[1.0]], rect, rng=RngState(0))
    assert res.prob == pytest.approx(0.5, abs=1e-12)
    assert res.se == 0.0


def test_rect_prob_independent_quadrant():
    rect = Rectangle(lower=[0.0, 0.0], upper=[np.inf, np.inf])
    res = mvn_rect_prob([0.0, 0.0], np.eye(2), rect, rng=RngState(1), eps=1e-4)
    assert res.prob == pytest.approx(0.25, abs=5e-4)


def test_rect_prob_full_space_is_one():
    rect = Rectangle(lower=[-np.inf] * 3, upper=[np.inf] * 3)
    cov = np.array([[2.0, 0.4, 0.1], [0.4, 1.0, 0.3], [0.1, 0.3, 1.5]])
    res = mvn_rect_prob([1.0, -2.0, 0.5], cov, rect, rng=RngState(2))
    assert res.prob == pytest.approx(1.0, abs=1e-10)


def test_rect_prob_correlated_quadrant_known_value():
    # P(X>0, Y>0) for standard bivariate normal with correlation r is
    # 1/4 + arcsin(r)/(2 pi); an exact benchmark independent of the code.
    r = 0.5
    want = 0.25 + np.arcsin(r) / (2 * np.pi)
    cov = np.array([[1.0, r], [r, 1.0]])
    rect = Rectangle(lower=[0.0, 0.0], upper=[np.inf, np.inf])
    res = mvn_rect_prob([0.0, 0.0], cov, rect, rng=RngState(3), eps=5e-5)
    assert res.prob == pytest.approx(want, abs=5e-4)


def test_rect_prob_matches_crude_monte_carlo():
    rng_np = np.random.default_rng(99)
    mean = np.array([0.3, -0.2])
    cov = np.array([[1.0, 0.5], [0.5, 1.3]])
    rect = Rectangle(lower=[0.0, 0.0], upper=[np.inf, np.inf])
    res = mvn_rect_prob(mean, cov, rect, rng=RngState(4), eps=1e-4)
    p_mc, se_mc = crude_mc_rect_prob(mean, cov, rect.lower, rect.upper, 10_000_000, rng_np)
    combined = np.hypot(se_mc, max(res.se, 1e-6))
    assert abs(res.prob - p_mc) < 3 * combined


def test_rect_prob_reports_cap():
    cov = 0.5 * np.eye(4) + 0.5 * np.ones((4, 4))
    rect = Rectangle(lower=[-0.1] * 4, upper=[0.1] * 4)
    res = mvn_rect_prob([0.0] * 4, cov, rect, rng=RngState(5), eps=0.0, max_points=20_000)
    assert res.hit_cap
    assert res.n_points <= 20_000


def test_rect_prob_reproducible():
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    rect = Rectangle(lower=[-1.0, -2.0], upper=[0.5, 1.0])
    a = mvn_rect_prob([0.0, 0.0], cov, rect, rng=RngState(42))
    b = mvn_rect_prob([0.0, 0.0], cov, rect, rng=RngState(42))
    assert a.prob == b.prob and a.se == b.se


@pytest.mark.parametrize("n_c", [2, 30, 80, 120])
@pytest.mark.parametrize(
    "spec",
    [CovarianceSpec("exponential"), CovarianceSpec("gaussian"), CovarianceSpec("spherical"),
     CovarianceSpec("matern", 0.3), CovarianceSpec("powered-exponential", 1.3)],
    ids=lambda s: s.family,
)
def test_ordered_cholesky_matches_scalar_oracle(spec, n_c):
    # a standardized censored block as mvn_rect_prob sees it: left-censored
    # rows, about a third of them interval-censored; upper bounds are
    # distinct, so equal permuted bounds mean the same variable order
    rng = np.random.default_rng(n_c)
    coords = rng.uniform(0.0, 6.0, size=(n_c, 2))
    cov = build_sigma(distance_matrix(coords), spec, CovParams(2.0, 1.0, 0.2))
    sd = np.sqrt(np.diag(cov))
    upper = rng.normal(-0.5, 1.0, n_c)
    lower = np.where(rng.random(n_c) < 0.3, upper - rng.uniform(0.5, 2.0, n_c), -np.inf)
    assert np.unique(upper).size == n_c
    ell, a, b = _ordered_cholesky(cov / np.outer(sd, sd), lower, upper)
    ell_ref, a_ref, b_ref = ordered_cholesky_scalar(cov / np.outer(sd, sd), lower, upper)
    assert np.array_equal(b, b_ref) and np.array_equal(a, a_ref)
    assert np.max(np.abs(ell - ell_ref)) <= 1e-13


def test_sampling_without_a_seed_names_the_seed():
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    rect = Rectangle(lower=[-1.0, -2.0], upper=[0.5, 1.0])
    with pytest.raises(ConfigurationError, match="seed"):
        mvn_rect_prob([0.0, 0.0], cov, rect)
    # the samplers always draw, so their rng is a required argument
    for call in (
        lambda: tmvn_gibbs([0.0, 0.0], cov, rect, 5),
        lambda: tmvn_moments([0.0, 0.0], cov, rect, 5),
    ):
        with pytest.raises(TypeError, match="rng"):
            call()
    # one censored coordinate has a closed form and needs no seed
    assert mvn_rect_prob([0.0], [[1.0]], Rectangle(lower=[0.0], upper=[np.inf])).prob == 0.5


# ---------------------------------------------------------------------------
# Gibbs sampling
# ---------------------------------------------------------------------------


def test_gibbs_untruncated_recovers_mean():
    mean = np.array([1.0, -2.0, 0.5])
    a = np.random.default_rng(7).normal(size=(3, 3))
    cov = a @ a.T + np.eye(3)
    rect = Rectangle(lower=[-np.inf] * 3, upper=[np.inf] * 3)
    s = tmvn_gibbs(mean, cov, rect, n_samples=10_000, rng=RngState(11))
    for j in range(3):
        se = batch_means_se(s[:, j])
        assert abs(s[:, j].mean() - mean[j]) < 4 * se


def test_gibbs_half_normal_mean():
    rect = Rectangle(lower=[0.0], upper=[np.inf])
    s = tmvn_gibbs([0.0], [[1.0]], rect, n_samples=10_000, rng=RngState(12))
    want = np.sqrt(2 / np.pi)
    se = batch_means_se(s[:, 0])
    assert abs(s.mean() - want) < 4 * se


def test_gibbs_samples_respect_bounds():
    mean = np.array([0.0, 0.0])
    cov = np.array([[1.0, 0.7], [0.7, 1.0]])
    rect = Rectangle(lower=[0.0, 0.0], upper=[1.0, 1.0])
    s = tmvn_gibbs(mean, cov, rect, n_samples=2_000, rng=RngState(13))
    assert np.all(s >= 0.0) and np.all(s <= 1.0)


def test_gibbs_matches_rejection_oracle_box():
    mean = np.array([0.0, 0.0])
    cov = np.array([[1.0, 0.7], [0.7, 1.0]])
    lower, upper = np.zeros(2), np.ones(2)
    rect = Rectangle(lower=lower, upper=upper)
    s = tmvn_gibbs(mean, cov, rect, n_samples=20_000, rng=RngState(14), thin=2)
    ref = rejection_tmvn(mean, cov, lower, upper, 40_000, np.random.default_rng(50))
    for j in range(2):
        se = np.hypot(batch_means_se(s[:, j]), ref[:, j].std() / np.sqrt(len(ref)))
        assert abs(s[:, j].mean() - ref[:, j].mean()) < 3 * se
        prod_se = np.hypot(
            batch_means_se(s[:, 0] * s[:, 1]),
            (ref[:, 0] * ref[:, 1]).std() / np.sqrt(len(ref)),
        )
        assert abs((s[:, 0] * s[:, 1]).mean() - (ref[:, 0] * ref[:, 1]).mean()) < 3 * prod_se


def test_gibbs_far_tail_never_nan():
    # interval far enough out that Phi differences underflow; the log-space
    # quantile must stay finite and inside the box
    rect = Rectangle(lower=[40.0], upper=[41.0])
    s = tmvn_gibbs([0.0], [[1.0]], rect, n_samples=500, rng=RngState(15))
    assert np.all(np.isfinite(s))
    assert np.all((s >= 40.0) & (s <= 41.0))


INF = np.inf


@pytest.mark.parametrize("a, b", [
    (-INF, -40.0), (-INF, -3.0), (-INF, 0.5), (-INF, 35.0), (-41.0, -40.0), (-50.5, -50.0),
    (-36.0, -34.5), (-2.0, 1.0), (-1.0, 2.0), (0.2, 0.9), (34.5, 36.0), (40.0, 41.0),
    (50.0, 50.5), (-3.0, INF), (0.7, INF), (35.0, INF), (40.0, INF),
])
def test_quantile_matches_a_bisection_reference(a, b):
    # bounds on both sides, one- and two-sided, out to 50 sd; the reference
    # bisects log probabilities and inverts no CDF
    for u in (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6):
        want = trunc_std_ppf_bisect(u, a, b)
        assert abs(_trunc_std_ppf(u, a, b) - want) <= 1e-11 * max(abs(want), 1.0), u


@pytest.mark.parametrize("a, b", [
    (-INF, -3.0), (-INF, 0.0), (-INF, 1.5), (-INF, 6.0), (-2.0, INF), (0.0, INF), (4.0, INF),
    (-1.0, 2.0), (-3.0, 0.5), (0.2, 0.9), (-0.9, -0.2), (-6.0, 6.0), (2.0, 5.0), (-5.0, -2.0),
    (-30.0, -29.0), (29.0, 30.0),
])
def test_quantile_matches_the_probability_space_formula_off_the_far_tails(a, b):
    # within 30 sd the inverse of the CDF difference is accurate; at
    # u = 1e-6 its ndtri is off by up to 2.2e-12, so u stays in [1e-3, 1 - 1e-3]
    for u in (1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3):
        want = float(trunc_std_ppf_probability_space(u, np.float64(a), np.float64(b)))
        assert abs(_trunc_std_ppf(u, a, b) - want) <= 1e-12 * max(abs(want), 1.0), u


def test_quantile_is_finite_monotone_and_continuous_across_the_mirror():
    # intervals with a + b > 0 are mirrored to [-b, -a] at 1 - u; the grid
    # straddles that switch and reaches both far tails
    us = [0.0, 1e-300, 2.0 ** -20, 1e-6, 0.5, 1.0 - 2.0 ** -53]
    bounds = [(-INF, b) for b in (-60.0, -40.0, -3.0, 0.0, 2.0, 40.0)]
    bounds += [(a, INF) for a in (-40.0, -2.0, 0.0, 3.0, 40.0, 60.0)]
    for c in (1e-3, 0.5, 3.0, 8.0, 37.0, 40.0, 60.0):
        for shift in (-1e-12, 1e-12):
            bounds += [(-c, c + shift), (c + shift - 1.0, c + shift), (-c - shift - 1.0, -c)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in bounds:
            qs = [_trunc_std_ppf(u, a, b) for u in us]
            assert all(np.isfinite(qs)) and all(a <= q <= b for q in qs), (a, b)
            assert qs == sorted(qs), (a, b)
        # the switch itself: where 1 - u is exact (the generator's grid of
        # multiples of 2^-53), the two sides see the same uniform and the
        # quantile moves by no more than the bound does
        for c in (1e-3, 0.5, 3.0, 8.0, 37.0, 40.0, 60.0):
            for u in (0.0, 2.0 ** -20, 0.5, 1.0 - 2.0 ** -53):
                below, above = _trunc_std_ppf(u, -c, c - 1e-12), _trunc_std_ppf(u, -c, c + 1e-12)
                assert abs(above - below) <= 3e-12, (c, u)


class _ZeroUniforms(np.random.Generator):
    """A generator whose uniforms are all exactly 0, which PCG64 draws with
    probability 2^-53."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.zeros(size)


@pytest.mark.parametrize("kind", ["left", "right", "interval", "far"])
def test_gibbs_zero_uniforms_give_finite_draws_inside_the_box(kind):
    mean, cov, lower, upper = _block(5, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = tmvn_gibbs(mean, cov, Rectangle(lower, upper), 3, burn_in=2,
                       rng=_ZeroUniforms(np.random.PCG64(0)))
    assert np.isfinite(s).all()
    assert np.all((s >= lower) & (s <= upper))


def test_gibbs_reproducible():
    mean = np.zeros(2)
    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    rect = Rectangle(lower=[-1.0, -np.inf], upper=[np.inf, 2.0])
    a = tmvn_gibbs(mean, cov, rect, 100, rng=RngState(77))
    b = tmvn_gibbs(mean, cov, rect, 100, rng=RngState(77))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# truncated moments
# ---------------------------------------------------------------------------


def test_moments_untruncated():
    mean = np.array([0.7, -0.3])
    cov = np.array([[1.2, 0.4], [0.4, 0.9]])
    rect = Rectangle(lower=[-np.inf] * 2, upper=[np.inf] * 2)
    m1, m2 = tmvn_moments(mean, cov, rect, n_samples=40_000, rng=RngState(21))
    assert_allclose(m1, mean, atol=0.05)
    assert_allclose(m2, cov + np.outer(mean, mean), atol=0.1)


def test_moments_half_normal_second_moment():
    rect = Rectangle(lower=[0.0], upper=[np.inf])
    _, m2 = tmvn_moments([0.0], [[1.0]], rect, n_samples=40_000, rng=RngState(22))
    assert m2[0, 0] == pytest.approx(1.0, abs=0.05)


def test_moments_match_rejection_oracle_3d():
    rng_np = np.random.default_rng(123)
    a = rng_np.normal(size=(3, 3))
    cov = a @ a.T + 2 * np.eye(3)
    mean = np.array([0.2, -0.1, 0.4])
    sd = np.sqrt(np.diag(cov))
    lower = mean - 1.0 * sd
    upper = mean + 1.5 * sd
    rect = Rectangle(lower=lower, upper=upper)
    s = tmvn_gibbs(mean, cov, rect, n_samples=30_000, rng=RngState(23), thin=2)
    ref = rejection_tmvn(mean, cov, lower, upper, 60_000, rng_np)
    for j in range(3):
        se = np.hypot(batch_means_se(s[:, j]), ref[:, j].std() / np.sqrt(len(ref)))
        assert abs(s[:, j].mean() - ref[:, j].mean()) < 3 * se
    for j in range(3):
        for k in range(j, 3):
            prod_pkg = s[:, j] * s[:, k]
            prod_ref = ref[:, j] * ref[:, k]
            se = np.hypot(
                batch_means_se(prod_pkg), prod_ref.std() / np.sqrt(len(prod_ref))
            )
            assert abs(prod_pkg.mean() - prod_ref.mean()) < 3 * se


def test_moment_matrix_psd_up_to_noise():
    mean = np.zeros(3)
    cov = 0.4 * np.eye(3) + 0.6 * np.ones((3, 3))
    rect = Rectangle(lower=[-1.0, 0.0, -np.inf], upper=[2.0, np.inf, 1.0])
    m1, m2 = tmvn_moments(mean, cov, rect, n_samples=20_000, rng=RngState(24))
    eig = np.linalg.eigvalsh(m2 - np.outer(m1, m1))
    assert eig.min() > -1e-8


# ---------------------------------------------------------------------------
# kernels against the numpy scalar loops, bit for bit
# ---------------------------------------------------------------------------


def _block(n_c, kind, seed=3):
    """A conditional-law-like censored block: exponential covariance on
    random sites, and left, right or interval bounds near the mean, or
    upper bounds about 40 sd below it ("far")."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 6.0, size=(n_c, 2))
    cov = build_sigma(distance_matrix(coords), CovarianceSpec("exponential"),
                      CovParams(2.0, 1.0, 0.2))
    mean = rng.normal(0.0, 0.5, n_c)
    cut = rng.normal(-0.5, 1.0, n_c)
    width = rng.uniform(0.5, 2.0, n_c)
    lower = {"right": cut, "interval": cut - width}.get(kind, np.full(n_c, -np.inf))
    upper = {"left": cut, "right": np.full(n_c, np.inf), "interval": cut, "far": mean - 60.0}[kind]
    return mean, cov, lower, upper


GIBBS_CASES = {
    "left": (*_block(30, "left"), {}),
    "right": (*_block(30, "right"), {}),
    "interval": (*_block(30, "interval"), {}),
    "left-80": (*_block(80, "left"), {"n_samples": 5}),
    "far-block": (*_block(5, "far"), {}),
    "mixed-thin-2": ([0.0, 0.0, 0.5], [[1.0, 0.6, 0.2], [0.6, 2.0, 0.3], [0.2, 0.3, 1.0]],
                     [-1.0, -np.inf, 0.0], [np.inf, 2.0, 1.0], {"thin": 2}),
    "start": (*_block(30, "interval", seed=4), {"start": np.zeros(30)}),
    "far-tail-upper": ([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]], [40.0, 45.0], [np.inf, 47.0], {}),
    "far-tail-lower": ([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]], [-np.inf, -np.inf],
                       [-40.0, -36.0], {}),
    "one-coordinate": ([0.3], [[2.0]], [0.5], [np.inf], {"burn_in": 3}),
    "one-far-interval": ([0.0], [[1.0]], [40.0], [41.0], {}),
}


@pytest.mark.parametrize("case", list(GIBBS_CASES))
def test_gibbs_matches_the_numpy_scalar_loop(case):
    # the sweep draws its uniforms as one vector and works on floats; the
    # draws, and the stream after them, are those of one numpy scalar
    # update and one generator call per coordinate
    mean, cov, lower, upper, kw = GIBBS_CASES[case]
    kw = {"n_samples": 15, "burn_in": 20, "thin": 1, "start": None, **kw}
    gen, gen_ref = RngState(9).generator, RngState(9).generator
    got = tmvn_gibbs(mean, cov, Rectangle(lower, upper), rng=gen, **kw)
    want = tmvn_gibbs_numpy(mean, cov, lower, upper, gen=gen_ref, **kw)
    assert np.array_equal(got, want)
    assert gen.random() == gen_ref.random()


def _rect_fields(res):
    return res.prob, res.se, res.n_points, res.hit_cap


@pytest.mark.parametrize("n_c, shift, rho", [(30, -0.5, 0.5), (200, -0.5, 0.5),
                                             (800, 0.5, 0.3), (200, -40.0, 0.5)])
def test_rect_prob_matches_the_equicorrelated_quadrature(n_c, shift, rho):
    # P(X <= u) under equicorrelation is a 1-D integral (tests/oracles.py);
    # the estimate lies within three of its reported standard errors, also
    # 40 sd out, where P is about exp(-1771)
    u = np.random.default_rng(n_c).normal(shift, 1.0, n_c)
    cov = (1.0 - rho) * np.eye(n_c) + rho
    res = mvn_rect_prob(np.zeros(n_c), cov, Rectangle(np.full(n_c, -np.inf), u),
                        rng=RngState(1))
    assert 0.0 < res.log_prob_se <= 1e-2 and not res.hit_cap
    assert abs(res.log_prob - equicorrelated_log_prob(u, rho)) <= 3.0 * res.log_prob_se


def test_rect_prob_diagonal_block_is_exact():
    # independent coordinates: the tilt is 0 and every weight is the product
    # of the 1-D interval probabilities, so log P is their sum, with se 0
    rng = np.random.default_rng(5)
    n_c = 800
    sd = rng.uniform(0.5, 2.0, n_c)
    mean = rng.normal(0.0, 1.0, n_c)
    cut = rng.uniform(-2.0, 2.0, n_c)
    kind = np.arange(n_c) % 3  # left, right, interval
    lower = np.where(kind == 0, -np.inf, cut - np.where(kind == 2, 1.0, 0.0))
    upper = np.where(kind == 1, np.inf, cut)
    res = mvn_rect_prob(mean, np.diag(sd**2), Rectangle(lower * sd + mean, upper * sd + mean),
                        rng=RngState(2))
    want = np.sum(np.log(ndtr(upper) - ndtr(lower)))
    assert res.log_prob == pytest.approx(want, rel=1e-10)
    assert res.log_prob_se <= 1e-12 and res.n_points == 1_000


def test_rect_prob_far_tail_block_is_finite():
    # upper bounds about 40 sd below the mean: P underflows to 0 in double,
    # its log does not
    mean, cov, lower, upper = _block(5, "far")
    res = mvn_rect_prob(mean, cov, Rectangle(lower, upper), rng=RngState(8))
    assert np.isfinite(res.log_prob) and res.prob == 0.0
    assert 0.0 < res.log_prob_se <= 1e-2 and not res.hit_cap
    # between the product of the 1-D probabilities (positive correlation,
    # Slepian) and the smallest of them
    one_d = log_ndtr((upper - mean) / np.sqrt(np.diag(cov)))
    assert one_d.sum() < res.log_prob < one_d.min()


def test_rect_prob_without_the_tilt_is_the_same_estimator(monkeypatch):
    # a tilting solve that does not converge leaves mu = 0: the plain
    # separation-of-variables estimator, unbiased for the same probability
    # but with a larger error at the same number of points
    import geocens.mvn as mvn

    mean, cov, lower, upper = _block(30, "left")
    rect = Rectangle(lower, upper)
    tilted = mvn_rect_prob(mean, cov, rect, rng=RngState(4), eps=0.0, max_points=5_000)
    monkeypatch.setattr(mvn, "_TILT_MAX_ITER", 0)
    plain = mvn_rect_prob(mean, cov, rect, rng=RngState(4), eps=0.0, max_points=5_000)
    assert plain.n_points == tilted.n_points == 5_000
    assert plain.log_prob_se > 2.0 * tilted.log_prob_se
    assert abs(plain.log_prob - tilted.log_prob) <= 3.0 * np.hypot(plain.log_prob_se,
                                                                 tilted.log_prob_se)


@pytest.mark.parametrize("max_points, want", [(500, 1_000), (5_500, 5_000), (20_000, 20_000)])
def test_rect_prob_stops_at_the_point_cap(max_points, want):
    # with eps = 0 only the cap stops the estimate: the first batch is always
    # drawn, then whole batches while they fit under the cap
    mean, cov, lower, upper = _block(8, "left")
    res = mvn_rect_prob(mean, cov, Rectangle(lower, upper), rng=RngState(8), eps=0.0,
                        max_points=max_points)
    assert res.hit_cap and res.n_points == want
    assert np.isfinite(res.log_prob) and res.log_prob_se > 0.0


@pytest.mark.parametrize("kind", ["left", "interval", "far"])
def test_rect_prob_reproducible_on_blocks(kind):
    # same seed, same fields and the same stream after the call
    mean, cov, lower, upper = _block(30, kind)
    gen, gen_ref = RngState(8).generator, RngState(8).generator
    a = mvn_rect_prob(mean, cov, Rectangle(lower, upper), rng=gen)
    b = mvn_rect_prob(mean, cov, Rectangle(lower, upper), rng=gen_ref)
    assert _rect_fields(a) == _rect_fields(b) and a.log_prob == b.log_prob
    assert gen.random() == gen_ref.random()


def _mirrored(mean, cov, lower, upper, flip):
    sign = np.where(flip, -1.0, 1.0)
    lo = np.where(flip, -np.asarray(upper), lower)
    hi = np.where(flip, -np.asarray(lower), upper)
    return sign * np.asarray(mean), np.asarray(cov) * np.outer(sign, sign), lo, hi


@pytest.mark.parametrize("case", ["right-30", "right-80", "mixed", "right-cap"])
def test_rect_prob_mirrors_right_open_coordinates(case):
    # a right-open coordinate is the mirror image of a left-open one: the
    # estimate equals the mirrored problem's, field for field, with the
    # same stream after the call
    eps, max_points = 1e-4, 100_000
    if case == "mixed":
        mean, cov, lower, upper = _block(30, "left")
        flip = np.arange(30) % 3 == 0
        lower, upper = np.where(flip, -upper, lower), np.where(flip, np.inf, upper)
    else:
        mean, cov, lower, upper = _block(80 if case == "right-80" else 30, "right")
        flip = np.ones(mean.size, bool)
        if case == "right-cap":
            eps, max_points = 0.0, 3_500
    gen, gen_ref = RngState(6).generator, RngState(6).generator
    got = mvn_rect_prob(mean, cov, Rectangle(lower, upper), rng=gen, eps=eps,
                        max_points=max_points)
    m, c, lo, hi = _mirrored(mean, cov, lower, upper, flip)
    want = mvn_rect_prob(m, c, Rectangle(lo, hi), rng=gen_ref, eps=eps, max_points=max_points)
    assert _rect_fields(got) == _rect_fields(want)
    assert gen.random() == gen_ref.random()


def test_rect_prob_right_tail_does_not_underflow():
    # Phi(b) - Phi(a) cancels to 0 in the upper tail; the mirrored lower
    # tail keeps the probability, without an overflow in the ordering
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = mvn_rect_prob([0.0], [[1.0]], Rectangle([9.0], [np.inf]))
        cov = np.array([[1.0, 0.3], [0.3, 1.0]])
        two = mvn_rect_prob([0.0, 0.0], cov, Rectangle([9.0, 9.0], [np.inf, np.inf]),
                            rng=RngState(3))
    assert one.prob == ndtr(-9.0) > 0.0
    mirrored = mvn_rect_prob([0.0, 0.0], cov, Rectangle([-np.inf] * 2, [-9.0, -9.0]),
                             rng=RngState(3))
    assert _rect_fields(two) == _rect_fields(mirrored)
    assert 1e-31 < two.prob < 1e-29
    assert ndtr(-9.0) ** 2 < two.prob < ndtr(-9.0)  # positive correlation (Slepian)


def test_rect_prob_mirrors_upper_tail_intervals():
    # a bounded interval with low + high > 0 is mirrored as well: Phi(10) -
    # Phi(9) cancels to 0, Phi(-9) - Phi(-10) keeps the probability, and
    # the ordering of the mirrored problem does not overflow
    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = mvn_rect_prob([0.0], [[1.0]], Rectangle([9.0], [10.0]))
        two = mvn_rect_prob([0.0, 0.0], cov, Rectangle([9.0, 9.0], [10.0, 10.0]),
                            rng=RngState(3))
    one_mirrored = mvn_rect_prob([0.0], [[1.0]], Rectangle([-10.0], [-9.0]))
    assert _rect_fields(one) == _rect_fields(one_mirrored)
    assert one.prob > 1e-19
    two_mirrored = mvn_rect_prob([0.0, 0.0], cov, Rectangle([-10.0, -10.0], [-9.0, -9.0]),
                                 rng=RngState(3))
    assert _rect_fields(two) == _rect_fields(two_mirrored)
    assert two.prob == pytest.approx(2.92e-30, rel=5e-3)


def test_rect_prob_one_sided_coordinates_take_the_fast_path(monkeypatch):
    # per sample point, a left-open coordinate costs one log_ndtr and one
    # ndtri_exp, and a finite interval two log_ndtr and one ndtri_exp; the
    # last coordinate only adds its log probability.  Right-open coordinates
    # are mirrored to left-open ones.
    import geocens.mvn as mvn

    counts = {"log_ndtr": 0, "ndtri_exp": 0}

    def counted(name, fn):
        def wrapper(arg, *args, **kwargs):
            if np.size(arg) == 1_000:  # one batch; the tilting solve works on n
                counts[name] += 1
            return fn(arg, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(mvn, "log_ndtr", counted("log_ndtr", mvn.log_ndtr))
    monkeypatch.setattr(mvn, "ndtri_exp", counted("ndtri_exp", mvn.ndtri_exp))
    for kind, per_coordinate in (("left", 1), ("right", 1), ("interval", 2)):
        mean, cov, lower, upper = _block(30, kind)
        counts.update(log_ndtr=0, ndtri_exp=0)
        res = mvn_rect_prob(mean, cov, Rectangle(lower, upper), rng=RngState(2))
        batches = res.n_points // 1_000
        assert counts == {"log_ndtr": per_coordinate * 30 * batches,
                          "ndtri_exp": 29 * batches}


def test_rect_prob_orders_a_far_tail_near_singular_block():
    # Gaussian covariance with a tiny nugget, every upper bound 60 sd below
    # the mean: each Phi(b) - Phi(a) of the Genz ordering underflows to 0,
    # its log does not, so the ordering and its truncated-mean shifts stay
    # informative and the estimate reaches its tolerance under the cap
    n_c = 80
    rng = np.random.default_rng(n_c)
    coords = rng.uniform(0.0, 6.0, size=(n_c, 2))
    cov = build_sigma(distance_matrix(coords), CovarianceSpec("gaussian"),
                      CovParams(1.0, 1.0, 1e-4))
    mean = np.zeros(n_c)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = mvn_rect_prob(mean, cov, Rectangle(np.full(n_c, -np.inf), mean - 60.0),
                            rng=RngState(1))
    assert np.isfinite(res.log_prob) and res.log_prob_se <= 0.05
