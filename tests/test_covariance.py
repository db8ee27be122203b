import numpy as np
import pytest
from numpy.testing import assert_allclose

from geocens import (
    ConfigurationError,
    CovarianceSpec,
    CovParams,
    SingularCovarianceError,
    build_sigma,
    correlation,
    cross_distance,
    d2sigma,
    distance_matrix,
    dsigma,
    empirical_variogram,
)
import geocens.covariance as cov
from geocens.covariance import _d2corr_dphi2, spd_cholesky

from oracles import (
    dcorr_dphi_closed_form,
    matern_correlation_kv,
    matern_dcorr_dphi_kv,
    precision_derivative,
    precision_second_derivative,
)


def dsigma_inv(dist, spec, p, k):
    return precision_derivative(build_sigma(dist, spec, p), dsigma(dist, spec, p, k))


def d2sigma_inv(dist, spec, p, k, l):
    return precision_second_derivative(
        build_sigma(dist, spec, p),
        dsigma(dist, spec, p, k),
        dsigma(dist, spec, p, l),
        d2sigma(dist, spec, p, k, l),
    )

FAMILY_SPECS = [
    CovarianceSpec("exponential"),
    CovarianceSpec("gaussian"),
    CovarianceSpec("spherical"),
    CovarianceSpec("matern", kappa=1.5),
    CovarianceSpec("matern", kappa=0.3),
    CovarianceSpec("powered-exponential", kappa=1.3),
]


def random_geometry(seed, n=8):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 10, size=(n, 2))
    return distance_matrix(coords)


def random_params(seed):
    rng = np.random.default_rng(seed + 1000)
    return CovParams(
        sigma2=rng.uniform(0.5, 4.0),
        phi=rng.uniform(1.0, 5.0),
        tau2=rng.uniform(0.05, 1.0),
    )


def matern_dcorr(kappa, h, phi):
    """Matern ``d rho / d phi`` elementwise over the lags ``h``, in the
    library's one arithmetic (the kernel tables at ``log h - log phi``)."""
    h = np.asarray(h, dtype=float)
    with np.errstate(divide="ignore"):
        log_h = np.log(h)
    _, drho = cov._matern_corr_dcorr(kappa, h.ravel(), log_h.ravel(), phi)
    return drho.reshape(h.shape)


def dcorr_elementwise(spec, h, phi):
    """``d rho / d phi`` over the lags ``h`` by the family's own formula."""
    if spec.family == "matern":
        return matern_dcorr(spec.kappa, h, phi)
    if spec.family == "spherical":
        return cov._closed_form_dcorr("spherical", 0.0, h, h / phi, None, phi)
    return dcorr_dphi_closed_form(spec.family, spec.kappa, h, phi)


def test_correlation_at_zero_lag_is_one():
    for spec in FAMILY_SPECS:
        assert correlation(spec.family, spec.kappa, 0.0, 2.0) == pytest.approx(1.0)


def test_gaussian_at_range_is_exp_minus_one():
    assert correlation("gaussian", 0.0, 3.0, 3.0) == pytest.approx(np.exp(-1.0))


def test_spherical_vanishes_beyond_range():
    assert correlation("spherical", 0.0, 1.3 * 2.0, 2.0) == 0.0


def test_matern_half_equals_exponential():
    # Matern with smoothness 1/2 reduces to the exponential model; compare
    # against the independent exponential branch on a grid of lags.
    h = np.linspace(0.01, 10.0, 50)
    got = correlation("matern", 0.5, h, 2.0)
    want = correlation("exponential", 0.0, h, 2.0)
    assert_allclose(got, want, atol=1e-10)


MATERN_GRID = (0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.5, 4.0)


@pytest.fixture(scope="module")
def kernel_lags():
    """10^6 log-uniform lags over the Matern kernel table's range, every
    segment boundary with its two neighbouring floats, both range ends
    with theirs, and lags outside: zero, below the range and far beyond
    the point where ``kv`` underflows."""
    lo, hi = cov._KERNEL_LO, cov._KERNEL_HI
    rng = np.random.default_rng(0)
    inner = np.exp(rng.uniform(np.log(lo), np.log(hi), 10**6))
    bounds = np.exp(
        cov._KERNEL_T0
        + 2.0 * cov._KERNEL_HALF_WIDTH * np.arange(cov._KERNEL_SEGMENTS + 1)
    )
    edges = np.concatenate([bounds, [lo, hi]])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    outside = np.array([0.0, 1e-12, 1e-9, 3e-7, 695.0, 697.0, 698.0, 750.0, 1e3, 1e5, 1e300])
    return np.concatenate([inner, edges, outside])


@pytest.mark.parametrize("kappa", MATERN_GRID)
def test_matern_table_matches_kv_oracle(kernel_lags, kappa):
    # lags h = phi * u with phi a power of two, so u is the drawn lag exactly;
    # the one-pass kernels of a search evaluation read log h - log phi
    phi = 2.0
    h = phi * kernel_lags
    with np.errstate(divide="ignore"):
        log_h = np.log(h)
    rho, drho = cov._matern_corr_dcorr(kappa, h, log_h, phi)
    want_rho = matern_correlation_kv(kappa, h, phi)
    want_drho = matern_dcorr_dphi_kv(kappa, h, phi)
    for got, want in (
        (correlation("matern", kappa, h, phi), want_rho),
        (rho, want_rho),
        (drho, want_drho),
    ):
        assert not np.isnan(got).any()
        zero = want == 0.0
        assert np.array_equal(got[zero], want[zero])
        assert zero[-4:].all()  # far beyond the kv underflow
        rel = np.abs(got[~zero] - want[~zero]) / np.abs(want[~zero])
        assert rel.max() <= 1e-12, (kappa, rel.max(), kernel_lags[~zero][np.argmax(rel)])


def test_matern_half_matches_exponential_to_1e13():
    # K_{1/2}(u) = sqrt(pi / (2u)) e^-u and K_{-1/2} = K_{1/2}: the table
    # for kappa = 1/2 must reproduce the exponential family below kv's underflow
    rng = np.random.default_rng(3)
    u = np.concatenate([
        np.exp(rng.uniform(np.log(1e-9), np.log(cov._KERNEL_HI), 200_000)),
        [1e-12, 1e-6, 1.0, cov._KERNEL_HI, 697.0],
    ])
    phi = 1.7
    h = phi * u
    for got, want in (
        (correlation("matern", 0.5, h, phi), correlation("exponential", 0.0, h, phi)),
        (matern_dcorr(0.5, h, phi), dcorr_dphi_closed_form("exponential", 0.0, h, phi)),
    ):
        assert np.max(np.abs(got - want) / want) <= 1e-13


def test_matern_scalar_lag_returns_float():
    # zero, below, inside and beyond the table
    for h in (0.0, 1e-9, 0.7, 3.0, 2e3):
        assert type(correlation("matern", 0.3, h, 1.5)) is float
    assert correlation("matern", 0.3, 0.0, 1.5) == 1.0
    assert correlation("matern", 0.3, 2e3, 1.5) == 0.0


@pytest.mark.parametrize("kappa", [0.3, 1.0, 4.0])
def test_matern_small_lag_limit(kappa):
    # below the table kv overflows for larger kappa (and u**kappa underflows):
    # the kernel takes its limit Gamma(kappa) 2**(kappa-1) there, so the
    # correlation tends to 1.  For kappa < 1 the first correction,
    # Gamma(1-kappa)/Gamma(1+kappa) (u/2)**(2 kappa), is still 6e-5 at
    # u = 1e-7; it is below 1e-12 at the other lags and smoothnesses
    from scipy.special import gamma

    for h in (1e-7, 1e-80, 1e-200, 0.0):
        want = 1.0
        if kappa < 1.0:
            want -= gamma(1.0 - kappa) / gamma(1.0 + kappa) * (h / 2.0) ** (2.0 * kappa)
        assert correlation("matern", kappa, h, 1.0) == pytest.approx(want, abs=1e-12)
        drho = matern_dcorr(kappa, np.array([h]), 1.0)
        assert np.isfinite(drho).all() and drho[0] >= 0.0


def test_matern_kernel_tables_are_built_once_per_smoothness():
    cov._kernel_table.cache_clear()
    spec = CovarianceSpec("matern", kappa=0.9)
    lags = cov.Lags(random_geometry(0, n=12))
    for phi in (1.0, 2.5, 4.0):
        cov.corr_dcorr_matrix(lags, spec, phi)
    info = cov._kernel_table.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_powered_exponential_kappa2_equals_gaussian():
    h = np.linspace(0.0, 8.0, 30)
    got = correlation("powered-exponential", 2.0, h, 2.5)
    want = correlation("gaussian", 0.0, h, 2.5)
    assert_allclose(got, want, atol=1e-12)


def test_correlation_nonincreasing_in_h():
    h = np.linspace(0.0, 12.0, 200)
    for spec in FAMILY_SPECS:
        rho = correlation(spec.family, spec.kappa, h, 2.7)
        assert np.all(np.diff(rho) <= 1e-12), spec.family


def test_unsupported_family_rejected():
    with pytest.raises(ConfigurationError):
        correlation("cubic", 0.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        CovarianceSpec("cubic")
    with pytest.raises(ConfigurationError):
        CovarianceSpec("matern", kappa=0.0)
    with pytest.raises(ConfigurationError):
        CovarianceSpec("powered-exponential", kappa=2.5)


def test_build_sigma_single_site():
    spec = CovarianceSpec("exponential")
    p = CovParams(sigma2=2.0, phi=1.0, tau2=0.5)
    sigma = build_sigma(np.zeros((1, 1)), spec, p)
    assert_allclose(sigma, [[2.5]])


def test_build_sigma_two_site_scalar_case():
    # Direct scalar evaluation: off-diagonal 2 e^{-1}, diagonal 2 + 0.5.
    spec = CovarianceSpec("exponential")
    p = CovParams(sigma2=2.0, phi=1.0, tau2=0.5)
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma = build_sigma(dist, spec, p)
    assert sigma[0, 1] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)
    assert sigma[0, 0] == pytest.approx(2.5)
    assert_allclose(sigma, sigma.T)


def test_build_sigma_decorrelated_limit():
    spec = CovarianceSpec("gaussian")
    p = CovParams(sigma2=1.7, phi=0.01, tau2=0.0)
    dist = np.array([[0.0, 50.0], [50.0, 0.0]])
    sigma = build_sigma(dist, spec, p)
    assert sigma[0, 1] == pytest.approx(0.0, abs=1e-300)
    assert sigma[0, 0] == pytest.approx(1.7)


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: f"{s.family}-{s.kappa}")
def test_build_sigma_spd_random_draws(spec):
    for seed in range(8):
        dist = random_geometry(seed)
        p = random_params(seed)
        spd_cholesky(build_sigma(dist, spec, p))  # raises on failure


def test_spd_cholesky_raises_on_indefinite():
    mat = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SingularCovarianceError):
        spd_cholesky(mat)


def test_spd_cholesky_is_scipys_factor_bit_for_bit():
    from scipy.linalg import cholesky

    for seed in range(4):
        sigma = build_sigma(random_geometry(seed, n=30), CovarianceSpec("exponential"),
                            random_params(seed))
        assert np.array_equal(spd_cholesky(sigma), cholesky(sigma, lower=True))


def test_spd_cholesky_retries_a_singular_matrix_once_with_jitter():
    # the jitter is 1e-10 times the mean diagonal entry, here 1
    mat = np.ones((3, 3))
    got = spd_cholesky(mat)
    assert np.array_equal(np.triu(got, 1), np.zeros((3, 3)))
    assert_allclose(got @ got.T, mat + 1e-10 * np.eye(3), rtol=0, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["lower", "upper"])
def test_spd_cholesky_rejects_a_non_finite_entry(bad, where):
    mat = 2.0 * np.eye(3)
    mat[(2, 0) if where == "lower" else (0, 2)] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        spd_cholesky(mat)


def test_dsigma_tau2_is_identity():
    spec = CovarianceSpec("exponential")
    dist = random_geometry(0)
    p = random_params(0)
    assert_allclose(dsigma(dist, spec, p, 3), np.eye(dist.shape[0]))


def test_dsigma_sigma2_matches_sigma_over_sigma2_when_no_nugget():
    spec = CovarianceSpec("gaussian")
    dist = random_geometry(1)
    p = CovParams(sigma2=2.3, phi=1.7, tau2=0.0)
    assert_allclose(dsigma(dist, spec, p, 1), build_sigma(dist, spec, p) / p.sigma2)


def _fd_sigma(dist, spec, p, k, h_rel=1e-6):
    """Central finite difference of build_sigma in parameter k."""
    base = p.as_array()
    step = h_rel * max(abs(base[k - 1]), 1.0)
    up, dn = base.copy(), base.copy()
    up[k - 1] += step
    dn[k - 1] -= step
    s_up = build_sigma(dist, spec, CovParams(*up))
    s_dn = build_sigma(dist, spec, CovParams(*dn))
    return (s_up - s_dn) / (2 * step)


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: f"{s.family}-{s.kappa}")
def test_dsigma_matches_finite_difference(spec):
    for seed in range(10):
        dist = random_geometry(seed)
        p = random_params(seed)
        for k in (1, 2, 3):
            got = dsigma(dist, spec, p, k)
            want = _fd_sigma(dist, spec, p, k)
            scale = max(np.abs(want).max(), 1e-12)
            assert np.abs(got - want).max() / scale < 1e-5, (spec.family, k, seed)


@pytest.mark.parametrize("spec", [
    CovarianceSpec("exponential"),
    CovarianceSpec("gaussian"),
    CovarianceSpec("powered-exponential", kappa=0.4),
    CovarianceSpec("powered-exponential", kappa=1.3),
    CovarianceSpec("powered-exponential", kappa=2.0),
], ids=lambda s: f"{s.family}-{s.kappa}")
def test_range_derivative_from_r_is_the_closed_form(spec):
    # 10^6 lags, zero among them, as one 1000 x 1000 array: the derivative
    # read off R is the family's closed form bit for bit
    rng = np.random.default_rng(4)
    u = np.exp(rng.uniform(np.log(1e-9), np.log(50.0), 10**6))
    u[:4] = (0.0, 1e-300, 1.0, 700.0)
    phi = 1.7
    h = (phi * u).reshape(1000, 1000)
    _, got = cov.corr_dcorr_matrix(cov.Lags(h), spec, phi)
    assert np.array_equal(got, dcorr_dphi_closed_form(spec.family, spec.kappa, h, phi))
    # from a matrix equal to R off the diagonal, such as Psi = R + nu2 I:
    # the same matrix, zero on the diagonal
    dist = random_geometry(0, n=30)
    r, want = cov.corr_dcorr_matrix(cov.Lags(dist), spec, phi)
    got = cov._closed_form_dcorr(spec.family, spec.kappa, dist, dist / phi,
                                 r + 0.3 * np.eye(30), phi)
    assert np.array_equal(got, want)
    assert np.array_equal(got, dcorr_dphi_closed_form(spec.family, spec.kappa, dist, phi))
    assert np.all(np.diag(got) == 0.0)


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: f"{s.family}-{s.kappa}")
def test_pairwise_matrices_equal_full_matrix_evaluation(spec):
    # Matern is evaluated on the upper triangle and mirrored; a distance
    # matrix is exactly symmetric with a zero diagonal, so every family
    # gives the elementwise evaluation over the whole matrix
    for seed in range(3):
        dist = random_geometry(seed, n=12)
        p = random_params(seed)
        rho = correlation(spec.family, spec.kappa, dist, p.phi)
        assert np.array_equal(dsigma(dist, spec, p, 1), rho)
        d1 = dcorr_elementwise(spec, dist, p.phi)
        d2 = _d2corr_dphi2(spec.family, spec.kappa, dist, p.phi, rho, d1)
        assert np.array_equal(dsigma(dist, spec, p, 2), p.sigma2 * d1)
        assert np.array_equal(d2sigma(dist, spec, p, 1, 2), d1)
        assert np.array_equal(d2sigma(dist, spec, p, 2, 2), p.sigma2 * d2)


@pytest.mark.parametrize("phi", [0.05, 20.0])
@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: f"{s.family}-{s.kappa}")
def test_one_kernel_pass_matches_corr_and_dcorr_matrix(spec, phi):
    # every correlation path runs one arithmetic, so R and dR/dphi agree bit
    # for bit whichever path forms them; a duplicated site puts a zero lag
    # off the diagonal
    rng = np.random.default_rng(8)
    coords = rng.uniform(0, 10, size=(30, 2))
    coords[7] = coords[3]
    dist = distance_matrix(coords)
    rho, drho = cov.corr_dcorr_matrix(cov.Lags(dist), spec, phi)
    assert (rho[3, 7], rho[7, 3], drho[3, 7], drho[7, 3]) == (1.0, 1.0, 0.0, 0.0)
    assert np.array_equal(np.diag(rho), np.ones(30))
    assert np.array_equal(np.diag(drho), np.zeros(30))
    p = CovParams(sigma2=1.7, phi=phi, tau2=0.2)
    for want in (cov.corr_matrix(dist, spec, phi), correlation(spec.family, spec.kappa, dist, phi),
                 dsigma(dist, spec, p, 1)):
        assert np.array_equal(rho, want)
    assert np.array_equal(dsigma(dist, spec, p, 2), p.sigma2 * drho)
    assert np.array_equal(drho, dcorr_elementwise(spec, dist, phi))


def test_upper_triangle_indices_are_shared_and_read_only():
    # every Matern pass over an n x n matrix gathers and scatters through
    # one pair of flat index arrays per n, which no caller may write to
    first = cov._upper_triangle(9)
    assert cov._upper_triangle(9) is first
    rows, cols = np.triu_indices(9, k=1)
    for got, want in zip(first, (rows * 9 + cols, cols * 9 + rows)):
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0] = 1


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: f"{s.family}-{s.kappa}")
def test_d2sigma_matches_finite_difference(spec):
    for seed in range(6):
        dist = random_geometry(seed)
        p = random_params(seed)
        for k, l in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]:
            got = d2sigma(dist, spec, p, k, l)
            base = p.as_array()
            step = 1e-4 * max(abs(base[l - 1]), 1.0)
            up, dn = base.copy(), base.copy()
            up[l - 1] += step
            dn[l - 1] -= step
            fd = (
                dsigma(dist, spec, CovParams(*up), k)
                - dsigma(dist, spec, CovParams(*dn), k)
            ) / (2 * step)
            scale = max(np.abs(fd).max(), np.abs(got).max(), 1e-8)
            assert np.abs(got - fd).max() / scale < 1e-5, (spec.family, k, l, seed)


def test_matern_second_derivative_at_half_integer_smoothness():
    # kappa = 1/2 is the exponential, and kappa = 3/2 has
    # rho = (1 + u) exp(-u), so d2rho/dphi2 = u^2 exp(-u) (u - 3) / phi^2
    for seed in range(4):
        dist = random_geometry(seed, n=10)
        p = random_params(seed)
        half = d2sigma(dist, CovarianceSpec("matern", kappa=0.5), p, 2, 2)
        want = d2sigma(dist, CovarianceSpec("exponential"), p, 2, 2)
        assert np.abs(half - want).max() <= 1e-13 * np.abs(want).max()
        u = dist / p.phi
        got = d2sigma(dist, CovarianceSpec("matern", kappa=1.5), p, 2, 2)
        want = p.sigma2 * u**2 * np.exp(-u) * (u - 3.0) / p.phi**2
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_d2sigma_mixed_partial_symmetry():
    spec = CovarianceSpec("matern", kappa=0.8)
    dist = random_geometry(3)
    p = random_params(3)
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            assert_allclose(
                d2sigma(dist, spec, p, k, l), d2sigma(dist, spec, p, l, k)
            )


def test_d2sigma_tau2_tau2_is_zero():
    spec = CovarianceSpec("exponential")
    dist = random_geometry(4)
    p = random_params(4)
    assert_allclose(d2sigma(dist, spec, p, 3, 3), 0.0)


def test_dsigma_inv_identity():
    # Sigma (dSigma^{-1}/da_k) Sigma must equal -dSigma/da_k.
    for spec in FAMILY_SPECS:
        dist = random_geometry(5)
        p = random_params(5)
        sigma = build_sigma(dist, spec, p)
        for k in (1, 2, 3):
            lhs = sigma @ dsigma_inv(dist, spec, p, k) @ sigma
            assert_allclose(lhs, -dsigma(dist, spec, p, k), atol=1e-8)


def test_dsigma_inv_matches_finite_difference_of_inverse():
    spec = CovarianceSpec("gaussian")
    for seed in range(5):
        dist = random_geometry(seed)
        p = random_params(seed)
        for k in (1, 2, 3):
            got = dsigma_inv(dist, spec, p, k)
            base = p.as_array()
            step = 1e-6 * max(abs(base[k - 1]), 1.0)
            up, dn = base.copy(), base.copy()
            up[k - 1] += step
            dn[k - 1] -= step
            fd = (
                np.linalg.inv(build_sigma(dist, spec, CovParams(*up)))
                - np.linalg.inv(build_sigma(dist, spec, CovParams(*dn)))
            ) / (2 * step)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(got - fd).max() / scale < 1e-5


def test_d2sigma_inv_matches_finite_difference():
    spec = CovarianceSpec("exponential")
    dist = random_geometry(7, n=6)
    p = random_params(7)
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            got = d2sigma_inv(dist, spec, p, k, l)
            base = p.as_array()
            step = 1e-5 * max(abs(base[l - 1]), 1.0)
            up, dn = base.copy(), base.copy()
            up[l - 1] += step
            dn[l - 1] -= step
            fd = (
                dsigma_inv(dist, spec, CovParams(*up), k)
                - dsigma_inv(dist, spec, CovParams(*dn), k)
            ) / (2 * step)
            scale = max(np.abs(fd).max(), np.abs(got).max(), 1e-8)
            assert np.abs(got - fd).max() / scale < 1e-4, (k, l)


def test_cov_params_validation():
    with pytest.raises(ConfigurationError):
        CovParams(sigma2=0.0, phi=1.0)
    with pytest.raises(ConfigurationError):
        CovParams(sigma2=1.0, phi=-1.0)
    with pytest.raises(ConfigurationError):
        CovParams(sigma2=1.0, phi=1.0, tau2=-0.1)
    p = CovParams(sigma2=2.0, phi=1.0, tau2=0.5)
    assert p.nu2 * p.sigma2 == pytest.approx(p.tau2)


@pytest.mark.parametrize("scale", [1e-6, 1e-2, 1.0, 1e3, 1e6])
def test_distances_equal_scipy_bit_for_bit(scale):
    # sqrt(dx**2 + dy**2) is cdist's and pdist's arithmetic
    from scipy.spatial.distance import cdist, pdist

    rng = np.random.default_rng(int(np.log10(scale)) + 10)
    a = rng.uniform(-scale, scale, size=(300, 2))
    b = scale * rng.uniform(0.5, 2.0, size=(120, 2))
    d = distance_matrix(a)
    assert np.array_equal(d, cdist(a, a)) and np.all(np.diag(d) == 0.0)
    assert np.array_equal(cross_distance(a, b), cdist(a, b))
    assert np.array_equal(d[np.triu_indices(300, 1)], pdist(a))

    # the variogram's pairs and squared differences: its bins by pdist
    z = scale * rng.normal(size=300)
    vario = empirical_variogram(a, z, n_bins=7)
    pairs, dz2 = pdist(a), pdist(z[:, None], metric="sqeuclidean")
    keep = pairs <= vario.max_dist
    which = np.clip(np.digitize(pairs[keep], np.linspace(0.0, vario.max_dist, 8)) - 1, 0, 6)
    sums = np.bincount(which, weights=dz2[keep], minlength=7)
    counts = np.bincount(which, minlength=7)
    assert vario.max_dist == 0.5 * pdist(a).max()
    assert np.array_equal(vario.counts, counts[counts > 0])
    assert np.array_equal(vario.gamma, (sums / (2.0 * counts))[counts > 0])
