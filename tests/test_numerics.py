import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.special import chdtri, gammaincc, ndtr

from gptest.errors import InvalidInput
from gptest.numerics import (
    RngStream,
    chi2_sf,
    chisq_mixture_sf,
    normal_cdf,
    sym_eigen,
)
from mc_reference import chisq1, weighted_chisq_pvalue


class TestSymEigen:
    def test_diagonal(self):
        values, _ = sym_eigen([[2.0, 0.0], [0.0, 3.0]])
        assert np.allclose(values, [3.0, 2.0])

    def test_offdiagonal_by_hand(self):
        # characteristic polynomial of [[0,1],[1,0]] is l^2 - 1 = 0
        values, vectors = sym_eigen([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(values, [1.0, -1.0])
        s = 1.0 / np.sqrt(2.0)
        for col, expected in ((0, [s, s]), (1, [s, -s])):
            v = vectors[:, col]
            assert np.allclose(np.abs(v), np.abs(expected), atol=1e-12)

    def test_identity(self):
        values, _ = sym_eigen(np.eye(7))
        assert np.allclose(values, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            sym_eigen([[np.nan, 0.0], [0.0, 1.0]])

    def test_reconstruction_and_orthogonality_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            dim = rng.integers(2, 51)
            a = rng.standard_normal((dim, dim))
            a = (a + a.T) / 2
            values, vectors = sym_eigen(a)
            recon = vectors @ np.diag(values) @ vectors.T
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(recon - a) <= 1e-10 * scale
            assert np.linalg.norm(vectors.T @ vectors - np.eye(dim)) <= 1e-10
            assert np.all(np.diff(values) <= 1e-12)


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(123).uniform(100)
        b = RngStream(123).uniform(100)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = RngStream(1).uniform(10_000)
        b = RngStream(2).uniform(10_000)
        assert not np.array_equal(a, b)

    def test_normal_mean(self):
        draws = RngStream(99).normal(1_000_000)
        assert abs(draws.mean()) < 0.005

    def test_chisq1_mean(self):
        draws = chisq1(RngStream(100), 1_000_000)
        assert abs(draws.mean() - 1.0) < 0.01

    def test_uniform_range(self):
        draws = RngStream(3).uniform(10_000)
        assert draws.min() >= 0.0 and draws.max() < 1.0

    def test_spawn_is_deterministic_and_distinct(self):
        parent = RngStream(77)
        child_a = parent.spawn(0).uniform(100)
        child_b = RngStream(77).spawn(0).uniform(100)
        assert np.array_equal(child_a, child_b)
        assert not np.array_equal(child_a, RngStream(77).spawn(1).uniform(100))

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_draws_equal_pcg64_generator(self, seed):
        stream = RngStream(seed)
        stream.spawn(3)  # spawning draws nothing from the parent
        gen = np.random.Generator(np.random.PCG64(seed))
        assert np.array_equal(stream.uniform(50), gen.random(50))
        assert np.array_equal(stream.normal(50), gen.standard_normal(50))
        assert np.array_equal(stream.permutation(40), gen.permutation(40))
        assert np.array_equal(stream.uniform((3, 4)), gen.random((3, 4)))

    @pytest.mark.parametrize(
        "seed, index, child_seed",
        [(77, 1, 0x3C6EF372FE94F867), (2**64 - 1, 4, 0xE8EA9F60838B9396)],
    )
    def test_spawn_child_seed_pinned(self, seed, index, child_seed):
        assert RngStream(seed).spawn(index).seed == child_seed


class TestGaussLegendre:
    """numpy's Gauss-Legendre rule, which ``chisq_mixture_sf`` and the
    basis tests integrate with."""

    def test_one_point(self):
        nodes, weights = leggauss(1)
        assert np.allclose(nodes, [0.0]) and np.allclose(weights, [2.0])

    def test_two_point(self):
        nodes, weights = leggauss(2)
        assert np.allclose(np.sort(nodes), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert np.allclose(weights, [1.0, 1.0])

    def test_quadratic_integral(self):
        nodes, weights = leggauss(2)
        assert np.sum(weights * nodes ** 2) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_exactness_up_to_degree(self):
        rng = np.random.default_rng(11)
        for m in (3, 8, 32):
            nodes, weights = leggauss(m)
            for deg in range(2 * m):
                coeffs = rng.standard_normal(deg + 1)
                poly = np.polynomial.Polynomial(coeffs)
                exact = poly.integ()(1.0) - poly.integ()(-1.0)
                assert np.sum(weights * poly(nodes)) == pytest.approx(exact, abs=1e-11)


class TestDistributionHelpers:
    def test_normal_cdf_known_values(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-9)
        assert normal_cdf(-1.6448536269514722) == pytest.approx(0.05, abs=1e-9)

    def test_chi2_sf_known_values(self):
        assert chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-9)
        assert chi2_sf(7.814727903251179, 3) == pytest.approx(0.05, abs=1e-9)
        assert chi2_sf(0.0, 4) == 1.0
        assert chi2_sf(np.inf, 3) == 0.0

    @pytest.mark.parametrize("df", range(1, 61))
    def test_chi2_sf_matches_scipy(self, df):
        for x in np.geomspace(1e-6, 2000.0, 200):
            reference = gammaincc(df / 2.0, x / 2.0)
            if reference > 1e-300:
                assert chi2_sf(x, df) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_normal_cdf_matches_scipy(self):
        for x in np.linspace(-37.5, 8.5, 4601):
            assert normal_cdf(x) == pytest.approx(ndtr(x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("df", [0, 2.5, -1])
    def test_chi2_sf_refuses_df_not_a_positive_integer(self, df):
        for x in (0.0, 3.0):
            with pytest.raises(InvalidInput, match="positive integer"):
                chi2_sf(x, df)


class TestChisqMixtureSf:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9, 25, 60, 400, 900])
    @pytest.mark.parametrize("scale", [1.0, 2.3])
    def test_equal_weights_match_chi2_tail(self, k, scale):
        for p in (0.9, 0.5, 0.05, 1e-3, 1e-6, 1e-10):
            x = scale * chdtri(k, p)
            exact = gammaincc(k / 2.0, x / scale / 2.0)
            assert chisq_mixture_sf(np.full(k, scale), x) == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("ratio", [0.5, 0.01, 0.999, 3e-7])
    def test_two_chi2_2_closed_form(self, ratio):
        # lam1 chi2(2) + lam2 chi2(2) is a sum of two exponentials
        lam1, lam2 = 1.7, 1.7 * ratio
        for x in np.geomspace(1e-4, 60.0, 25):
            exact = (
                lam1 * np.exp(-x / (2 * lam1)) - lam2 * np.exp(-x / (2 * lam2))
            ) / (lam1 - lam2)
            got = chisq_mixture_sf([lam1, lam1, lam2, lam2], x)
            assert got == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("m, eps", [(200, 0.176), (400, 0.3), (900, 0.01)])
    def test_cluster_of_weights_below_the_top_one(self, m, eps):
        # Z^2 + eps chi2(m): condition on Z and integrate the chi2(m) tail
        weights = np.concatenate([[1.0], np.full(m, eps)])
        mean, sd = 1.0 + m * eps, np.sqrt(2.0 * (1.0 + m * eps * eps))
        for x in mean + sd * np.array([-2.0, 0.0, 2.0, 5.0, 10.0]):
            def given_z(u):
                return gammaincc(m / 2.0, (x - u * u) / (2.0 * eps)) * 2.0 * np.exp(-u * u / 2.0)

            inner, _ = integrate.quad(given_z, 0.0, np.sqrt(x), epsabs=0.0, epsrel=1e-13, limit=500)
            exact = inner / np.sqrt(2.0 * np.pi) + 2.0 * ndtr(-np.sqrt(x))
            assert chisq_mixture_sf(weights, x) == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize(
        "weights",
        [
            np.random.default_rng(1).exponential(size=5),
            np.random.default_rng(2).exponential(size=9),
            np.random.default_rng(3).uniform(0.1, 2.0, size=25),
            np.array([5.0, 1.0, 0.1, 1e-4, 1e-9]),
        ],
        ids=["J5", "J9", "J25", "ill_conditioned"],
    )
    def test_agrees_with_monte_carlo_reference(self, weights):
        draws = 1_000_000
        sd = np.sqrt(2.0 * np.sum(weights ** 2))
        for x in (weights.sum(), weights.sum() + 2.0 * sd):
            exact = chisq_mixture_sf(weights, x)
            mc = weighted_chisq_pvalue(weights, x, draws, RngStream(17))
            assert abs(exact - mc) <= 4.0 * np.sqrt(exact * (1.0 - exact) / draws)

    def test_monotone_and_bounded(self):
        weights = [3.0, 1.0, 0.5, 0.01]
        xs = np.concatenate([[1e-12, 1e-6], np.linspace(0.01, 120.0, 400)])
        ps = np.array([chisq_mixture_sf(weights, x) for x in xs])
        assert np.all((ps >= 0.0) & (ps <= 1.0))
        assert np.all(np.diff(ps) <= 0.0)

    def test_extreme_thresholds_stay_in_range(self):
        for x in (1e-300, 1e-30, 1e5, 1e300):
            for weights in ([1.0], [1e300, 1e299], [1e-300, 2e-300], [5.0, 1.0, 1e-9]):
                assert 0.0 <= chisq_mixture_sf(weights, x) <= 1.0

    def test_nonpositive_threshold(self):
        assert chisq_mixture_sf([1.0, 2.0], 0.0) == 1.0
        assert chisq_mixture_sf([1.0, 2.0], -3.0) == 1.0

    def test_all_zero_weights(self):
        assert chisq_mixture_sf([0.0, 0.0], 0.0) == 1.0
        with pytest.warns(RuntimeWarning):
            assert chisq_mixture_sf([0.0, 0.0], 1.0) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInput):
            chisq_mixture_sf([1.0, -0.5], 1.0)
        with pytest.raises(InvalidInput):
            chisq_mixture_sf([1e-3, -1e-12], 1.0)

    def test_rounding_noise_clipped(self):
        assert chisq_mixture_sf([2.0, -1e-14], 3.0) == chisq_mixture_sf([2.0, 0.0], 3.0)
        assert chisq_mixture_sf([2.0, 0.0], 3.0) == chisq_mixture_sf([2.0], 3.0)

    def test_malformed_input_rejected(self):
        for weights, x in (([], 1.0), ([[1.0]], 1.0), ([1.0, np.nan], 1.0), ([1.0], np.inf)):
            with pytest.raises(InvalidInput):
                chisq_mixture_sf(weights, x)

    def test_deterministic(self):
        weights = np.random.default_rng(4).exponential(size=9)
        assert chisq_mixture_sf(weights, 14.0) == chisq_mixture_sf(weights.copy(), 14.0)

    def test_quadrature_rule_not_rebuilt_per_call(self, monkeypatch):
        def no_rebuild(_):
            raise AssertionError("the Gauss-Legendre rule is built once, at import")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rebuild)
        assert 0.0 < chisq_mixture_sf([1.0, 2.0], 3.0) < 1.0
