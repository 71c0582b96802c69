import math

import numpy as np
import pytest

from gptest import engine

from gptest.basis import BasisSpec, DesignMatrix, build_design, nested_columns
from gptest.dgp import (
    Dataset,
    PanelAConfig,
    PanelBConfig,
    gen_panel_a,
    gen_panel_b,
    oracle_nuisances_panel_a,
    oracle_nuisances_panel_b,
)
from gptest.engine import (
    GP_STANDARDIZED,
    GP_UNSTANDARDIZED,
    check_basis_columns,
    gp_test_standardized,
    gp_test_unstandardized,
    projection_vector,
    run_gp_test,
    run_gp_tests,
    sigma_hat,
    statistic,
    wald_projection_test,
)
from gptest.engine import TestConfig as EngineConfig
from gptest.errors import DegenerateScale, InvalidInput
from gptest.nuisance import crossfit, with_intercept
from gptest.numerics import (
    RIDGE_JITTER, RngStream, chi2_sf, chisq_mixture_sf, normal_cdf, sym_eigen,
)
from gptest.scores import IV_COMPATIBILITY, MEAN_EXCHANGEABILITY, ScoreSpec, evaluate_score
from mc_reference import weighted_chisq_pvalue


def design_from(values):
    return DesignMatrix(values=np.asarray(values, dtype=float))


def assert_nested_equal(result, alone, largest):
    """``result`` is a J* of a nest run with ``run_gp_tests``, ``alone`` the
    same test on a directly built design.  The nest's largest J* matches
    exactly; a smaller one reads its S and Sigma-hat off the largest's
    projection and Sigma-hat, so its values match to rounding."""
    if largest:
        assert result.to_dict() == alone.to_dict()
        return
    assert (result.method, result.J, result.reject) == (alone.method, alone.J, alone.reject)
    assert result.diagnostics == alone.diagnostics
    for name in ("statistic", "p_value", "rho_hat", "gamma_hat", "tau_hat"):
        got, want = getattr(result, name), getattr(alone, name)
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(InvalidInput):
            EngineConfig(alpha=1.5)


class TestProjectionVector:
    def test_hand_average(self):
        design = design_from([[1.0, 2.0], [3.0, 4.0]])
        a = projection_vector(design, [1.0, 1.0])
        assert np.allclose(a, [2.0, 3.0])

    def test_signs_cancel(self):
        design = design_from([[1.0, 5.0], [1.0, -5.0]])
        a = projection_vector(design, [1.0, -1.0])
        assert np.allclose(a, [0.0, 5.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            projection_vector(design_from([[1.0]]), [1.0, 2.0])


class TestStatistic:
    def test_identity_weighting(self):
        assert statistic(np.array([3.0, 4.0]), 2) == pytest.approx(50.0)


class TestSigmaHat:
    @pytest.mark.parametrize("g", [[3.0, 1.0], []], ids=["longer", "empty"])
    def test_length_mismatch(self, g):
        with pytest.raises(InvalidInput, match=f"^1 design rows but {len(g)} pseudo-outcomes$"):
            sigma_hat(design_from([[1.0, 2.0]]), g)

    def test_single_row_outer_product(self):
        design = design_from([[1.0, 2.0]])
        sig = sigma_hat(design, [3.0])
        assert np.allclose(sig, 9.0 * np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_matches_tau_moments(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n, j = 40, 5
            design = design_from(rng.standard_normal((n, j)))
            g = rng.standard_normal(n)
            sig = sigma_hat(design, g)
            taus = np.linalg.eigvalsh(sig)
            assert np.trace(sig) == pytest.approx(taus.sum(), rel=1e-12)
            assert np.linalg.norm(sig) ** 2 == pytest.approx(np.sum(taus ** 2), rel=1e-12)


class TestWeightedChisqPvalue:
    def test_single_weight_quantile(self):
        p = weighted_chisq_pvalue([1.0], 3.841458820694124, 100_000, RngStream(0))
        assert abs(p - 0.05) < 0.004

    def test_scaled_single_weight(self):
        p = weighted_chisq_pvalue([2.0], 2.0 * 3.841458820694124, 100_000, RngStream(1))
        assert abs(p - 0.05) < 0.004

    def test_equal_weights_match_chi2_df3(self):
        p = weighted_chisq_pvalue([1.0, 1.0, 1.0], 7.814727903251179, 100_000, RngStream(2))
        assert abs(p - 0.05) < 0.004

    def test_monotone_in_threshold(self):
        taus = [0.5, 1.0, 2.0]
        ps = [
            weighted_chisq_pvalue(taus, s, 50_000, RngStream(3))
            for s in (1.0, 3.0, 7.0, 15.0)
        ]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_nonpositive_threshold(self):
        assert weighted_chisq_pvalue([1.0], 0.0, 10_000, RngStream(0)) == 1.0
        assert weighted_chisq_pvalue([1.0], -2.0, 10_000, RngStream(0)) == 1.0

    def test_all_zero_weights(self):
        assert weighted_chisq_pvalue([0.0, 0.0], 0.0, 10_000, RngStream(0)) == 1.0
        with pytest.warns(RuntimeWarning):
            assert weighted_chisq_pvalue([0.0], 1.0, 10_000, RngStream(0)) == 0.0

    def test_too_few_draws(self):
        with pytest.raises(InvalidInput):
            weighted_chisq_pvalue([1.0], 1.0, 500, RngStream(0))

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInput):
            weighted_chisq_pvalue([1.0, -0.5], 1.0, 10_000, RngStream(0))

    def test_seed_reproducibility(self):
        args = ([0.3, 1.2, 2.5], 4.0, 20_000)
        assert weighted_chisq_pvalue(*args, RngStream(9)) == weighted_chisq_pvalue(
            *args, RngStream(9)
        )


class TestStandardizedVariant:
    def test_single_row_centers_exactly(self):
        # one observation: S equals trace(Sigma) so T = 0 and p = 0.5
        design = design_from([[1.0, 2.0]])
        res = gp_test_standardized(design, [3.0], EngineConfig())
        assert res.t_hat == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.5, abs=1e-12)
        assert res.rho_hat == pytest.approx(45.0)
        assert res.gamma_hat == pytest.approx(45.0)

    def test_p_matches_normal_tail(self):
        rng = np.random.default_rng(22)
        design = design_from(rng.standard_normal((200, 4)))
        res = gp_test_standardized(design, rng.standard_normal(200), EngineConfig())
        assert res.p_value == pytest.approx(1.0 - normal_cdf(res.t_hat), abs=1e-12)

    @pytest.mark.parametrize("n, t", [(14, 9.19), (43, 29.70)])
    def test_deep_tail_keeps_relative_accuracy(self, n, t):
        # every B_i g_i = (1, 0): S = n, Sigma-hat = diag(1, 0), T = (n - 1) / sqrt(2)
        design = design_from(np.column_stack([np.ones(n), np.zeros(n)]))
        res = gp_test_standardized(design, np.ones(n), EngineConfig())
        assert res.t_hat == pytest.approx(t, abs=0.01)
        expected = 0.5 * math.erfc(res.t_hat / math.sqrt(2.0))
        assert res.p_value == pytest.approx(expected, rel=1e-12)
        assert res.p_value > 0.0

    def test_scale_invariance_of_t(self):
        rng = np.random.default_rng(23)
        design = design_from(rng.standard_normal((150, 3)))
        g = rng.standard_normal(150)
        base = gp_test_standardized(design, g, EngineConfig())
        scaled = gp_test_standardized(design, 7.3 * g, EngineConfig())
        assert abs(base.t_hat - scaled.t_hat) <= 1e-9
        assert abs(base.p_value - scaled.p_value) <= 1e-9

    def test_zero_scores_degenerate(self):
        design = design_from(np.ones((10, 2)))
        for test in (gp_test_standardized, gp_test_unstandardized):
            with pytest.raises(DegenerateScale, match="Sigma-hat is identically zero"):
                test(design, np.zeros(10), EngineConfig())


class TestStandardizedLimitingSize:
    """The standardized rule's exact size at the population Sigma.

    T > z_{0.95} is S > rho + z_{0.95} sqrt(2) gamma, and in the limit S is
    the weighted chi-square mixture over the eigenvalues of Sigma, so the
    rule's limiting size is that mixture's tail at the threshold.  Sigma is
    Sigma-hat of a 400,000-row null sample with oracle nuisances.  The
    normal approximation ignores the mixture's skew, so the size exceeds
    the nominal 0.05 by 0.016-0.020 at J* = 3, 5, 7 (additive Legendre).
    """

    @pytest.mark.parametrize(
        "panel, expected",
        [("A", (0.0687, 0.0672, 0.0661)), ("B", (0.0697, 0.0673, 0.0656))],
    )
    def test_size_at_population_sigma(self, panel, expected):
        if panel == "A":
            cfg = PanelAConfig(n=400_000, seed=2026)
            data, kind, oracle = gen_panel_a(cfg), MEAN_EXCHANGEABILITY, oracle_nuisances_panel_a(cfg)
        else:
            cfg = PanelBConfig(n=400_000, seed=2026)
            data, kind, oracle = gen_panel_b(cfg), IV_COMPATIBILITY, oracle_nuisances_panel_b(cfg)
        score = ScoreSpec(kind=kind, nuisance_mode="oracle", oracle=oracle)
        x = data.covariate_matrix(score.covariates)
        g = evaluate_score(data, oracle(x), score)
        z95 = 1.6448536269514722
        for j_star, size in zip((3, 5, 7), expected):
            spec = BasisSpec(j_star=j_star, ranges=((-1.0, 1.0), (-1.0, 1.0)))
            sigma = sigma_hat(build_design(x, spec), g)
            rho, gamma = np.trace(sigma), np.linalg.norm(sigma)
            limit = chisq_mixture_sf(sym_eigen(sigma)[0], rho + z95 * np.sqrt(2.0) * gamma)
            assert limit == pytest.approx(size, abs=0.002)
            assert limit > 0.06


class TestUnstandardizedVariant:
    def test_zero_scores_accepts(self):
        # Only an identically zero score is refused: one nonzero row gives a
        # rank-one Sigma-hat = 0.1 * [[1, 1], [1, 1]] and S = 0.2, so p is
        # the chi-square(1) tail at 1.
        design = design_from(np.ones((10, 2)))
        g = np.zeros(10)
        g[0] = 1.0
        res = gp_test_unstandardized(design, g, EngineConfig())
        assert res.statistic == pytest.approx(0.2, rel=1e-12)
        assert res.p_value == pytest.approx(chi2_sf(1.0, 1), rel=1e-9)
        assert not res.reject
        with pytest.raises(DegenerateScale, match="Sigma-hat is identically zero"):
            gp_test_unstandardized(design, np.zeros(10), EngineConfig())

    def test_p_is_exact_mixture_tail_without_a_seed(self):
        rng = np.random.default_rng(24)
        design = design_from(rng.standard_normal((120, 5)))
        g = rng.standard_normal(120)
        a = gp_test_unstandardized(design, g, EngineConfig(seed=1))
        b = gp_test_unstandardized(design, g, EngineConfig(seed=2))
        assert a.p_value == b.p_value
        assert a.p_value == chisq_mixture_sf(a.tau_hat, a.statistic)

    def test_reports_trace_and_frobenius_like_standardized(self):
        rng = np.random.default_rng(25)
        design = design_from(rng.standard_normal((150, 4)))
        g = rng.standard_normal(150)
        plain = gp_test_unstandardized(design, g, EngineConfig())
        std = gp_test_standardized(design, g, EngineConfig())
        assert plain.rho_hat == std.rho_hat
        assert plain.gamma_hat == std.gamma_hat
        assert plain.rho_hat == pytest.approx(plain.tau_hat.sum(), rel=1e-12)
        assert plain.gamma_hat == pytest.approx(np.sqrt(np.sum(plain.tau_hat ** 2)), rel=1e-12)
        assert {"rho_hat", "gamma_hat"} <= set(plain.to_dict())

    def test_taus_are_sigma_eigenvalues(self):
        rng = np.random.default_rng(24)
        design = design_from(rng.standard_normal((80, 3)))
        g = rng.standard_normal(80)
        res = gp_test_unstandardized(design, g, EngineConfig())
        sig = sigma_hat(design, g)
        assert np.allclose(np.sort(res.tau_hat), np.sort(np.linalg.eigvalsh(sig)))

    def test_rotation_invariance_identity_weighting(self):
        # with identity weighting, S and the tau spectrum are invariant
        # under an orthogonal rotation of the basis columns
        rng = np.random.default_rng(25)
        b = rng.standard_normal((120, 4))
        g = rng.standard_normal(120)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        res = gp_test_unstandardized(design_from(b), g, EngineConfig(seed=5))
        rot = gp_test_unstandardized(design_from(b @ q), g, EngineConfig(seed=5))
        assert abs(res.statistic - rot.statistic) <= 1e-9 * max(1.0, res.statistic)
        assert np.allclose(np.sort(res.tau_hat), np.sort(rot.tau_hat), atol=1e-9)
        assert abs(res.p_value - rot.p_value) <= 1e-9

    def test_rotation_invariance_standardized(self):
        rng = np.random.default_rng(26)
        b = rng.standard_normal((120, 4))
        g = rng.standard_normal(120)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        res = gp_test_standardized(design_from(b), g, EngineConfig())
        rot = gp_test_standardized(design_from(b @ q), g, EngineConfig())
        assert abs(res.t_hat - rot.t_hat) <= 1e-9


class TestWaldProjection:
    def test_intercept_only_reduces_to_t_squared(self):
        rng = np.random.default_rng(27)
        g = rng.standard_normal(500)
        res = wald_projection_test(np.ones((500, 1)), g)
        mean, var = g.mean(), np.var(g)
        assert res.statistic == pytest.approx(500 * mean ** 2 / var, rel=1e-6)
        assert res.p_value == pytest.approx(chi2_sf(res.statistic, 1), abs=1e-12)
        assert res.wald_df == 1

    def test_least_squares_coefficients_reported(self):
        rng = np.random.default_rng(28)
        x = rng.uniform(-1, 1, size=(1000, 1))
        feats = np.column_stack([np.ones(1000), x])
        g = 1.0 + 2.0 * x[:, 0]
        res = wald_projection_test(feats, g)
        assert np.allclose(res.theta_ls, [1.0, 2.0], atol=1e-6)

    def test_null_scores_small_statistic(self):
        rng = np.random.default_rng(29)
        feats = np.column_stack([np.ones(5000), rng.uniform(-1, 1, size=(5000, 2))])
        rejections = 0
        for _ in range(50):
            g = rng.standard_normal(5000)
            rejections += wald_projection_test(feats, g).reject
        assert rejections <= 8

    def test_underdetermined_rejected(self):
        with pytest.raises(InvalidInput):
            wald_projection_test(np.ones((3, 3)), np.zeros(3))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_matches_identity_matrix_ridge_bit_for_bit(self, seed, d):
        """The ridge added to the diagonals in place gives the statistic,
        p-value and coefficients of adding ``RIDGE_JITTER * I``."""
        rng = np.random.default_rng(seed)
        n = 200 * (seed + 1)
        feats = np.column_stack([np.ones(n), rng.uniform(-1, 1, size=(n, d - 1))])
        g = rng.standard_normal(n) + 0.1 * seed * feats[:, -1]
        gram, moment = feats.T @ feats / n, feats.T @ g / n
        jitter = RIDGE_JITTER * np.eye(d)
        theta = np.linalg.solve(gram + jitter, moment)
        resid = g - feats @ theta
        meat = (feats * resid[:, None] ** 2).T @ feats / n
        w = float(n * moment @ np.linalg.solve(meat + jitter, moment))
        res = wald_projection_test(feats, g)
        assert res.theta_ls.tobytes() == theta.tobytes()
        assert (res.statistic, res.p_value) == (w, chi2_sf_arange(w, d))


def chi2_sf_arange(x, df):
    """``chi2_sf`` with its exponents from ``np.arange``, for comparison."""
    if x <= 0:
        return 1.0
    h, odd = x / 2.0, df % 2
    terms = [math.erfc(math.sqrt(h)) if odd else math.exp(-h)]
    terms += [math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
              for a in np.arange(1.0 - 0.5 * odd, df / 2.0)]
    return math.fsum(terms)


@pytest.mark.parametrize("df", range(1, 61))
def test_chi2_sf_matches_arange_exponents_bit_for_bit(df):
    xs = [1e-3, 0.5, df / 2.0, float(df), df + 3.0 * math.sqrt(2.0 * df), 4.0 * df + 30.0]
    assert [chi2_sf(x, df) for x in xs] == [chi2_sf_arange(x, df) for x in xs]


class TestRunGpTest:
    def _setup(self, n=800, seed=60):
        from gptest.scores import ScoreSpec

        cfg = PanelAConfig(n=n, seed=seed)
        data = gen_panel_a(cfg)
        score = ScoreSpec(
            kind="mean_exchangeability",
            arm=0,
            nuisance_mode="oracle",
            oracle=oracle_nuisances_panel_a(cfg, a=0),
        )
        return data, score

    def test_standardized_deterministic(self):
        data, score = self._setup()
        spec = BasisSpec(j_star=3)
        cfg = EngineConfig(seed=3)
        a = run_gp_test(data, score, spec, cfg)
        b = run_gp_test(data, score, spec, cfg)
        assert a.p_value == b.p_value and a.statistic == b.statistic
        assert a.J == 5 and a.method == GP_STANDARDIZED

    def test_variants_agree_on_statistic(self):
        data, score = self._setup()
        spec = BasisSpec(j_star=3)
        cfg = EngineConfig(seed=4)
        std = run_gp_test(data, score, spec, cfg, variant=GP_STANDARDIZED)
        uns = run_gp_test(data, score, spec, cfg, variant=GP_UNSTANDARDIZED)
        assert std.statistic == pytest.approx(uns.statistic, rel=1e-12)

    def test_wald_variant_runs(self):
        data, score = self._setup()
        res = run_gp_test(data, score, BasisSpec(j_star=3), EngineConfig(), variant="wald")
        assert res.method == "wald" and res.wald_df == 3

    def test_unknown_variant(self):
        data, score = self._setup(n=200)
        with pytest.raises(InvalidInput):
            run_gp_test(data, score, BasisSpec(j_star=3), EngineConfig(), variant="bogus")

    def test_basis_wider_than_sample_refused(self):
        # tensor j_star=15 on two covariates gives J = 225 columns for 200 rows
        data, score = self._setup(n=200)
        spec = BasisSpec(j_star=15, combination="tensor")
        for variant in (GP_STANDARDIZED, GP_UNSTANDARDIZED):
            with pytest.raises(InvalidInput, match="J=225.*n=200"):
                run_gp_test(data, score, spec, EngineConfig(), variant=variant)
        narrow = BasisSpec(j_star=14, combination="tensor")
        assert run_gp_test(data, score, narrow, EngineConfig()).J == 196

    def test_basis_columns_must_be_fewer_than_rows(self):
        check_basis_columns(199, 200)
        message = "^basis has J=200 columns for n=200 rows; need J < n$"
        with pytest.raises(InvalidInput, match=message):
            check_basis_columns(200, 200)

    @pytest.mark.parametrize("mode", ["crossfit", "oracle"])
    def test_covariate_matrix_built_once(self, mode, monkeypatch):
        """The cross-fit's covariate matrix also serves the design and the Wald features."""
        data, score = self._setup(n=400)
        if mode == "crossfit":
            score = ScoreSpec()
        calls = []
        build = Dataset.covariate_matrix
        monkeypatch.setattr(Dataset, "covariate_matrix",
                            lambda self, names: calls.append(names) or build(self, names))
        specs = (BasisSpec(j_star=3), BasisSpec(j_star=5))
        run_gp_tests(data, score, specs, EngineConfig(), (GP_STANDARDIZED, "wald"))
        assert calls == [("X1", "X2")]

    def test_tests_on_one_crossfit_equal_single_runs(self):
        from gptest.scores import ScoreSpec

        data, score = gen_panel_a(PanelAConfig(n=400, seed=61)), ScoreSpec()
        specs = (BasisSpec(j_star=3), BasisSpec(j_star=5),
                 BasisSpec(j_star=2, combination="tensor"))
        largest = (False, True, True)  # J* = 3 is nested in J* = 5
        variants = (GP_STANDARDIZED, "wald", GP_UNSTANDARDIZED)
        cfg = EngineConfig(seed=5)
        results = run_gp_tests(data, score, specs, cfg, variants, K=4, rng=RngStream(8))
        assert [len(row) for row in results] == [3, 3, 3]
        for v, variant in enumerate(variants):
            for b, spec in enumerate(specs):
                alone = run_gp_test(data, score, spec, cfg, variant, K=4, rng=RngStream(8))
                assert_nested_equal(results[v][b], alone, largest[b] or variant == "wald")
        assert results[1][0] is results[1][2]  # one Wald run serves every basis

    def test_mixed_basis_families_in_input_order(self):
        data, score = self._setup(n=500)
        unit = ((-1.0, 1.0), (-1.0, 1.0))
        specs = (
            BasisSpec(j_star=4),
            BasisSpec(family="fourier", j_star=3, combination="tensor"),
            BasisSpec(j_star=2),
            BasisSpec(family="fourier", j_star=4, combination="tensor"),
            BasisSpec(j_star=3, ranges=((-2.0, 2.0), (-1.0, 1.0))),
            BasisSpec(j_star=5, ranges=unit),
            BasisSpec(j_star=4),
        )
        # three nests: additive Legendre on the unit square (largest J* = 5),
        # tensor Fourier (4), and additive Legendre on the wider range (3)
        largest = (False, False, False, True, True, True, False)
        cfg = EngineConfig()
        variants = (GP_UNSTANDARDIZED, GP_STANDARDIZED)
        results = run_gp_tests(data, score, specs, cfg, variants)
        fit = crossfit(data, score, 5, RngStream(0))
        x = data.covariate_matrix(score.covariates)
        for row, test in zip(results, (gp_test_unstandardized, gp_test_standardized)):
            for result, spec, top in zip(row, specs, largest):
                alone = test(build_design(x, spec), fit.pseudo_outcomes, cfg)
                alone.diagnostics.update(fit.diagnostics)
                assert result.J == spec.n_columns
                assert_nested_equal(result, alone, top)

    def test_statistic_and_scale_once_per_design(self, monkeypatch):
        # one Sigma-hat per nest, at its largest J*: additive J* = 5 serves
        # J* = 3 too, and tensor J* = 2 is a nest of its own
        calls = []
        shared = engine.sigma_hat

        def counted(design, g):
            calls.append(design.J)
            return shared(design, g)

        monkeypatch.setattr(engine, "sigma_hat", counted)
        data, score = self._setup(n=400)
        specs = (BasisSpec(j_star=3), BasisSpec(j_star=5), BasisSpec(j_star=2, combination="tensor"))
        run_gp_tests(data, score, specs, EngineConfig(),
                     (GP_STANDARDIZED, "wald", GP_UNSTANDARDIZED))
        assert calls == [9, 4]

    def test_restricted_design_gives_same_projection_and_sigma(self):
        # a smaller J*'s projection and Sigma-hat are the nested columns'
        # sub-vector and principal sub-block of the largest J*'s, to rounding
        rng = np.random.default_rng(62)
        x = rng.uniform(-1.0, 1.0, size=(300, 2))
        g = rng.standard_normal(300)
        for combination in ("additive", "tensor"):
            spec = BasisSpec(j_star=6, combination=combination)
            big = build_design(x, spec)
            a, sig = projection_vector(big, g), sigma_hat(big, g)
            for j_star in range(1, 7):
                cols = nested_columns(spec, j_star)
                direct = build_design(x, BasisSpec(j_star=j_star, combination=combination))
                np.testing.assert_allclose(a[cols], projection_vector(direct, g),
                                           rtol=0, atol=1e-15)
                np.testing.assert_allclose(sig[np.ix_(cols, cols)], sigma_hat(direct, g),
                                           rtol=0, atol=1e-14)

    def test_to_dict_round_trip(self):
        import json

        data, score = self._setup(n=400)
        res = run_gp_test(data, score, BasisSpec(j_star=3), EngineConfig())
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["method"] == GP_STANDARDIZED
        assert payload["reject"] == res.reject

    @pytest.mark.parametrize("variant, keys", [
        (GP_STANDARDIZED, ["rho_hat", "gamma_hat", "t_hat"]),
        (GP_UNSTANDARDIZED, ["tau_hat", "rho_hat", "gamma_hat"]),
        ("wald", ["wald_df", "theta_ls"]),
    ])
    def test_to_dict_keys_and_types(self, variant, keys):
        # the key order is the JSON that `gptest test` prints; arrays become
        # float lists, and a direct call has no diagnostics to report
        data, score = self._setup(n=400)
        x = data.covariate_matrix(score.covariates)
        g = crossfit(data, score, 5, RngStream(0)).pseudo_outcomes
        if variant == "wald":
            direct = wald_projection_test(with_intercept(x), g)
        else:
            test = gp_test_standardized if variant == GP_STANDARDIZED else gp_test_unstandardized
            direct = test(build_design(x, BasisSpec(j_star=3)), g, EngineConfig())
        run = run_gp_test(data, score, BasisSpec(j_star=3), EngineConfig(), variant=variant)
        head = ["method", "statistic", "p_value", "reject", "J"]
        for result, tail in ((direct, []), (run, ["diagnostics"])):
            out = result.to_dict()
            assert list(out) == head + keys + tail
            assert out["method"] == variant and type(out["reject"]) is bool
            assert all(type(out[k]) is float for k in ("statistic", "p_value"))
            for name in ("tau_hat", "theta_ls"):
                if name in out:
                    assert all(type(v) is float for v in out[name]) and out[name]
        assert run.to_dict()["diagnostics"] == run.diagnostics != {}
