import numpy as np
import pytest

from gptest.dgp import (
    Dataset,
    PanelAConfig,
    PanelBConfig,
    expit,
    gen_panel_a,
    gen_panel_b,
    oracle_nuisances_panel_a,
)
from gptest import nuisance, scores
from gptest.engine import TestConfig as EngineConfig, run_gp_test
from gptest.basis import BasisSpec
from gptest.errors import InsufficientStratum, InvalidInput, SchemaError, SingularDesign
from gptest.nuisance import crossfit, make_folds, with_intercept
from gptest.numerics import RngStream
from gptest.scores import ScoreSpec, clip_diagnostics
from mc_reference import irls_reference


def ols(features, y):
    """Least squares coefficients from the cross-fit solver, as one fit on every row."""
    return nuisance._lstsq(nuisance._Setup(features, np.ones((1, len(y)))), y)[0]


def logistic(features, y):
    """Logistic coefficients and converged flag from the cross-fit solver,
    as one fit on every row."""
    beta, converged = nuisance._irls(nuisance._Setup(features, np.ones((1, len(y)))), y)
    return beta[0], bool(converged[0])


@pytest.mark.parametrize("n", [0, 1000])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_with_intercept_layout(n, k):
    """C-contiguous float64, equal to np.column_stack, also from an
    F-ordered input: the bits of every fit depend on that layout."""
    x = np.asfortranarray(np.random.default_rng(k).uniform(-1.0, 1.0, size=(n, k)))
    got = with_intercept(x)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got, np.column_stack([np.ones(n), x]))
    if k == 1:
        assert np.array_equal(with_intercept(x[:, 0]), got)


class TestFitOls:
    def test_exact_linear_data(self):
        x = np.linspace(-1, 1, 50)
        assert np.allclose(ols(with_intercept(x), 2.0 * x), [0.0, 2.0], atol=1e-10)

    def test_constant_target(self):
        x = np.linspace(0, 1, 30)
        assert np.allclose(ols(with_intercept(x), np.full(30, 3.5)), [3.5, 0.0], atol=1e-10)

    def test_noisy_slope_within_standard_error(self):
        rng = np.random.default_rng(8)
        n = 10_000
        x = rng.uniform(-1, 1, n)
        y = x + rng.standard_normal(n)
        beta = ols(with_intercept(x), y)
        se = 1.0 / np.sqrt(n * np.var(x))
        assert abs(beta[1] - 1.0) < 3.0 * se

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(9)
        feats = with_intercept(rng.uniform(-1, 1, size=(500, 3)))
        y = rng.standard_normal(500)
        resid = y - feats @ ols(feats, y)
        assert np.max(np.abs(feats.T @ resid)) < 1e-8 * np.linalg.norm(y)

    def test_singular_even_with_jitter(self):
        # two equal columns of 1e10 make F'F all-equal entries of 3e20, and
        # the 1e-10 ridge jitter is lost in rounding
        with pytest.raises(SingularDesign):
            ols(np.full((3, 2), 1e10), np.arange(3.0))


class TestFitLogistic:
    def test_independent_balanced(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, 2000)
        y = (rng.random(2000) < 0.5).astype(float)
        beta, _ = logistic(with_intercept(x), y)
        assert abs(beta[0]) < 0.2
        assert np.all(np.abs(expit(with_intercept(x) @ beta) - 0.5) < 0.2)

    def test_recovers_true_coefficients(self):
        rng = np.random.default_rng(11)
        n = 100_000
        x = rng.uniform(-1, 1, n)
        y = (rng.random(n) < expit(1.0 + 2.0 * x)).astype(float)
        beta, converged = logistic(with_intercept(x), y)
        assert np.allclose(beta, [1.0, 2.0], atol=0.05)
        assert converged

    def test_separation_guard(self):
        x = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])
        y = (x > 0).astype(float)
        beta, converged = logistic(with_intercept(x), y)
        assert np.max(np.abs(beta)) <= 30.0
        assert not converged
        assert np.all(np.isfinite(expit(with_intercept(x) @ beta)))

    def test_coefficient_cap(self):
        # separated on a narrow range of x, the slope passes 30 within a few steps
        x = np.concatenate([np.linspace(-0.02, -0.01, 20), np.linspace(0.01, 0.02, 20)])
        beta, converged = logistic(with_intercept(x), (x > 0).astype(float))
        assert beta[1] == 30.0
        assert not converged


class TestMakeFolds:
    def test_even_split(self):
        fold_of = make_folds(10, 5, RngStream(0))
        sizes = np.bincount(fold_of, minlength=5)
        assert np.all(sizes == 2)

    def test_remainder_split(self):
        fold_of = make_folds(11, 5, RngStream(0))
        sizes = sorted(np.bincount(fold_of, minlength=5))
        assert sizes == [2, 2, 2, 2, 3]

    def test_matches_chunked_permutation(self):
        # fold k is the k-th contiguous chunk of the permutation, and the
        # first n % K chunks are one row longer
        for n, K in ((10, 5), (11, 5), (103, 7), (2, 2)):
            perm = RngStream(9).permutation(n)
            expected = np.empty(n, dtype=int)
            start = 0
            for k in range(K):
                size = n // K + (k < n % K)
                expected[perm[start : start + size]] = k
                start += size
            assert np.array_equal(make_folds(n, K, RngStream(9)), expected)

    def test_deterministic(self):
        a = make_folds(100, 5, RngStream(5))
        b = make_folds(100, 5, RngStream(5))
        assert np.array_equal(a, b)

    def test_k_out_of_range(self):
        with pytest.raises(InvalidInput):
            make_folds(10, 1, RngStream(0))
        with pytest.raises(InvalidInput):
            make_folds(10, 11, RngStream(0))


def _condcov_null_dataset(n, seed):
    rng = np.random.default_rng(seed)
    return Dataset(
        columns={
            "X1": rng.uniform(-1, 1, n),
            "X2": rng.uniform(-1, 1, n),
            "Y": rng.standard_normal(n),
            "Z": rng.standard_normal(n),
        }
    )


class TestCrossfit:
    def test_condcov_null_mean_near_zero(self):
        data = _condcov_null_dataset(2000, 12)
        spec = ScoreSpec(kind="conditional_covariance")
        res = crossfit(data, spec, K=5, rng=RngStream(1))
        g = res.pseudo_outcomes
        se = g.std() / np.sqrt(len(g))
        assert abs(g.mean()) < 3.0 * se

    def test_fold_count_changes_pseudo_outcomes(self):
        data = _condcov_null_dataset(500, 13)
        spec = ScoreSpec(kind="conditional_covariance")
        g2 = crossfit(data, spec, K=2, rng=RngStream(4)).pseudo_outcomes
        g5 = crossfit(data, spec, K=5, rng=RngStream(4)).pseudo_outcomes
        assert not np.array_equal(g2, g5)

    def test_oracle_mode_bypasses_fitting(self):
        data = _condcov_null_dataset(300, 14)

        def oracle(x):
            return {"mean_y": np.zeros(x.shape[0]), "mean_z": np.zeros(x.shape[0])}

        spec = ScoreSpec(
            kind="conditional_covariance", nuisance_mode="oracle", oracle=oracle
        )
        res = crossfit(data, spec, K=5, rng=RngStream(0))
        assert res.fold_of is None
        assert np.array_equal(res.pseudo_outcomes, data.col("Y") * data.col("Z"))

    def test_oracle_mode_reports_clip_diagnostics(self):
        cfg = PanelAConfig(n=1000, seed=7)
        data = gen_panel_a(cfg)
        spec = ScoreSpec(nuisance_mode="oracle", oracle=oracle_nuisances_panel_a(cfg, a=0),
                         clip_propensity=0.1)
        res = crossfit(data, spec, K=5, rng=RngStream(0))
        assert res.diagnostics == clip_diagnostics(res.nuisances, spec)
        assert set(res.diagnostics) == {"min_propensity", "clipped_rows"}
        assert res.diagnostics["clipped_rows"] > 0
        result = run_gp_test(data, spec, BasisSpec(j_star=3), EngineConfig())
        assert result.diagnostics == res.diagnostics

    def test_oracle_non_finite_pseudo_outcomes_refused(self):
        data = _condcov_null_dataset(300, 15)

        def oracle(x):
            mean_y = np.zeros(x.shape[0])
            mean_y[3] = np.nan
            return {"mean_y": mean_y, "mean_z": np.zeros(x.shape[0])}

        spec = ScoreSpec(kind="conditional_covariance", nuisance_mode="oracle", oracle=oracle)
        with pytest.raises(InvalidInput, match="the oracle produced non-finite pseudo-outcomes"):
            crossfit(data, spec, K=5, rng=RngStream(0))

    def test_out_of_fold_purity(self):
        # corrupting the held-out fold's outcome must not move the
        # nuisances predicted for that fold, because training never sees
        # those rows; the other folds train on them and do move
        data = gen_panel_a(PanelAConfig(n=600, seed=15))
        spec = ScoreSpec(kind="mean_exchangeability")
        res = crossfit(data, spec, K=3, rng=RngStream(6))
        hold = res.fold_of == 0
        corrupted = Dataset(
            columns={
                k: np.where(hold, 999.0, v) if k == "Y" else v.copy()
                for k, v in data.columns.items()
            },
        )
        res2 = crossfit(corrupted, spec, K=3, rng=RngStream(6))
        assert set(res.nuisances) == {"pi_s1", "pi_s0", "mu_s1", "mu_s0"}
        for key, values in res.nuisances.items():
            assert np.array_equal(values[hold], res2.nuisances[key][hold]), key
        changed = res.nuisances["mu_s1"][~hold]
        assert not np.array_equal(changed, res2.nuisances["mu_s1"][~hold])

    def test_nonconverged_fits_counted(self):
        # Y = 1{X1 > 0} is separated by X1, so each fold's logistic fit of
        # E[Y | X] stops at the coefficient cap; E[Z | X] is least squares
        data = _condcov_null_dataset(500, 18)
        cols = dict(data.columns, Y=(data.col("X1") > 0).astype(float))
        separated = Dataset(columns=cols)
        spec = ScoreSpec(kind="conditional_covariance")
        res = crossfit(separated, spec, K=4, rng=RngStream(3))
        assert res.diagnostics == {"K": 4, "nonconverged_fits": 4}

    def test_panel_a_fits_converge(self):
        data = gen_panel_a(PanelAConfig(n=1000, seed=19))
        spec = ScoreSpec(kind="mean_exchangeability")
        res = crossfit(data, spec, K=5, rng=RngStream(2))
        assert res.diagnostics["K"] == 5
        assert res.diagnostics["nonconverged_fits"] == 0

    def test_insufficient_stratum_reported(self):
        data = gen_panel_a(PanelAConfig(n=200, seed=16))
        cols = {k: v.copy() for k, v in data.columns.items()}
        cols["S"] = np.zeros(200)  # no S=1 rows anywhere
        broken = Dataset(columns=cols)
        spec = ScoreSpec(kind="mean_exchangeability")
        with pytest.raises(SchemaError, match=r"^column 'S' \(the score's s role\) is constant$"):
            crossfit(broken, spec, K=5, rng=RngStream(0))

    def test_me_crossfit_matches_oracle_direction(self):
        # with correctly specified propensity models the cross-fit pseudo
        # outcomes should average near the oracle ones on a null sample
        cfg = PanelAConfig(n=4000, seed=17)
        data = gen_panel_a(cfg)
        fitted = crossfit(
            data, ScoreSpec(kind="mean_exchangeability"), K=5, rng=RngStream(2)
        ).pseudo_outcomes
        oracle = crossfit(
            data,
            ScoreSpec(
                kind="mean_exchangeability",
                nuisance_mode="oracle",
                oracle=oracle_nuisances_panel_a(cfg, a=0),
            ),
            K=5,
            rng=RngStream(2),
        ).pseudo_outcomes
        se = fitted.std() / np.sqrt(len(fitted))
        assert abs(fitted.mean() - oracle.mean()) < 4.0 * se


def _per_fold_reference(data, spec, fold_of):
    """Nuisances fit fold by fold on gathered training rows, each as one
    fit on every row it is given, and the number of those fits that did
    not converge."""
    feats = with_intercept(data.covariate_matrix(spec.covariates))

    def col(role):
        return data.col(spec.column(role))

    def binary(role):
        return set(np.unique(col(role))) <= {0.0, 1.0}

    eta = {}
    nonconverged = 0
    for k in range(int(fold_of.max()) + 1):
        hold = fold_of == k
        train = ~hold
        values = {}

        def fit(target, rows, logit):
            nonlocal nonconverged
            if not logit:
                return feats[hold] @ ols(feats[rows], target[rows])
            beta, converged = logistic(feats[rows], target[rows])
            nonconverged += not converged
            return expit(feats[hold] @ beta)

        if spec.kind == "mean_exchangeability":
            s, a = col("s"), col("a")
            ps1 = fit(s, train, True)
            for sv in (0, 1):
                in_s = train & (s == sv)
                pa1 = fit(a, in_s, True)
                ps = ps1 if sv == 1 else 1.0 - ps1
                values[f"pi_s{sv}"] = ps * (pa1 if spec.arm == 1 else 1.0 - pa1)
                values[f"mu_s{sv}"] = fit(col("y"), in_s & (a == spec.arm), binary("y"))
        elif spec.kind == "iv_compatibility":
            for j in (1, 2):
                z = col(f"z{j}")
                values[f"pz{j}"] = fit(z, train, True)
                for zv in (0, 1):
                    for role in ("d", "y"):
                        key = f"mu_{role}{j}_{zv}"
                        values[key] = fit(col(role), train & (z == zv), binary(role))
        elif spec.kind == "parametric_spec":
            values["h"] = fit(col("y"), train, False)
            gram = feats[train].T @ feats[train] / np.sum(train)
            gram_inv = np.linalg.inv(gram + 1e-10 * np.eye(gram.shape[0]))
            values["leverage"] = np.einsum("ij,jk,ik->i", feats[hold], gram_inv, feats[hold])
        else:
            values["mean_y"] = fit(col("y"), train, binary("y"))
            values["mean_z"] = fit(col("z"), train, binary("z"))
        for key, value in values.items():
            eta.setdefault(key, np.empty(data.n))[hold] = value
    return eta, nonconverged


def _separated_condcov_dataset():
    # Y = 1{X1 > 0} is separated by X1, so every fold's logistic fit stops at the cap
    data = _condcov_null_dataset(500, 18)
    cols = dict(data.columns, Y=(data.col("X1") > 0).astype(float))
    return Dataset(columns=cols)


def _one_fold_separated_dataset():
    # Y = 1{X1 > 0} except on fold 0 of make_folds(500, 4, RngStream(7)),
    # where Y is a coin flip: fold 0 trains on separated rows and stops at
    # the coefficient cap, while the other folds train on overlapping
    # labels and converge
    data = _condcov_null_dataset(500, 19)
    fold_of = make_folds(500, 4, RngStream(7))
    coin = (np.random.default_rng(20).random(500) < 0.5).astype(float)
    y = np.where(fold_of == 0, coin, (data.col("X1") > 0).astype(float))
    return Dataset(columns=dict(data.columns, Y=y))


def _binary_z_dataset(z_at_row_0):
    # Z is a 0/1 coin that leans on X1, so the rule fits E[Z | X] by IRLS;
    # any other value at row 0 makes it least squares
    data = _condcov_null_dataset(700, 28)
    z = (np.random.default_rng(29).random(700) < expit(data.col("X1"))).astype(float)
    z[0] = z_at_row_0
    return Dataset(columns=dict(data.columns, Z=z))


_REFERENCE_CASES = {
    "panel_a_arm0_K3": (lambda: gen_panel_a(PanelAConfig(n=1000, seed=21)), {}, 3),
    "panel_a_arm0_K5": (lambda: gen_panel_a(PanelAConfig(n=1000, seed=22)), {}, 5),
    "panel_a_arm1_K3": (lambda: gen_panel_a(PanelAConfig(n=1000, seed=23)), {"arm": 1}, 3),
    "panel_a_arm1_K5": (lambda: gen_panel_a(PanelAConfig(n=1000, seed=24)), {"arm": 1}, 5),
    "panel_b_K5": (
        lambda: gen_panel_b(PanelBConfig(n=3000, seed=25)), {"kind": "iv_compatibility"}, 5),
    "parametric_spec_K5": (
        lambda: gen_panel_a(PanelAConfig(n=800, alpha1=0.5, seed=26)),
        {"kind": "parametric_spec"}, 5),
    "conditional_covariance_K5": (
        lambda: _condcov_null_dataset(700, 27), {"kind": "conditional_covariance"}, 5),
    "binary_z_K5": (lambda: _binary_z_dataset(1.0), {"kind": "conditional_covariance"}, 5),
    "z_with_a_2_K5": (lambda: _binary_z_dataset(2.0), {"kind": "conditional_covariance"}, 5),
    "separated_K4": (_separated_condcov_dataset, {"kind": "conditional_covariance"}, 4),
    "one_fold_separated_K4": (
        _one_fold_separated_dataset, {"kind": "conditional_covariance"}, 4),
}

_EXPECTED_NONCONVERGED = {"separated_K4": 4, "one_fold_separated_K4": 1}


class TestBatchedMatchesPerFoldReference:
    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_nuisances_and_nonconvergence(self, case):
        make_data, spec_kw, K = _REFERENCE_CASES[case]
        data = make_data()
        spec = ScoreSpec(**spec_kw)
        res = crossfit(data, spec, K=K, rng=RngStream(7))
        expected, nonconverged = _per_fold_reference(data, spec, res.fold_of)
        assert set(res.nuisances) == set(expected)
        for key, values in expected.items():
            np.testing.assert_allclose(res.nuisances[key], values, rtol=1e-10, atol=0, err_msg=key)
        assert res.diagnostics["nonconverged_fits"] == nonconverged
        assert nonconverged == _EXPECTED_NONCONVERGED.get(case, 0)


def _fold_weights(fold_of):
    return (fold_of != np.arange(int(fold_of.max()) + 1)[:, None]).astype(float)


def _random_logistic_case(seed, m, p, K):
    rng = np.random.default_rng(seed)
    features = with_intercept(rng.standard_normal((m, p - 1)))
    y = (rng.random(m) < expit(features @ rng.normal(0.0, 1.0, p))).astype(float)
    weights = np.ones((1, m)) if K == 1 else _fold_weights(make_folds(m, K, RngStream(seed)))
    return features, y, weights


def _dataset_logistic_case(make_data):
    data = make_data()
    features = with_intercept(data.covariate_matrix(("X1", "X2")))
    return features, data.col("Y"), _fold_weights(make_folds(data.n, 4, RngStream(7)))


def _uneven_logistic_case():
    # fit 0 trains on 60 rows, fit 1 on 300 and fit 2 on all 600: two fits
    # converge after 7 Newton steps and the third after 9, so the last two
    # steps run on a subset of the fits
    rng = np.random.default_rng(5)
    features = with_intercept(rng.standard_normal((600, 2)))
    y = (rng.random(600) < expit(features @ [0.6, 2.0, -2.0])).astype(float)
    weights = np.ones((3, 600))
    weights[0, 60:] = 0.0
    weights[1, :300] = 0.0
    return features, y, weights


_NEWTON_CASES = {
    "random_K1": lambda: _random_logistic_case(31, 300, 3, 1),
    "random_K3_p2": lambda: _random_logistic_case(32, 200, 2, 3),
    "random_K5_p3": lambda: _random_logistic_case(33, 1000, 3, 5),
    "random_K5_p5": lambda: _random_logistic_case(34, 3000, 5, 5),
    "separated_K4": lambda: _dataset_logistic_case(_separated_condcov_dataset),
    "one_fold_separated_K4": lambda: _dataset_logistic_case(_one_fold_separated_dataset),
    "uneven_fits": _uneven_logistic_case,
}


class TestNewtonLoopMatchesReference:
    @pytest.mark.parametrize("case", sorted(_NEWTON_CASES))
    def test_coefficients_and_flags_exact(self, case):
        features, y, weights = _NEWTON_CASES[case]()
        beta, converged = nuisance._irls(nuisance._Setup(features, weights), y)
        ref_beta, ref_converged = irls_reference(features, y, weights)
        assert beta.tobytes() == ref_beta.tobytes()
        assert np.array_equal(converged, ref_converged)
        capped = np.abs(beta).max(axis=1) == 30.0
        if case == "separated_K4":
            assert capped.all() and not converged.any()
        elif case == "one_fold_separated_K4":
            assert capped.tolist() == [True, False, False, False]
            assert converged.tolist() == [False, True, True, True]
        else:
            assert converged.all()


def _multi_target_cases():
    """Per case: the data, the stratum (None for every row), the targets
    that share it, and the fold fits expected not to converge."""
    b = gen_panel_b(PanelBConfig(n=1500, seed=36))
    sep, one = _separated_condcov_dataset(), _one_fold_separated_dataset()
    return {
        "panel_b_every_row": (
            b, None, [(b.col("Z1"), True, "Z1"), (b.col("Z2"), True, "Z2")], 0),
        "panel_b_arm": (
            b, b.col("Z1") == 0.0,
            [(b.col("D"), True, "Z1=0"), (b.col("Y"), False, "Z1=0")], 0),
        "separated": (sep, None, [(sep.col("Y"), True, "y"), (sep.col("Z"), False, "z")], 4),
        "one_fold_separated": (
            one, None, [(one.col("Z"), False, "z"), (one.col("Y"), True, "y")], 1),
    }


class TestMultiTargetCall:
    """One set-up of a stratum serves all its targets exactly as one call per target."""

    @pytest.mark.parametrize(
        "case", ["panel_b_every_row", "panel_b_arm", "separated", "one_fold_separated"]
    )
    def test_same_bytes_and_nonconverged_fits(self, case):
        data, stratum, targets, nonconverged = _multi_target_cases()[case]
        features = with_intercept(data.covariate_matrix(("X1", "X2")))
        fold_of = make_folds(data.n, 4, RngStream(7))
        together = nuisance._Folds(features, fold_of, 4)
        alone = nuisance._Folds(features, fold_of, 4)
        def rows(folds):
            return folds.everyone if stratum is None else stratum

        joint = together.predict(rows(together), *targets)
        apart = [alone.predict(rows(alone), target)[0] for target in targets]
        assert [v.tobytes() for v in joint] == [v.tobytes() for v in apart]
        assert together.nonconverged == alone.nonconverged == nonconverged


class TestStratumSetup:
    """A stratum's fold weights are its rows' columns of the (K, n) weights
    built once per cross-fit, and each fit's row count is summed once."""

    @pytest.mark.parametrize("stratum", ["every_row", "s_is_1"])
    def test_counts_and_weights_match_fold_of(self, stratum):
        data, K = gen_panel_a(PanelAConfig(n=1003, seed=37)), 5
        fold_of = make_folds(data.n, K, RngStream(7))
        folds = nuisance._Folds(with_intercept(data.covariate_matrix(("X1", "X2"))), fold_of, K)
        in_stratum = folds.everyone if stratum == "every_row" else data.col("S") == 1.0
        rows, fit = folds.training(in_stratum, "S")
        own = fold_of[rows]
        assert np.array_equal(fit.counts, own.size - np.bincount(own, minlength=K))
        assert fit.weights.flags.c_contiguous
        assert fit.weights.tobytes() == (own != np.arange(K)[:, None]).astype(float).tobytes()


def _with_columns(data, **changes):
    return Dataset(columns=dict(data.columns, **changes))


class TestBatchedFailurePaths:
    def test_too_few_rows_in_one_fold(self):
        # S = 1 on four rows in four different folds: the A model in the
        # S=1 stratum has 3 training rows in each of those folds
        data = gen_panel_a(PanelAConfig(n=200, seed=31))
        fold_of = make_folds(200, 5, RngStream(4))
        rows = [int(np.flatnonzero(fold_of == k)[0]) for k in (1, 2, 3, 4)]
        s = np.zeros(200)
        s[rows] = 1.0
        with pytest.raises(InsufficientStratum, match=r"fold 1 has too few rows in stratum S=1$"):
            crossfit(_with_columns(data, S=s), ScoreSpec(), K=5, rng=RngStream(4))

    def test_single_class_everywhere(self):
        data = gen_panel_b(PanelBConfig(n=600, seed=32))
        broken = _with_columns(data, Z1=np.ones(600))
        with pytest.raises(SchemaError, match=r"^column 'Z1' \(the score's z1 role\) is constant$"):
            crossfit(broken, ScoreSpec(kind="iv_compatibility"), K=5, rng=RngStream(5))

    def test_single_class_second_target_named(self):
        # the score's roles are checked in order, so the constant Z2 is named
        data = gen_panel_b(PanelBConfig(n=600, seed=32))
        broken = _with_columns(data, Z2=np.ones(600))
        with pytest.raises(SchemaError, match=r"^column 'Z2' \(the score's z2 role\) is constant$"):
            crossfit(broken, ScoreSpec(kind="iv_compatibility"), K=5, rng=RngStream(5))

    def test_every_row_stratum_checked_before_the_arms(self):
        # Z1 = 0 on four rows in folds 1-4, so fold 1 trains the Z1=0 arm on
        # 3 rows, and Z2 = 1 only on fold 0's rows, so fold 0 trains Z2's
        # propensity on one class; both instruments' propensities are fit
        # before any arm, so the Z2 failure is the one reported
        data = gen_panel_b(PanelBConfig(n=600, seed=32))
        fold_of = make_folds(600, 5, RngStream(5))
        z1 = np.ones(600)
        z1[[int(np.flatnonzero(fold_of == k)[0]) for k in (1, 2, 3, 4)]] = 0.0
        broken = _with_columns(data, Z1=z1, Z2=(fold_of == 0).astype(float))
        with pytest.raises(InsufficientStratum, match=r"fold 0 is single-class in stratum Z2$"):
            crossfit(broken, ScoreSpec(kind="iv_compatibility"), K=5, rng=RngStream(5))
        only_z1 = _with_columns(data, Z1=z1)
        with pytest.raises(InsufficientStratum, match=r"fold 1 has too few rows in stratum Z1=0$"):
            crossfit(only_z1, ScoreSpec(kind="iv_compatibility"), K=5, rng=RngStream(5))

    @pytest.mark.parametrize("which", ["fold_of_row_0", "other_fold"])
    def test_single_class_in_one_fold(self, which):
        # binary Y is 1 (then 0) only on the rows of one fold, so that fold
        # alone trains on labels that are all 0 (then all 1)
        data = _condcov_null_dataset(300, 33)
        fold_of = make_folds(300, 5, RngStream(6))
        k = fold_of[0] if which == "fold_of_row_0" else (fold_of[0] + 1) % 5
        pattern = rf"training data for fold {k} is single-class in stratum y$"
        for y in ((fold_of == k).astype(float), (fold_of != k).astype(float)):
            broken = Dataset(columns=dict(data.columns, Y=y))
            with pytest.raises(InsufficientStratum, match=pattern):
                crossfit(broken, ScoreSpec(kind="conditional_covariance"), K=5, rng=RngStream(6))

    def test_singular_gram_takes_jitter_retry(self):
        # X2 = 0 on every S = 1 row: each fold's Gram matrix in the S=1
        # strata has a zero row and column, so the stacked solve raises
        # LinAlgError and each fit is retried alone with the ridge jitter
        data = gen_panel_a(PanelAConfig(n=800, seed=34))
        x2 = np.where(data.col("S") == 1.0, 0.0, data.col("X2"))
        flat = _with_columns(data, X2=x2)
        feats = with_intercept(flat.covariate_matrix(("X1", "X2")))[flat.col("S") == 1.0]
        assert np.linalg.matrix_rank(feats.T @ feats) == 2
        spec = ScoreSpec()
        res = crossfit(flat, spec, K=5, rng=RngStream(8))
        expected, nonconverged = _per_fold_reference(flat, spec, res.fold_of)
        for key, values in expected.items():
            np.testing.assert_allclose(res.nuisances[key], values, rtol=1e-10, atol=0, err_msg=key)
        assert res.diagnostics["nonconverged_fits"] == nonconverged

    def test_singular_even_with_jitter(self):
        data = _condcov_null_dataset(300, 35)
        huge = _with_columns(data, X1=np.full(300, 1e10), X2=np.full(300, 1e10))
        with pytest.raises(SingularDesign):
            crossfit(huge, ScoreSpec(kind="conditional_covariance"), K=5, rng=RngStream(9))


class TestClipDiagnostics:
    def test_mean_exchangeability(self):
        data = gen_panel_a(PanelAConfig(n=1000, seed=36))
        spec = ScoreSpec(clip_propensity=0.1)
        res = crossfit(data, spec, K=5, rng=RngStream(10))
        pi = [res.nuisances["pi_s1"], res.nuisances["pi_s0"]]
        clipped = np.zeros(1000, dtype=bool)
        for p in pi:
            clipped |= (p < 0.1) | (p > 0.9)
        assert res.diagnostics["min_propensity"] == min(p.min() for p in pi)
        assert res.diagnostics["clipped_rows"] == np.sum(clipped) > 0

    def test_iv_compatibility(self):
        data = gen_panel_b(PanelBConfig(n=3000, seed=37))
        spec = ScoreSpec(kind="iv_compatibility", clip_propensity=0.3, clip_denominator=0.4)
        res = crossfit(data, spec, K=5, rng=RngStream(11))
        eta = res.nuisances
        clipped = np.zeros(3000, dtype=bool)
        smallest = []
        for j in (1, 2):
            pz = eta[f"pz{j}"]
            clipped |= (pz < 0.3) | (pz > 0.7)
            clipped |= np.abs(eta[f"mu_d{j}_1"] - eta[f"mu_d{j}_0"]) < 0.4
            smallest += [pz.min(), (1.0 - pz).min()]
        assert res.diagnostics["min_propensity"] == min(smallest)
        assert res.diagnostics["clipped_rows"] == np.sum(clipped) > 0

    def test_propensity_at_the_clip_is_not_clipped(self):
        cp = 0.1
        below, above = np.nextafter(cp, 0.0), np.nextafter(1.0 - cp, 1.0)
        p = np.array([cp, 1.0 - cp, below, above, 0.5])
        spec = ScoreSpec(clip_propensity=cp)
        diag = clip_diagnostics({"pi_s1": p, "pi_s0": np.full(5, 0.5)}, spec)
        assert diag == {"min_propensity": below, "clipped_rows": 2}
        # the rows the score itself clips
        assert np.sum(scores._clip_prob(p, cp) != p) == 2

    def test_denominator_at_the_floor_is_not_floored(self):
        floor = 0.05
        inside = np.nextafter(floor, 0.0)
        d = np.array([0.0, -0.0, floor, -floor, inside, -inside, 1.0])
        half, zero = np.full(7, 0.5), np.zeros(7)
        bundle = {"pz1": half, "pz2": half, "mu_d1_1": d, "mu_d1_0": zero,
                  "mu_d2_1": np.ones(7), "mu_d2_0": zero}
        spec = ScoreSpec(kind="iv_compatibility", clip_denominator=floor)
        assert clip_diagnostics(bundle, spec) == {"min_propensity": 0.5, "clipped_rows": 4}
        assert np.array_equal(scores._clip_signed(d, floor) != d, np.abs(d) < floor)

    def test_other_scores_report_none(self):
        data = _condcov_null_dataset(300, 38)
        res = crossfit(data, ScoreSpec(kind="conditional_covariance"), K=5, rng=RngStream(12))
        assert set(res.diagnostics) == {"K", "nonconverged_fits"}
