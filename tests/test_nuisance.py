import numpy as np
import pytest

from gptest.dgp import Dataset, PanelAConfig, expit, gen_panel_a, oracle_nuisances_panel_a
from gptest.errors import DegenerateLabels, InsufficientStratum, InvalidInput
from gptest.nuisance import (
    crossfit,
    fit_logistic,
    fit_ols,
    make_folds,
    with_intercept,
)
from gptest.numerics import RngStream
from gptest.scores import ScoreSpec


class TestFitOls:
    def test_exact_linear_data(self):
        x = np.linspace(-1, 1, 50)
        fit = fit_ols(with_intercept(x), 2.0 * x)
        assert np.allclose(fit.coefficients, [0.0, 2.0], atol=1e-10)

    def test_constant_target(self):
        x = np.linspace(0, 1, 30)
        fit = fit_ols(with_intercept(x), np.full(30, 3.5))
        assert np.allclose(fit.coefficients, [3.5, 0.0], atol=1e-10)

    def test_noisy_slope_within_standard_error(self):
        rng = np.random.default_rng(8)
        n = 10_000
        x = rng.uniform(-1, 1, n)
        y = x + rng.standard_normal(n)
        fit = fit_ols(with_intercept(x), y)
        se = 1.0 / np.sqrt(n * np.var(x))
        assert abs(fit.coefficients[1] - 1.0) < 3.0 * se

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(9)
        feats = with_intercept(rng.uniform(-1, 1, size=(500, 3)))
        y = rng.standard_normal(500)
        fit = fit_ols(feats, y)
        resid = y - fit.predict(feats)
        assert np.max(np.abs(feats.T @ resid)) < 1e-8 * np.linalg.norm(y)


class TestFitLogistic:
    def test_independent_balanced(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, 2000)
        y = (rng.random(2000) < 0.5).astype(float)
        fit = fit_logistic(with_intercept(x), y)
        preds = fit.predict(with_intercept(x))
        assert abs(fit.coefficients[0]) < 0.2
        assert np.all(np.abs(preds - 0.5) < 0.2)

    def test_recovers_true_coefficients(self):
        rng = np.random.default_rng(11)
        n = 100_000
        x = rng.uniform(-1, 1, n)
        y = (rng.random(n) < expit(1.0 + 2.0 * x)).astype(float)
        fit = fit_logistic(with_intercept(x), y)
        assert np.allclose(fit.coefficients, [1.0, 2.0], atol=0.05)
        assert fit.converged

    def test_separation_guard(self):
        x = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])
        y = (x > 0).astype(float)
        fit = fit_logistic(with_intercept(x), y)
        assert np.max(np.abs(fit.coefficients)) <= 30.0
        assert not fit.converged
        assert np.all(np.isfinite(fit.predict(with_intercept(x))))

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            fit_logistic(with_intercept(np.linspace(0, 1, 10)), np.zeros(10))


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
        oracle = {
            "mean_y": lambda x: np.zeros(x.shape[0]),
            "mean_z": lambda x: np.zeros(x.shape[0]),
        }
        spec = ScoreSpec(
            kind="conditional_covariance", nuisance_mode="oracle", oracle=oracle
        )
        res = crossfit(data, spec, K=5, rng=RngStream(0))
        assert res.fold_of is None
        assert np.array_equal(res.pseudo_outcomes, data.col("Y") * data.col("Z"))

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
            binary=data.binary,
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
        separated = Dataset(columns=cols, binary=("Y",))
        spec = ScoreSpec(kind="conditional_covariance")
        res = crossfit(separated, spec, K=4, rng=RngStream(3))
        assert res.diagnostics == {"K": 4, "nonconverged_fits": 4}

    def test_panel_a_fits_converge(self):
        data = gen_panel_a(PanelAConfig(n=1000, seed=19))
        spec = ScoreSpec(kind="mean_exchangeability")
        res = crossfit(data, spec, K=5, rng=RngStream(2))
        assert res.diagnostics == {"K": 5, "nonconverged_fits": 0}

    def test_insufficient_stratum_reported(self):
        data = gen_panel_a(PanelAConfig(n=200, seed=16))
        cols = {k: v.copy() for k, v in data.columns.items()}
        cols["S"] = np.zeros(200)  # no S=1 rows anywhere
        broken = Dataset(columns=cols, binary=data.binary)
        spec = ScoreSpec(kind="mean_exchangeability")
        with pytest.raises(InsufficientStratum):
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
