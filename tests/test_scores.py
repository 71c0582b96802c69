import re

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
    oracle_nuisances_panel_b,
)
from gptest.errors import InvalidInput, SchemaError
from gptest.nuisance import crossfit
from gptest.numerics import RngStream
from gptest.scores import (
    ScoreSpec,
    g_conditional_covariance,
    g_iv_compatibility,
    g_iv_component,
    g_mean_exchangeability,
    g_parametric_spec,
    orthogonality_diagnostic,
)
from mc_reference import basis_reference


def logit(p):
    return np.log(p / (1.0 - p))


def const(n, c):
    return np.full(n, float(c))


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(InvalidInput):
            ScoreSpec(kind="nope")

    def test_bad_clip(self):
        with pytest.raises(InvalidInput):
            ScoreSpec(clip_propensity=0.7)

    def test_oracle_mode_needs_bundle(self):
        with pytest.raises(InvalidInput):
            ScoreSpec(nuisance_mode="oracle")
        with pytest.raises(InvalidInput):
            ScoreSpec(nuisance_mode="oracle", oracle={})


    @pytest.mark.parametrize(
        "kind, columns, covariates, role, name",
        [
            ("mean_exchangeability", {}, ("X1", "S"), "s", "S"),
            ("mean_exchangeability", {}, ("X1", "Y"), "y", "Y"),
            ("mean_exchangeability", {"a": "treated"}, ("treated",), "a", "treated"),
            ("iv_compatibility", {}, ("D", "X2"), "d", "D"),
            ("iv_compatibility", {}, ("Z2",), "z2", "Z2"),
            ("parametric_spec", {"y": "W"}, ("X1", "W"), "y", "W"),
            ("conditional_covariance", {}, ("X1", "Z"), "z", "Z"),
        ],
    )
    def test_covariate_is_a_role_column(self, kind, columns, covariates, role, name):
        pattern = rf"^covariate '{name}' is the score's {role} column$"
        with pytest.raises(InvalidInput, match=pattern):
            ScoreSpec(kind=kind, columns=columns, covariates=covariates)

    def test_covariate_named_like_another_kinds_role(self):
        # A is a role of mean exchangeability only, and only under its default name
        ScoreSpec(kind="iv_compatibility", covariates=("X1", "A", "S"))
        ScoreSpec(kind="conditional_covariance", covariates=("X1", "D"))
        ScoreSpec(columns={"a": "treated"}, covariates=("X1", "A"))

    @pytest.mark.parametrize(
        "kind, columns, message",
        [
            ("mean_exchangeability", {"a": "S"}, "column 'S' is both the score's s and a column"),
            ("mean_exchangeability", {"a": "S", "y": "A"},
             "column 'S' is both the score's s and a column"),
            ("mean_exchangeability", {"y": "W", "s": "W"},
             "column 'W' is both the score's y and s column"),
            ("iv_compatibility", {"d": "Z1"}, "column 'Z1' is both the score's d and z1 column"),
            ("iv_compatibility", {"z2": "Z1"}, "column 'Z1' is both the score's z1 and z2 column"),
            ("conditional_covariance", {"z": "Y"}, "column 'Y' is both the score's y and z column"),
        ],
    )
    def test_two_roles_on_one_column(self, kind, columns, message):
        with pytest.raises(InvalidInput, match=rf"^{re.escape(message)}$"):
            ScoreSpec(kind=kind, columns=columns)

    def test_roles_swapped_between_columns(self):
        # each role still has a column of its own
        ScoreSpec(columns={"s": "A", "a": "S"})

    @pytest.mark.parametrize("kind", list(ScoreSpec.ROLES))
    def test_role_of_another_kind_refused(self, kind):
        every_role = {role for roles in ScoreSpec.ROLES.values() for role in roles}
        foreign = sorted(every_role - set(ScoreSpec.ROLES[kind]))
        assert foreign
        for role in foreign:
            with pytest.raises(InvalidInput, match=rf"^score '{kind}' has no '{role}' role$"):
                ScoreSpec(kind=kind, columns={role: "W"})

    @pytest.mark.parametrize("kind", list(ScoreSpec.ROLES))
    def test_option_the_kind_does_not_read_refused(self, kind):
        ScoreSpec(kind=kind, arm=0, clip_propensity=0.01, clip_denominator=0.05)
        other = {"arm": 1, "clip_propensity": 0.2, "clip_denominator": 0.3}
        for option, kinds in ScoreSpec.READERS.items():
            if kind in kinds:
                ScoreSpec(kind=kind, **{option: other[option]})
            else:
                with pytest.raises(InvalidInput,
                                   match=rf"^score '{kind}' does not read {option}$"):
                    ScoreSpec(kind=kind, **{option: other[option]})

    def test_readers_of_each_option(self):
        assert ScoreSpec.READERS == {
            "arm": ("mean_exchangeability",),
            "clip_propensity": ("mean_exchangeability", "iv_compatibility"),
            "clip_denominator": ("iv_compatibility",),
        }

    def test_default_arm_accepted_by_a_kind_that_does_not_read_it(self):
        # the score spec of the benchmark's IV workloads
        ScoreSpec(kind="iv_compatibility", arm=0, nuisance_mode="crossfit", oracle=None)


def _me_columns(n, **changes):
    rng = np.random.default_rng(1)
    columns = {
        "X1": rng.uniform(-1, 1, n), "X2": rng.uniform(-1, 1, n),
        "S": (rng.random(n) < 0.5).astype(float), "A": (rng.random(n) < 0.5).astype(float),
        "Y": rng.standard_normal(n),
    }
    return Dataset(columns={**columns, **changes})


class TestCheckColumns:
    @pytest.mark.parametrize(
        "kind, columns, binary",
        [
            ("mean_exchangeability", {}, {"y": False, "s": True, "a": True}),
            ("iv_compatibility", {}, {"y": False, "d": True, "z1": True, "z2": True}),
            ("parametric_spec", {}, {"y": False}),
            ("conditional_covariance", {"z": "S"}, {"y": False, "z": True}),
            ("conditional_covariance", {"y": "A", "z": "Y"}, {"y": True, "z": False}),
        ],
        ids=["mean_exchangeability", "iv_compatibility", "parametric_spec", "condcov_binary_z",
             "condcov_binary_y"],
    )
    def test_returns_each_roles_column_and_flag(self, kind, columns, binary):
        # the dataset's own arrays, in role order, each with whether it holds only 0 and 1
        if kind == "iv_compatibility":
            data = gen_panel_b(PanelBConfig(n=400, seed=5))
        else:
            data = gen_panel_a(PanelAConfig(n=400, seed=5))
        spec = ScoreSpec(kind=kind, columns=columns)
        roles = spec.check_columns(data)
        assert list(roles) == list(ScoreSpec.ROLES[kind]) == list(binary)
        for role, (column, flag) in roles.items():
            assert column is data.col(spec.column(role))
            assert flag is binary[role]

    def test_binary_violation(self):
        data = Dataset(columns={"S": np.array([1.0, 0.0]), "A": np.array([0.0, 2.0]),
                                "Y": np.arange(2.0)})
        with pytest.raises(SchemaError, match="binary"):
            ScoreSpec().check_columns(data)

    @pytest.mark.parametrize("bad", [2.0, 0.5])
    def test_binary_violation_located(self, bad):
        a = np.array([1.0, 0.0, bad, 0.0])
        pattern = rf"^binary column 'A' has value {re.escape(str(bad))} at row 3$"
        with pytest.raises(SchemaError, match=pattern):
            ScoreSpec().check_columns(Dataset(columns={"S": np.array([0.0, 1.0, 0.0, 1.0]),
                                                       "A": a, "Y": a}))

    def test_indicators_checked_in_role_order(self):
        # S precedes A for mean exchangeability, Z1 precedes Z2 for IV
        bad = np.array([0.0, 1.0, 3.0])
        data = Dataset(columns={"S": bad, "A": bad, "Z1": bad, "Z2": bad, "Y": bad, "D": bad})
        with pytest.raises(SchemaError, match="^binary column 'S' "):
            ScoreSpec().check_columns(data)
        with pytest.raises(SchemaError, match="^binary column 'Z1' "):
            ScoreSpec(kind="iv_compatibility").check_columns(data)

    def test_non_indicator_roles_unchecked(self):
        # D, Z and the outcome may hold any values
        data = Dataset(columns={"Y": np.array([0.5, 2.0]), "D": np.array([0.5, 2.0]),
                                "Z": np.array([3.0, -1.0]), "Z1": np.array([0.0, 1.0]),
                                "Z2": np.array([1.0, 0.0])})
        for kind in ("iv_compatibility", "parametric_spec", "conditional_covariance"):
            ScoreSpec(kind=kind).check_columns(data)

    @pytest.mark.parametrize(
        "kind", ["mean_exchangeability", "iv_compatibility", "parametric_spec",
                 "conditional_covariance"],
    )
    @pytest.mark.parametrize("value", [0.0, 1.0, 3.0])
    def test_constant_outcome_refused(self, kind, value):
        columns = {name: np.array([0.0, 1.0, 1.0]) for name in ("S", "A", "D", "Z1", "Z2", "Z")}
        data = Dataset(columns={**columns, "W": np.full(3, value)})
        with pytest.raises(SchemaError, match="^outcome column 'W' is constant$"):
            ScoreSpec(kind=kind, columns={"y": "W"}).check_columns(data)

    @pytest.mark.parametrize(
        "kind, role",
        [("mean_exchangeability", "s"), ("mean_exchangeability", "a"),
         ("iv_compatibility", "d"), ("iv_compatibility", "z1"), ("iv_compatibility", "z2"),
         ("conditional_covariance", "z")],
    )
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_constant_role_refused(self, kind, role, value):
        columns = {name: np.array([0.0, 1.0, 1.0]) for name in ("S", "A", "D", "Z1", "Z2", "Z")}
        data = Dataset(columns={**columns, "Y": np.arange(3.0), "W": np.full(3, value)})
        pattern = rf"^column 'W' \(the score's {role} role\) is constant$"
        with pytest.raises(SchemaError, match=pattern):
            ScoreSpec(kind=kind, columns={role: "W"}).check_columns(data)

    def test_indicator_values_checked_before_constancy(self):
        data = Dataset(columns={"S": np.full(3, 2.0), "A": np.array([0.0, 1.0, 1.0]),
                                "Y": np.arange(3.0)})
        with pytest.raises(SchemaError, match="^binary column 'S' has value 2.0 at row 1$"):
            ScoreSpec().check_columns(data)

    @pytest.mark.parametrize("mode", ["crossfit", "oracle"])
    def test_crossfit_checks_first(self, mode):
        # the check runs before any fit, and before the oracle is called
        def oracle(x):
            raise AssertionError("oracle called")

        spec = ScoreSpec(nuisance_mode=mode, oracle=oracle)
        with pytest.raises(SchemaError, match="^binary column 'S' has value 2.0 at row 5$"):
            crossfit(_me_columns(200, S=np.where(np.arange(200) == 4, 2.0, 0.0)), spec, 5,
                     RngStream(0))
        with pytest.raises(SchemaError, match="^outcome column 'Y' is constant$"):
            crossfit(_me_columns(200, Y=np.ones(200)), spec, 5, RngStream(0))


class TestMeanExchangeability:
    def test_constant_world_vanishes(self):
        n = 40
        rng = np.random.default_rng(0)
        data = Dataset(
            columns={
                "X1": rng.uniform(-1, 1, n),
                "X2": rng.uniform(-1, 1, n),
                "S": (rng.random(n) < 0.5).astype(float),
                "A": (rng.random(n) < 0.5).astype(float),
                "Y": np.full(n, 2.5),
            },
        )
        bundle = {
            "pi_s1": const(n, 0.25), "pi_s0": const(n, 0.25),
            "mu_s1": const(n, 2.5), "mu_s0": const(n, 2.5),
        }
        spec = ScoreSpec(kind="mean_exchangeability", arm=0)
        assert np.allclose(g_mean_exchangeability(data, bundle, spec), 0.0)

    def test_off_arm_reduces_to_mu_difference(self):
        data = Dataset(
            columns={
                "X1": np.array([0.1]), "X2": np.array([0.2]),
                "S": np.array([1.0]), "A": np.array([1.0]),
                "Y": np.array([9.0]),
            },
        )
        bundle = {
            "pi_s1": const(1, 0.3), "pi_s0": const(1, 0.3),
            "mu_s1": const(1, 4.0), "mu_s0": const(1, 1.5),
        }
        spec = ScoreSpec(kind="mean_exchangeability", arm=0)
        assert g_mean_exchangeability(data, bundle, spec)[0] == pytest.approx(2.5)

    def test_null_oracle_mean_near_zero(self):
        cfg = PanelAConfig(n=100_000, seed=30)
        data = gen_panel_a(cfg)
        x = data.covariate_matrix(("X1", "X2"))
        nb = oracle_nuisances_panel_a(cfg, a=0)(x)
        spec = ScoreSpec(kind="mean_exchangeability", arm=0)
        g = g_mean_exchangeability(data, nb, spec)
        assert abs(g.mean()) < 3.0 * g.std() / np.sqrt(len(g))

    def test_null_oracle_basis_moments_near_zero(self):
        cfg = PanelAConfig(n=100_000, seed=31)
        data = gen_panel_a(cfg)
        x = data.covariate_matrix(("X1", "X2"))
        nb = oracle_nuisances_panel_a(cfg, a=0)(x)
        spec = ScoreSpec(kind="mean_exchangeability", arm=0)
        g = g_mean_exchangeability(data, nb, spec)
        for j in range(10):
            b = basis_reference("legendre", j % 5, x[:, j // 5])
            gb = g * b
            assert abs(gb.mean()) < 4.0 * gb.std() / np.sqrt(len(gb)), j

    def test_clipping_keeps_outputs_finite(self):
        cfg = PanelAConfig(n=5000, seed=32)
        data = gen_panel_a(cfg)
        x = data.covariate_matrix(("X1", "X2"))
        nb = oracle_nuisances_panel_a(cfg, a=0)(x)
        nb["pi_s1"] = const(data.n, 1e-9)  # degenerate propensity, clip must save it
        for clip in (0.01, 0.05, 0.2):
            spec = ScoreSpec(kind="mean_exchangeability", arm=0, clip_propensity=clip)
            assert np.all(np.isfinite(g_mean_exchangeability(data, nb, spec)))


class TestIvScores:
    def _perfect_compliance_data(self, n, seed):
        rng = np.random.default_rng(seed)
        x1 = rng.uniform(-1, 1, n)
        x2 = rng.uniform(-1, 1, n)
        z1 = (rng.random(n) < 0.5).astype(float)
        y = x1 + rng.standard_normal(n)  # independent of Z1 given X
        return Dataset(
            columns={"X1": x1, "X2": x2, "Z1": z1, "Z2": z1, "D": z1, "Y": y},
        )

    def _perfect_compliance_bundle(self, data):
        bundle = {}
        for j in (1, 2):
            bundle[f"pz{j}"] = const(data.n, 0.5)
            bundle[f"mu_d{j}_1"] = const(data.n, 1.0)
            bundle[f"mu_d{j}_0"] = const(data.n, 0.0)
            bundle[f"mu_y{j}_1"] = data.col("X1")
            bundle[f"mu_y{j}_0"] = data.col("X1")
        return bundle

    def test_perfect_compliance_null_mean(self):
        data = self._perfect_compliance_data(100_000, 33)
        spec = ScoreSpec(kind="iv_compatibility")
        g = g_iv_component(data, self._perfect_compliance_bundle(data), spec, 1)
        assert abs(g.mean()) < 3.0 * g.std() / np.sqrt(len(g))

    def test_z0_indicator_brackets_vanish(self):
        data = self._perfect_compliance_data(50, 34)
        bundle = self._perfect_compliance_bundle(data)
        spec = ScoreSpec(kind="iv_compatibility")
        g = g_iv_component(data, bundle, spec, 1)
        z1 = data.col("Z1")
        y, x1 = data.col("Y"), data.col("X1")
        # with perfect compliance the score for Z1=1 rows is the plug-in
        # effect (zero here) plus the Y bracket only
        manual = (y - x1) / 0.5
        assert np.allclose(g[z1 == 1.0], manual[z1 == 1.0])

    def test_identical_bundles_and_instruments_cancel(self):
        data = self._perfect_compliance_data(100, 35)
        spec = ScoreSpec(kind="iv_compatibility")
        g = g_iv_compatibility(data, self._perfect_compliance_bundle(data), spec)
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_panel_b_null_mean(self):
        cfg = PanelBConfig(n=100_000, seed=36)
        data = gen_panel_b(cfg)
        x = data.covariate_matrix(("X1", "X2"))
        nb = oracle_nuisances_panel_b(cfg)(x)
        spec = ScoreSpec(kind="iv_compatibility")
        g = g_iv_compatibility(data, nb, spec)
        assert abs(g.mean()) < 3.0 * g.std() / np.sqrt(len(g))

    def test_alternative_loads_on_linear_weight(self):
        cfg = PanelBConfig(n=100_000, seed=37, beta1=0.5, beta2=0.5)
        data = gen_panel_b(cfg)
        x = data.covariate_matrix(("X1", "X2"))
        nb = oracle_nuisances_panel_b(cfg)(x)
        spec = ScoreSpec(kind="iv_compatibility")
        g = g_iv_compatibility(data, nb, spec)
        gw = g * (data.col("X1") + data.col("X2"))
        assert abs(gw.mean()) > 5.0 * gw.std() / np.sqrt(len(gw))

    def test_swap_antisymmetry(self):
        cfg = PanelBConfig(n=2000, seed=38)
        data = gen_panel_b(cfg)
        x = data.covariate_matrix(("X1", "X2"))
        nb = oracle_nuisances_panel_b(cfg)(x)
        swapped_nb = {}
        for j, other in ((1, 2), (2, 1)):
            swapped_nb[f"pz{j}"] = nb[f"pz{other}"]
            for z in (0, 1):
                swapped_nb[f"mu_d{j}_{z}"] = nb[f"mu_d{other}_{z}"]
                swapped_nb[f"mu_y{j}_{z}"] = nb[f"mu_y{other}_{z}"]
        spec = ScoreSpec(kind="iv_compatibility")
        swapped_spec = ScoreSpec(
            kind="iv_compatibility", columns={"z1": "Z2", "z2": "Z1"}
        )
        g = g_iv_compatibility(data, nb, spec)
        g_swapped = g_iv_compatibility(data, swapped_nb, swapped_spec)
        assert np.allclose(g, -g_swapped, atol=1e-12)


class TestParametricSpec:
    def _bundle(self, x_train, y_train):
        # fitted and evaluated on the same rows, which the tests pass as data
        feats = np.column_stack([np.ones(len(x_train)), x_train])
        beta = np.linalg.lstsq(feats, y_train, rcond=None)[0]
        gram_inv = np.linalg.inv(feats.T @ feats / len(x_train))
        return {
            "h": feats @ beta,
            "leverage": np.einsum("ij,jk,ik->i", feats, gram_inv, feats),
        }

    def test_exact_linear_vanishes(self):
        rng = np.random.default_rng(39)
        x = rng.uniform(-1, 1, 200)
        y = 1.0 + 2.0 * x
        data = Dataset(columns={"X1": x, "Y": y})
        spec = ScoreSpec(kind="parametric_spec", covariates=("X1",))
        g = g_parametric_spec(data, self._bundle(x, y), spec)
        assert np.allclose(g, 0.0, atol=1e-10)

    def test_correct_specification_moments_near_zero(self):
        rng = np.random.default_rng(40)
        n = 100_000
        x = rng.uniform(-1, 1, n)
        y = 1.0 + 2.0 * x + rng.standard_normal(n)
        data = Dataset(columns={"X1": x, "Y": y})
        spec = ScoreSpec(kind="parametric_spec", covariates=("X1",))
        g = g_parametric_spec(data, self._bundle(x, y), spec)
        for j in range(1, 4):
            gb = g * basis_reference("legendre", j, x)
            assert abs(gb.mean()) < 3.0 * gb.std() / np.sqrt(n)

    def test_quadratic_misspecification_detected(self):
        rng = np.random.default_rng(41)
        n = 100_000
        x = rng.uniform(-1, 1, n)
        y = x ** 2 + 0.1 * rng.standard_normal(n)
        data = Dataset(columns={"X1": x, "Y": y})
        spec = ScoreSpec(kind="parametric_spec", covariates=("X1",))
        g = g_parametric_spec(data, self._bundle(x, y), spec)
        gb = g * basis_reference("legendre", 2, x)
        assert abs(gb.mean()) > 5.0 * gb.std() / np.sqrt(n)


class TestConditionalCovariance:
    def test_exact_mean_vanishes(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, 100)
        data = Dataset(columns={"X1": x, "X2": x, "Y": 2.0 * x, "Z": rng.standard_normal(100)})
        bundle = {"mean_y": 2.0 * x, "mean_z": const(100, 0.0)}
        spec = ScoreSpec(kind="conditional_covariance")
        assert np.allclose(g_conditional_covariance(data, bundle, spec), 0.0)

    def test_independent_null(self):
        rng = np.random.default_rng(43)
        n = 100_000
        data = Dataset(
            columns={
                "X1": rng.standard_normal(n), "X2": rng.standard_normal(n),
                "Y": rng.standard_normal(n), "Z": rng.standard_normal(n),
            }
        )
        bundle = {"mean_y": const(n, 0.0), "mean_z": const(n, 0.0)}
        spec = ScoreSpec(kind="conditional_covariance")
        g = g_conditional_covariance(data, bundle, spec)
        assert abs(g.mean()) < 3.0 * g.std() / np.sqrt(n)

    def test_equal_variables_give_variance(self):
        rng = np.random.default_rng(44)
        n = 100_000
        y = rng.standard_normal(n)
        data = Dataset(columns={"X1": rng.uniform(-1, 1, n), "X2": rng.uniform(-1, 1, n), "Y": y, "Z": y})
        bundle = {"mean_y": const(n, 0.0), "mean_z": const(n, 0.0)}
        spec = ScoreSpec(kind="conditional_covariance")
        g = g_conditional_covariance(data, bundle, spec)
        assert g.mean() == pytest.approx(1.0, abs=0.02)


def me_perturbation(truth):
    return {
        "pi_s1": expit(logit(truth["pi_s1"]) + 0.3),
        "pi_s0": expit(logit(truth["pi_s0"]) + 0.3),
        "mu_s1": truth["mu_s1"] + 0.3,
        "mu_s0": truth["mu_s0"],
    }


def com_perturbation(truth):
    pert = dict(truth)
    pert["pz1"] = expit(logit(truth["pz1"]) + 0.3)
    pert["mu_y1_1"] = truth["mu_y1_1"] + 0.3
    pert["mu_d1_1"] = truth["mu_d1_1"] - 0.1
    return pert


class TestOrthogonalityDiagnostic:
    T_GRID = (-0.2, -0.1, 0.0, 0.1, 0.2)

    @staticmethod
    def _curvatures(d):
        c_small = d[3] + d[1] - 2 * d[2]
        c_large = d[4] + d[0] - 2 * d[2]
        return c_small, c_large

    def test_identical_bundles_constant_path(self):
        cfg = PanelAConfig(n=2000, seed=45)
        data = gen_panel_a(cfg)
        x = data.covariate_matrix(("X1", "X2"))
        truth = oracle_nuisances_panel_a(cfg, a=0)(x)
        spec = ScoreSpec(kind="mean_exchangeability", arm=0)
        d = orthogonality_diagnostic(data, spec, truth, dict(truth), self.T_GRID)
        assert np.allclose(d, d[0], atol=1e-12)

    def test_me_quadratic_scaling(self):
        cfg = PanelAConfig(n=100_000, seed=21)
        data = gen_panel_a(cfg)
        x = data.covariate_matrix(("X1", "X2"))
        truth = oracle_nuisances_panel_a(cfg, a=0)(x)
        spec = ScoreSpec(kind="mean_exchangeability", arm=0)
        d = orthogonality_diagnostic(data, spec, truth, me_perturbation(truth), self.T_GRID)
        c_small, c_large = self._curvatures(d)
        ratio = abs(c_large) / abs(c_small)
        assert 4.0 / 1.6 <= ratio <= 4.0 * 1.6

    def test_me_derivative_much_smaller_than_plugin(self):
        cfg = PanelAConfig(n=100_000, seed=21)
        data = gen_panel_a(cfg)
        x = data.covariate_matrix(("X1", "X2"))
        truth = oracle_nuisances_panel_a(cfg, a=0)(x)
        spec = ScoreSpec(kind="mean_exchangeability", arm=0)
        pert = me_perturbation(truth)
        d = orthogonality_diagnostic(data, spec, truth, pert, self.T_GRID)
        deriv = (d[3] - d[1]) / 0.2

        def plug(data, bundle, spec):
            return bundle["mu_s1"] - bundle["mu_s0"]

        d_plug = orthogonality_diagnostic(
            data, spec, truth, pert, self.T_GRID, score_fn=plug
        )
        deriv_plug = (d_plug[3] - d_plug[1]) / 0.2
        assert abs(deriv_plug) > 10.0 * abs(deriv)

    def test_com_quadratic_scaling(self):
        cfg = PanelBConfig(n=100_000, seed=22)
        data = gen_panel_b(cfg)
        x = data.covariate_matrix(("X1", "X2"))
        truth = oracle_nuisances_panel_b(cfg)(x)
        spec = ScoreSpec(kind="iv_compatibility")
        d = orthogonality_diagnostic(data, spec, truth, com_perturbation(truth), self.T_GRID)
        c_small, c_large = self._curvatures(d)
        ratio = abs(c_large) / abs(c_small)
        assert 2.5 <= ratio <= 6.5

    def test_weighted_path_also_flat(self):
        cfg = PanelAConfig(n=100_000, seed=46)
        data = gen_panel_a(cfg)
        x = data.covariate_matrix(("X1", "X2"))
        truth = oracle_nuisances_panel_a(cfg, a=0)(x)
        spec = ScoreSpec(kind="mean_exchangeability", arm=0)
        d = orthogonality_diagnostic(
            data, spec, truth, me_perturbation(truth), self.T_GRID,
            weight=basis_reference("legendre", 1, x[:, 0]),
        )
        deriv = (d[3] - d[1]) / 0.2
        assert abs(deriv) < 0.01
