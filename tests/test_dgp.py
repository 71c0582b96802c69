import tracemalloc
import warnings

import numpy as np
import pytest

from gptest.dgp import (
    Dataset,
    PanelAConfig,
    PanelBConfig,
    _STRATUM_CUMULATIVE,
    _STRATUM_TABLE,
    _TREATMENT,
    _panel_b_laws,
    _sco2_effect,
    _stratum_probs,
    expit,
    gen_panel_a,
    gen_panel_b,
    oracle_nuisances_panel_a,
    oracle_nuisances_panel_b,
    read_csv,
    sample_panel_a,
    sample_panel_b,
    write_csv,
)
from gptest.errors import InvalidConfig, SchemaError
from gptest.numerics import RngStream
from mc_reference import panel_b_reference


class TestDataset:
    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            Dataset(columns={"a": np.zeros(3), "b": np.zeros(4)})

    def test_missing_column_named(self):
        d = Dataset(columns={"Y": np.zeros(3)})
        with pytest.raises(SchemaError, match="'S'"):
            d.col("S")

    @pytest.mark.parametrize("columns, message", [
        ({"X": 1.0, "Y": 2.0}, r"column 'X' must be 1-D, got shape \(\)"),
        ({"X": [1, 2], "Y": ["a", "b"]}, "column 'Y' is not numeric"),
        ({"X": np.zeros((3, 2)), "Y": np.zeros(3)}, r"column 'X' must be 1-D, got shape \(3, 2\)"),
        ({}, "^dataset has no columns$"),
    ], ids=["scalar", "strings", "matrix", "no_columns"])
    def test_column_not_a_vector_of_numbers(self, columns, message):
        with pytest.raises(SchemaError, match=message):
            Dataset(columns=columns)

    @pytest.mark.parametrize("n", [0, 1000])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_covariate_matrix_layout(self, n, k):
        """C-contiguous float64, equal to np.column_stack: the bits of every
        design built from it depend on that layout."""
        rng = np.random.default_rng(k)
        columns = {f"X{j}": rng.uniform(-1.0, 1.0, n) for j in range(k)}
        columns["Y"] = rng.normal(size=n)
        names = tuple(reversed([f"X{j}" for j in range(k)]))
        x = Dataset(columns=dict(columns)).covariate_matrix(names)
        assert x.dtype == np.float64 and x.flags.c_contiguous
        assert np.array_equal(x, np.column_stack([columns[name] for name in names]))


class TestPanelA:
    @pytest.mark.parametrize("panel", [PanelAConfig, PanelBConfig])
    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_size_below_one_refused(self, panel, n):
        with pytest.raises(InvalidConfig, match="^sample size must be >= 1$"):
            panel(n=n)

    def test_deterministic(self):
        cfg = PanelAConfig(n=500, alpha1=0.2, seed=3)
        a, b = gen_panel_a(cfg), gen_panel_a(cfg)
        for name in a.columns:
            assert np.array_equal(a.columns[name], b.columns[name])

    def test_source_probability_near_origin(self):
        data = gen_panel_a(PanelAConfig(n=1_000_000, seed=4))
        x1, x2, s = data.col("X1"), data.col("X2"), data.col("S")
        near = (np.abs(x1) < 0.1) & (np.abs(x2) < 0.1)
        assert abs(s[near].mean() - 0.5) < 0.01

    def test_outcome_mean_matches_oracle_in_cells(self):
        cfg = PanelAConfig(n=100_000, seed=5)
        data = gen_panel_a(cfg)
        nb = oracle_nuisances_panel_a(cfg, a=0)(data.covariate_matrix(("X1", "X2")))
        a, s, y = data.col("A"), data.col("S"), data.col("Y")
        for sv, key in ((0, "mu_s0"), (1, "mu_s1")):
            cell = (a == 0) & (s == sv)
            resid = y[cell] - nb[key][cell]
            assert abs(resid.mean()) < 0.02  # noise sd is 0.5

    def test_binned_conditional_mean_on_grid(self):
        cfg = PanelAConfig(n=1_000_000, seed=6)
        data = gen_panel_a(cfg)
        x = data.covariate_matrix(("X1", "X2"))
        nb = oracle_nuisances_panel_a(cfg, a=0)(x)
        cell = (data.col("A") == 0) & (data.col("S") == 0)
        edges = np.linspace(-1, 1, 5)
        y, xs = data.col("Y")[cell], x[cell]
        mu = nb["mu_s0"][cell]
        for i in range(4):
            for j in range(4):
                m = (
                    (xs[:, 0] >= edges[i]) & (xs[:, 0] < edges[i + 1])
                    & (xs[:, 1] >= edges[j]) & (xs[:, 1] < edges[j + 1])
                )
                assert abs(y[m].mean() - mu[m].mean()) < 0.05

    def test_oracle_propensity_at_origin(self):
        nb = oracle_nuisances_panel_a(PanelAConfig(n=10), a=0)(np.zeros((1, 2)))
        assert nb["pi_s1"][0] == pytest.approx(0.25)
        assert nb["pi_s0"][0] == pytest.approx(0.25)

    def test_oracle_outcome_formula(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(20, 2))
        expected = x[:, 0] + x[:, 1] + expit(x[:, 0])
        mu_s0 = oracle_nuisances_panel_a(PanelAConfig(n=10), a=0)(x)["mu_s0"]
        assert np.allclose(mu_s0, expected, atol=1e-12)


def all_terms_mean(x1, x2, s, a, alpha1, alpha2):
    """E[Y | A=a, S=s, X] with every term evaluated, zero factors included."""
    base = x1 + x2 + expit(x1)
    shift = s * (alpha1 * (np.cos(np.pi * x1) + np.cos(np.pi * x2)) + alpha2 * (x1 + x2))
    return base + shift + a * (2.0 * x1 - 2.0 * x2)


ALPHAS = [(0.0, 0.0), (0.2, 0.0), (0.0, 0.3)]


class TestAllTermsReference:
    """The generators and oracles skip zero terms; values stay bit for bit."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_generator_columns(self, alpha):
        cfg = PanelAConfig(n=2000, alpha1=alpha[0], alpha2=alpha[1], seed=12)
        rng = RngStream(cfg.seed)
        x1 = 2.0 * rng.uniform(cfg.n) - 1.0
        x2 = 2.0 * rng.uniform(cfg.n) - 1.0
        s = (rng.uniform(cfg.n) < expit(x1 - x2)).astype(float)
        p_a1 = s * expit(1.5 * x1 - 0.5 * x2) + (1.0 - s) * expit(x1 + 0.5 * x2)
        a = (rng.uniform(cfg.n) < p_a1).astype(float)
        y0 = all_terms_mean(x1, x2, s, 0.0, *alpha) + 0.5 * rng.normal(cfg.n)
        y1 = y0 + 2.0 * x1 - 2.0 * x2
        expected = {"X1": x1, "X2": x2, "S": s, "A": a, "Y": a * y1 + (1.0 - a) * y0}
        data = gen_panel_a(cfg)
        assert list(data.columns) == list(expected)
        for name, column in expected.items():
            assert np.array_equal(data.col(name), column), name

    @pytest.mark.parametrize("arm", [0, 1])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_oracle_arrays(self, alpha, arm):
        cfg = PanelAConfig(n=10, alpha1=alpha[0], alpha2=alpha[1])
        x = np.random.default_rng(arm).uniform(-1, 1, size=(2000, 2))
        x1, x2 = x[:, 0], x[:, 1]
        ps1 = expit(x1 - x2)
        pa1 = {1: expit(1.5 * x1 - 0.5 * x2), 0: expit(x1 + 0.5 * x2)}
        expected = {
            "pi_s1": ps1 * (pa1[1] if arm == 1 else 1.0 - pa1[1]),
            "pi_s0": (1.0 - ps1) * (pa1[0] if arm == 1 else 1.0 - pa1[0]),
            "mu_s1": all_terms_mean(x1, x2, 1.0, float(arm), *alpha),
            "mu_s0": all_terms_mean(x1, x2, 0.0, float(arm), *alpha),
        }
        bundle = oracle_nuisances_panel_a(cfg, a=arm)(x)
        assert set(bundle) == set(expected)
        for key, values in expected.items():
            assert np.array_equal(bundle[key], values), key

    @pytest.mark.parametrize("arm", [0, 1])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sampler_bundle_is_the_oracle_at_the_sample(self, alpha, arm):
        """``sample_panel_a`` draws ``gen_panel_a``'s sample, and its bundle,
        built from the draw's own arrays, is the oracle's at that X."""
        cfg = PanelAConfig(n=2000, alpha1=alpha[0], alpha2=alpha[1], seed=12)
        data, bundle = sample_panel_a(cfg, arm)
        expected = gen_panel_a(cfg)
        assert list(data.columns) == list(expected.columns)
        for name, column in expected.columns.items():
            assert data.col(name).tobytes() == column.tobytes(), name
        oracle = oracle_nuisances_panel_a(cfg, arm)(data.covariate_matrix(("X1", "X2")))
        assert list(bundle) == list(oracle)
        for key, values in oracle.items():
            assert bundle[key].tobytes() == values.tobytes(), key

    @pytest.mark.parametrize("beta", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, -0.3)])
    def test_panel_b_sco2_effect(self, beta):
        """Panel B's generator and oracle share this effect; it skips zero terms too."""
        x1, x2 = np.random.default_rng(7).uniform(-1, 1, size=(2, 2000))
        cosines = np.cos(np.pi * x1) + np.cos(np.pi * x2)
        expected = -2.0 * x1 + beta[0] * cosines + beta[1] * (x1 + x2)
        assert np.array_equal(_sco2_effect(x1, x2, -2.0 * x1, *beta), expected)


PANEL_B_DRAWS = [
    (0, (0.0, 0.0), "var"),
    (1, (0.0, 0.0), "sd"),
    (2, (0.5, 0.0), "var"),
    (3, (0.0, 0.5), "sd"),
    (4, (0.5, 0.5), "var"),
    (5, (0.5, -0.3), "sd"),
    (6, (-1.0, 2.0), "var"),
    (7, (1.0, 1.0), "sd"),
]


def _four_pass_panel_b(cfg):
    """Panel B columns with D from four ``np.where`` passes over the strata
    and Y from the two-branch outcome formula, the X, Z, U and stratum draws
    taken as the generator takes them."""
    rng, n = RngStream(cfg.seed), cfg.n
    x1 = 2.0 * rng.uniform(n) - 1.0
    x2 = 2.0 * rng.uniform(n) - 1.0
    _, _, pz1, pz2, cell, _, eff_sco2 = _panel_b_laws(x1, x2, cfg)
    z1 = (rng.uniform(n) < pz1).astype(float)
    z2 = (rng.uniform(n) < pz2).astype(float)
    u = -0.3 + (np.sqrt(0.3) if cfg.u_param == "var" else 0.3) * rng.normal(n)
    draw = rng.uniform(n)
    stratum = sum(draw >= column for column in np.take(_STRATUM_CUMULATIVE, cell, axis=0).T)
    d = np.zeros_like(z1)
    d = np.where(stratum == 1, z1, d)                  # SCO1: D = Z1
    d = np.where(stratum == 2, z2, d)                  # SCO2: D = Z2
    d = np.where(stratum == 3, z1 * z2, d)             # RCO: D = Z1 * Z2
    d = np.where(stratum == 4, np.maximum(z1, z2), d)  # ECO: D = max(Z1, Z2)
    y0 = 1.0 + x1 + x2 + u + rng.normal(n)
    effect = np.where(stratum == 0, 0.0, np.where(stratum == 2, eff_sco2, -2.0 * x1))
    y = d * (y0 + effect) + (1.0 - d) * y0
    return {"X1": x1, "X2": x2, "Z1": z1, "Z2": z2, "D": d, "Y": y}


def _five_rule_bundle(x, cfg):
    """Panel B's oracle with each stratum's uptake given Z_j = z written out
    by hand: z for Z_j's own strict compliers, the other instrument's
    propensity for its strict compliers, their product for RCO and
    z + (1 - z) times it for ECO."""
    x1, x2 = x[:, 0], x[:, 1]
    _, _, pz1, pz2, cell, _, eff_sco2 = _panel_b_laws(x1, x2, cfg)
    _, p_sco1, p_sco2, p_rco, p_eco = np.take(_STRATUM_TABLE, cell, axis=0).T
    base = 1.0 + x1 + x2 - 0.3
    eff_lin = -2.0 * x1
    bundle = {}
    for j, own, other in ((1, pz1, pz2), (2, pz2, pz1)):
        bundle[f"pz{j}"] = own
        for z in (0, 1):
            d_own = float(z)
            d_sco1, d_sco2 = (d_own, other) if j == 1 else (other, d_own)
            d_rco = d_own * other
            d_eco = d_own + (1.0 - d_own) * other
            bundle[f"mu_d{j}_{z}"] = (
                p_sco1 * d_sco1 + p_sco2 * d_sco2 + p_rco * d_rco + p_eco * d_eco
            )
            bundle[f"mu_y{j}_{z}"] = base + (
                (p_sco1 * d_sco1 + p_rco * d_rco + p_eco * d_eco) * eff_lin
                + p_sco2 * d_sco2 * eff_sco2
            )
    return bundle


class TestPanelB:
    def test_deterministic(self):
        cfg = PanelBConfig(n=500, beta1=0.5, seed=7)
        a, b = gen_panel_b(cfg), gen_panel_b(cfg)
        for name in a.columns:
            assert np.array_equal(a.columns[name], b.columns[name])

    def test_binary_columns(self):
        data = gen_panel_b(PanelBConfig(n=1000, seed=8))
        for name in ("Z1", "Z2", "D"):
            assert set(np.unique(data.col(name))) <= {0.0, 1.0}

    def test_stratum_weight_ordering(self):
        # strict compliers carry the largest softmax weights in every X cell
        for x1 in (-0.5, 0.5):
            for x2 in (-0.5, 0.5):
                p = _stratum_probs(np.array([x1]), np.array([x2]))[0]
                assert p[1] == p[2]  # SCO1 == SCO2 by construction
                assert p[1] > p[3] > p[0]  # SCO > RCO/ECO > ANT

    def test_strict_compliers_most_common(self):
        data = gen_panel_b(PanelBConfig(n=200_000, seed=9))
        # recover strata empirically is impossible; check via the analytic
        # probabilities that SCO1+SCO2 dominate
        p = _stratum_probs(data.col("X1"), data.col("X2")).mean(axis=0)
        assert p[1] + p[2] > 0.5
        assert np.argmax(p) in (1, 2)

    def test_monotone_compliance_tables(self):
        # ECO treats whenever RCO does, for every (Z1, Z2) cell
        for z1 in (0, 1):
            for z2 in (0, 1):
                assert _TREATMENT[4, z1, z2] >= _TREATMENT[3, z1, z2]

    def test_ant_never_treats(self):
        for z1 in (0, 1):
            for z2 in (0, 1):
                assert _TREATMENT[0, z1, z2] == 0.0

    def test_treatment_table_is_the_five_uptake_rules(self):
        rules = [
            lambda z1, z2: 0,            # ANT: never
            lambda z1, z2: z1,           # SCO1: D = Z1
            lambda z1, z2: z2,           # SCO2: D = Z2
            lambda z1, z2: z1 * z2,      # RCO: D = Z1 * Z2
            lambda z1, z2: max(z1, z2),  # ECO: D = max(Z1, Z2)
        ]
        assert _TREATMENT.shape == (5, 2, 2) and _TREATMENT.dtype == float
        for stratum, rule in enumerate(rules):
            for z1 in (0, 1):
                for z2 in (0, 1):
                    assert _TREATMENT[stratum, z1, z2] == rule(z1, z2), (stratum, z1, z2)
        # every uniform draw in [0, 1) falls in one of the five strata
        assert np.all(_STRATUM_CUMULATIVE[:, -1] >= 1.0)

    def test_oracle_matches_empirical_means(self):
        cfg = PanelBConfig(n=400_000, seed=10)
        data = gen_panel_b(cfg)
        nb = oracle_nuisances_panel_b(cfg)(data.covariate_matrix(("X1", "X2")))
        for j, zcol in ((1, "Z1"), (2, "Z2")):
            z = data.col(zcol)
            for zv in (0, 1):
                m = z == zv
                for prefix, col in (("mu_d", "D"), ("mu_y", "Y")):
                    emp = data.col(col)[m].mean()
                    ana = nb[f"{prefix}{j}_{zv}"][m].mean()
                    assert abs(emp - ana) < 0.01, (j, zv, prefix)

    @pytest.mark.parametrize(
        "beta", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, -0.3), (-1.0, 2.0)]
    )
    def test_oracle_sums_strata(self, beta):
        """Each conditional mean, summed stratum by stratum from the generator's pieces.

        Given Z_j = z and X, the stratum is drawn with P(stratum | X) and the
        other instrument is 1 with its propensity pz, independently; the
        treatment follows the generator's compliance table, and Y adds the
        stratum's effect to E[Y0 | X] = 1 + X1 + X2 + E[U] when treated.
        """
        cfg = PanelBConfig(n=10, beta1=beta[0], beta2=beta[1])
        x = np.random.default_rng(13).uniform(-1, 1, size=(2000, 2))
        x1, x2 = x[:, 0], x[:, 1]
        n = len(x1)
        probs = _stratum_probs(x1, x2)
        pz = {1: expit(0.5 + 0.5 * x1 + 0.5 * x2), 2: expit(0.5 + 0.5 * x1 - 0.5 * x2)}
        sco2 = _sco2_effect(x1, x2, -2.0 * x1, *beta)
        effects = [np.zeros(n), -2.0 * x1, sco2, -2.0 * x1, -2.0 * x1]  # ANT .. ECO
        expected = {"pz1": pz[1], "pz2": pz[2]}
        for j, other in ((1, 2), (2, 1)):
            for z in (0, 1):
                mean_d, lift = np.zeros(n), np.zeros(n)
                for stratum, effect in enumerate(effects):
                    d = np.zeros(n)
                    for z_other, p_other in ((1, pz[other]), (0, 1.0 - pz[other])):
                        zs = {j: z, other: z_other}
                        d += p_other * _TREATMENT[stratum, zs[1], zs[2]]
                    mean_d += probs[:, stratum] * d
                    lift += probs[:, stratum] * d * effect
                expected[f"mu_d{j}_{z}"] = mean_d
                expected[f"mu_y{j}_{z}"] = 1.0 + x1 + x2 - 0.3 + lift
        bundle = oracle_nuisances_panel_b(cfg)(x)
        assert len(bundle) == 10 and set(bundle) == set(expected)
        for key, values in expected.items():
            np.testing.assert_allclose(bundle[key], values, rtol=0.0, atol=1e-12, err_msg=key)

    @pytest.mark.parametrize("seed, beta, u_param", PANEL_B_DRAWS)
    def test_generator_matches_per_row_softmax_draw(self, seed, beta, u_param):
        """The stratum table lookup draws the same sample as a per-row softmax."""
        cfg = PanelBConfig(n=3000, beta1=beta[0], beta2=beta[1], seed=seed, u_param=u_param)
        u_sd = np.sqrt(0.3) if u_param == "var" else 0.3
        expected = panel_b_reference(cfg.n, *beta, seed, u_sd)
        data = gen_panel_b(cfg)
        assert list(data.columns) == list(expected)
        for name, column in expected.items():
            assert data.col(name).tobytes() == column.tobytes(), name

    @pytest.mark.parametrize("u_param", ["var", "sd"])
    @pytest.mark.parametrize("n", [1, 7, 3000])
    def test_treatment_table_draws_the_four_pass_sample(self, n, u_param):
        """D taken from the (stratum, Z1, Z2) table and Y = Y0 + D * effect
        give the bits of four ``np.where`` passes and the two-branch outcome."""
        for seed in range(20):
            beta = [(0.0, 0.0), (0.5, -0.3), (-1.0, 2.0)][seed % 3]
            cfg = PanelBConfig(n=n, beta1=beta[0], beta2=beta[1], seed=seed, u_param=u_param)
            data, expected = gen_panel_b(cfg), _four_pass_panel_b(cfg)
            assert list(data.columns) == list(expected)
            for name, column in expected.items():
                assert data.col(name).dtype == column.dtype, (seed, name)
                assert data.col(name).tobytes() == column.tobytes(), (seed, name)

    @pytest.mark.parametrize("seed, beta, u_param", PANEL_B_DRAWS)
    def test_sampler_bundle_is_the_oracle_at_the_sample(self, seed, beta, u_param):
        """``sample_panel_b`` draws ``gen_panel_b``'s sample, and its bundle,
        built from the draw's own arrays, is the oracle's at that X."""
        cfg = PanelBConfig(n=3000, beta1=beta[0], beta2=beta[1], seed=seed, u_param=u_param)
        data, bundle = sample_panel_b(cfg)
        expected = gen_panel_b(cfg)
        assert list(data.columns) == list(expected.columns)
        for name, column in expected.columns.items():
            assert data.col(name).tobytes() == column.tobytes(), name
        oracle = oracle_nuisances_panel_b(cfg)(data.covariate_matrix(("X1", "X2")))
        assert list(bundle) == list(oracle)
        for key, values in oracle.items():
            assert bundle[key].tobytes() == values.tobytes(), key

    @pytest.mark.parametrize("u_param", ["var", "sd"])
    @pytest.mark.parametrize("beta", [(0.0, 0.0), (0.5, -0.3), (-1.0, 2.0)])
    @pytest.mark.parametrize("n", [1, 7, 3000])
    def test_oracle_matches_the_five_rule_bundle(self, n, beta, u_param):
        """Uptake read from ``_TREATMENT`` gives the oracle the bits of the
        five rules written out by hand, at random X; the sampler's bundle is
        the oracle at the sample's X (``test_sampler_bundle_is_the_oracle_at_the_sample``)."""
        cfg = PanelBConfig(n=n, beta1=beta[0], beta2=beta[1], seed=n, u_param=u_param)
        x = np.random.default_rng(n).uniform(-1, 1, size=(n, 2))
        got, expected = oracle_nuisances_panel_b(cfg)(x), _five_rule_bundle(x, cfg)
        assert list(got) == list(expected)
        for key, values in expected.items():
            assert got[key].tobytes() == values.tobytes(), key

    @pytest.mark.parametrize("n", [10, 3000, 100_000])
    def test_stratum_table_rows_are_the_per_row_softmax(self, n):
        """Taking each row's probabilities from the 4-cell table gives the
        per-row softmax's bits, in all four cells and with X1 or X2 at 0."""
        x1, x2 = np.random.default_rng(15).uniform(-1, 1, size=(2, n))
        x1[:4], x2[:4] = [0.0, 0.0, 0.5, -0.5], [0.5, -0.5, 0.0, 0.0]
        x1[4], x2[4] = 0.0, 0.0
        cell = 2 * (x1 > 0) + (x2 > 0)
        assert set(cell) == {0, 1, 2, 3}
        taken = np.take(_STRATUM_TABLE, cell, axis=0)
        assert taken.tobytes() == _stratum_probs(x1, x2).tobytes()

    def test_stratum_probs_per_row(self):
        x1, x2 = np.random.default_rng(14).uniform(-1, 1, size=(2, 500))
        probs = _stratum_probs(x1, x2)
        assert probs.shape == (500, 5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        for cell in range(4):
            rows = 2 * (x1 > 0) + (x2 > 0) == cell
            assert rows.any() and np.all(probs[rows] == probs[rows][0])

    def test_u_param_switch_changes_spread(self):
        a = gen_panel_b(PanelBConfig(n=50_000, seed=11, u_param="var"))
        b = gen_panel_b(PanelBConfig(n=50_000, seed=11, u_param="sd"))
        # var mode uses sd sqrt(0.3) ~ 0.548 > 0.3, so Y spreads wider
        assert a.col("Y").std() > b.col("Y").std()


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        data = gen_panel_a(PanelAConfig(n=200, seed=12))
        path = tmp_path / "panel_a.csv"
        write_csv(data, str(path))
        back = read_csv(str(path))
        for name in data.columns:
            assert np.array_equal(data.columns[name], back.columns[name])

    def test_na_cell_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X1,Y\n0.5,1.0\n0.1,NA\n")
        with pytest.raises(SchemaError, match="row 2.*'Y'"):
            read_csv(str(path))

    def test_edge_values_round_trip_bitwise(self, tmp_path):
        x = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1 / 3, -2 / 7])
        path = tmp_path / "edge.csv"
        write_csv(Dataset(columns={"X": x}), str(path))
        assert read_csv(str(path)).col("X").tobytes() == x.tobytes()

    def test_write_matches_per_cell_format(self, tmp_path):
        # row counts at and around the write block's 1,024 rows; a loop,
        # not a parametrization, so that the test id stays
        full = gen_panel_b(PanelBConfig(n=3000, seed=13))
        full.columns["E"] = np.resize([-0.0, 5e-324, 1.7976931348623157e308, 0.1], 3000)
        for n in (0, 1, 1023, 1024, 1025, 3000):
            data = Dataset(columns={k: v[:n] for k, v in full.columns.items()})
            path, ref = tmp_path / f"fast{n}.csv", tmp_path / f"ref{n}.csv"
            write_csv(data, str(path))
            _reference_write_csv(data, str(ref))
            assert path.read_bytes() == ref.read_bytes(), n

    def test_zero_rows_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(Dataset(columns={"X1": np.empty(0), "Y": np.empty(0)}), str(path))
        assert path.read_bytes() == b"X1,Y\n"
        back = read_csv(str(path))
        assert list(back.columns) == ["X1", "Y"] and back.n == 0

    def test_write_memory_is_flat(self, tmp_path):
        # the writer holds one block of text at a time, not the whole file
        data = gen_panel_a(PanelAConfig(n=200_000, seed=12))
        tracemalloc.start()
        try:
            write_csv(data, str(tmp_path / "big.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_columns_c_contiguous(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("X1,X2,Y\n1,2,3\n4,5,6\n")
        data = read_csv(str(path))
        for arr in data.columns.values():
            assert arr.flags.c_contiguous and arr.dtype == np.float64
        assert np.array_equal(data.col("X2"), [2.0, 5.0])

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("\nX1,Y\n\n0.5,1.0\n  \t \n-1e3,2E-1\n\n")
        data = read_csv(str(path))
        assert data.col("X1").tolist() == [0.5, -1000.0]
        assert data.col("Y").tolist() == [1.0, 0.2]

    def test_header_only_gives_empty_columns(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("X1, Y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = read_csv(str(path))
        assert list(data.columns) == ["X1", "Y"]
        assert data.n == 0

    def test_one_row_with_crlf(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"X1,Y\r\n0.25, -3 \r\n")
        data = read_csv(str(path))
        assert data.col("X1").tolist() == [0.25] and data.col("Y").tolist() == [-3.0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("X1,Y\n0.5\n", "row 1 has 1 cells, expected 2"),
            ("X1,Y\n0.5,1\n0.1,2,3\n", "row 2 has 3 cells, expected 2"),
            ("X1,Y\n0.5,1,2\n0.1,2,3\n", "row 1 has 3 cells, expected 2"),
            ("X1,Y\n0.5,1\n\n0.1\n", "row 2 has 1 cells, expected 2"),
            ("X1,Y\n0.5,1.0\n0.1,NA\n", "non-numeric cell 'NA' at row 2, column 'Y'"),
            ("X1,Y\n0.5,\n", "non-numeric cell '' at row 1, column 'Y'"),
            ("X1,Y\n#2,1\n", "non-numeric cell '#2' at row 1, column 'X1'"),
            ("X1,Y\n1,2\n1_0,3\n", "cannot parse .* as numeric CSV: .*'1_0' .*at row 2, column 1"),
            ("X1,X2,X1\n1,2,3\n", "duplicate column name 'X1'"),
            ("X1,,Y\n1,2,3\n", "empty column name at position 2"),
            ("X1,Y,\n1,2,3\n", "empty column name at position 3"),
        ],
        ids=[
            "short_first_row", "long_row", "every_row_long", "short_after_blank", "na_cell",
            "empty_cell", "hash_cell", "digit_separator", "duplicate_name", "empty_name",
            "trailing_comma",
        ],
    )
    def test_bad_input_located(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match=message):
            read_csv(str(path))

    def test_non_finite_cell_refused(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("X1,Y\n0.5,1\n-inf,2\n")
        with pytest.raises(SchemaError, match="non-finite value in column 'X1' at row 2$"):
            read_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_csv(str(path))

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("\nX1,Y\n\n0.5,1\n\n", {"X1": [0.5], "Y": [1.0]}),
            ("  \nX1,Y\n \t \n0.5,1\n  \n-2,3\n", {"X1": [0.5, -2.0], "Y": [1.0, 3.0]}),
            ("X1,Y\n", {"X1": [], "Y": []}),
            ("X1,Y\n\n \n", {"X1": [], "Y": []}),
            ("X1,Y\r\n0.5,1\r\n-2,3\r\n", {"X1": [0.5, -2.0], "Y": [1.0, 3.0]}),
            ("X1,Y\n0.5,1\n0.1,x\n", "non-numeric cell 'x' at row 2, column 'Y'"),
            ("X1,Y\n0.5,1\n0.1\n", "row 2 has 1 cells, expected 2"),
            ("X1,Y\n0.5,1,2\n0.1,2,3\n", "row 1 has 3 cells, expected 2"),
            ("X1,Y\n1,2\n1_0,3\n", "cannot parse .* as numeric CSV: .*'1_0' .*at row 2, column 1"),
            ("X1,X1\n1,2\n", "duplicate column name 'X1'"),
            ("", "empty input file"),
            ("X1,Y\n0.5,1\n0.1,nan\n", "non-finite value in column 'Y' at row 2"),
        ],
        ids=[
            "blank_lines", "whitespace_lines", "header_only", "header_then_blank", "crlf",
            "bad_cell", "short_row", "wide_rows", "digit_separator", "duplicate_name",
            "empty_file", "nan_cell",
        ],
    )
    def test_bulk_parse_and_line_scan_agree(self, tmp_path, text, expected):
        # the single loadtxt pass over the open file reads the clean cases;
        # the others fall back to the line scan, which names the bad row
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(SchemaError, match=expected):
                    read_csv(str(path))
                return
            data = read_csv(str(path))
        assert {name: col.tolist() for name, col in data.columns.items()} == expected


def _reference_write_csv(data, path):
    """The per-cell ``format(v, ".17g")`` writer that ``write_csv`` must match."""
    names = list(data.columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        mat = np.column_stack([data.columns[name] for name in names])
        for row in mat:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
