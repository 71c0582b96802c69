import concurrent.futures
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gptest import engine, harness
from gptest.basis import BasisSpec
from gptest.cli import TEST_KEYS, _empirical_ranges, main
from gptest.dgp import (
    Dataset, PanelAConfig, PanelBConfig, gen_panel_a, gen_panel_b, read_csv, write_csv,
)
from gptest.errors import InvalidConfig
from gptest.harness import (
    SIM_KEYS,
    SimGridConfig,
    TABLE_HEADER,
    parse_config,
    parse_config_text,
    replication_seed,
    run_grid,
    sim_config_from_text,
)
from gptest.nuisance import crossfit
from gptest.numerics import RngStream
from gptest.scores import ScoreSpec

ROOT = Path(__file__).resolve().parents[1]


class TestConfigParsing:
    def test_key_value_lines(self):
        kv = parse_config_text("panel = B\n# comment\n\nreplications = 10 # inline\n")
        assert kv == {"panel": "B", "replications": "10"}

    def test_malformed_line_reports_number(self):
        with pytest.raises(InvalidConfig, match="line 2"):
            parse_config_text("panel = A\nnot a pair\n")

    def test_key_given_twice_rejected(self):
        # keys are read case-blind, so J_STAR repeats j_star
        with pytest.raises(InvalidConfig, match="^j_star is given twice, on lines 1 and 3$"):
            parse_config_text("j_star = 3\n# comment\nJ_STAR = 5\n")

    def test_full_grid_config(self):
        cfg = sim_config_from_text(
            "panel = b\n"
            "sample_sizes = 250, 500\n"
            "scenarios = 0,0; 0.5,0.3\n"
            "j_star = 3,5\n"
            "methods = gp_standardized, wald\n"
            "replications = 20\n"
            "seed = 99\n"
            "folds = 3\n"
            "nuisance = oracle\n"
        )
        assert cfg.panel == "B"
        assert cfg.sample_sizes == (250, 500)
        assert cfg.scenarios == ((0.0, 0.0), (0.5, 0.3))
        assert cfg.j_star_list == (3, 5)
        assert cfg.methods == ("gp_standardized", "wald")
        assert cfg.replications == 20 and cfg.base_seed == 99 and cfg.K == 3
        assert cfg.nuisance_mode == "oracle"

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig, match="mystery"):
            sim_config_from_text("mystery = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(InvalidConfig, match="^replications = 'soon': invalid literal"):
            sim_config_from_text("replications = soon\n")

    def test_bad_scenario_rejected(self):
        with pytest.raises(InvalidConfig, match="pair"):
            sim_config_from_text("scenarios = 1,2,3\n")

    def test_overrides_win(self):
        cfg = sim_config_from_text("seed = 1\n", overrides={"seed": 7, "alpha": None})
        assert cfg.base_seed == 7 and cfg.alpha == 0.05

    def test_zero_replications_rejected(self):
        with pytest.raises(InvalidConfig):
            sim_config_from_text("replications = 0\n")

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidConfig):
            SimGridConfig(methods=("gp_standardized", "anova"))

    @pytest.mark.parametrize(
        "field, values, message",
        [
            ("sample_sizes", (250, 500, 250), "sample_sizes lists 250 twice"),
            ("scenarios", ((0.0, 0.0), (0.2, 0.0), (0.0, 0.0)), "scenarios lists (0.0, 0.0) twice"),
            ("j_star_list", (3, 3), "j_star lists 3 twice"),
            ("methods", ("wald", "wald"), "methods lists 'wald' twice"),
        ],
        ids=["sample_sizes", "scenarios", "j_star", "methods"],
    )
    def test_value_listed_twice_rejected(self, field, values, message):
        # a repeated value would run its cells twice on the same seeds
        with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
            SimGridConfig(**{field: values})

    @pytest.mark.parametrize("field", ["sample_sizes", "scenarios", "j_star_list", "methods"])
    def test_empty_list_rejected(self, field):
        # an empty methods list would write a CSV that holds only its header
        message = "sample_sizes, scenarios, j_star and methods must be nonempty"
        with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
            SimGridConfig(**{field: ()})

    @pytest.mark.parametrize("panel, scenario", [
        ("A", (0, 0, 0)), ("A", (0.5,)), ("A", 0.5), ("A", "00"), ("B", (0.0, 0.0, 0, "sd")),
    ], ids=["triple", "single", "scalar", "string", "panel_b_four"])
    def test_scenario_not_a_pair_rejected(self, panel, scenario):
        message = f"scenario {scenario!r} is not a pair"
        with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
            SimGridConfig(panel=panel, scenarios=((0.0, 0.0), scenario))

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg")), ids=lambda p: p.stem)
    def test_shipped_config_parses(self, path):
        keys = TEST_KEYS if path.stem == "test_me" else SIM_KEYS
        assert parse_config(path.read_text(), keys)

    def test_folds_checked_against_given_sample_sizes(self):
        assert sim_config_from_text("sample_sizes = 1000\nfolds = 300\n").K == 300
        cfg = sim_config_from_text("sample_sizes = 4\nfolds = 2\nj_star = 2\nnuisance = oracle\n")
        assert (cfg.sample_sizes, cfg.K) == ((4,), 2)
        with pytest.raises(InvalidConfig, match="^folds = '300': .*K=300, n=100$"):
            sim_config_from_text("sample_sizes = 100, 1000\nfolds = 300\n")
        with pytest.raises(InvalidConfig, match="^folds = '1': .*K=1, n=4$"):
            sim_config_from_text("sample_sizes = 4\nfolds = 1\n")

    def test_basis_checked_against_smallest_sample_size(self):
        text = "sample_sizes = 1000, 250\ncombination = tensor\nj_star = 15, 30\n"
        message = "^combination = 'tensor': basis has J=900 columns for n=250 rows; need J < n$"
        with pytest.raises(InvalidConfig, match=message):
            sim_config_from_text(text)
        with pytest.raises(InvalidConfig, match="J=5 columns for n=4 rows"):
            sim_config_from_text("sample_sizes = 4\nfolds = 2\n")  # the default basis
        assert sim_config_from_text(text + "methods = wald\n").methods == ("wald",)
        assert sim_config_from_text("sample_sizes = 1000\ncombination = tensor\nj_star = 30\n")

    def test_covariates_checked_against_mapped_columns(self):
        # the score is built with its *_col keys, so A is a free covariate
        # once a_col names another column, and that column is not
        kw = parse_config("a_col = treated\ncovariates = X1, A\n", TEST_KEYS)
        assert kw["score"] == {"covariates": ("X1", "A"), "columns": {"a": "treated"}}
        message = "^a_col = 'treated': covariate 'treated' is the score's a column$"
        with pytest.raises(InvalidConfig, match=message):
            parse_config("covariates = X1, treated\na_col = treated\n", TEST_KEYS)

    def test_column_keys_are_every_score_kinds_roles(self):
        roles = {role for kind_roles in ScoreSpec.ROLES.values() for role in kind_roles}
        assert {row[0] for row in TEST_KEYS if row[0].endswith("_col")} == {
            f"{role}_col" for role in roles}

    def test_readme_key_table_matches_code(self):
        readme = (ROOT / "README.md").read_text()
        table = {}
        for line in readme.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 4:
                for key in re.findall(r"`([a-z0-9_]+)`", cells[0]):
                    table[key] = cells[1]
        commands = {"test": {row[0] for row in TEST_KEYS}, "simulate": {row[0] for row in SIM_KEYS}}
        expected = {
            key: "both" if key in commands["test"] & commands["simulate"] else command
            for command, keys in commands.items() for key in keys
        }
        assert table == expected


class TestReplicationSeed:
    def test_stable_value(self):
        a = replication_seed(1, "A", 250, (0.0, 0.0), "gp_standardized", 3, 0)
        assert a == replication_seed(1, "A", 250, (0.0, 0.0), "gp_standardized", 3, 0)
        assert 0 <= a < 2 ** 64

    def test_seeded_by_dataset_not_by_method_or_j_star(self):
        base = (1, "A", 250, (0.0, 0.0), "gp_standardized", 3, 0)
        data_variants = [
            (2, "A", 250, (0.0, 0.0), "gp_standardized", 3, 0),
            (1, "B", 250, (0.0, 0.0), "gp_standardized", 3, 0),
            (1, "A", 500, (0.0, 0.0), "gp_standardized", 3, 0),
            (1, "A", 250, (0.2, 0.0), "gp_standardized", 3, 0),
            (1, "A", 250, (0.0, 0.2), "gp_standardized", 3, 0),
            (1, "A", 250, (0.0, 0.0), "gp_standardized", 3, 1),
        ]
        seeds = {replication_seed(*v) for v in data_variants}
        assert replication_seed(*base) not in seeds
        assert len(seeds) == len(data_variants)
        same_data = [("wald", 3), ("gp_unstandardized", 3), ("gp_standardized", 5), (None, None)]
        for method, j_star in same_data:
            seed = replication_seed(1, "A", 250, (0.0, 0.0), method, j_star, 0)
            assert seed == replication_seed(*base)


def tiny_config(**kw):
    defaults = dict(
        panel="A",
        sample_sizes=(250,),
        scenarios=((0.0, 0.0),),
        j_star_list=(3,),
        methods=("gp_standardized",),
        replications=4,
        base_seed=11,
        nuisance_mode="oracle",
    )
    defaults.update(kw)
    return SimGridConfig(**defaults)


class TestRunCell:
    """One-cell grids: one (n, scenario), one method and one J*."""

    def test_single_replication_row(self):
        (row,) = run_grid(tiny_config(replications=1)).rows
        assert row["rejection_rate"] in (0.0, 1.0)
        assert row["mc_stderr"] == 0.0
        assert set(TABLE_HEADER) <= set(row)

    def test_deterministic(self):
        cfg = tiny_config()
        assert run_grid(cfg).rows == run_grid(cfg).rows

    def test_stderr_formula(self):
        (row,) = run_grid(tiny_config(replications=8, scenarios=((0.2, 0.0),))).rows
        r = row["rejection_rate"]
        assert row["mc_stderr"] == pytest.approx(np.sqrt(r * (1 - r) / 8))


class TestRunGrid:
    def test_row_cardinality(self):
        cfg = tiny_config(
            sample_sizes=(250, 500), scenarios=((0.0, 0.0), (0.2, 0.0)), replications=2
        )
        table = run_grid(cfg)
        assert len(table.rows) == 4

    def test_parallel_matches_serial(self):
        serial = run_grid(tiny_config(threads=1))
        parallel = run_grid(tiny_config(threads=2))
        assert [r["rejection_rate"] for r in serial.rows] == [
            r["rejection_rate"] for r in parallel.rows
        ]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_row_equals_its_cell_run_alone(self, threads):
        cfg = tiny_config(
            sample_sizes=(250, 400), scenarios=((0.0, 0.0), (0.2, 0.0)), j_star_list=(3, 5),
            methods=("gp_standardized", "gp_unstandardized", "wald"), replications=6,
            threads=threads,
        )
        rows = run_grid(cfg).rows
        assert len(rows) == 2 * 2 * 3 * 2
        rates = set()
        for row in rows:
            scenario = (row["scenario_1"], row["scenario_2"])
            alone = run_grid(tiny_config(
                sample_sizes=(row["n"],), scenarios=(scenario,), j_star_list=(row["j_star"],),
                methods=(row["method"],), replications=6,
            )).rows
            assert alone == [row]
            rates.add(row["rejection_rate"])
        assert len(rates) > 1  # the rows are not all alike
        wald = [row for row in rows if row["method"] == "wald"]
        wald_rates = [r["rejection_rate"] for r in wald]
        assert wald_rates[0::2] == wald_rates[1::2]  # J* 3 and 5 of each dataset

    def test_one_crossfit_per_dataset(self, monkeypatch):
        calls = []

        def counting_crossfit(*args, **kwargs):
            calls.append(args[0].n)
            return crossfit(*args, **kwargs)

        monkeypatch.setattr(engine, "crossfit", counting_crossfit)
        cfg = tiny_config(
            sample_sizes=(250, 400), scenarios=((0.0, 0.0), (0.2, 0.0), (0.2, 0.2)),
            j_star_list=(3, 5), methods=("gp_standardized", "gp_unstandardized", "wald"),
            replications=3,
        )
        assert len(run_grid(cfg).rows) == 2 * 3 * 2 * 3
        assert len(calls) == 2 * 3 * 3
        assert calls.count(250) == calls.count(400) == 3 * 3

    def test_scenario_typing_does_not_move_seeds(self, tmp_path):
        # a seed reads repr(scenario): ints and numpy floats are taken as floats first
        texts = []
        for scenario in ((0.0, 0.0), (0, 0), (np.float64(0.0), False)):
            cfg = tiny_config(scenarios=(scenario,), replications=40)
            assert cfg.scenarios == ((0.0, 0.0),)
            assert all(type(v) is float for v in cfg.scenarios[0])
            out = tmp_path / f"{len(texts)}.csv"
            run_grid(cfg).to_csv(str(out))
            texts.append(out.read_bytes())
        assert texts[1] == texts[0] and texts[2] == texts[0]
        assert texts[0].splitlines()[1].startswith(b"A,250,0.0,0.0,")

    def test_csv_output(self, tmp_path):
        table = run_grid(tiny_config(replications=2))
        out = tmp_path / "table.csv"
        table.to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(TABLE_HEADER)
        assert len(lines) == 2


@pytest.fixture
def panel_a_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(gen_panel_a(PanelAConfig(n=600, seed=41)), str(path))
    return str(path)


@pytest.fixture
def test_config_file(tmp_path):
    path = tmp_path / "test.cfg"
    path.write_text("score = mean_exchangeability\narm = 0\nj_star = 3\nseed = 2\n")
    return str(path)


class TestCli:
    def test_test_command_json(self, capsys, panel_a_csv, test_config_file):
        code = main(["test", "--data", panel_a_csv, "--config", test_config_file])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "gp_standardized"
        assert 0.0 <= payload["p_value"] <= 1.0
        assert payload["J"] == 5
        diagnostics = payload["diagnostics"]
        assert set(diagnostics) == {"K", "nonconverged_fits", "min_propensity", "clipped_rows"}
        assert diagnostics["K"] == 5
        assert diagnostics["nonconverged_fits"] == 0
        fit = crossfit(read_csv(panel_a_csv), ScoreSpec(), K=5, rng=RngStream(2))
        assert diagnostics == fit.diagnostics
        assert 0.0 < diagnostics["min_propensity"] < 1.0

    def test_test_command_reproducible(self, capsys, panel_a_csv, test_config_file):
        argv = ["test", "--data", panel_a_csv, "--config", test_config_file]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_missing_column_exits_2(self, capsys, tmp_path, test_config_file):
        path = tmp_path / "thin.csv"
        rows = "".join(f"{i / 10 - 0.5},{0.3 - i / 20},{i / 5}\n" for i in range(10))
        path.write_text("X1,X2,Y\n" + rows)
        code = main(["test", "--data", str(path), "--config", test_config_file])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_collinear_covariates_exit_2(self, capsys, tmp_path, test_config_file):
        # identical covariates at the 1e10 scale: the 1e-10 ridge jitter is
        # lost in rounding, so the stratum's design stays singular
        data = gen_panel_a(PanelAConfig(n=600, seed=41))
        x1 = data.col("X1") * 1e10
        columns = {"X1": x1, "X2": x1.copy()}
        columns.update({name: data.col(name) for name in ("S", "A", "Y")})
        path = tmp_path / "collinear.csv"
        write_csv(Dataset(columns=columns), str(path))
        assert main(["test", "--data", str(path), "--config", test_config_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "collinear or constant within a stratum" in err

    @pytest.mark.parametrize(
        "panel, config, role, column, value",
        [
            ("A", "score = mean_exchangeability", "S", "S", 2.0),
            ("A", "score = mean_exchangeability\na_col = treated", "A", "treated", 0.5),
            ("B", "score = iv_compatibility", "Z2", "Z2", -1.0),
        ],
        ids=["S", "A_renamed", "Z2"],
    )
    def test_non_binary_indicator_exits_2(self, capsys, tmp_path, panel, config, role, column,
                                          value):
        # the score's indicator roles, under their *_col names, must hold only 0 and 1
        data = gen_panel_a(PanelAConfig(n=600, seed=41)) if panel == "A" else \
            gen_panel_b(PanelBConfig(n=600, seed=41))
        columns = dict(data.columns)
        columns[column] = columns.pop(role).copy()
        columns[column][7] = value
        data_path, cfg = tmp_path / "data.csv", tmp_path / "test.cfg"
        write_csv(Dataset(columns=columns), str(data_path))
        cfg.write_text(config + "\n")
        assert main(["test", "--data", str(data_path), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: binary column {column!r} has value {value} at row 8\n"

    def test_zero_outcome_exits_2(self, capsys, tmp_path):
        # a constant outcome is refused before any fit: Y = 0 would give a zero
        # Sigma-hat, Y = 1 a single-class logistic fit, and Y = 3 a p-value
        # computed from rounding noise
        data = gen_panel_a(PanelAConfig(n=600, seed=41))
        for value in (0.0, 1.0, 3.0):
            path = tmp_path / "constant_y.csv"
            write_csv(Dataset(columns={**data.columns, "Y": np.full(data.n, value)}), str(path))
            for variant in ("gp_standardized", "gp_unstandardized"):
                cfg = tmp_path / f"{variant}.cfg"
                cfg.write_text(f"score = mean_exchangeability\nvariant = {variant}\n")
                assert main(["test", "--data", str(path), "--config", str(cfg)]) == 2
                assert capsys.readouterr().err == "error: outcome column 'Y' is constant\n"

    @pytest.mark.parametrize("value", [0.5, 1e10])
    def test_constant_covariate_exits_2(self, capsys, tmp_path, test_config_file, value):
        # a constant covariate spans no basis range: at 0.5 the ridge fallback
        # of the cross-fit would absorb the singular design, and at 1e10 the
        # 1% pad would vanish in the range's floats
        data = gen_panel_a(PanelAConfig(n=600, seed=41))
        path = tmp_path / "constant_x2.csv"
        write_csv(Dataset(columns={**data.columns, "X2": np.full(data.n, value)}), str(path))
        assert main(["test", "--data", str(path), "--config", test_config_file]) == 2
        err = capsys.readouterr().err
        assert err == "error: covariate column 'X2' is constant, so it spans no basis range\n"

    def test_covariate_matrix_built_once(self, capsys, monkeypatch, panel_a_csv, test_config_file):
        calls = []
        build = Dataset.covariate_matrix
        monkeypatch.setattr(Dataset, "covariate_matrix",
                            lambda self, names: calls.append(names) or build(self, names))
        assert main(["test", "--data", panel_a_csv, "--config", test_config_file]) == 0
        assert calls == [("X1", "X2")]

    @pytest.mark.parametrize("variant", ["gp_standardized", "gp_unstandardized"])
    def test_iv_csv_matches_generated_dataset(self, capsys, tmp_path, variant):
        # a written Panel B dataset gets the same p-value from `gptest test`
        # as from the library on the generated data: D is fit by IRLS either way
        data = gen_panel_b(PanelBConfig(n=1500, seed=3))
        data_path, cfg = tmp_path / "panel_b.csv", tmp_path / "iv.cfg"
        write_csv(data, str(data_path))
        cfg.write_text(f"score = iv_compatibility\nvariant = {variant}\nseed = 9\n")
        assert main(["test", "--data", str(data_path), "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        spec = ScoreSpec(kind="iv_compatibility")
        ranges = _empirical_ranges(data, spec.covariates)
        expected = engine.run_gp_test(data, spec, BasisSpec(ranges=ranges),
                                      engine.TestConfig(seed=9), variant=variant)
        assert payload["p_value"] == expected.p_value

    @pytest.mark.parametrize(
        "text, message",
        [
            ("X1,X2,S,A,Y,X2\n", "duplicate column name 'X2'"),
            ("X1,X2,S,A,Y\n0.1,0.2,1,0,1_0\n", "cannot parse"),
            ("X1,X2,S,A,Y\n", "need 2 <= K <= n, got K=5, n=0"),
        ],
        ids=["duplicate_name", "digit_separator", "header_only"],
    )
    def test_bad_csv_exits_2(self, capsys, tmp_path, test_config_file, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["test", "--data", str(path), "--config", test_config_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_unknown_config_key_exits_2(self, capsys, panel_a_csv, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scoring_rule = brier\n")
        assert main(["test", "--data", panel_a_csv, "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("arm = 2", "arm"),
            ("j_star = 0", "j_star"),
            ("alpha = 2", "alpha"),
            ("folds = 1", "K=1"),
            ("mc_draws = 100000", "mc_draws"),
            ("combination = tensor\nj_star = 30", "J=900"),
            ("covariates =", "covariates = '': empty list"),
        ],
        ids=["arm", "j_star", "alpha", "folds", "mc_draws", "J_not_below_n", "covariates"],
    )
    def test_bad_config_value_exits_2(self, capsys, panel_a_csv, tmp_path, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"score = mean_exchangeability\n{line}\n")
        assert main(["test", "--data", panel_a_csv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_alpha_override(self, capsys, panel_a_csv, test_config_file):
        argv = ["test", "--data", panel_a_csv, "--config", test_config_file]
        main(argv)
        base = json.loads(capsys.readouterr().out)
        main(argv + ["--alpha", "0.999999"])
        loose = json.loads(capsys.readouterr().out)
        assert base["p_value"] == loose["p_value"]
        assert loose["reject"]

    def test_simulate_writes_table(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "panel = A\nsample_sizes = 250\nscenarios = 0,0\n"
            "replications = 2\nnuisance = oracle\n"
        )
        out = tmp_path / "rates.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("panel,") and len(lines) == 2

    def test_simulate_bad_replications_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("replications = 0\n")
        out = tmp_path / "rates.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("test", "score = mean_exchangeability\nj_star = 3\nj_star = 5\n",
             "j_star is given twice, on lines 2 and 3"),
            ("simulate", "sample_sizes = 250\nreplications = 2\nnuisance = oracle\n"
             "replications = 3\n", "replications is given twice, on lines 2 and 4"),
        ],
        ids=["test", "simulate"],
    )
    def test_key_given_twice_exits_2(self, capsys, panel_a_csv, tmp_path, command, text, message):
        cfg, out = tmp_path / "twice.cfg", tmp_path / "rates.csv"
        cfg.write_text(text)
        args = ["--data", panel_a_csv] if command == "test" else ["--out", str(out)]
        assert main([command, "--config", str(cfg), *args]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_seed_flag_overrides_file_key(self, capsys, panel_a_csv, test_config_file, tmp_path):
        cfg = tmp_path / "seed9.cfg"
        cfg.write_text(Path(test_config_file).read_text().replace("seed = 2", "seed = 9"))
        assert main(["test", "--data", panel_a_csv, "--config", str(cfg)]) == 0
        want = capsys.readouterr().out
        argv = ["test", "--data", panel_a_csv, "--config", test_config_file, "--seed", "9"]
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize(
        "line, message",
        [
            ("sample_sizes = 250, 500, 250", "sample_sizes lists 250 twice"),
            ("scenarios = 0,0; 0,0", "scenarios lists (0.0, 0.0) twice"),
            ("j_star = 3, 3", "j_star lists 3 twice"),
            ("methods = wald, wald", "methods lists 'wald' twice"),
        ],
        ids=["sample_sizes", "scenarios", "j_star", "methods"],
    )
    def test_simulate_value_listed_twice_exits_2(self, capsys, tmp_path, line, message):
        cfg, out = tmp_path / "sim.cfg", tmp_path / "rates.csv"
        cfg.write_text(f"replications = 2\nnuisance = oracle\n{line}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        key, value = line.split(" = ")
        assert capsys.readouterr().err == f"error: {key} = {value!r}: {message}\n"
        assert not out.exists()

    def test_simulate_same_bytes_for_one_and_two_threads(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "panel = A\nsample_sizes = 250\nscenarios = 0,0; 0.2,0\n"
            "methods = gp_standardized, wald\nreplications = 2\nnuisance = oracle\n"
        )
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"rates_{threads}.csv"
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--threads", threads]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert "wrote 4 rows" in capsys.readouterr().out

    def test_simulate_basis_wider_than_sample_refused_before_pool(
        self, capsys, monkeypatch, tmp_path
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("panel = A\nsample_sizes = 250\ncombination = tensor\nj_star = 30\n")
        out = tmp_path / "rates.csv"
        argv = ["simulate", "--config", str(cfg), "--out", str(out), "--threads", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: combination = 'tensor': basis has J=900 columns for n=250 rows; need J < n\n"
        )
        assert not out.exists()
        # a wald-only grid builds no basis, so the same keys are accepted
        with open(cfg, "a") as fh:
            fh.write("methods = wald\nreplications = 2\nnuisance = oracle\n")
        assert main(argv[:-2]) == 0
        assert out.exists()

    def test_bad_gptest_threads_exits_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("GPTEST_THREADS", "abc")
        assert main(["basis-check"]) == 0
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("sample_sizes = 250\nreplications = 1\nnuisance = oracle\n")
        out = tmp_path / "rates.csv"
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: GPTEST_THREADS: threads = 'abc': ")
        assert not out.exists()
        assert main(argv + ["--threads", "1"]) == 0  # the flag wins over the variable
        monkeypatch.setenv("GPTEST_THREADS", "0")  # 0 means unset
        assert main(argv) == 0

    def test_basis_check_output(self, capsys):
        assert main(["basis-check", "--family", "legendre", "--jstar", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == 5
        assert payload["xi_hat"] == pytest.approx(np.sqrt(5.0), rel=1e-4)

    def test_basis_check_tensor_any_dimension(self, capsys):
        argv = ["basis-check", "--dims", "4", "--combination", "tensor"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == 81
        assert payload["xi_hat"] == pytest.approx(25.0, rel=1e-12)  # sqrt(5)^4
        assert payload["omega_hat"] == pytest.approx(81.0, rel=1e-12)  # sqrt(1 + 3 + 5)^4

    def test_basis_check_tensor_bounds_stay_finite(self, capsys):
        # 3^400 fits in a double though 9^400 does not: the root comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["basis-check", "--dims", "400", "--combination", "tensor"]) == 0
        payload = json.loads(capsys.readouterr().out,
                             parse_constant=lambda c: pytest.fail(f"non-strict JSON: {c}"))
        assert payload["xi_hat"] == pytest.approx(5.0 ** 200, rel=1e-12)
        assert payload["omega_hat"] == pytest.approx(3.0 ** 400, rel=1e-12)

    def test_basis_check_overflowing_bounds_exit_2(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["basis-check", "--dims", "1000", "--combination", "tensor"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tensor bounds overflow a double at d = 1000\n"

    @pytest.mark.parametrize("dims", ["0", "-1"])
    def test_basis_check_without_covariates_exits_2(self, capsys, dims):
        assert main(["basis-check", "--dims", dims]) == 2
        assert capsys.readouterr().err == "error: a basis needs at least one covariate range\n"

    def test_missing_data_file_exits_2(self, capsys, test_config_file):
        assert main(["test", "--data", "/no/such.csv", "--config", test_config_file]) == 2

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_unreadable_config_file_exits_2(self, capsys, tmp_path, panel_a_csv, command):
        missing = tmp_path / "no_such.cfg"
        argv = {"test": ["--data", panel_a_csv], "simulate": ["--out", str(tmp_path / "o.csv")]}
        assert main([command, "--config", str(missing), *argv[command]]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {str(missing)!r}: ")

    def test_byte_order_mark_is_read_past(self, capsys, tmp_path, panel_a_csv,
                                          test_config_file):
        # Excel's "CSV UTF-8" files start with a UTF-8 byte-order mark
        main(["test", "--data", panel_a_csv, "--config", test_config_file])
        plain = capsys.readouterr().out
        data, cfg = tmp_path / "bom.csv", tmp_path / "bom.cfg"
        data.write_bytes(b"\xef\xbb\xbf" + Path(panel_a_csv).read_bytes())
        cfg.write_bytes(b"\xef\xbb\xbf" + Path(test_config_file).read_bytes())
        assert main(["test", "--data", str(data), "--config", test_config_file]) == 0
        assert capsys.readouterr().out == plain
        assert main(["test", "--data", panel_a_csv, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == plain


def _run_fresh(probe: str) -> str:
    """Standard output of ``probe`` run in a fresh interpreter on this checkout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    return out.stdout.strip()


class TestKeepFreedMemory:
    """Processes gptest owns reuse freed heap memory instead of faulting it in
    again.  Each count runs in a fresh interpreter, because ``cli.main`` in
    this one has already changed its allocator."""

    def test_serial_crossfit_takes_no_page_faults(self):
        # without keep_freed_memory a cross-fit here takes about 100 faults
        probe = (
            "import resource\n"
            "from gptest import harness\n"
            "from gptest.dgp import PanelBConfig, gen_panel_b\n"
            "from gptest.nuisance import crossfit\n"
            "from gptest.numerics import RngStream\n"
            "from gptest.scores import IV_COMPATIBILITY, ScoreSpec\n"
            "if not harness.keep_freed_memory():\n"
            "    print('unsupported')\n"
            "    raise SystemExit\n"
            "spec = ScoreSpec(kind=IV_COMPATIBILITY)\n"
            "data = [gen_panel_b(PanelBConfig(n=3000, seed=s)) for s in range(13)]\n"
            "faults = 0\n"
            "for s, d in enumerate(data):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    crossfit(d, spec, K=5, rng=RngStream(s))\n"
            "    if s >= 3:\n"
            "        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "print(faults / 10)\n"
        )
        out = _run_fresh(probe)
        if out == "unsupported":
            pytest.skip("no mallopt in this C library")
        assert float(out) < 20

    def test_pool_workers_take_few_page_faults(self):
        # without the pool initializer the workers take about 300 faults per dataset
        if not harness.keep_freed_memory():
            pytest.skip("no mallopt in this C library")
        probe = (
            "import resource\n"
            "from gptest.harness import SimGridConfig, run_grid\n"
            "cfg = SimGridConfig(panel='B', sample_sizes=(3000,), scenarios=((0, 0), (0.5, 0)),\n"
            "                    j_star_list=(3, 5), methods=('gp_standardized', "
            "'gp_unstandardized'),\n"
            "                    replications=64, threads=2)\n"
            "before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt\n"
            "run_grid(cfg)\n"
            "print((resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before) / 128)\n"
        )
        assert float(_run_fresh(probe)) < 120

    def test_library_calls_leave_the_allocator_alone(self, monkeypatch, panel_a_csv,
                                                     test_config_file, capsys):
        calls = []
        monkeypatch.setattr(harness, "keep_freed_memory", lambda: calls.append(1))
        run_grid(SimGridConfig(sample_sizes=(250,), replications=2, nuisance_mode="oracle"))
        assert calls == []
        assert main(["test", "--data", panel_a_csv, "--config", test_config_file]) == 0
        assert calls == [1]


# One unparseable or out-of-range value per key of each command.
BAD_TEST_VALUES = [
    ("score", "score = anova"),
    ("arm", "arm = x"),
    ("covariates", "covariates ="),
    ("covariates", "covariates = X1, X1"),
    ("covariates", "covariates = X1, S"),
    ("covariates", "covariates = X1, Y"),
    ("arm", "score = parametric_spec\narm = 1"),
    ("clip_propensity", "clip_propensity = 0.5"),
    ("clip_propensity", "score = conditional_covariance\nclip_propensity = 0.2"),
    ("clip_denominator", "clip_denominator = 0"),
    ("clip_denominator", "clip_denominator = nan"),
    ("clip_denominator", "clip_denominator = 0.3"),
    *((f"{role}_col", f"{role}_col =") for role in ("y", "a", "s", "d", "z1", "z2", "z")),
    ("a_col", "a_col = S"),
    ("d_col", "score = iv_compatibility\nd_col = Z1"),
    ("s_col", "score = iv_compatibility\ns_col = nonexistent"),
    ("variant", "variant = anova"),
    ("folds", "folds = 2.5"),
    ("folds", "folds = 1"),
    ("basis_family", "basis_family = hermite"),
    ("j_star", "j_star = x"),
    ("j_star", "j_star = 66"),
    ("combination", "combination = diagonal"),
    ("alpha", "alpha = x"),
    ("seed", "seed = 1.5"),
]
BAD_SIM_VALUES = [
    ("panel", "panel = C"),
    ("sample_sizes", "sample_sizes = 0"),
    ("scenarios", "scenarios = 1,2,3"),
    ("scenarios", "scenarios = nan,0"),
    ("scenarios", "panel = B\nscenarios = inf,0"),
    ("j_star", "j_star = x"),
    ("j_star", "j_star = 66"),
    ("methods", "methods = anova"),
    ("replications", "replications = 0"),
    ("seed", "seed = x"),
    ("folds", "folds = 2.5"),
    ("folds", "nuisance = oracle\nfolds = 1"),
    ("nuisance", "nuisance = magic"),
    ("alpha", "alpha = 1"),
    ("basis_family", "basis_family = hermite"),
    ("combination", "combination = diagonal"),
    ("combination", "sample_sizes = 250\ncombination = tensor\nj_star = 30"),
    ("u_param", "panel = A\nu_param = foo"),
    ("threads", "threads = 0"),
]


def test_bad_values_cover_every_key():
    assert {key for key, _ in BAD_TEST_VALUES} == {row[0] for row in TEST_KEYS}
    assert {key for key, _ in BAD_SIM_VALUES} == {row[0] for row in SIM_KEYS}


@pytest.mark.parametrize(
    "command, key, text",
    [("test", key, text) for key, text in BAD_TEST_VALUES]
    + [("simulate", key, text) for key, text in BAD_SIM_VALUES],
    ids=lambda v: v.replace("\n", "; ") if isinstance(v, str) else v,
)
def test_bad_value_exits_2_naming_key(capsys, tmp_path, panel_a_csv, command, key, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    out = tmp_path / "rates.csv"
    if command == "test":
        argv = ["test", "--data", panel_a_csv, "--config", str(cfg)]
    else:
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} = ")
    assert not out.exists()  # refused before any replication ran
