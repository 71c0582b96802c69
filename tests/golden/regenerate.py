"""Rewrite ``pvalues.json``: the p-value and decision of every method and
J* of ``run_gp_tests`` on fixed datasets, and the rates CSV of each golden
grid config, and print each value and row that moved.

    PYTHONPATH=src python tests/golden/regenerate.py

The cases cover Panel A (n = 500) and Panel B (n = 1000) under oracle
and cross-fit nuisances, plus the parametric-specification and
conditional-covariance scores on Panel A data, the latter with a
continuous and with a 0/1 outcome; each runs on additive Legendre and
tensor Fourier bases with J* = 3 and 5, on dataset seeds 0-2.  The grids
(``grid_*.cfg``) run ``run_grid`` at 1 thread: Panel A oracle and cross-fit
at n = 250, Panel B oracle at n = 400, and Panel B cross-fit on a tensor
Fourier basis at n = 400, each with R = 100, so they pin the replication
seeds, the pairing of methods and J* on one dataset, and the oracle
bundles the samplers hand the harness.  ``tests/test_golden.py`` compares
the files with a fresh computation, running each grid at 1 and at 2
threads.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from gptest import (
    BasisSpec, PanelAConfig, PanelBConfig, ScoreSpec, TestConfig, gen_panel_a, gen_panel_b,
    oracle_nuisances_panel_a, oracle_nuisances_panel_b, run_gp_tests,
)
from gptest.harness import run_grid, sim_config_from_text

PATH = Path(__file__).with_name("pvalues.json")
METHODS = ("gp_standardized", "gp_unstandardized", "wald")
J_STARS = (3, 5)
SEEDS = (0, 1, 2)
BASES = (("legendre", "additive"), ("fourier", "tensor"))
# (name, panel, score kind, role columns, nuisance mode)
SCORES = (
    ("A_oracle", "A", "mean_exchangeability", {}, "oracle"),
    ("A_crossfit", "A", "mean_exchangeability", {}, "crossfit"),
    ("B_oracle", "B", "iv_compatibility", {}, "oracle"),
    ("B_crossfit", "B", "iv_compatibility", {}, "crossfit"),
    ("A_parametric_spec", "A", "parametric_spec", {}, "crossfit"),
    ("A_condcov_continuous_y", "A", "conditional_covariance", {"z": "S"}, "crossfit"),
    ("A_condcov_binary_y", "A", "conditional_covariance", {"y": "A", "z": "S"}, "crossfit"),
)
SCORE_NAMES = tuple(row[0] for row in SCORES)
GRID_NAMES = ("grid_a_oracle", "grid_a_crossfit", "grid_b_oracle", "grid_b_crossfit")


def compute(score_name: str) -> dict:
    """``{key: [p_value, reject]}`` of one score row, over its bases and seeds."""
    _, panel, kind, columns, mode = next(row for row in SCORES if row[0] == score_name)
    out = {}
    for seed in SEEDS:
        if panel == "A":
            cfg = PanelAConfig(n=500, seed=seed)
            data, oracle = gen_panel_a(cfg), oracle_nuisances_panel_a(cfg, a=0)
        else:
            cfg = PanelBConfig(n=1000, seed=seed)
            data, oracle = gen_panel_b(cfg), oracle_nuisances_panel_b(cfg)
        score = ScoreSpec(kind=kind, columns=columns, nuisance_mode=mode,
                          oracle=oracle if mode == "oracle" else None)
        for family, combination in BASES:
            specs = [BasisSpec(family=family, j_star=j, combination=combination,
                               ranges=((-1.0, 1.0), (-1.0, 1.0))) for j in J_STARS]
            results = run_gp_tests(data, score, specs, TestConfig(seed=seed), METHODS)
            for method, row in zip(METHODS, results):
                for j_star, result in zip(J_STARS, row):
                    key = f"{score_name}/{family}_{combination}/seed={seed}/{method}/J*={j_star}"
                    out[key] = [result.p_value, bool(result.reject)]
    return out


def write_grid(grid_name: str, path: Path, threads: int = 1) -> None:
    """Run golden grid ``grid_name`` through ``run_grid`` on ``threads``
    worker processes and write its rates CSV to ``path``."""
    text = PATH.with_name(f"{grid_name}.cfg").read_text()
    run_grid(sim_config_from_text(text, {"threads": threads})).to_csv(str(path))


def main() -> int:
    new = {}
    for name in SCORE_NAMES:
        new.update(compute(name))
    old = json.loads(PATH.read_text()) if PATH.exists() else {}
    moved = 0
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            moved += 1
            print(f"{key}: {old.get(key)} -> {new.get(key)}")
    lines = (f" {json.dumps(key)}: {json.dumps(value)}" for key, value in new.items())
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(new)} values to {PATH.name}; {moved} moved")
    for grid_name in GRID_NAMES:
        path = PATH.with_name(f"{grid_name}.csv")
        old_rows = path.read_text().splitlines() if path.exists() else []
        write_grid(grid_name, path)
        new_rows = path.read_text().splitlines()
        moved = [(i, a, b) for i, (a, b) in enumerate(zip(old_rows, new_rows)) if a != b]
        for i, a, b in moved:
            print(f"{path.name} row {i}: {a} -> {b}")
        if len(old_rows) != len(new_rows):
            print(f"{path.name}: {len(old_rows)} rows -> {len(new_rows)}")
        print(f"wrote {len(new_rows) - 1} rows to {path.name}; {len(moved)} moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
