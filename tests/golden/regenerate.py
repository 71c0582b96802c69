"""Rewrite ``pvalues.json``: the p-value and decision of every method and
J* of ``run_gp_tests`` on fixed datasets, and print each value that moved.

    PYTHONPATH=src python tests/golden/regenerate.py

The cases cover Panel A (n = 500) and Panel B (n = 1000) under oracle
and cross-fit nuisances, plus the parametric-specification and
conditional-covariance scores on Panel A data, the latter with a
continuous and with a 0/1 outcome; each runs on additive Legendre and
tensor Fourier bases with J* = 3 and 5, on dataset seeds 0-2.
``tests/test_golden.py`` compares the file with a fresh computation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from gptest import (
    BasisSpec, PanelAConfig, PanelBConfig, ScoreSpec, TestConfig, gen_panel_a, gen_panel_b,
    oracle_nuisances_panel_a, oracle_nuisances_panel_b, run_gp_tests,
)

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
