"""Command-line interface: ``gptest test|simulate|basis-check``.

Exit codes: 0 success, 2 input/schema/config error, 1 an uncaught exception (a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import harness
from .basis import BasisSpec, basis_bound_diagnostics
from .engine import METHODS, TestConfig, run_gp_test
from .errors import GptestError, InvalidConfig
from .dgp import read_csv
from .nuisance import check_folds
from .scores import ScoreSpec


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidConfig(f"cannot read {path!r}: {exc}") from None


def _empirical_ranges(x: np.ndarray):
    """Per-covariate (min, max) expanded by 1% on each side."""
    ranges = []
    for k in range(x.shape[1]):
        lo, hi = float(x[:, k].min()), float(x[:, k].max())
        pad = 0.01 * max(hi - lo, 1e-12)
        ranges.append((lo - pad, hi + pad))
    return tuple(ranges)


# `gptest test` keys, as (key, parse, owner, field) rows of harness.parse_config.
TEST_KEYS = (
    ("score", str, "score", "kind"),
    ("arm", int, "score", "arm"),
    ("covariates", harness.listed(str), "score", "covariates"),
    ("clip_propensity", float, "score", "clip_propensity"),
    ("clip_denominator", float, "score", "clip_denominator"),
    *((f"{role}_col", harness.name, "score", ("columns", role))  # every kind's roles, once
      for role in dict.fromkeys(role for roles in ScoreSpec.ROLES.values() for role in roles)),
    ("variant", harness.choice(METHODS), "run", "variant"),
    ("folds", lambda text: check_folds(int(text)), "run", "K"),
    ("basis_family", str, "basis", "family"),
    ("j_star", int, "basis", "j_star"),
    ("combination", str, "basis", "combination"),
    ("alpha", float, "test", "alpha"),
    ("seed", int, "test", "seed"),
)


def cmd_test(args) -> int:
    overrides = {"seed": args.seed, "alpha": args.alpha}
    kw = harness.parse_config(_read_text(args.config), TEST_KEYS, overrides)
    spec = ScoreSpec(**kw["score"])
    data = read_csv(args.data)
    check_folds(kw["run"].get("K", 5), data.n)  # the ranges need a row
    ranges = _empirical_ranges(data.covariate_matrix(spec.covariates))
    basis_spec = BasisSpec(ranges=ranges, **kw["basis"])
    result = run_gp_test(data, spec, basis_spec, TestConfig(**kw["test"]), **kw["run"])
    print(json.dumps(result.to_dict(), indent=2, allow_nan=False))
    return 0


def cmd_simulate(args) -> int:
    env = os.environ.get("GPTEST_THREADS", "").strip()
    from_env = args.threads is None and env not in ("", "0")  # empty or 0 means unset
    threads = env if from_env else args.threads
    overrides = {"seed": args.seed, "alpha": args.alpha, "threads": threads}
    try:
        cfg = harness.sim_config_from_text(_read_text(args.config), overrides)
    except InvalidConfig as exc:  # a bad GPTEST_THREADS is blamed on the variable
        blame_env = from_env and str(exc).startswith("threads = ")
        raise InvalidConfig(f"GPTEST_THREADS: {exc}" if blame_env else str(exc)) from None
    start = time.perf_counter()
    table = harness.run_grid(cfg)
    table.to_csv(args.out)
    print(f"wrote {len(table.rows)} rows to {args.out} in {time.perf_counter() - start:.2f} s")
    return 0


def cmd_basis_check(args) -> int:
    spec = BasisSpec(
        family=args.family,
        j_star=args.jstar,
        combination=args.combination,
        ranges=tuple(((-1.0, 1.0),) * args.dims),
    )
    xi_hat, omega_hat = basis_bound_diagnostics(spec)
    print(
        json.dumps(
            {
                "family": spec.family,
                "j_star": spec.j_star,
                "dims": spec.dim,
                "combination": spec.combination,
                "columns": spec.n_columns,
                "xi_hat": xi_hat,
                "omega_hat": omega_hat,
            },
            indent=2,
            allow_nan=False,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptest",
        description="Growing-basis projection tests for conditional moment "
        "restrictions, with a Monte Carlo simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run one test on a CSV dataset")
    p_test.add_argument("--data", required=True, help="CSV file with a header row")
    p_test.add_argument("--config", required=True, help="key = value config file")
    p_test.add_argument("--seed")
    p_test.add_argument("--alpha")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="run a rejection-rate grid")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--seed")
    p_sim.add_argument("--alpha")
    p_sim.add_argument("--threads", help="worker processes; default $GPTEST_THREADS")
    p_sim.set_defaults(func=cmd_simulate)

    p_basis = sub.add_parser("basis-check", help="report basis bound diagnostics")
    p_basis.add_argument("--family", default="legendre", choices=("legendre", "fourier"))
    p_basis.add_argument("--jstar", type=int, default=3)
    p_basis.add_argument("--dims", type=int, default=2)
    p_basis.add_argument("--combination", default="additive", choices=("additive", "tensor"))
    p_basis.set_defaults(func=cmd_basis_check)
    return parser


def main(argv=None) -> int:
    harness.keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GptestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
