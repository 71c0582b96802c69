"""Command-line interface: ``gptest test|simulate|basis-check``.

Exit codes: 0 success, 1 internal error, 2 input/schema/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import harness
from .basis import ADDITIVE, BasisSpec, basis_bound_diagnostics
from .engine import GP_STANDARDIZED, METHODS, TestConfig, run_gp_test
from .errors import (
    GptestError,
    InsufficientStratum,
    InvalidConfig,
    InvalidInput,
    OutOfRange,
    SchemaError,
    SingularDesign,
)
from .dgp import read_csv
from .numerics import RngStream
from .scores import SCORE_KINDS, ScoreSpec

_INPUT_ERRORS = (
    SchemaError, InvalidConfig, InvalidInput, OutOfRange, InsufficientStratum, SingularDesign,
)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
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


def _test_config_from_kv(kv: dict, args) -> tuple[ScoreSpec, dict]:
    known = {
        "score", "arm", "variant", "basis_family", "j_star", "combination",
        "alpha", "folds", "seed", "clip_propensity", "clip_denominator",
        "covariates", "y_col", "a_col", "s_col",
        "d_col", "z1_col", "z2_col", "z_col",
    }
    unknown = set(kv) - known
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    kind = kv.get("score", "mean_exchangeability")
    if kind not in SCORE_KINDS:
        raise InvalidConfig(f"unknown score {kind!r}; choose from {SCORE_KINDS}")
    columns = {}
    for role in ("y", "a", "s", "d", "z1", "z2", "z"):
        if f"{role}_col" in kv:
            columns[role] = kv[f"{role}_col"]
    covariates = tuple(
        c.strip() for c in kv.get("covariates", "X1,X2").split(",") if c.strip()
    )
    try:
        spec = ScoreSpec(
            kind=kind,
            arm=int(kv.get("arm", 0)),
            covariates=covariates,
            columns=columns,
            clip_propensity=float(kv.get("clip_propensity", 0.01)),
            clip_denominator=float(kv.get("clip_denominator", 0.05)),
        )
        settings = {
            "variant": kv.get("variant", GP_STANDARDIZED),
            "basis_family": kv.get("basis_family", "legendre"),
            "j_star": int(kv.get("j_star", 3)),
            "combination": kv.get("combination", ADDITIVE),
            "alpha": float(args.alpha if args.alpha is not None else kv.get("alpha", 0.05)),
            "folds": int(kv.get("folds", 5)),
            "seed": int(args.seed if args.seed is not None else kv.get("seed", 0)),
        }
    except ValueError as exc:
        raise InvalidConfig(f"bad config value: {exc}") from None
    if settings["variant"] not in METHODS:
        raise InvalidConfig(f"unknown variant {settings['variant']!r}")
    return spec, settings


def cmd_test(args) -> int:
    kv = harness.parse_config_text(_read_text(args.config))
    spec, settings = _test_config_from_kv(kv, args)
    data = read_csv(args.data)
    x = data.covariate_matrix(spec.covariates)
    basis_spec = BasisSpec(
        family=settings["basis_family"],
        j_star=settings["j_star"],
        combination=settings["combination"],
        ranges=_empirical_ranges(x),
    )
    config = TestConfig(alpha=settings["alpha"], seed=settings["seed"])
    result = run_gp_test(
        data, spec, basis_spec, config,
        variant=settings["variant"], K=settings["folds"],
        rng=RngStream(settings["seed"]),
    )
    print(json.dumps(result.to_dict(), indent=2))
    return 0


def cmd_simulate(args) -> int:
    overrides = {"seed": args.seed, "alpha": args.alpha, "threads": args.threads}
    cfg = harness.sim_config_from_text(_read_text(args.config), overrides)
    table = harness.run_grid(cfg)
    table.to_csv(args.out)
    print(f"wrote {len(table.rows)} rows to {args.out}")
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
    p_test.add_argument("--seed", type=int, default=None)
    p_test.add_argument("--alpha", type=float, default=None)
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="run a rejection-rate grid")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--alpha", type=float, default=None)
    p_sim.add_argument(
        "--threads", type=int,
        default=int(os.environ.get("GPTEST_THREADS", "0")) or None,
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_basis = sub.add_parser("basis-check", help="report basis bound diagnostics")
    p_basis.add_argument("--family", default="legendre", choices=("legendre", "fourier"))
    p_basis.add_argument("--jstar", type=int, default=3)
    p_basis.add_argument("--dims", type=int, default=2)
    p_basis.add_argument("--combination", default="additive", choices=("additive", "tensor"))
    p_basis.set_defaults(func=cmd_basis_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GptestError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
