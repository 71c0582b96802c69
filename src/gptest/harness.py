"""Monte Carlo simulation runner: rejection-rate tables over a grid of
data-generating processes, plus the plain-text config parser shared with
the CLI.

Replications carry individually derived seeds, so the output table is
identical whether cells run serially or across worker processes.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import ADDITIVE, BasisSpec, LEGENDRE
from .engine import (
    GP_STANDARDIZED,
    METHODS,
    TestConfig,
    run_gp_test,
)
from .errors import InvalidConfig
from .dgp import (
    PanelAConfig,
    PanelBConfig,
    gen_panel_a,
    gen_panel_b,
    oracle_nuisances_panel_a,
    oracle_nuisances_panel_b,
)
from .numerics import RngStream
from .scores import IV_COMPATIBILITY, MEAN_EXCHANGEABILITY, ScoreSpec

TABLE_HEADER = (
    "panel", "n", "scenario_1", "scenario_2", "method", "j_star",
    "rejection_rate", "replications", "mc_stderr", "mean_runtime_ms",
)


@dataclass
class SimGridConfig:
    panel: str = "A"
    sample_sizes: tuple[int, ...] = (250, 500, 1000)
    scenarios: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    j_star_list: tuple[int, ...] = (3,)
    methods: tuple[str, ...] = (GP_STANDARDIZED,)
    replications: int = 500
    base_seed: int = 20260826
    K: int = 5
    nuisance_mode: str = "crossfit"
    alpha: float = 0.05
    basis_family: str = LEGENDRE
    combination: str = ADDITIVE
    u_param: str = "var"
    threads: int = 1

    def __post_init__(self):
        if self.panel not in ("A", "B"):
            raise InvalidConfig(f"panel must be 'A' or 'B', got {self.panel!r}")
        if self.replications < 1:
            raise InvalidConfig("replications must be >= 1")
        if not self.sample_sizes or not self.scenarios or not self.j_star_list:
            raise InvalidConfig("sample_sizes, scenarios, and j_star must be nonempty")
        for m in self.methods:
            if m not in METHODS:
                raise InvalidConfig(f"unknown method {m!r}")
        if self.nuisance_mode not in ("crossfit", "oracle"):
            raise InvalidConfig(f"unknown nuisance mode {self.nuisance_mode!r}")
        if self.threads < 1:
            raise InvalidConfig("threads must be >= 1")


@dataclass
class RejectionTable:
    rows: list = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(TABLE_HEADER) + "\n")
            for row in self.rows:
                fh.write(",".join(str(row[k]) for k in TABLE_HEADER) + "\n")


def replication_seed(base_seed: int, panel: str, n: int, scenario, method: str,
                     j_star: int, rep: int) -> int:
    """Stable 64-bit per-replication seed derived from the cell identity."""
    key = f"{base_seed}|{panel}|{n}|{scenario[0]!r}|{scenario[1]!r}|{method}|{j_star}|{rep}"
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _one_replication(task: tuple) -> bool:
    """Generate one dataset, run the requested test, return the decision."""
    (panel, n, scenario, method, j_star, seed, K, nuisance_mode, alpha,
     basis_family, combination, u_param) = task
    if panel == "A":
        dgp_cfg = PanelAConfig(n=n, alpha1=scenario[0], alpha2=scenario[1], seed=seed)
        data = gen_panel_a(dgp_cfg)
        oracle = oracle_nuisances_panel_a(dgp_cfg, a=0) if nuisance_mode == "oracle" else None
        score = ScoreSpec(
            kind=MEAN_EXCHANGEABILITY, arm=0,
            nuisance_mode=nuisance_mode, oracle=oracle,
        )
    else:
        dgp_cfg = PanelBConfig(
            n=n, beta1=scenario[0], beta2=scenario[1], seed=seed, u_param=u_param
        )
        data = gen_panel_b(dgp_cfg)
        oracle = oracle_nuisances_panel_b(dgp_cfg) if nuisance_mode == "oracle" else None
        score = ScoreSpec(
            kind=IV_COMPATIBILITY,
            nuisance_mode=nuisance_mode, oracle=oracle,
        )
    basis_spec = BasisSpec(
        family=basis_family, j_star=j_star, combination=combination,
        ranges=((-1.0, 1.0), (-1.0, 1.0)),
    )
    config = TestConfig(alpha=alpha, seed=seed)
    rng = RngStream(seed).spawn(1)  # fold assignment stream, distinct from the DGP's
    result = run_gp_test(data, score, basis_spec, config, variant=method, K=K, rng=rng)
    return bool(result.reject)


def run_cell(cfg: SimGridConfig, n: int, scenario, method: str, j_star: int,
             executor=None) -> dict:
    """Run R replications of one grid cell and summarize the rejection rate."""
    tasks = [
        (
            cfg.panel, n, scenario, method, j_star,
            replication_seed(cfg.base_seed, cfg.panel, n, scenario, method, j_star, rep),
            cfg.K, cfg.nuisance_mode, cfg.alpha, cfg.basis_family, cfg.combination, cfg.u_param,
        )
        for rep in range(cfg.replications)
    ]
    start = time.perf_counter()
    if executor is None:
        decisions = [_one_replication(t) for t in tasks]
    else:
        decisions = list(executor.map(_one_replication, tasks, chunksize=8))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    rate = float(np.mean(decisions))
    return {
        "panel": cfg.panel,
        "n": n,
        "scenario_1": scenario[0],
        "scenario_2": scenario[1],
        "method": method,
        "j_star": j_star,
        "rejection_rate": rate,
        "replications": cfg.replications,
        "mc_stderr": float(np.sqrt(rate * (1.0 - rate) / cfg.replications)),
        "mean_runtime_ms": elapsed_ms / cfg.replications,
    }


def run_grid(cfg: SimGridConfig) -> RejectionTable:
    """Run every cell of the grid; deterministic given the base seed."""
    table = RejectionTable()
    executor = None
    try:
        if cfg.threads > 1:
            executor = concurrent.futures.ProcessPoolExecutor(max_workers=cfg.threads)
        for n in cfg.sample_sizes:
            for scenario in cfg.scenarios:
                for method in cfg.methods:
                    for j_star in cfg.j_star_list:
                        table.rows.append(
                            run_cell(cfg, n, scenario, method, j_star, executor=executor)
                        )
    finally:
        if executor is not None:
            executor.shutdown()
    return table


# ---------------------------------------------------------------------------
# Plain-text key/value config files.  Grammar: one `key = value` pair per
# line, '#' starts a comment, blank lines ignored.  Lists are
# comma-separated; scenario pairs are semicolon-separated "a,b" tuples.

def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().lower()] = value.strip()
    return out


def _parse_scenarios(text: str):
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip().strip("()")
        if not chunk:
            continue
        parts = [p for p in chunk.split(",") if p.strip()]
        if len(parts) != 2:
            raise InvalidConfig(f"scenario {chunk!r} is not a pair")
        pairs.append((float(parts[0]), float(parts[1])))
    if not pairs:
        raise InvalidConfig("no scenarios given")
    return tuple(pairs)


def _parse_int_list(text: str):
    return tuple(int(p) for p in text.split(",") if p.strip())


def sim_config_from_text(text: str, overrides: dict | None = None) -> SimGridConfig:
    """Build a SimGridConfig from config-file text plus CLI overrides."""
    kv = parse_config_text(text)
    if overrides:
        kv.update({k: str(v) for k, v in overrides.items() if v is not None})
    known = {
        "panel", "sample_sizes", "scenarios", "j_star", "methods",
        "replications", "seed", "folds", "nuisance", "alpha", "basis_family",
        "combination", "u_param", "threads",
    }
    unknown = set(kv) - known
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    try:
        return SimGridConfig(
            panel=kv.get("panel", "A").upper(),
            sample_sizes=_parse_int_list(kv["sample_sizes"]) if "sample_sizes" in kv else (250, 500, 1000),
            scenarios=_parse_scenarios(kv["scenarios"]) if "scenarios" in kv else ((0.0, 0.0),),
            j_star_list=_parse_int_list(kv["j_star"]) if "j_star" in kv else (3,),
            methods=tuple(m.strip() for m in kv.get("methods", GP_STANDARDIZED).split(",")),
            replications=int(kv.get("replications", 500)),
            base_seed=int(kv.get("seed", 20260826)),
            K=int(kv.get("folds", 5)),
            nuisance_mode=kv.get("nuisance", "crossfit"),
            alpha=float(kv.get("alpha", 0.05)),
            basis_family=kv.get("basis_family", LEGENDRE),
            combination=kv.get("combination", ADDITIVE),
            u_param=kv.get("u_param", "var"),
            threads=int(kv.get("threads", 1)),
        )
    except ValueError as exc:
        raise InvalidConfig(f"bad config value: {exc}") from None
