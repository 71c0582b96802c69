"""Monte Carlo simulation runner: rejection-rate tables over a grid of
data-generating processes, plus the typed config-key parser shared with
the CLI.

Replications are paired across methods and basis sizes: replication
``rep`` of an (n, scenario) is one dataset and one cross-fit, seeded from
(base seed, panel, n, scenario, rep) alone, on which every (method, J*)
of the grid is run.  A cell's row therefore does not depend on which
other methods or J* share its grid, and the table is identical whether
replications run serially or across worker processes.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import hashlib
import math
from dataclasses import dataclass, field

from .basis import ADDITIVE, BasisSpec, LEGENDRE
from .engine import (
    GP_STANDARDIZED,
    METHODS,
    WALD_PROJECTION,
    TestConfig,
    check_basis_columns,
    run_gp_tests,
)
from .errors import GptestError, InvalidConfig
from .dgp import (
    PanelAConfig,
    PanelBConfig,
    gen_panel_a,
    gen_panel_b,
    sample_panel_a,
    sample_panel_b,
)
from .nuisance import check_folds
from .numerics import RngStream
from .scores import IV_COMPATIBILITY, MEAN_EXCHANGEABILITY, ScoreSpec

TABLE_HEADER = (
    "panel", "n", "scenario_1", "scenario_2", "method", "j_star",
    "rejection_rate", "replications", "mc_stderr",
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
        for key, values in (("sample_sizes", self.sample_sizes), ("scenarios", self.scenarios),
                            ("j_star", self.j_star_list), ("methods", self.methods)):
            for i, value in enumerate(values):
                if value in values[:i]:  # a repeat would run its cells twice on the same seeds
                    raise InvalidConfig(f"{key} lists {value!r} twice")
        for m in self.methods:
            if m not in METHODS:
                raise InvalidConfig(f"unknown method {m!r}")
        if self.nuisance_mode not in ("crossfit", "oracle"):
            raise InvalidConfig(f"unknown nuisance mode {self.nuisance_mode!r}")
        if self.threads < 1:
            raise InvalidConfig("threads must be >= 1")
        # the layers' own rules, checked here once instead of in the first replication
        for n in self.sample_sizes:
            PanelBConfig(n=n, u_param=self.u_param)
        panel = PanelAConfig if self.panel == "A" else PanelBConfig
        for scenario in self.scenarios:
            panel(min(self.sample_sizes), *scenario)
        check_folds(self.K, min(self.sample_sizes))
        projection = any(m != WALD_PROJECTION for m in self.methods)
        for j_star in self.j_star_list:
            spec = BasisSpec(family=self.basis_family, j_star=j_star, combination=self.combination)
            if projection:
                check_basis_columns(spec.n_columns, min(self.sample_sizes))
        TestConfig(alpha=self.alpha)


@dataclass
class RejectionTable:
    rows: list = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(TABLE_HEADER) + "\n")
            for row in self.rows:
                fh.write(",".join(str(row[k]) for k in TABLE_HEADER) + "\n")


def replication_seed(base_seed: int, panel: str, n: int, scenario, method: str | None,
                     j_star: int | None, rep: int) -> int:
    """Stable 64-bit seed of replication ``rep`` of the (panel, n, scenario) data.

    ``method`` and ``j_star`` do not enter the seed: every method and J*
    of a grid is run on the same dataset and fold split.  They are still
    accepted, so a caller may name a full grid cell.
    """
    key = f"{base_seed}|{panel}|{n}|{scenario[0]!r}|{scenario[1]!r}|{rep}"
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _one_replication(task: tuple) -> list[bool]:
    """Generate one dataset, cross-fit it once, and return the decision of
    every (method, J*) of the grid, method-major, on the grid's basis specs
    and test config."""
    cfg, basis_specs, config, n, scenario, seed = task
    if cfg.panel == "A":
        dgp_cfg = PanelAConfig(n=n, alpha1=scenario[0], alpha2=scenario[1], seed=seed)
        gen, sample, kind = gen_panel_a, sample_panel_a, MEAN_EXCHANGEABILITY
    else:
        dgp_cfg = PanelBConfig(n=n, beta1=scenario[0], beta2=scenario[1], seed=seed,
                               u_param=cfg.u_param)
        gen, sample, kind = gen_panel_b, sample_panel_b, IV_COMPATIBILITY
    if cfg.nuisance_mode == "oracle":
        # the oracle's values at the sample's X, from the laws the draw evaluated
        data, bundle = sample(dgp_cfg)
        oracle = lambda x: bundle
    else:
        data, oracle = gen(dgp_cfg), None
    score = ScoreSpec(kind=kind, nuisance_mode=cfg.nuisance_mode, oracle=oracle)
    rng = RngStream(seed).spawn(1)  # fold assignment stream, distinct from the DGP's
    results = run_gp_tests(data, score, basis_specs, config, cfg.methods, K=cfg.K, rng=rng)
    return [bool(result.reject) for row in results for result in row]


def keep_freed_memory() -> bool:
    """Make glibc keep freed heap memory in this process for reuse, so a
    cross-fit's large temporaries are not unmapped on free and faulted in
    again on the next allocation: mmap threshold 32 MiB (the most older
    glibc accepts), trim threshold 256 MiB.  Setting either one stops
    glibc adjusting both, so the mmap threshold goes first and a refusal
    leaves both as they were.  Only processes gptest owns call this: the
    CLI and the pool workers.  Returns whether both took; False without
    ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(-3, 1 << 25) == 1 and mallopt(-1, 1 << 28) == 1  # M_MMAP_, M_TRIM_THRESHOLD


def run_grid(cfg: SimGridConfig) -> RejectionTable:
    """Run every cell of the grid; deterministic given the base seed.

    One task is one (n, scenario, rep), whose dataset and cross-fit are
    shared by every method and J* of the grid.  The tasks run in this
    process, or with ``threads > 1`` through one ``executor.map`` over a
    pool of that many worker processes.
    """
    datasets = [(n, scenario) for n in cfg.sample_sizes for scenario in cfg.scenarios]
    basis_specs = [
        BasisSpec(family=cfg.basis_family, j_star=j_star, combination=cfg.combination,
                  ranges=((-1.0, 1.0), (-1.0, 1.0)))
        for j_star in cfg.j_star_list
    ]
    config = TestConfig(alpha=cfg.alpha)  # its seed goes unread: each task passes its fold stream
    tasks = [
        (cfg, basis_specs, config, n, scenario,
         replication_seed(cfg.base_seed, cfg.panel, n, scenario,
                          method=None, j_star=None, rep=rep))
        for n, scenario in datasets
        for rep in range(cfg.replications)
    ]
    if cfg.threads == 1:
        decisions = [_one_replication(t) for t in tasks]
    else:
        # about 8 chunks per worker, for a short tail; at most 32 tasks, so long grids balance too
        chunksize = max(1, min(32, len(tasks) // (8 * cfg.threads)))
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=cfg.threads, initializer=keep_freed_memory) as executor:
            decisions = list(executor.map(_one_replication, tasks, chunksize=chunksize))
    R = cfg.replications
    grid_cells = [(m, j) for m in cfg.methods for j in cfg.j_star_list]
    rows = []
    for i, (n, scenario) in enumerate(datasets):
        # integer counts over R, so each rate is k / R correctly rounded
        hits = [sum(cell) for cell in zip(*decisions[i * R:(i + 1) * R])]
        for (method, j_star), k in zip(grid_cells, hits):
            rate = k / R
            rows.append({
                "panel": cfg.panel,
                "n": n,
                "scenario_1": scenario[0],
                "scenario_2": scenario[1],
                "method": method,
                "j_star": j_star,
                "rejection_rate": rate,
                "replications": R,
                "mc_stderr": math.sqrt(rate * (1.0 - rate) / R),
            })
    return RejectionTable(rows)


# ---------------------------------------------------------------------------
# Plain-text key/value config files.  Grammar: one `key = value` pair per
# line, '#' starts a comment, blank lines ignored, and a key appears once.
# Lists are comma-separated; scenario pairs are semicolon-separated "a,b" tuples.

def parse_config_text(text: str) -> dict:
    out, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in lines:
            raise InvalidConfig(f"{key} is given twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        out[key] = value.strip()
    return out


def name(text: str) -> str:
    if not text:
        raise ValueError("empty name")
    return text


def listed(parse, sep: str = ","):
    """Parser of a non-empty, ``sep``-separated list of ``parse`` values."""
    def parse_list(text: str) -> tuple:
        items = tuple(parse(p.strip()) for p in text.split(sep) if p.strip())
        if not items:
            raise ValueError("empty list")
        return items
    return parse_list


def pair(text: str) -> tuple[float, float]:
    parts = [p for p in text.strip("()").split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError(f"scenario {text!r} is not a pair")
    return float(parts[0]), float(parts[1])


def choice(options: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"choose from {options}")
        return text
    return parse


def parse_config(text: str, keys, overrides: dict | None = None) -> dict:
    """Read config text plus raw-string overrides through a table of keys.

    A row of ``keys`` is ``(key, parse, owner, field)``: ``parse(raw)`` becomes
    keyword ``field`` of the owner tagged ``owner``, which keeps the default,
    or, for a field ``(name, item)``, item ``item`` of its dict keyword ``name``.
    A class in ``OWNERS`` is built after each of its keys; if the build from all
    of them fails, the error names the key from which on every build failed.
    Returns ``{owner: {field: value}}``.
    """
    kv = parse_config_text(text)
    kv.update({k: str(v) for k, v in (overrides or {}).items() if v is not None})
    unknown = set(kv) - {row[0] for row in keys}
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    out = {row[2]: {} for row in keys}
    failing = {}  # owner -> [first key of its failing run, latest error]
    for key, parse, owner, field_name in keys:
        if key not in kv:
            continue
        try:
            value = parse(kv[key])
        except (ValueError, GptestError) as exc:
            raise InvalidConfig(f"{key} = {kv[key]!r}: {exc}") from None
        if isinstance(field_name, tuple):
            out[owner].setdefault(field_name[0], {})[field_name[1]] = value
        else:
            out[owner][field_name] = value
        if owner in OWNERS:
            try:
                OWNERS[owner](**out[owner])
                failing.pop(owner, None)
            except GptestError as exc:
                failing.setdefault(owner, [key, None])[1] = exc
    if failing:
        key, exc = next(iter(failing.values()))
        raise InvalidConfig(f"{key} = {kv[key]!r}: {exc}")
    return out


# Classes whose own checks validate a table's values, by owner tag.
OWNERS = {"score": ScoreSpec, "basis": BasisSpec, "test": TestConfig, "grid": SimGridConfig}

# `gptest simulate` keys; folds precede sample sizes, so `folds = 1` is blamed on folds.
SIM_KEYS = (
    ("panel", str.upper, "grid", "panel"),
    ("folds", int, "grid", "K"),
    ("sample_sizes", listed(int), "grid", "sample_sizes"),
    ("scenarios", listed(pair, ";"), "grid", "scenarios"),
    ("j_star", listed(int), "grid", "j_star_list"),
    ("methods", listed(str), "grid", "methods"),
    ("replications", int, "grid", "replications"),
    ("seed", int, "grid", "base_seed"),
    ("nuisance", str, "grid", "nuisance_mode"),
    ("alpha", float, "grid", "alpha"),
    ("basis_family", str, "grid", "basis_family"),
    ("combination", str, "grid", "combination"),
    ("u_param", str, "grid", "u_param"),
    ("threads", int, "grid", "threads"),
)


def sim_config_from_text(text: str, overrides: dict | None = None) -> SimGridConfig:
    """Build a SimGridConfig from config-file text plus CLI overrides."""
    return SimGridConfig(**parse_config(text, SIM_KEYS, overrides)["grid"])
