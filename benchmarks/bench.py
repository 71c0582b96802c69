"""Workloads, measurement passes and correctness checks of the gptest benchmark.

Imported by run.py after the BLAS thread count is set.  A replication is
one rejection decision of one grid cell (panel workloads) or one
``gptest test`` call (cli_test_csv).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy

import gptest
from gptest import basis, cli, dgp, engine, harness, nuisance, numerics, scores

import spans

MIN_LATENCY_SAMPLES = 100
BLOCK_SAMPLES = 8  # latency calls per block, rounded up to whole cycles over the cells
MIN_BLOCKS = 5
TURN_SECONDS = 1.0  # measured seconds a serial loop stays on one CPU before it moves to the next
MIN_ROUNDS = 5
SETUP_REPEATS = 5
UNCOVERED_SHARE = 0.10  # traced time outside every layer span, at most, as a share of the total
LAYERS = ("dgp", "nuisance", "scores", "basis", "engine", "numerics", "cli")
ROOT_SPAN = "bench.replication"
TIMING_COLUMN = "mean_runtime_ms"  # wall-clock column of the rates CSV, not deterministic

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import gptest; print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Workload:
    name: str
    grid: str = ""  # simulate-config text of the grid; empty for cli_test_csv
    round_reps: int = 0  # replications per cell in one pool round


# Grids use the `gptest simulate` config keys, so they read like configs/desk.cfg.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "panel_b_mixture",
            "panel = B\nsample_sizes = 3000\nscenarios = 0,0; 0.5,0.5\nj_star = 3, 5\n"
            "methods = gp_standardized, gp_unstandardized\nfolds = 5\nnuisance = crossfit\n",
            round_reps=16,
        ),
        Workload(
            "panel_a_oracle",
            "panel = A\nsample_sizes = 1000\nscenarios = 0,0; 0.2,0\nj_star = 3, 5\n"
            "methods = gp_standardized, wald\nnuisance = oracle\n",
            round_reps=512,
        ),
        Workload("cli_test_csv"),
    )
}

CLI_ROWS = 20_000
CLI_INPUTS = 10  # call seeds of the closed loop, each called again every cycle
CLI_CONFIG = (
    "score = mean_exchangeability\narm = 0\nvariant = gp_unstandardized\n"
    "basis_family = legendre\nj_star = 5\ncombination = additive\nalpha = 0.05\nfolds = 5\n"
)


class Tally:
    """Attempted and failed replications; a call that raises fails all of its replications."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def attempt(self, reps, fn, *args):
        self.attempted += reps
        try:
            return fn(*args)
        except Exception as exc:  # the run must report the failure, not die
            self.failed += reps
            self.errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None


class Checks:
    """Named pass/fail checks; a check that failed once stays failed with its first detail."""

    def __init__(self):
        self.results = {}

    def record(self, name, ok, detail=""):
        if name in self.results and not self.results[name][0]:
            return
        self.results[name] = (bool(ok), "" if ok else detail)

    @property
    def passed(self):
        return bool(self.results) and all(ok for ok, _ in self.results.values())

    def to_dict(self):
        return {name: ("pass" if ok else f"FAIL {detail}") for name, (ok, detail) in self.results.items()}


def derive_seed(purpose, seed, index):
    digest = hashlib.blake2b(f"{purpose}|{seed}|{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def cpu_seconds():
    """CPU time of this process plus its waited-for children (the pool workers)."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workers():
    return max(1, min(2, len(os.sched_getaffinity(0))))


# ---------------------------------------------------------------------------
# Environment manifest


def _git_sha(root):
    if not (root / ".git").exists():  # not a git checkout; source_sha256 identifies the code
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def _source_sha256(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "gptest").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count OpenBLAS reports in this process, or None if unavailable."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def manifest(root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "pool_workers": workers(),
    }


# ---------------------------------------------------------------------------
# Grid helpers: everything goes through harness.sim_config_from_text and run_grid.


def grid_config(wl, **overrides):
    return harness.sim_config_from_text(wl.grid, {k: str(v) for k, v in overrides.items()})


def cells(cfg):
    """Grid cells in run_grid's row order: (n, scenario, method, j_star)."""
    return [
        (n, scenario, method, j_star)
        for n in cfg.sample_sizes
        for scenario in cfg.scenarios
        for method in cfg.methods
        for j_star in cfg.j_star_list
    ]


def cell_config(wl, cell, seed, reps=1, threads=1):
    n, scenario, method, j_star = cell
    return grid_config(
        wl, sample_sizes=n, scenarios=f"{scenario[0]!r},{scenario[1]!r}", methods=method,
        j_star=j_star, replications=reps, seed=seed, threads=threads,
    )


def table_text(table, out_dir):
    """The table's CSV as written by RejectionTable.to_csv, minus the timing column."""
    path = out_dir / "table.csv"
    table.to_csv(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name != TIMING_COLUMN]
    return "\n".join(",".join(line.split(",")[i] for i in keep) for line in lines) + "\n"


def fingerprint(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_rates(checks, table, label):
    rates = [row["rejection_rate"] for row in table.rows]
    checks.record("rates_in_unit_interval", all(np.isfinite(r) and 0.0 <= r <= 1.0 for r in rates),
                  f"{label}: {rates}")


def round_config(wl, seed, r, threads):
    """Pool round r: the whole grid with ``wl.round_reps`` replications per cell."""
    return grid_config(wl, replications=wl.round_reps, seed=derive_seed("round", seed, r), threads=threads)


def check_round0_tables(wl, seed, out_dir, tally, checks, details):
    """Run round 0 serially and on the pool; the two tables must match byte for byte.

    Returns the serial table and the serial and pool wall seconds (None
    where a run failed).
    """
    reps = wl.round_reps * len(cells(grid_config(wl)))
    runs = []
    for threads in (1, workers()):
        start = time.perf_counter()
        table = tally.attempt(reps, harness.run_grid, round_config(wl, seed, 0, threads))
        runs.append((table, time.perf_counter() - start))
    texts = [table_text(table, out_dir) if table else None for table, _ in runs]
    checks.record("pool_table_equals_serial_table", texts[0] is not None and texts[0] == texts[1],
                  "pool and serial rejection tables differ")
    for table, _ in runs:
        if table is not None:
            check_rates(checks, table, "round 0")
    details.update(table_fingerprint=fingerprint(texts[0]) if texts[0] else None, table=texts[0])
    (serial, serial_wall), (pooled, pool_wall) = runs
    return serial, serial_wall if serial else None, pool_wall if pooled else None


# ---------------------------------------------------------------------------
# Layer-by-layer composition of one harness replication.  It follows
# harness._one_replication through the public layer functions, so its
# decisions must equal the harness decisions for the same seeds.


def compose_replication(cfg, cell, rep, tracer):
    n, scenario, method, j_star = cell
    span = tracer.span
    seed = harness.replication_seed(cfg.base_seed, cfg.panel, n, scenario, method, j_star, rep)
    oracle = None
    with span("dgp.gen"):
        if cfg.panel == "A":
            dgp_cfg = dgp.PanelAConfig(n=n, alpha1=scenario[0], alpha2=scenario[1], seed=seed)
            data = dgp.gen_panel_a(dgp_cfg)
        else:
            dgp_cfg = dgp.PanelBConfig(n=n, beta1=scenario[0], beta2=scenario[1], seed=seed,
                                       u_param=cfg.u_param)
            data = dgp.gen_panel_b(dgp_cfg)
    if cfg.nuisance_mode == "oracle":
        with span("dgp.oracle"):
            if cfg.panel == "A":
                oracle = dgp.oracle_nuisances_panel_a(dgp_cfg, a=0)
            else:
                oracle = dgp.oracle_nuisances_panel_b(dgp_cfg)
    kind = scores.MEAN_EXCHANGEABILITY if cfg.panel == "A" else scores.IV_COMPATIBILITY
    score = scores.ScoreSpec(kind=kind, arm=0, nuisance_mode=cfg.nuisance_mode, oracle=oracle)
    with span("numerics.rng_stream"):
        rng = numerics.RngStream(seed).spawn(1)
    with span("nuisance.crossfit"):
        g = nuisance.crossfit(data, score, cfg.K, rng).pseudo_outcomes
    with span("dgp.covariates"):
        x = data.covariate_matrix(score.covariates)
    if method == engine.WALD_PROJECTION:
        with span("engine.wald"):
            features = np.column_stack([np.ones(x.shape[0]), x])
            return engine.wald_projection_test(features, g, alpha=cfg.alpha)
    with span("basis.build_design"):
        spec = basis.BasisSpec(family=cfg.basis_family, j_star=j_star, combination=cfg.combination,
                               ranges=((-1.0, 1.0), (-1.0, 1.0)))
        design = basis.build_design(x, spec)
    tracer.counts["basis.columns"] += design.J
    test = engine.gp_test_standardized if method == engine.GP_STANDARDIZED else engine.gp_test_unstandardized
    with span("engine.gp_test"):
        return test(design, g, engine.TestConfig(alpha=cfg.alpha, seed=seed))


def p_value_ok(p):
    return p is not None and np.isfinite(p) and 0.0 <= p <= 1.0


# ---------------------------------------------------------------------------
# cli_test_csv: one caller running `gptest test` in process on a fixed CSV.


def cli_files(out_dir):
    return out_dir / f"panel_a_{CLI_ROWS}.csv", out_dir / "test.cfg"


def cli_write_inputs(out_dir, seed):
    data_path, config_path = cli_files(out_dir)
    dgp.write_csv(dgp.gen_panel_a(dgp.PanelAConfig(n=CLI_ROWS, seed=seed)), str(data_path))
    config_path.write_text(CLI_CONFIG, encoding="utf-8")


def cli_call(out_dir, call_seed):
    """Run `gptest test` in process; returns (exit code, captured stdout)."""
    data_path, config_path = cli_files(out_dir)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["test", "--data", str(data_path), "--config", str(config_path),
                         "--seed", str(call_seed)])
    return code, buf.getvalue()


def cli_direct_p_value(out_dir, call_seed):
    """The same test through run_gp_test, with the CLI's documented range rule.

    Returns None if the direct run raises, which fails the comparison.
    """
    try:
        return _direct_run(out_dir, call_seed).p_value
    except Exception:  # reported as a failed check
        traceback.print_exc(file=sys.stderr)
        return None


def _direct_run(out_dir, call_seed):
    data_path, _ = cli_files(out_dir)
    data = dgp.read_csv(str(data_path))
    spec = scores.ScoreSpec(kind=scores.MEAN_EXCHANGEABILITY, arm=0)
    x = data.covariate_matrix(spec.covariates)
    ranges = []
    for k in range(x.shape[1]):
        lo, hi = float(x[:, k].min()), float(x[:, k].max())
        pad = 0.01 * max(hi - lo, 1e-12)
        ranges.append((lo - pad, hi + pad))
    basis_spec = basis.BasisSpec(j_star=5, ranges=tuple(ranges))
    return engine.run_gp_test(
        data, spec, basis_spec, engine.TestConfig(alpha=0.05, seed=call_seed),
        variant=engine.GP_UNSTANDARDIZED, K=5, rng=numerics.RngStream(call_seed),
    )


class CliOutcomes:
    """Exit codes and p-values of cli.main calls, tallied call by call."""

    def __init__(self):
        self.codes = Counter()
        self.bad_p_values = 0
        self.bad_examples = []
        self.p_by_seed = {}
        self.repeat_mismatches = 0

    def add(self, call_seed, out):
        """Tally one cli_call result, or None if it raised; returns its p-value or None.

        A call seed seen before must give the p-value it gave the first time.
        """
        code, text = out if out is not None else (None, "")
        self.codes[code] += 1
        p = None
        if code == 0:
            with contextlib.suppress(ValueError, KeyError):
                p = json.loads(text)["p_value"]
        if not p_value_ok(p):
            self.bad_p_values += 1
            if len(self.bad_examples) < 5:
                self.bad_examples.append(p)
        if self.p_by_seed.setdefault(call_seed, p) != p:
            self.repeat_mismatches += 1
        return p

    def check(self, checks):
        checks.record("cli_exit_code_zero", set(self.codes) == {0}, f"exit codes {dict(self.codes)}")
        checks.record("p_values_finite_in_unit_interval", self.bad_p_values == 0,
                      f"{self.bad_p_values} bad, e.g. {self.bad_examples}")
        checks.record("cli_repeated_calls_agree", self.repeat_mismatches == 0,
                      f"{self.repeat_mismatches} repeated calls changed their p-value")


# ---------------------------------------------------------------------------
# Set-up: fresh-interpreter import, pool start and warm-up, CSV write.


def import_seconds(root):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(root / "src")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def setup_once(wl, root, out_dir, seed, index, tally):
    seconds = import_seconds(root)
    start = time.perf_counter()
    if wl.grid:
        first = cells(grid_config(wl))[0]
        warm_seed = derive_seed("warm", seed, index)
        tally.attempt(8 * workers(), harness.run_grid,
                      cell_config(wl, first, warm_seed, reps=8 * workers(), threads=workers()))
        for cell in cells(grid_config(wl)):
            tally.attempt(1, harness.run_grid, cell_config(wl, cell, warm_seed))
    else:
        cli_write_inputs(out_dir, seed)
        tally.attempt(1, cli_call, out_dir, derive_seed("warm", seed, index))
    return seconds + time.perf_counter() - start


# ---------------------------------------------------------------------------
# End-to-end run (tracing off).
#
# Other processes on a shared machine slow it down in spells of a few
# seconds, by 20% and more, and load from outside only ever adds time.
# Serial latency figures are therefore the best of many short blocks: the
# least of the per-block times.  A change to the program moves every block
# alike.  The load falls on one CPU at a time, often for minutes, so the
# serial loop takes turns on each usable CPU.  Pool figures are medians
# over rounds (see run_pool_workload).


@dataclass
class Block:
    latencies: list  # wall seconds per call
    cpus: list  # CPU seconds per call
    wall: float


class ClosedLoop:
    """One caller: run(prepare(i)) for i = 0, 1, ..., each call timed.

    Calls are grouped into blocks of whole cycles of ``cycle_len`` calls, so
    every block holds each grid cell equally often.  Only the first cycle's
    (argument, result) pairs are kept, so memory does not grow with the
    number of calls.  Where ``prepare`` repeats its inputs every cycle,
    ``best_per_input`` gives each input's least time over its repeats.
    """

    def __init__(self, cycle_len, prepare, run):
        self.cycle_len = cycle_len
        self.allowed_cpus = os.sched_getaffinity(0)
        self.cpu = None
        self.per_block = max(1, -(-BLOCK_SAMPLES // cycle_len)) * cycle_len
        self.prepare, self.run = prepare, run
        self.blocks, self.first_cycle = [], []
        self.calls = 0
        self.seconds = 0.0

    def block(self):
        """Run one block pinned to the CPU whose turn it is.

        On a move to another CPU an untimed call first warms that CPU's caches.
        """
        cpus_in_turn = sorted(self.allowed_cpus)
        cpu = cpus_in_turn[int(self.seconds / TURN_SECONDS) % len(cpus_in_turn)]
        os.sched_setaffinity(0, {cpu})
        try:
            if cpu != self.cpu:
                self.run(self.prepare(self.calls))
                self.cpu = cpu
            latencies, cpus = [], []
            wall0 = time.perf_counter()
            for _ in range(self.per_block):
                arg = self.prepare(self.calls)
                c0, t0 = cpu_seconds(), time.perf_counter()
                out = self.run(arg)
                latencies.append(time.perf_counter() - t0)
                cpus.append(cpu_seconds() - c0)
                if self.calls < self.cycle_len:
                    self.first_cycle.append((arg, out))
                self.calls += 1
            wall = time.perf_counter() - wall0
        finally:
            # Pool workers inherit the affinity of the process that starts them.
            os.sched_setaffinity(0, self.allowed_cpus)
        block = Block(latencies, cpus, wall)
        self.blocks.append(block)
        self.seconds += block.wall

    @property
    def enough(self):
        return len(self.blocks) >= MIN_BLOCKS and self.calls >= MIN_LATENCY_SAMPLES

    def latency_metrics(self):
        def ms(q):
            return 1000.0 * min(float(np.percentile(b.latencies, q)) for b in self.blocks)

        return {"rep_ms_p50": (ms(50), "ms"), "rep_ms_p90": (ms(90), "ms")}

    def best_per_input(self):
        """Least wall and CPU seconds of each input; call k of the loop ran input k % cycle_len."""
        n = self.cycle_len
        walls = [min(t for b in self.blocks for t in b.latencies[j::n]) for j in range(n)]
        cpus = [min(c for b in self.blocks for c in b.cpus[j::n]) for j in range(n)]
        return walls, cpus


def run_pool_workload(wl, seed, seconds, out_dir, tally, checks, details):
    grid_cells = cells(grid_config(wl))
    n_cells = len(grid_cells)

    def prepare(i):
        cell = grid_cells[i % n_cells]
        return cell, cell_config(wl, cell, derive_seed("latency", seed, i))

    loop = ClosedLoop(n_cells, prepare, lambda arg: tally.attempt(1, harness.run_grid, arg[1]))

    # Round 0 also warms the pool path; it is not part of the measurement.
    check_round0_tables(wl, seed, out_dir, tally, checks, details)
    reps_per_round = wl.round_reps * n_cells

    # Latency blocks and pool rounds alternate, the blocks taking about a
    # third of the time, so a slow spell of the machine hits both alike.
    rounds = []  # (replications per second, CPU seconds per replication)
    round_fingerprints = []
    pool_seconds = 0.0
    r = 0
    start = time.perf_counter()
    while not (loop.enough and r >= MIN_ROUNDS and time.perf_counter() - start >= seconds):
        loop.block()
        while loop.seconds < 0.5 * pool_seconds:
            loop.block()
        r += 1
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        table = tally.attempt(reps_per_round, harness.run_grid, round_config(wl, seed, r, workers()))
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        pool_seconds += wall
        if table is not None:
            check_rates(checks, table, "pool round")
            rounds.append((reps_per_round / wall, cpu / reps_per_round))
            round_fingerprints.append(fingerprint(table_text(table, out_dir)))

    # The first latency cycle, composed layer by layer, must repeat the harness decisions.
    mismatches = 0
    p_values = []
    for (cell, cfg), table in loop.first_cycle:
        result = tally.attempt(1, compose_replication, cfg, cell, 0, spans.NullTracer())
        p_values.append(result.p_value if result else None)
        if (result is None or table is None
                or str(float(np.mean([result.reject]))) != str(table.rows[0]["rejection_rate"])):
            mismatches += 1
    checks.record("composition_matches_harness", mismatches == 0, f"{mismatches} decisions differ")
    checks.record("p_values_finite_in_unit_interval", all(p_value_ok(p) for p in p_values),
                  f"{[p for p in p_values if not p_value_ok(p)]}")

    # Pool figures are medians over the rounds: a round needs both CPUs calm at
    # once, so the best round is a rare event and spread nearly twice as much over
    # seeds.  The serial rate for pool_efficiency is the median block's, to match.
    serial_reps_per_s = statistics.median(len(b.latencies) / sum(b.latencies) for b in loop.blocks)
    reps_per_s = statistics.median(r for r, _ in rounds) if rounds else float("nan")
    details.update(
        latency_samples=loop.calls,
        latency_blocks=len(loop.blocks),
        serial_reps_per_s=serial_reps_per_s,
        pool_round_reps_per_s=[r for r, _ in rounds],
        pool_round_cpu_ms_per_rep=[1000.0 * c for _, c in rounds],
        block_p50_ms=[1000.0 * float(np.percentile(b.latencies, 50)) for b in loop.blocks],
        block_p90_ms=[1000.0 * float(np.percentile(b.latencies, 90)) for b in loop.blocks],
        block_serial_reps_per_s=[len(b.latencies) / sum(b.latencies) for b in loop.blocks],
        round_table_fingerprints=round_fingerprints,
    )
    return {
        "reps_per_s": (reps_per_s, "1/s"),
        **loop.latency_metrics(),
        "cpu_ms_per_rep": (1000.0 * statistics.median(c for _, c in rounds) if rounds else float("nan"), "ms"),
        "pool_efficiency": (reps_per_s / (workers() * serial_reps_per_s), "ratio"),
    }


def run_cli_workload(seed, seconds, out_dir, tally, checks, details):
    outcomes = CliOutcomes()
    loop = ClosedLoop(CLI_INPUTS, lambda i: derive_seed("cli", seed, i % CLI_INPUTS),
                      lambda s: outcomes.add(s, tally.attempt(1, cli_call, out_dir, s)))
    start = time.perf_counter()
    while not (loop.enough and time.perf_counter() - start >= seconds):
        loop.block()
    tally.failed += sum(n for code, n in outcomes.codes.items() if code not in (0, None))
    outcomes.check(checks)
    first_seed, first_p = loop.first_cycle[0]
    direct = cli_direct_p_value(out_dir, first_seed)
    checks.record("cli_p_value_equals_run_gp_test", first_p == direct,
                  f"cli {first_p!r} vs run_gp_test {direct!r}")
    # Each call seed runs about 20 times; its least time is its time on a calm machine.
    walls, cpus = loop.best_per_input()
    details.update(latency_samples=loop.calls, latency_blocks=len(loop.blocks),
                   best_ms_per_input=[1000.0 * w for w in walls],
                   best_cpu_ms_per_input=[1000.0 * c for c in cpus])
    return {
        "reps_per_s": (len(walls) / sum(walls), "1/s"),
        "rep_ms_p50": (1000.0 * float(np.percentile(walls, 50)), "ms"),
        "rep_ms_p90": (1000.0 * float(np.percentile(walls, 90)), "ms"),
        "cpu_ms_per_rep": (1000.0 * statistics.fmean(cpus), "ms"),
        # One caller and no pool: the share of loop wall time spent inside cli.main.
        "pool_efficiency": (max(sum(b.latencies) / b.wall for b in loop.blocks), "ratio"),
    }


# ---------------------------------------------------------------------------
# Traced run (serial).


def _count_nonconverged(counts, args, result):
    counts["nuisance.fit_logistic_nonconverged"] += 0 if result.converged else 1


def _count_columns(counts, args, result):
    counts["basis.columns"] += result.J


def _count_draws(counts, args, result):
    taus, _s, draws = args[:3]
    counts["engine.mixture_draws"] += int(draws) * len(taus)


def install_wrappers(tracer, cli_path):
    """Spans for layers reached only through another layer, in their module namespaces."""
    tracer.wrap(nuisance, "fit_logistic", "nuisance.fit_logistic", _count_nonconverged)
    tracer.wrap(nuisance, "fit_ols", "nuisance.fit_ols")
    tracer.wrap(scores, "evaluate_score", "scores.evaluate")
    for fn in ("projection_vector", "statistic", "sigma_hat"):
        tracer.wrap(engine, fn, "engine.statistic")
    tracer.wrap(engine, "weighted_chisq_pvalue", "engine.mixture", _count_draws)
    tracer.wrap(engine, "normal_cdf", "engine.normal_tail")
    tracer.wrap(engine, "sym_eigen", "numerics.sym_eigen")
    tracer.wrap(numerics, "sym_eigen", "numerics.sym_eigen")
    if cli_path:
        tracer.wrap(cli, "read_csv", "dgp.read_csv")
        tracer.wrap(cli, "run_gp_test", "engine.run_gp_test")
        tracer.wrap(engine, "crossfit", "nuisance.crossfit")
        tracer.wrap(engine, "build_design", "basis.build_design", _count_columns)


def traced_pass(jobs_for_round, budget, cli_path, check_round0):
    """Run every job twice, untraced and traced, round by round until ``budget``.

    A job is fn(tracer) -> (p_value, decision).  The two runs of a job are
    adjacent, in alternating order, so both see the same machine load.
    Returns the tracer, the untraced and traced seconds per replication,
    and every p-value.
    """
    tracer, null = spans.Tracer(), spans.NullTracer()
    untraced, p_values = [], []

    def plain(job):
        t0 = time.perf_counter()
        out = job(null)
        untraced.append(time.perf_counter() - t0)
        return out

    def traced(job, rep_id):
        install_wrappers(tracer, cli_path)
        try:
            tracer.rep = rep_id
            with tracer.span(ROOT_SPAN):
                return job(tracer)
        finally:
            tracer.unwrap_all()

    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < budget:
        plain_out, traced_out = [], []
        for job_id, job in enumerate(jobs_for_round(r)):
            if job_id % 2:
                traced_out.append(traced(job, (r, job_id)))
                plain_out.append(plain(job))
            else:
                plain_out.append(plain(job))
                traced_out.append(traced(job, (r, job_id)))
        if r == 0:
            check_round0(plain_out, traced_out)
        p_values.extend(p for p, _ in plain_out + traced_out)
        r += 1
    traced_s = [e - s for name, s, e, parent, rep in tracer.spans if name == ROOT_SPAN]
    return tracer, untraced, traced_s, p_values


def layer_metrics(tracer, untraced, traced, dispatch_ms):
    calls, total, own = spans.summarize(tracer.spans)
    reps = len(traced)

    def per_rep_ms(value):
        return 1000.0 * value / reps

    m = {
        "dgp.gen_ms": (per_rep_ms(total["dgp.gen"]), "ms"),
        "dgp.read_csv_ms": (per_rep_ms(total["dgp.read_csv"]), "ms"),
        "nuisance.crossfit_ms": (per_rep_ms(total["nuisance.crossfit"]), "ms"),
        "nuisance.crossfit_self_ms": (per_rep_ms(own["nuisance.crossfit"]), "ms"),
        "nuisance.fit_logistic_calls": (calls["nuisance.fit_logistic"] / reps, "count"),
        "nuisance.fit_logistic_ms": (per_rep_ms(total["nuisance.fit_logistic"]), "ms"),
        "nuisance.fit_logistic_nonconverged": (
            tracer.counts["nuisance.fit_logistic_nonconverged"] / reps, "count"),
        "nuisance.fit_ols_calls": (calls["nuisance.fit_ols"] / reps, "count"),
        "nuisance.fit_ols_ms": (per_rep_ms(total["nuisance.fit_ols"]), "ms"),
        "scores.evaluate_calls": (calls["scores.evaluate"] / reps, "count"),
        "scores.evaluate_ms": (per_rep_ms(total["scores.evaluate"]), "ms"),
        "basis.build_design_ms": (per_rep_ms(total["basis.build_design"]), "ms"),
        "basis.columns": (tracer.counts["basis.columns"] / max(1, calls["basis.build_design"]), "count"),
        "engine.statistic_ms": (per_rep_ms(total["engine.statistic"]), "ms"),
        "numerics.sym_eigen_calls": (calls["numerics.sym_eigen"] / reps, "count"),
        "engine.mixture_ms": (per_rep_ms(total["engine.mixture"]), "ms"),
        "engine.mixture_draws": (tracer.counts["engine.mixture_draws"] / reps, "count"),
        "engine.normal_tail_ms": (per_rep_ms(total["engine.normal_tail"]), "ms"),
        "engine.wald_ms": (per_rep_ms(total["engine.wald"]), "ms"),
        "harness.dispatch_ms": (dispatch_ms, "ms"),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_ms"] = (per_rep_ms(seconds), "ms")
    untraced_p50 = 1000.0 * float(np.percentile(untraced, 50))
    traced_p50 = 1000.0 * float(np.percentile(traced, 50))
    m.update({
        "trace.rep_ms": (per_rep_ms(sum(traced)), "ms"),
        "trace.uncovered_ms": (per_rep_ms(own[ROOT_SPAN]), "ms"),
        "trace.rep_ms_p50": (traced_p50, "ms"),
        "trace.untraced_rep_ms_p50": (untraced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
    })
    covered = sum(layer_self.values()) + own[ROOT_SPAN]
    return m, covered, sum(traced)


def run_traced(wl, seed, seconds, out_dir, tally, checks, details):
    failures = spans.check_self_time_arithmetic()
    checks.record("span_self_time_arithmetic", not failures, "; ".join(failures))
    dispatch_ms = 0.0
    if wl.grid:
        grid_cells = cells(grid_config(wl))
        reps = wl.round_reps * len(grid_cells)
        serial, serial_wall, pool_wall = check_round0_tables(wl, seed, out_dir, tally, checks, details)
        if serial_wall is not None and pool_wall is not None:
            dispatch_ms = 1000.0 * (workers() * pool_wall - serial_wall) / reps
        harness_rates = [str(row["rejection_rate"]) for row in serial.rows] if serial else []

        def jobs_for_round(r):
            round_cfg = round_config(wl, seed, r, 1)
            return [
                (lambda tracer, c=cell, k=rep, rc=round_cfg: _panel_outcome(rc, c, k, tracer))
                for cell in grid_cells for rep in range(wl.round_reps)
            ]

        def check_round0(untraced_out, traced_out):
            for label, outs in (("untraced", untraced_out), ("traced", traced_out)):
                decisions = [d for _, d in outs]
                rates = None if None in decisions else [
                    str(float(np.mean(decisions[i:i + wl.round_reps])))
                    for i in range(0, len(decisions), wl.round_reps)
                ]
                checks.record("composition_matches_harness", rates == harness_rates,
                              f"{label} composition rates {rates} vs harness {harness_rates}")

    else:
        cli_write_inputs(out_dir, seed)

        def jobs_for_round(r):
            return [
                (lambda tracer, s=derive_seed("cli", seed, r * 10 + i): _cli_outcome(out_dir, s, tracer))
                for i in range(10)
            ]

        def check_round0(untraced_out, traced_out):
            direct = cli_direct_p_value(out_dir, derive_seed("cli", seed, 0))
            checks.record("cli_exit_code_zero", all(d is not None for _, d in untraced_out + traced_out),
                          "cli.main returned a non-zero code")
            checks.record("cli_p_value_equals_run_gp_test",
                          untraced_out[0][0] == direct and traced_out[0][0] == direct,
                          f"cli {untraced_out[0][0]!r}/{traced_out[0][0]!r} vs run_gp_test {direct!r}")

    def guarded_round(r):
        return [lambda tracer, job=job: _guarded(tally, job, tracer) for job in jobs_for_round(r)]

    tracer, untraced, traced, p_values = traced_pass(guarded_round, 0.55 * seconds, not wl.grid,
                                                     check_round0)
    checks.record("p_values_finite_in_unit_interval", all(p_value_ok(p) for p in p_values),
                  f"{[p for p in p_values if not p_value_ok(p)][:5]}")
    metrics, covered, rep_total = layer_metrics(tracer, untraced, traced, dispatch_ms)
    checks.record("layer_self_times_add_up", abs(covered - rep_total) <= 1e-9 * max(1.0, rep_total),
                  f"layer self times + uncovered = {covered!r}, traced replication time = {rep_total!r}")
    uncovered, rep_ms = metrics["trace.uncovered_ms"][0], metrics["trace.rep_ms"][0]
    checks.record("uncovered_time_small", uncovered <= UNCOVERED_SHARE * rep_ms,
                  f"{uncovered:.4f} ms of {rep_ms:.4f} ms per replication is outside every layer span")
    details.update(traced_replications=len(traced), unwrapped=sorted(set(tracer.missing)))
    return metrics


def _panel_outcome(cfg, cell, rep, tracer):
    result = compose_replication(cfg, cell, rep, tracer)
    return result.p_value, bool(result.reject)


def _cli_outcome(out_dir, call_seed, tracer):
    with tracer.span("cli.main"):
        code, text = cli_call(out_dir, call_seed)
    if code != 0:
        raise RuntimeError(f"cli.main returned {code}")
    result = json.loads(text)
    return result["p_value"], bool(result["reject"])


def _guarded(tally, job, tracer):
    out = tally.attempt(1, job, tracer)
    return out if out is not None else (None, None)


# ---------------------------------------------------------------------------


def run(args, root):
    if not os.path.abspath(gptest.__file__).startswith(str(root / "src")):
        print(f"error: imported gptest from {gptest.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_dir = root / "benchmarks" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    checks = Checks()
    details = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "manifest": manifest(root)}

    if args.trace:
        metrics = run_traced(wl, args.seed, args.seconds, out_dir, tally, checks, details)
    else:
        setups = [setup_once(wl, root, out_dir, args.seed, i, tally) for i in range(SETUP_REPEATS)]
        if wl.grid:
            metrics = run_pool_workload(wl, args.seed, args.seconds, out_dir, tally, checks, details)
        else:
            metrics = run_cli_workload(args.seed, args.seconds, out_dir, tally, checks, details)
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics,
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
        details["setup_samples_s"] = setups

    checks.record("no_failed_replications", tally.failed == 0, f"{tally.failed} failed")
    details.update(checks=checks.to_dict(), errors=tally.errors[:20], attempted=tally.attempted,
                   failed=tally.failed, error_rate=tally.failed / max(1, tally.attempted))
    result = {
        "correct": checks.passed,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"BENCH_{stem}.json").write_text(json.dumps({**details, "result": result}, indent=2) + "\n")
    details.pop("table", None)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0
