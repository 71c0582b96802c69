"""Simulation data-generating processes and CSV interchange.

Panel A: two-source data fusion with a binary treatment, used for the
mean-exchangeability test.  Panel B: two binary instruments with five
principal strata, used for the compatibility test.  Both generators
ship analytic (oracle) nuisances: one function of the covariate matrix
that returns every nuisance's array.  Each panel's sampler and oracle
read one helper of its conditional laws, so ``sample_panel_*`` can hand
back the oracle's arrays at the sample's X from the draw's own arrays.
"""

from __future__ import annotations

import math
import re
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, SchemaError
from .numerics import RngStream


def expit(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


@dataclass
class Dataset:
    """Column-named observation matrix of finite floats: each column is
    converted once to a 1-D float array, in place in ``columns``."""

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.columns:
            raise SchemaError("dataset has no columns")
        for name, values in self.columns.items():
            try:
                arr = np.asarray(values, dtype=float)
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"column {name!r} is not numeric: {exc}") from None
            if arr.ndim != 1:
                raise SchemaError(f"column {name!r} must be 1-D, got shape {arr.shape}")
            self.columns[name] = arr
        lengths = {name: arr.size for name, arr in self.columns.items()}
        if len(set(lengths.values())) != 1:
            raise SchemaError(f"column lengths differ: {lengths}")
        for name, arr in self.columns.items():
            if not np.isfinite(arr).all():
                row = int(np.argmax(~np.isfinite(arr)))
                raise SchemaError(f"non-finite value in column {name!r} at row {row + 1}")

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values())))

    def col(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise SchemaError(f"missing required column {name!r}")
        return self.columns[name]

    def covariate_matrix(self, names) -> np.ndarray:
        """The named columns as a C-contiguous n x len(names) array: the bits
        of every design built from it depend on that layout."""
        out = np.empty((self.n, len(names)))
        for j, name in enumerate(names):
            out[:, j] = self.col(name)
        return out


@dataclass(frozen=True)
class PanelAConfig:
    n: int
    alpha1: float = 0.0
    alpha2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidConfig("sample size must be >= 1")
        if not (math.isfinite(self.alpha1) and math.isfinite(self.alpha2)):
            raise InvalidConfig("alpha1 and alpha2 must be finite")


@dataclass(frozen=True)
class PanelBConfig:
    n: int
    beta1: float = 0.0
    beta2: float = 0.0
    seed: int = 0
    u_param: str = "var"  # second parameter of U's normal law: "var" or "sd"

    def __post_init__(self):
        if self.n < 1:
            raise InvalidConfig("sample size must be >= 1")
        if self.u_param not in ("var", "sd"):
            raise InvalidConfig("u_param must be 'var' or 'sd'")
        if not (math.isfinite(self.beta1) and math.isfinite(self.beta2)):
            raise InvalidConfig("beta1 and beta2 must be finite")


def _panel_a_laws(x1, x2, cfg: PanelAConfig) -> tuple:
    """(x1, x2) and Panel A's conditional laws there, which the sampler draws
    from and the oracle is built from: P(S=1|X), P(A=1|S=1,X), P(A=1|S=0,X),
    E[Y(0)|S=0,X] and the S=1 shift E[Y|A,S=1,X] - E[Y|A,S=0,X].

    The shift's misalignment terms enter only for a nonzero alpha1 or
    alpha2, so with both zero it is 0.0: a term with a zero factor would
    only add a signed zero to a nonzero mean.
    """
    shift = 0.0
    if cfg.alpha1:
        shift = cfg.alpha1 * (np.cos(np.pi * x1) + np.cos(np.pi * x2))
    if cfg.alpha2:
        shift = shift + cfg.alpha2 * (x1 + x2)
    mean = x1 + x2 + expit(x1)
    return x1, x2, expit(x1 - x2), expit(1.5 * x1 - 0.5 * x2), expit(x1 + 0.5 * x2), mean, shift


def _panel_a_bundle(laws: tuple, a: int) -> dict:
    """Arm ``a``'s nuisances from the laws at their (x1, x2); no treatment term in arm 0."""
    x1, x2, ps1, pa1_s1, pa1_s0, mu_s0, shift = laws
    mu_s1 = mu_s0 + shift
    if a:
        effect = a * (2.0 * x1 - 2.0 * x2)
        mu_s0, mu_s1 = mu_s0 + effect, mu_s1 + effect
    return {
        "pi_s1": ps1 * (pa1_s1 if a == 1 else 1.0 - pa1_s1),
        "pi_s0": (1.0 - ps1) * (pa1_s0 if a == 1 else 1.0 - pa1_s0),
        "mu_s1": mu_s1,
        "mu_s0": mu_s0,
    }


def _draw_panel_a(cfg: PanelAConfig) -> tuple[Dataset, tuple]:
    """The Panel A sample and the laws it was drawn from."""
    rng = RngStream(cfg.seed)
    x1 = 2.0 * rng.uniform(cfg.n) - 1.0
    x2 = 2.0 * rng.uniform(cfg.n) - 1.0
    laws = _panel_a_laws(x1, x2, cfg)
    _, _, ps1, pa1_s1, pa1_s0, mean, shift = laws
    s = (rng.uniform(cfg.n) < ps1).astype(float)
    a = (rng.uniform(cfg.n) < np.where(s == 1.0, pa1_s1, pa1_s0)).astype(float)
    eps = rng.normal(cfg.n)
    if cfg.alpha1 or cfg.alpha2:
        mean = mean + s * shift
    y0 = mean + 0.5 * eps
    y1 = y0 + 2.0 * x1 - 2.0 * x2
    y = np.where(a == 1.0, y1, y0)
    return Dataset(columns={"X1": x1, "X2": x2, "S": s, "A": a, "Y": y}), laws


def gen_panel_a(cfg: PanelAConfig) -> Dataset:
    """Two-source data fusion sample: columns (X1, X2, S, A, Y)."""
    return _draw_panel_a(cfg)[0]


def sample_panel_a(cfg: PanelAConfig, a: int = 0) -> tuple[Dataset, dict]:
    """``gen_panel_a(cfg)`` and ``oracle_nuisances_panel_a(cfg, a)`` at its
    X, built from the arrays the draw already computed."""
    data, laws = _draw_panel_a(cfg)
    return data, _panel_a_bundle(laws, a)


def oracle_nuisances_panel_a(cfg: PanelAConfig, a: int = 0) -> Callable[[np.ndarray], dict]:
    """Analytic nuisances for Panel A, arm ``a``, as one function of X.

    The returned function maps an n x 2 covariate matrix to a dict of
    n-vectors: pi_s1/pi_s0 = P(A=a, S=s | X) and mu_s1/mu_s0 =
    E[Y | A=a, S=s, X].
    """
    return lambda x: _panel_a_bundle(_panel_a_laws(x[:, 0], x[:, 1], cfg), a)


def _stratum_probs(x1, x2):
    """P(S = j | X) for the five Panel B strata (n x 5).

    The 0.3 * 1{U > 0} term is common to all five stratum weights and
    cancels in the softmax, so membership is independent of U given X.
    """
    xs1 = (x1 > 0).astype(float)
    xs2 = (x2 > 0).astype(float)
    logw = np.column_stack(
        [
            1.0 - xs2,                      # ANT
            3.5 + 0.5 * xs1 + xs2,          # SCO1
            3.5 + 0.5 * xs1 + xs2,          # SCO2
            2.0 + xs1 + xs2,                # RCO
            2.0 + xs1 + xs2,                # ECO
        ]
    )
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


# P(stratum | X) of each (X1 > 0, X2 > 0) cell, in row 2*(X1 > 0) + (X2 > 0),
# and its cumulative sums; a per-row softmax gives the same bits
_STRATUM_TABLE = _stratum_probs(np.array([0.0, 0, 1, 1]), np.array([0.0, 1, 0, 1]))
_STRATUM_CUMULATIVE = np.cumsum(_STRATUM_TABLE, axis=1)

# treatment uptake D of each (stratum, Z1, Z2): ANT never, SCO1 D = Z1,
# SCO2 D = Z2, RCO D = Z1 * Z2, ECO D = max(Z1, Z2)
_TREATMENT = np.array([[[0, 0], [0, 0]], [[0, 0], [1, 1]], [[0, 1], [0, 1]],
                       [[0, 0], [0, 1]], [[0, 1], [1, 1]]], dtype=float)


def _sco2_effect(x1, x2, beta1, beta2):
    """Treatment effect in the SCO2 stratum; other complier strata get -2*X1.

    As in the Panel A mean, a term with a zero coefficient is left out.
    """
    effect = -2.0 * x1
    if beta1:
        effect = effect + beta1 * (np.cos(np.pi * x1) + np.cos(np.pi * x2))
    if beta2:
        effect = effect + beta2 * (x1 + x2)
    return effect


def _panel_b_laws(x1, x2, cfg: PanelBConfig) -> tuple:
    """(x1, x2) and Panel B's conditional laws there, which the sampler draws
    from and the oracle is built from: P(Z1=1|X), P(Z2=1|X), each row's
    (X1 > 0, X2 > 0) cell, which picks its row of ``_STRATUM_TABLE``, and
    the SCO2 effect."""
    return (x1, x2, expit(0.5 + 0.5 * x1 + 0.5 * x2), expit(0.5 + 0.5 * x1 - 0.5 * x2),
            2 * (x1 > 0) + (x2 > 0), _sco2_effect(x1, x2, cfg.beta1, cfg.beta2))


def _panel_b_bundle(laws: tuple) -> dict:
    """The IV nuisances from the laws at their (x1, x2); see ``oracle_nuisances_panel_b``."""
    x1, x2, pz1, pz2, cell, eff_sco2 = laws
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


def _draw_panel_b(cfg: PanelBConfig) -> tuple[Dataset, tuple]:
    """The Panel B sample and the laws it was drawn from."""
    rng = RngStream(cfg.seed)
    n = cfg.n
    x1 = 2.0 * rng.uniform(n) - 1.0
    x2 = 2.0 * rng.uniform(n) - 1.0
    laws = _panel_b_laws(x1, x2, cfg)
    _, _, pz1, pz2, cell, eff_sco2 = laws
    z1 = (rng.uniform(n) < pz1).astype(int)
    z2 = (rng.uniform(n) < pz2).astype(int)
    u = -0.3 + (np.sqrt(0.3) if cfg.u_param == "var" else 0.3) * rng.normal(n)
    # a row's stratum counts the cumulative probabilities of its cell that its draw reaches
    draw = rng.uniform(n)
    cumulative = np.take(_STRATUM_CUMULATIVE, cell, axis=0)
    stratum = sum(draw >= column for column in cumulative.T)
    d = _TREATMENT[stratum, z1, z2]
    y0 = 1.0 + x1 + x2 + u + rng.normal(n)
    # D is 0 in ANT, so its effect is never read
    y = y0 + d * np.where(stratum == 2, eff_sco2, -2.0 * x1)
    return Dataset(columns={"X1": x1, "X2": x2, "Z1": z1, "Z2": z2, "D": d, "Y": y}), laws


def gen_panel_b(cfg: PanelBConfig) -> Dataset:
    """Two-instrument principal-strata sample: columns (X1, X2, Z1, Z2, D, Y)."""
    return _draw_panel_b(cfg)[0]


def sample_panel_b(cfg: PanelBConfig) -> tuple[Dataset, dict]:
    """``gen_panel_b(cfg)`` and ``oracle_nuisances_panel_b(cfg)`` at its X,
    built from the arrays the draw already computed."""
    data, laws = _draw_panel_b(cfg)
    return data, _panel_b_bundle(laws)


def oracle_nuisances_panel_b(cfg: PanelBConfig) -> Callable[[np.ndarray], dict]:
    """Analytic nuisances for Panel B as one function of X.

    All conditional means are closed-form: stratum membership is
    independent of U given X (common U-term cancels in the softmax), and
    E[U] = -0.3.  The returned function maps an n x 2 covariate matrix to
    a dict of n-vectors; keys per instrument j in {1, 2}: pz{j} =
    P(Z_j=1 | X), mu_d{j}_{z} = E[D | Z_j=z, X], mu_y{j}_{z} =
    E[Y | Z_j=z, X].  Given Z_j = z, the other instrument is 1 with its
    own propensity, so each stratum treats with probability z (own strict
    compliers), that propensity (the other's strict compliers), z times
    it (RCO) or z + (1 - z) times it (ECO).
    """
    return lambda x: _panel_b_bundle(_panel_b_laws(x[:, 0], x[:, 1], cfg))


# rows formatted per write; blocks of 256 to 16,384 rows write at about
# the same speed, and the larger ones only hold more text
WRITE_BLOCK_ROWS = 1024


def write_csv(data: Dataset, path: str) -> None:
    """Write a dataset as CSV with 17-significant-digit decimals.

    The header goes first, then each block of ``WRITE_BLOCK_ROWS`` rows
    as one ``%`` formatting of the block's cells, so the writer holds
    about 0.3 MB whatever the number of rows: a 1,000,000-row Panel A
    file raises peak RSS by about 0.1 MiB, where building the whole file
    in memory raised it by about 418 MiB.
    """
    names = list(data.columns)
    columns = [data.columns[name] for name in names]
    row_format = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, data.n, WRITE_BLOCK_ROWS):
            block = np.column_stack([col[start:start + WRITE_BLOCK_ROWS] for col in columns])
            fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def _locate_bad_row(lines: list[str], names: list[str]) -> None:
    """Raise the SchemaError for the first data row that has the wrong
    number of cells or a cell ``float`` rejects; return if there is none."""
    for r, line in enumerate(lines, start=1):
        cells = line.split(",")
        if len(cells) != len(names):
            raise SchemaError(f"row {r} has {len(cells)} cells, expected {len(names)}")
        for name, cell in zip(names, cells):
            try:
                float(cell)
            except ValueError:
                raise SchemaError(
                    f"non-numeric cell {cell!r} at row {r}, column {name!r}"
                ) from None


def _header_names(header: str, path: str) -> list[str]:
    names = [name.strip() for name in header.rstrip("\n").split(",")]
    for pos, name in enumerate(names):
        if not name:
            raise SchemaError(f"empty column name at position {pos + 1} in {path!r}")
        if names.index(name) < pos:
            raise SchemaError(f"duplicate column name {name!r} in {path!r}")
    return names


def _parse_lines(body: list[str], names: list[str], path: str) -> np.ndarray:
    """The body's non-blank lines as an array, or the SchemaError naming
    the first bad row and cell."""
    if not body:
        # loadtxt warns on empty input, so a header-only file skips it
        return np.empty((0, len(names)))
    try:
        values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if values.shape[1] != len(names):
            raise ValueError(f"{values.shape[1]} cells per row, header has {len(names)}")
    except ValueError as exc:
        _locate_bad_row(body, names)
        # loadtxt counts data rows from 0; every other message here counts from 1
        reason = re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + 1}", str(exc))
        raise SchemaError(f"cannot parse {path!r} as numeric CSV: {reason}") from None
    return values


def read_csv(path: str) -> Dataset:
    """Read a strictly numeric CSV with a header row into a Dataset.

    Blank and whitespace-only lines are skipped.  The header is the
    first non-blank line, and the rest of the file goes to one
    ``np.loadtxt`` call.  When that fails, or finds no rows, the file's
    non-blank lines are parsed again, and a failure is scanned row by
    row to name the offending row and cell.  A cell ``loadtxt`` rejects
    but ``float`` accepts (a digit separator such as ``1_0``) is refused
    with ``loadtxt``'s message.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # an Excel CSV starts with a BOM
            header = fh.readline()
            while header and header.strip() == "":
                header = fh.readline()
            if not header:
                raise SchemaError(f"empty input file {path!r}")
            names = _header_names(header, path)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", UserWarning)  # loadtxt warns on no rows
                    values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
                if values.shape[1] != len(names):
                    raise ValueError("wrong row width")
            except (ValueError, UserWarning):
                fh.seek(0)
                lines = [line.rstrip("\n") for line in fh if line.strip() != ""]
                values = _parse_lines(lines[1:], names, path)
    except OSError as exc:
        raise SchemaError(f"cannot read {path!r}: {exc}") from None
    arrays = {name: np.ascontiguousarray(values[:, j]) for j, name in enumerate(names)}
    return Dataset(columns=arrays)
