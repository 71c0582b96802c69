"""Test statistics and calibration: the growing-basis projection tests
and the fixed-dimension Wald baseline.

The projection statistic is S = n * a'a with a the empirical
projection of the pseudo-outcomes onto the basis.  Calibration is
either against the weighted chi-square mixture over the eigenvalues of
Sigma-hat, whose tail is computed exactly by characteristic-function
inversion, or by standardizing with the trace and Frobenius norm of
Sigma-hat and comparing to the upper normal tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .basis import BasisSpec, DesignMatrix, build_design, nested_columns
from .errors import DegenerateScale, InvalidInput
from .dgp import Dataset
from .nuisance import crossfit, with_intercept
from .numerics import (
    RIDGE_JITTER, RngStream, chi2_sf, chisq_mixture_sf, normal_cdf, sym_eigen,
)
from .scores import ScoreSpec

GP_STANDARDIZED = "gp_standardized"
GP_UNSTANDARDIZED = "gp_unstandardized"
WALD_PROJECTION = "wald"

METHODS = (GP_STANDARDIZED, GP_UNSTANDARDIZED, WALD_PROJECTION)


@dataclass
class TestConfig:
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise InvalidInput("alpha must lie in (0, 1)")


@dataclass
class TestResult:
    method: str
    statistic: float
    p_value: float
    reject: bool
    J: int
    tau_hat: np.ndarray | None = None
    rho_hat: float | None = None
    gamma_hat: float | None = None
    t_hat: float | None = None
    wald_df: int | None = None
    theta_ls: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields in declaration order, arrays as float lists, with
        None fields and empty diagnostics left out."""
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if val is None or (isinstance(val, dict) and not val):
                continue
            out[f.name] = [float(v) for v in val] if isinstance(val, np.ndarray) else val
        return out


def projection_vector(design: DesignMatrix, g: np.ndarray) -> np.ndarray:
    """a = (1/n) * sum_i B(X_i) g_i."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] != design.n:
        raise InvalidInput(f"{design.n} design rows but {g.shape[0]} pseudo-outcomes")
    return design.values.T @ g / design.n


def statistic(a: np.ndarray, n: int) -> float:
    """S = n * a'a."""
    a = np.asarray(a, dtype=float)
    return float(n * a @ a)


def sigma_hat(design: DesignMatrix, g: np.ndarray) -> np.ndarray:
    """(1/n) sum_i g_i^2 B_i B_i'."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] != design.n:
        raise InvalidInput(f"{design.n} design rows but {g.shape[0]} pseudo-outcomes")
    weighted = design.values * g[:, None]
    return weighted.T @ weighted / design.n


def _calibrated(variant: str, a: np.ndarray, sig: np.ndarray, n: int,
                config: TestConfig) -> TestResult:
    """Calibrate S = n * a'a for a GP variant: against the weighted
    chi-square mixture over the eigenvalues of Sigma-hat, or by its trace
    and Frobenius norm against the upper normal tail.  An identically
    zero Sigma-hat (every pseudo-outcome 0) has no scale to calibrate
    against."""
    flat = sig.ravel()
    gamma = math.sqrt(flat @ flat)  # the Frobenius norm, as np.linalg.norm computes it
    if gamma == 0.0:
        raise DegenerateScale("Sigma-hat is identically zero")
    s, rho = statistic(a, n), float(sig.trace())
    taus = t = None
    if variant == GP_UNSTANDARDIZED:
        taus = sym_eigen(sig)[0]
        p = chisq_mixture_sf(taus, s)
    else:
        t = (s - rho) / (math.sqrt(2.0) * gamma)
        p = normal_cdf(-t)  # the upper tail without the cancellation of 1 - cdf(t)
    return TestResult(
        method=variant, statistic=s, p_value=p, reject=p < config.alpha, J=a.size,
        tau_hat=taus, rho_hat=rho, gamma_hat=gamma, t_hat=t,
    )


def gp_test_unstandardized(design: DesignMatrix, g, config: TestConfig) -> TestResult:
    """Projection test calibrated against the weighted chi-square mixture.

    The p-value is the exact mixture tail over the eigenvalues of
    Sigma-hat, so it needs no random draws.
    """
    a, sig = projection_vector(design, g), sigma_hat(design, g)
    return _calibrated(GP_UNSTANDARDIZED, a, sig, design.n, config)


def gp_test_standardized(design: DesignMatrix, g, config: TestConfig) -> TestResult:
    """Projection test standardized by trace/Frobenius of Sigma-hat.

    T = (S - trace Sigma) / (sqrt(2) ||Sigma||_F); rejects one-sided when
    T exceeds the upper-alpha normal quantile.
    """
    a, sig = projection_vector(design, g), sigma_hat(design, g)
    return _calibrated(GP_STANDARDIZED, a, sig, design.n, config)


def wald_projection_test(x_features, g, alpha: float = 0.05) -> TestResult:
    """Fixed-dimension Wald test with the Huber-White sandwich.

    The caller supplies the feature matrix (including any intercept); the
    statistic reduces to n * a' M^{-1} a with M the meat of the sandwich.
    """
    x_features = np.asarray(x_features, dtype=float)
    g = np.asarray(g, dtype=float)
    n, d = x_features.shape
    if n <= d:
        raise InvalidInput(f"need n > d, got n={n}, d={d}")
    gram = x_features.T @ x_features / n
    moment = x_features.T @ g / n
    gram.reshape(-1)[:: d + 1] += RIDGE_JITTER  # the ridge, on the diagonal in place
    theta = np.linalg.solve(gram, moment)
    resid = g - x_features @ theta
    meat = (x_features * resid[:, None] ** 2).T @ x_features / n
    meat.reshape(-1)[:: d + 1] += RIDGE_JITTER
    w = float(n * moment @ np.linalg.solve(meat, moment))
    p = chi2_sf(w, d)
    return TestResult(
        method=WALD_PROJECTION,
        statistic=w,
        p_value=p,
        reject=p < alpha,
        J=d,
        theta_ls=theta,
        wald_df=d,
    )


def check_basis_columns(J: int, n: int) -> None:
    """Refuse a projection design of J columns on n rows unless J < n."""
    if J >= n:
        raise InvalidInput(f"basis has J={J} columns for n={n} rows; need J < n")


def run_gp_test(
    data: Dataset,
    score: ScoreSpec,
    basis_spec: BasisSpec,
    config: TestConfig,
    variant: str = GP_STANDARDIZED,
    K: int = 5,
    rng: RngStream | None = None,
) -> TestResult:
    """Cross-fit the score, build the design, and run the chosen variant."""
    return run_gp_tests(data, score, (basis_spec,), config, (variant,), K, rng)[0][0]


def _nested_moments(x: np.ndarray, g: np.ndarray, basis_specs) -> list:
    """The projection and Sigma-hat of every spec, in order.  Specs that
    differ only in J* form a nest: its design, projection and Sigma-hat
    are computed once, at its largest J*, and each smaller J* takes its
    columns' sub-vector and principal sub-block."""
    moments = {}  # by nest: its largest spec, projection and Sigma-hat
    for spec in sorted(basis_specs, key=lambda spec: -spec.j_star):
        nest = spec.family, spec.combination, spec.ranges
        if nest not in moments:
            check_basis_columns(spec.n_columns, x.shape[0])
            design = build_design(x, spec)
            moments[nest] = spec, projection_vector(design, g), sigma_hat(design, g)
    out = []
    for spec in basis_specs:
        big, a, sig = moments[spec.family, spec.combination, spec.ranges]
        if spec.j_star < big.j_star:
            cols = nested_columns(big, spec.j_star)
            a, sig = a[cols], sig[cols[:, None], cols]
        out.append((a, sig))
    return out


def run_gp_tests(
    data: Dataset,
    score: ScoreSpec,
    basis_specs,
    config: TestConfig,
    variants,
    K: int = 5,
    rng: RngStream | None = None,
) -> list[list[TestResult]]:
    """Cross-fit the score once and run every variant on every basis.

    ``results[v][b]`` is ``variants[v]`` on ``basis_specs[b]``, all on the
    same pseudo-outcomes.  Specs that differ only in J* form a nest with
    one design, one projection and one Sigma-hat, computed at its largest
    J*; a smaller J* takes their sub-vector and principal sub-block.  The
    Wald test uses no basis: it runs once and its result object stands in
    every column of its row.
    """
    for variant in variants:
        if variant not in METHODS:
            raise InvalidInput(f"unknown test variant {variant!r}")
    if rng is None:
        rng = RngStream(config.seed)
    fit = crossfit(data, score, K, rng)
    g, x = fit.pseudo_outcomes, fit.covariates
    moments = []
    if any(variant != WALD_PROJECTION for variant in variants):
        moments = _nested_moments(x, g, basis_specs)
    results = []
    for variant in variants:
        if variant == WALD_PROJECTION:
            wald = wald_projection_test(with_intercept(x), g, alpha=config.alpha)
            row = [wald] * len(basis_specs)
        else:
            row = [_calibrated(variant, a, sig, data.n, config) for a, sig in moments]
        for result in row:
            result.diagnostics.update(fit.diagnostics)
        results.append(row)
    return results
