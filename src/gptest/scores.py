"""Conditionally Neyman-orthogonal score functions and diagnostics.

Each score maps a dataset plus a nuisance bundle to a vector of
per-observation pseudo-outcomes g(O_i; eta).  A nuisance bundle maps
each nuisance name to an array of its values, one per row of the
dataset: the out-of-fold predictions from cross-fitting, or an oracle
of :mod:`gptest.dgp` evaluated at the covariates.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, SchemaError
from .dgp import Dataset

MEAN_EXCHANGEABILITY = "mean_exchangeability"
IV_COMPATIBILITY = "iv_compatibility"
PARAMETRIC_SPEC = "parametric_spec"
CONDITIONAL_COVARIANCE = "conditional_covariance"


@dataclass
class ScoreSpec:
    """Which score to evaluate and how dataset columns map to its roles."""

    kind: str = MEAN_EXCHANGEABILITY
    arm: int = 0  # treatment arm a for the mean-exchangeability score
    covariates: tuple[str, ...] = ("X1", "X2")
    columns: dict[str, str] = field(default_factory=dict)
    clip_propensity: float = 0.01
    clip_denominator: float = 0.05
    nuisance_mode: str = "crossfit"  # "crossfit" or "oracle"
    # oracle mode: covariate matrix -> nuisance bundle, one array per key
    oracle: Callable[[np.ndarray], dict] | None = None

    # each score kind's roles, whose columns default to their names in capitals;
    # s, a, z1 and z2 hold 0/1 indicators
    ROLES = {
        MEAN_EXCHANGEABILITY: ("y", "s", "a"),
        IV_COMPATIBILITY: ("y", "d", "z1", "z2"),
        PARAMETRIC_SPEC: ("y",),
        CONDITIONAL_COVARIANCE: ("y", "z"),
    }

    def __post_init__(self):
        if self.kind not in self.ROLES:
            raise InvalidInput(f"unknown score kind {self.kind!r}")
        if not (0.0 < self.clip_propensity < 0.5):
            raise InvalidInput("clip_propensity must lie in (0, 0.5)")
        if not 0.0 < self.clip_denominator < np.inf:
            raise InvalidInput("clip_denominator must be positive and finite")
        if self.nuisance_mode not in ("crossfit", "oracle"):
            raise InvalidInput(f"unknown nuisance_mode {self.nuisance_mode!r}")
        if self.nuisance_mode == "oracle" and not callable(self.oracle):
            raise InvalidInput(
                "oracle mode requires an oracle: a function of the covariate matrix "
                "returning one array per nuisance"
            )
        if self.arm not in (0, 1):
            raise InvalidInput("arm must be 0 or 1")
        for role in self.columns:
            if role not in self.ROLES[self.kind]:
                raise InvalidInput(f"score {self.kind!r} has no {role!r} role")
        roles = {}
        for role in self.ROLES[self.kind]:
            name = self.column(role)
            if name in roles:
                raise InvalidInput(
                    f"column {name!r} is both the score's {roles[name]} and {role} column"
                )
            roles[name] = role
        for pos, name in enumerate(self.covariates):
            if name in self.covariates[:pos]:
                raise InvalidInput(f"covariate {name!r} is listed twice")
            if name in roles:
                raise InvalidInput(f"covariate {name!r} is the score's {roles[name]} column")

    def column(self, role: str) -> str:
        return self.columns.get(role, role.upper())

    def check_columns(self, data: Dataset) -> dict[str, tuple[np.ndarray, bool]]:
        """Each role's column and whether it holds only 0 and 1, in role
        order.  Refuses, role by role, a value other than 0 and 1 in an
        indicator role and then a column that holds one value in every row."""
        out = {}
        for role in self.ROLES[self.kind]:
            name = self.column(role)
            vals = data.col(name)
            binary = bool(np.all((vals == 0.0) | (vals == 1.0)))
            if not binary and role in ("s", "a", "z1", "z2"):
                row = int(np.argmax((vals != 0.0) & (vals != 1.0)))
                value = float(vals[row])
                raise SchemaError(f"binary column {name!r} has value {value} at row {row + 1}")
            if vals.size and (vals == vals[0]).all():
                if role == "y":
                    raise SchemaError(f"outcome column {name!r} is constant")
                raise SchemaError(f"column {name!r} (the score's {role} role) is constant")
            out[role] = vals, binary
        return out


def _clip_prob(p, clip):
    return np.clip(p, clip, 1.0 - clip)


def _clip_signed(x, floor):
    """Sign-preserving magnitude floor for IV compliance denominators."""
    sign = np.where(x >= 0.0, 1.0, -1.0)
    return sign * np.maximum(np.abs(x), floor)


def _need(bundle: dict, key: str):
    if key not in bundle:
        raise SchemaError(f"nuisance bundle is missing {key!r}")
    return bundle[key]


def g_mean_exchangeability(data: Dataset, bundle: dict, spec: ScoreSpec) -> np.ndarray:
    """AIPW contrast of the arm-a outcome mean across the two sources."""
    y = data.col(spec.column("y"))
    a = data.col(spec.column("a"))
    s = data.col(spec.column("s"))
    cp = spec.clip_propensity
    pi1 = _clip_prob(_need(bundle, "pi_s1"), cp)
    pi0 = _clip_prob(_need(bundle, "pi_s0"), cp)
    mu1 = _need(bundle, "mu_s1")
    mu0 = _need(bundle, "mu_s0")
    in_arm = (a == spec.arm).astype(float)
    ind1 = in_arm * (s == 1.0)
    ind0 = in_arm * (s == 0.0)
    return ind1 / pi1 * (y - mu1) + mu1 - ind0 / pi0 * (y - mu0) - mu0


def g_iv_component(data: Dataset, bundle: dict, spec: ScoreSpec, j: int) -> np.ndarray:
    """Orthogonal score for the complier effect identified by instrument j."""
    if j not in (1, 2):
        raise InvalidInput("instrument index must be 1 or 2")
    y = data.col(spec.column("y"))
    d = data.col(spec.column("d"))
    z = data.col(spec.column(f"z{j}"))
    cp = spec.clip_propensity
    pz = _clip_prob(_need(bundle, f"pz{j}"), cp)
    d1 = _need(bundle, f"mu_d{j}_1")
    d0 = _need(bundle, f"mu_d{j}_0")
    y1 = _need(bundle, f"mu_y{j}_1")
    y0 = _need(bundle, f"mu_y{j}_0")
    compliance = _clip_signed(d1 - d0, spec.clip_denominator)
    effect_num = y1 - y0
    w1 = z / pz
    w0 = (1.0 - z) / (1.0 - pz)
    aipw_y = w1 * (y - y1) - w0 * (y - y0)
    aipw_d = w1 * (d - d1) - w0 * (d - d0)
    return (
        aipw_y / compliance
        - effect_num / compliance ** 2 * aipw_d
        + effect_num / compliance
    )


def g_iv_compatibility(data: Dataset, bundle: dict, spec: ScoreSpec) -> np.ndarray:
    """Difference of the two instrument-specific complier-effect scores."""
    return g_iv_component(data, bundle, spec, 1) - g_iv_component(data, bundle, spec, 2)


def g_parametric_spec(data: Dataset, bundle: dict, spec: ScoreSpec) -> np.ndarray:
    """Orthogonalized residual for a linear-model specification test.

    The bundle carries ``h`` (the fitted mean) and ``leverage`` (each row's
    b(X_i)' G^{-1} b(X_i) for the linear features b and the empirical
    feature Gram matrix G of the fit, driving the OLS influence
    adjustment).
    """
    y = data.col(spec.column("y"))
    return (y - _need(bundle, "h")) * (1.0 - _need(bundle, "leverage"))


def g_conditional_covariance(data: Dataset, bundle: dict, spec: ScoreSpec) -> np.ndarray:
    """Product of the Y- and Z-residuals given X."""
    y = data.col(spec.column("y"))
    z = data.col(spec.column("z"))
    return (y - _need(bundle, "mean_y")) * (z - _need(bundle, "mean_z"))


def evaluate_score(data: Dataset, bundle: dict, spec: ScoreSpec) -> np.ndarray:
    """Dispatch to the score named by ``spec.kind``."""
    if spec.kind == MEAN_EXCHANGEABILITY:
        return g_mean_exchangeability(data, bundle, spec)
    if spec.kind == IV_COMPATIBILITY:
        return g_iv_compatibility(data, bundle, spec)
    if spec.kind == PARAMETRIC_SPEC:
        return g_parametric_spec(data, bundle, spec)
    return g_conditional_covariance(data, bundle, spec)


def clip_diagnostics(bundle: dict, spec: ScoreSpec) -> dict:
    """How close the score's denominators came to their clips.

    ``min_propensity`` is the smallest propensity before clipping (pi_s1
    and pi_s0 for mean exchangeability; P(Z_j = 1 | X) and P(Z_j = 0 | X)
    for IV compatibility). ``clipped_rows`` counts the rows where the
    score clipped a propensity at ``clip_propensity`` or floored a
    compliance denominator at ``clip_denominator``.  Other scores have
    neither and get an empty dict.
    """
    if spec.kind == MEAN_EXCHANGEABILITY:
        propensities = [_need(bundle, "pi_s1"), _need(bundle, "pi_s0")]
        denominators = []
    elif spec.kind == IV_COMPATIBILITY:
        pz = [_need(bundle, f"pz{j}") for j in (1, 2)]
        propensities = pz + [1.0 - p for p in pz]
        denominators = [_need(bundle, f"mu_d{j}_1") - _need(bundle, f"mu_d{j}_0") for j in (1, 2)]
    else:
        return {}
    cp = spec.clip_propensity
    clipped = np.zeros(propensities[0].shape, dtype=bool)
    for p in propensities:
        clipped |= (p < cp) | (p > 1.0 - cp)
    for d in denominators:
        clipped |= np.abs(d) < spec.clip_denominator
    return {
        "min_propensity": float(min(p.min() for p in propensities)),
        "clipped_rows": int(clipped.sum()),
    }


def orthogonality_diagnostic(
    data: Dataset,
    spec: ScoreSpec,
    truth: dict,
    perturbation: dict,
    t_grid,
    weight=None,
    score_fn=None,
) -> np.ndarray:
    """Path D(t) = mean of g(O; (1-t) truth + t pert) * w(X) over the sample.

    ``truth`` and ``perturbation`` are nuisance bundles at X (an oracle
    evaluated at the covariate matrix, say) with the same keys, and
    ``weight`` is an array of w(X_i).  Callers check first-order
    insensitivity by symmetric finite differences around t = 0 and the
    quadratic scaling of the curvature.  ``score_fn`` defaults to the
    orthogonal score named by ``spec``; pass a different evaluator to
    probe non-orthogonal comparators.
    """
    if set(truth) != set(perturbation):
        raise InvalidInput("bundles carry different nuisance keys")
    if score_fn is None:
        score_fn = evaluate_score
    w = np.ones(data.n) if weight is None else np.asarray(weight, dtype=float)
    out = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        t = float(t)
        bundle = {key: (1.0 - t) * truth[key] + t * perturbation[key] for key in truth}
        out[i] = float(np.mean(score_fn(data, bundle, spec) * w))
    return out
