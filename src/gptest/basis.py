"""Growing basis construction: orthonormal Legendre and Fourier families.

Both families are orthonormal under the uniform probability measure on
[-1, 1], i.e. (1/2) * integral of b_j * b_k over [-1, 1] equals
delta_jk.  Covariates on an arbitrary interval [lo, hi] are affinely
rescaled to [-1, 1] before evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, OutOfRange

LEGENDRE = "legendre"
FOURIER = "fourier"
ADDITIVE = "additive"
TENSOR = "tensor"

_MAX_DEGREE = 64
_BOUNDARY_SLACK = 1e-9


@dataclass(frozen=True)
class BasisSpec:
    """Basis family, per-covariate count J*, and combination rule.

    ``ranges`` holds one (lo, hi) pair per covariate; covariates are
    rescaled from [lo, hi] to [-1, 1] before basis evaluation.  Total
    column count: additive -> 1 + d*(J*-1) (one shared constant);
    tensor -> (J*)^d.
    """

    family: str = LEGENDRE
    j_star: int = 3
    combination: str = ADDITIVE
    ranges: tuple[tuple[float, float], ...] = field(default=((-1.0, 1.0), (-1.0, 1.0)))

    def __post_init__(self):
        if self.family not in (LEGENDRE, FOURIER):
            raise InvalidInput(f"unknown basis family {self.family!r}")
        if self.combination not in (ADDITIVE, TENSOR):
            raise InvalidInput(f"unknown combination {self.combination!r}")
        if self.j_star < 1:
            raise InvalidInput("j_star must be >= 1")
        if self.family == LEGENDRE and self.j_star - 1 > _MAX_DEGREE:
            raise InvalidInput(f"degree {self.j_star - 1} exceeds recurrence budget {_MAX_DEGREE}")
        if not self.ranges:
            raise InvalidInput("a basis needs at least one covariate range")
        for lo, hi in self.ranges:
            if not lo < hi:
                raise InvalidInput(f"bad covariate range ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.ranges)

    @property
    def n_columns(self) -> int:
        if self.combination == ADDITIVE:
            return 1 + self.dim * (self.j_star - 1)
        return self.j_star ** self.dim


@dataclass(frozen=True)
class DesignMatrix:
    """Realized n x J basis evaluation matrix."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def J(self) -> int:
        return self.values.shape[1]


def _axis_design(family: str, z: np.ndarray, j_star: int, out=None, first: int = 0):
    """b_first(z), ..., b_{J*-1}(z) for z in [-1, 1], written into the
    columns of ``out`` (n x (J* - first), new if not given).

    The constant b_0 = 1 is written only when ``first`` is 0.  Legendre
    columns are sqrt(2j+1) P_j(z), every degree from one pass of the
    three-term recurrence; Fourier columns are one cos or sin call each.
    """
    if out is None:
        out = np.empty((z.shape[0], j_star - first))
    if first == 0:
        out[:, 0] = 1.0
    if family == LEGENDRE:
        p = [None, z]  # P_0 = 1 enters only P_2, whose recurrence step is spelled out
        if j_star > 2:
            p.append((3 * z * z - 1.0) / 2)
        for k in range(2, j_star - 1):
            p.append(((2 * k + 1) * z * p[k] - k * p[k - 1]) / (k + 1))
        for j in range(max(first, 1), j_star):
            np.multiply(math.sqrt(2.0 * j + 1.0), p[j], out=out[:, j - first])
    else:
        for j in range(max(first, 1), j_star):
            trig = np.cos if j % 2 == 1 else np.sin
            out[:, j - first] = math.sqrt(2.0) * trig((j + 1) // 2 * np.pi * z)
    return out


def _rescale(x: np.ndarray, lo: float, hi: float, axis_idx: int) -> np.ndarray:
    z = 2.0 * (x - lo) / (hi - lo) - 1.0
    bad = np.abs(z) > 1.0 + _BOUNDARY_SLACK
    if bad.any():
        row = int(np.argmax(bad))
        raise OutOfRange(
            f"covariate {axis_idx} out of range at row {row + 1}: value {float(x[row])}"
        )
    return np.minimum(np.maximum(z, -1.0), 1.0)


def build_design(x_matrix, spec: BasisSpec) -> DesignMatrix:
    """Evaluate the basis over an n x d covariate matrix.

    Additive mode emits one shared constant column followed by the
    degree 1..J*-1 functions of each covariate in turn; tensor mode
    emits all products of per-covariate functions in lexicographic
    order of the degree tuple.
    """
    x_matrix = np.asarray(x_matrix, dtype=float)
    if x_matrix.ndim == 1:
        x_matrix = x_matrix[:, None]
    n, d = x_matrix.shape
    if n < 1 or d != spec.dim:
        raise InvalidInput(
            f"covariate matrix is {n}x{d}, spec declares {spec.dim} covariates"
        )
    z = [_rescale(x_matrix[:, k], lo, hi, k) for k, (lo, hi) in enumerate(spec.ranges)]
    if spec.combination == ADDITIVE:
        values = np.empty((n, spec.n_columns))
        values[:, 0] = 1.0
        block = spec.j_star - 1  # each covariate's columns of degree 1 .. J*-1
        for k, z_k in enumerate(z):
            out = values[:, 1 + k * block : 1 + (k + 1) * block]
            _axis_design(spec.family, z_k, spec.j_star, out=out, first=1)
    else:
        axes = [_axis_design(spec.family, z_k, spec.j_star) for z_k in z]
        values = axes[0]
        for axis in axes[1:]:  # the last covariate's degree varies fastest
            values = (values[:, :, None] * axis[:, None, :]).reshape(n, -1)
    return DesignMatrix(values)


def nested_columns(spec: BasisSpec, j_star: int) -> np.ndarray:
    """Indices of the columns of ``spec``'s design that are, in order and
    bit for bit, the design of J* = ``j_star`` <= ``spec.j_star``.

    Additive keeps the constant column and the first J*-1 columns of
    each covariate's block, tensor keeps the degree tuples below J*.  So
    the projection and Sigma-hat of a nest's largest J* hold those of
    every smaller J* as a sub-vector and a principal sub-block.
    """
    if not 1 <= j_star <= spec.j_star:
        raise InvalidInput(f"cannot restrict a J*={spec.j_star} basis to J*={j_star}")
    big = spec.j_star
    if spec.combination == ADDITIVE:
        blocks = [1 + k * (big - 1) + t for k in range(spec.dim) for t in range(j_star - 1)]
        return np.array([0] + blocks)
    degrees = np.indices((j_star,) * spec.dim).reshape(spec.dim, -1)
    return np.ravel_multi_index(degrees, (big,) * spec.dim)


def basis_bound_diagnostics(spec: BasisSpec, grid_points: int = 1001):
    """Grid-search estimates of sup |b_j| and sup ||B_n(x)||_2, read off
    one axis's grid for any number of covariates d.

    Reported for diagnostics only.  An additive ||B||^2 is 1 plus each
    axis's sum of non-constant b_j^2.  A tensor column is a product of
    per-axis functions, so its sup |b| is (axis max of |b_j|)^d and its
    sup ||B|| is (square root of the axis max of sum_j b_j^2)^d.  A d at
    which either overflows a double is refused.
    """
    grid = np.linspace(-1.0, 1.0, grid_points)
    vals = _axis_design(spec.family, grid, spec.j_star)
    sup_b = float(np.max(np.abs(vals)))
    if spec.combination == ADDITIVE:
        omega_hat = float(np.sqrt(1.0 + spec.dim * np.max(np.sum(vals[:, 1:] ** 2, axis=1))))
        return sup_b, omega_hat
    axis_omega = float(np.sqrt(np.max(np.sum(vals**2, axis=1))))
    try:  # a Python float power raises on overflow rather than returning inf
        return sup_b ** spec.dim, axis_omega ** spec.dim
    except OverflowError:
        raise InvalidInput(f"tensor bounds overflow a double at d = {spec.dim}") from None
