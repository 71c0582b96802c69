import itertools

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from gptest.basis import (
    ADDITIVE,
    TENSOR,
    BasisSpec,
    basis_bound_diagnostics,
    build_design,
    nested_columns,
)
from gptest.errors import InvalidInput, OutOfRange
from mc_reference import basis_reference, tensor_bounds_reference


def axis_values(family, j_star, x):
    """b_0(x), ..., b_{J*-1}(x) of one covariate on [-1, 1], one column each,
    as ``build_design`` evaluates them."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    spec = BasisSpec(family=family, j_star=j_star, ranges=((-1.0, 1.0),))
    return build_design(x[:, None], spec).values


class TestLegendre:
    def test_degree_zero_constant(self):
        x = np.linspace(-1, 1, 11)
        assert np.all(axis_values("legendre", 1, x)[:, 0] == 1.0)

    def test_degree_one_at_one(self):
        # Gram-Schmidt on monomials under the uniform measure gives sqrt(3) * x
        assert axis_values("legendre", 2, 1.0)[0, 1] == pytest.approx(np.sqrt(3.0))

    def test_degree_two_at_one(self):
        # p2(x) = sqrt(5) * (3 x^2 - 1) / 2
        p2 = axis_values("legendre", 3, [1.0, 0.0])[:, 2]
        assert p2 == pytest.approx([np.sqrt(5.0), -np.sqrt(5.0) / 2.0])

    def test_degree_cap(self):
        # J* = 66 needs degree 65, one past the recurrence budget
        with pytest.raises(InvalidInput, match="degree 65"):
            axis_values("legendre", 66, 0.5)

    def test_degree_cap_checked_by_the_spec(self):
        with pytest.raises(InvalidInput, match="^degree 65 exceeds recurrence budget 64$"):
            BasisSpec(j_star=66)
        BasisSpec(j_star=65)
        BasisSpec(family="fourier", j_star=66)  # Fourier has no recurrence

    def test_gram_schmidt_oracle_low_degrees(self):
        # independent construction: orthonormalize monomials by quadrature
        nodes, weights = leggauss(64)
        monos = [nodes ** k for k in range(5)]
        ortho = []
        for m in monos:
            v = m.copy()
            for q in ortho:
                v = v - 0.5 * np.sum(weights * v * q) * q
            v = v / np.sqrt(0.5 * np.sum(weights * v * v))
            ortho.append(v)
        direct = axis_values("legendre", 5, nodes)
        for j in range(5):
            sign = np.sign(direct[-1, j]) * np.sign(ortho[j][-1])
            assert np.allclose(direct[:, j], sign * ortho[j], atol=1e-10)


class TestFourier:
    def test_constant(self):
        assert axis_values("fourier", 1, 0.3)[0, 0] == 1.0

    def test_first_cosine_at_zero(self):
        assert axis_values("fourier", 2, 0.0)[0, 1] == pytest.approx(np.sqrt(2.0))

    def test_cos_sin_pairing(self):
        x = np.linspace(-1, 1, 7)
        values = axis_values("fourier", 4, x)
        assert np.allclose(values[:, 2], np.sqrt(2.0) * np.sin(np.pi * x))
        assert np.allclose(values[:, 3], np.sqrt(2.0) * np.cos(2 * np.pi * x))


@pytest.mark.parametrize("family", ["legendre", "fourier"])
def test_orthonormality_by_quadrature(family):
    # the 64-point rule on [0, 3], rescaled by the design: the Gram matrix
    # under the uniform measure is the identity for j, k <= 10
    nodes, weights = leggauss(64)
    spec = BasisSpec(family=family, j_star=11, ranges=((0.0, 3.0),))
    values = build_design(1.5 * (nodes + 1.0), spec).values
    gram = 0.5 * (values * weights[:, None]).T @ values
    assert np.abs(gram - np.eye(11)).max() < 1e-10


class TestBuildDesign:
    def test_additive_column_count(self):
        spec = BasisSpec(j_star=3, combination=ADDITIVE)
        design = build_design(np.zeros((4, 2)), spec)
        assert design.J == 5 and spec.n_columns == 5

    def test_tensor_column_count(self):
        spec = BasisSpec(j_star=3, combination=TENSOR)
        design = build_design(np.zeros((4, 2)), spec)
        assert design.J == 9 and spec.n_columns == 9

    def test_single_row_values(self):
        spec = BasisSpec(j_star=3)
        row = build_design(np.array([[0.0, 0.0]]), spec).values[0]
        s5 = np.sqrt(5.0)
        assert np.allclose(row, [1.0, 0.0, -s5 / 2, 0.0, -s5 / 2], atol=1e-12)

    def test_constant_first_column(self):
        spec = BasisSpec(j_star=4)
        rng = np.random.default_rng(0)
        design = build_design(rng.uniform(-1, 1, size=(50, 2)), spec)
        assert np.all(design.values[:, 0] == 1.0)

    def test_affine_rescaling_exact(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-1, 1, size=(100, 2))
        raw = np.column_stack([2.0 + 3.0 * (z[:, 0] + 1) / 2, -5.0 + 1.0 * (z[:, 1] + 1) / 2])
        spec_raw = BasisSpec(j_star=4, ranges=((2.0, 5.0), (-5.0, -4.0)))
        spec_unit = BasisSpec(j_star=4)
        a = build_design(raw, spec_raw).values
        b = build_design(z, spec_unit).values
        assert np.allclose(a, b, atol=1e-12)

    def test_out_of_range_reports_location(self):
        spec = BasisSpec(j_star=3)
        x = np.zeros((3, 2))
        x[2, 1] = 1.5
        with pytest.raises(OutOfRange, match=r"^covariate 1 out of range at row 3: value 1\.5$"):
            build_design(x, spec)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(64, 2))
        spec = BasisSpec(j_star=5, family="fourier")
        assert np.array_equal(build_design(x, spec).values, build_design(x, spec).values)

    def test_empirical_gram_near_identity(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(100_000, 2))
        design = build_design(x, BasisSpec(j_star=4)).values
        gram = design.T @ design / design.shape[0]
        assert np.linalg.norm(gram - np.eye(design.shape[1]), 2) < 0.05


def reference_design(x, spec):
    """Column-by-column design from ``basis_reference``, which shares no
    code with ``gptest.basis``."""
    z = [
        np.clip(2.0 * (x[:, k] - lo) / (hi - lo) - 1.0, -1.0, 1.0)
        for k, (lo, hi) in enumerate(spec.ranges)
    ]

    def fn(j, z_k):
        return basis_reference(spec.family, j, z_k)

    if spec.combination == ADDITIVE:
        cols = [np.ones(len(x))] + [fn(j, z_k) for z_k in z for j in range(1, spec.j_star)]
    else:
        cols = [
            np.prod(np.stack([fn(j, z[k]) for k, j in enumerate(degrees)]), axis=0)
            for degrees in itertools.product(range(spec.j_star), repeat=len(z))
        ]
    return np.column_stack(cols)


@pytest.mark.parametrize("j_star", [1, 2, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("combination", [ADDITIVE, TENSOR])
@pytest.mark.parametrize("family", ["legendre", "fourier"])
def test_design_bit_identical_to_per_degree_reference(family, combination, d, j_star):
    ranges = ((-1.0, 1.0), (0.0, 3.0), (-2.0, -0.5))[:d]
    rng = np.random.default_rng(d * 10 + j_star)
    x = np.column_stack([rng.uniform(lo, hi, size=40) for lo, hi in ranges])
    x[0] = [lo for lo, _ in ranges]
    x[1] = [hi for _, hi in ranges]
    x[2] = [hi + 1e-10 * (hi - lo) for lo, hi in ranges]  # within the slack, clipped
    spec = BasisSpec(family=family, j_star=j_star, combination=combination, ranges=ranges)
    values = build_design(x, spec).values
    assert values.flags.c_contiguous
    reference = reference_design(x, spec)
    if family == "fourier":
        # the reference evaluates the same closed form, operation for operation
        assert np.array_equal(values, reference)
    else:
        # numpy sums the Legendre series by Clenshaw's recurrence, which
        # rounds differently from the three-term recurrence above degree 2
        np.testing.assert_allclose(values, reference, rtol=1e-13, atol=1e-13)


class TestBoundDiagnostics:
    def test_legendre_sup(self):
        xi, omega = basis_bound_diagnostics(BasisSpec(j_star=3, ranges=((-1.0, 1.0),)))
        assert xi == pytest.approx(np.sqrt(5.0), rel=1e-6)

    def test_fourier_sup(self):
        xi, _ = basis_bound_diagnostics(
            BasisSpec(family="fourier", j_star=3, ranges=((-1.0, 1.0),))
        )
        assert xi == pytest.approx(np.sqrt(2.0), rel=1e-4)

    def test_constant_basis(self):
        xi, omega = basis_bound_diagnostics(BasisSpec(j_star=1))
        assert xi == 1.0 and omega == 1.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family", ["legendre", "fourier"])
    def test_tensor_equals_mesh_reference(self, family, d):
        # the one-axis closed form against every column on the full d-dimensional mesh
        for j_star in range(1, 6):
            spec = BasisSpec(family, j_star, TENSOR, ((-1.0, 1.0),) * d)
            got = basis_bound_diagnostics(spec, grid_points=21)
            want = tensor_bounds_reference(family, j_star, d, grid_points=21)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestRestrict:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("combination", [ADDITIVE, TENSOR])
    @pytest.mark.parametrize("family", ["legendre", "fourier"])
    def test_equals_direct_build_bit_for_bit(self, family, combination, d):
        ranges = ((-1.0, 1.0), (0.0, 3.0), (-2.0, -0.5))[:d]
        rng = np.random.default_rng(7 * d)
        x = np.column_stack([rng.uniform(lo, hi, size=60) for lo, hi in ranges])
        for big in range(2, 7):
            spec = BasisSpec(family=family, j_star=big, combination=combination, ranges=ranges)
            values = build_design(x, spec).values
            assert np.array_equal(nested_columns(spec, big), np.arange(spec.n_columns))
            for j_star in range(1, big):
                direct = build_design(x, BasisSpec(family, j_star, combination, ranges)).values
                assert values[:, nested_columns(spec, j_star)].tobytes() == direct.tobytes()

    @pytest.mark.parametrize("j_star", [0, 5])
    def test_only_smaller_positive_j_star(self, j_star):
        with pytest.raises(InvalidInput, match="cannot restrict"):
            nested_columns(BasisSpec(j_star=4), j_star)
