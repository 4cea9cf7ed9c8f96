import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from viscowave import wellconst
from viscowave.grid import GridError, SpatialGrid, aligned


def inner(grid, f, g):
    """The midpoint-quadrature L2 inner product of f and g."""
    return float(np.add.reduce(f * g, axis=None)) * grid.cell_volume


def line_grid(n=200, length=math.pi):
    return SpatialGrid.line(length, n)


class TestConstruction:
    def test_spacing(self):
        g = line_grid(n=199)
        assert g.h[0] == pytest.approx(math.pi / 200)
        assert g.dim == 1
        assert g.size == 199

    def test_rectangle(self):
        g = SpatialGrid.rectangle((1.0, 2.0), (10, 20))
        assert g.dim == 2
        assert g.shape == (10, 20)
        assert g.cell_volume == pytest.approx((1.0 / 11) * (2.0 / 21))

    def test_rejects_tiny_grids(self):
        with pytest.raises(GridError):
            SpatialGrid.line(1.0, 2)
        with pytest.raises(GridError):
            SpatialGrid.rectangle((1.0, -1.0), (10, 10))

    def test_check_shape_mismatch(self):
        g = line_grid(n=10)
        with pytest.raises(GridError):
            g.check(np.zeros(11))


class TestLaplacian:
    def test_zero_field(self):
        g = line_grid(n=50)
        assert np.all(g.laplacian(g.zeros()) == 0.0)

    def test_stencil_arithmetic(self):
        # unit spacing needs extent = n + 1
        g = SpatialGrid.line(4.0, 3)
        out = g.laplacian(np.array([0.0, 1.0, 0.0]))
        assert np.allclose(out, [1.0, -2.0, 1.0])

    def test_sine_eigenfunction(self):
        g = line_grid(n=400)
        (x,) = g.coords()
        f = np.sin(x)
        err = np.max(np.abs(g.laplacian(f) + f))
        assert err <= g.h[0] ** 2 / 12.0 * 1.001

    def test_2d_separable_mode(self):
        g = SpatialGrid.rectangle((math.pi, math.pi), (60, 60))
        X, Y = g.coords()
        f = np.sin(X) * np.sin(Y)
        err = np.max(np.abs(g.laplacian(f) + 2.0 * f))
        assert err <= 2.0 * g.h[0] ** 2 / 12.0 * 1.01


class TestNorms:
    def test_h1_zero(self):
        g = line_grid(n=20)
        assert g.h1_seminorm_sq(g.zeros()) == 0.0

    def test_h1_sine(self):
        g = line_grid(n=400)
        f = np.sin(g.coords()[0])
        assert g.h1_seminorm_sq(f) == pytest.approx(math.pi / 2,
                                                    abs=5 * g.h[0] ** 2)

    def test_h1_boundary_edges(self):
        # constant 1 on three nodes, h = 0.5: only the two boundary jumps
        # contribute, (1/0.5)^2 * 0.5 each
        g = SpatialGrid.line(2.0, 3)
        assert g.h1_seminorm_sq(np.ones(3)) == pytest.approx(4.0, rel=1e-14)

    def test_l2_sine(self):
        g = line_grid(n=400)
        f = np.sin(g.coords()[0])
        assert g.lp_norm_pow(f, 2.0) == pytest.approx(math.pi / 2,
                                                      abs=5 * g.h[0] ** 2)

    def test_l4_sine(self):
        g = line_grid(n=400)
        f = np.sin(g.coords()[0])
        assert g.lp_norm_pow(f, 4.0) == pytest.approx(3 * math.pi / 8,
                                                      abs=5 * g.h[0] ** 2)

    def test_lp_rejects_q_below_one(self):
        g = line_grid(n=10)
        with pytest.raises(GridError):
            g.lp_norm_pow(g.zeros(), 0.5)

    def test_homogeneity(self):
        g = line_grid(n=64)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(64)
        for q in (2.0, 3.5, 4.0):
            assert g.lp_norm_pow(2.5 * f, q) == pytest.approx(
                2.5 ** q * g.lp_norm_pow(f, q), rel=1e-12)


class TestLpNormPowForms:
    """lp_norm_pow against the |f|^q form it replaced, on the same sum."""

    @staticmethod
    def pow_form(g, f, q):
        return float(np.add.reduce(np.abs(f) ** q, axis=None)) * g.cell_volume

    GRIDS = [line_grid(n=200), SpatialGrid.rectangle((3.0, 2.0), (64, 48))]

    @pytest.mark.parametrize("g", GRIDS, ids=["1d", "2d"])
    def test_squares_are_bit_identical(self, g):
        f = np.random.default_rng(3).standard_normal(g.shape)
        for q in (1.0, 2.0):
            assert g.lp_norm_pow(f, q) == self.pow_form(g, f, q)

    @pytest.mark.parametrize("g", GRIDS, ids=["1d", "2d"])
    @pytest.mark.parametrize("q", [3.0, 4.0])
    def test_agrees_with_pow(self, g, q):
        f = np.random.default_rng(4).standard_normal(g.shape) * 0.3
        assert g.lp_norm_pow(f, q) == pytest.approx(self.pow_form(g, f, q),
                                                    rel=1e-15, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_overflows_where_pow_overflows(self, q):
        # the thresholds |f| = 1.8e308^(1/q) lie between these magnitudes
        g = line_grid(n=3)
        for mag in (1e70, 1e76, 2e77, 1e100, 1e102, 1e104, 1e150, 1e154,
                    2e154, 1e200, 1e206, 1e300):
            f = np.array([mag, -0.5, 1.0])
            with np.errstate(over="ignore"):
                old = self.pow_form(g, f, q)
                assert math.isinf(g.lp_norm_pow(f, q)) == math.isinf(old)
            if math.isinf(old):
                with pytest.raises(RuntimeWarning, match="overflow"):
                    g.lp_norm_pow(f, q)
            else:
                assert g.lp_norm_pow(f, q) == pytest.approx(old, rel=1e-15)


class TestSummationByParts:
    @pytest.mark.parametrize("grid", [
        line_grid(n=57, length=2.3),
        SpatialGrid.rectangle((1.7, 0.9), (13, 21)),
    ], ids=["1d", "2d"])
    def test_random_fields(self, grid):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = rng.standard_normal(grid.shape)
            g_ = rng.standard_normal(grid.shape)
            lhs = inner(grid, grid.laplacian(f), g_)
            rhs = inner(grid, f, grid.laplacian(g_))
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-11 * scale
            assert grid.h1_seminorm_sq(f) == pytest.approx(
                -inner(grid, grid.laplacian(f), f), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float64, 17,
                      elements=st.floats(-10, 10, allow_nan=False)))
    def test_property_1d(self, f):
        grid = line_grid(n=17, length=1.0)
        h1 = grid.h1_seminorm_sq(f)
        sbp = -inner(grid, grid.laplacian(f), f)
        assert h1 >= 0.0
        assert abs(h1 - sbp) <= 1e-10 * max(1.0, h1)


def pad_laplacian(grid, f):
    """The np.pad form of the stencil, kept as an oracle.  The axes are
    grouped by h_i^2 as the grid groups them: a group of g axes sums -2g f
    and each axis's neighbour before and after, in axis order, then divides
    once by h^2, and the groups' quotients are added.  With one axis a group
    (1-D, or unequal spacings) that is (lo - 2 mid + up) / h_i^2 per axis."""
    groups = {}
    for axis, hi in enumerate(grid.h):
        groups.setdefault(hi ** 2, []).append(axis)
    out = np.zeros_like(f)
    for h2, axes in groups.items():
        total = -2.0 * len(axes) * f
        for axis in axes:
            padded = np.pad(f, [(1, 1) if a == axis else (0, 0)
                                for a in range(grid.dim)])
            lo, up = ([slice(None)] * grid.dim for _ in range(2))
            lo[axis], up[axis] = slice(0, -2), slice(2, None)
            total = total + padded[tuple(lo)] + padded[tuple(up)]
        out += total / h2
    return out


def pad_h1_seminorm_sq(grid, f):
    """The np.pad/np.diff form of the edge sum, kept as an oracle."""
    total = 0.0
    for axis, hi in enumerate(grid.h):
        padded = np.pad(f, [(1, 1) if a == axis else (0, 0)
                            for a in range(grid.dim)])
        d = np.diff(padded, axis=axis) / hi
        total += float(np.sum(d * d)) * grid.cell_volume
    return total


@st.composite
def grid_and_field(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = tuple(draw(st.integers(3, 24)) for _ in range(dim))
    extents = tuple(draw(st.floats(0.1, 10.0)) for _ in range(dim))
    grid = SpatialGrid.rectangle(extents, n)
    f = draw(hnp.arrays(np.float64, n,
                        elements=st.floats(-10, 10, allow_nan=False)))
    return grid, f


def subnormal_slack(grid):
    """Bound on |h1 - pad oracle| from rounding below the normal range.

    There a product or quotient rounds to a multiple of the smallest
    subnormal s, an absolute error of up to s/2 whatever its size, so no
    relative bound holds.  Along axis i both forms square each of its E_i
    edge differences once: the slice form squares the difference and then
    scales the sum by cv/h_i^2, the oracle squares diff/h_i and scales by cv,
    so those errors reach the results as E_i * s/2 * cv * (1/h_i^2 + 1).
    Sums of subnormals are exact; the final scalings round three more times,
    up to s/2 each, which the + 2 per axis covers.  (The oracle's rounded
    diff/h_i moves its square by about |diff/h_i| * s, far below s.)
    """
    s = np.finfo(float).smallest_subnormal
    slack = 0.0
    for n_i, h_i in zip(grid.n, grid.h):
        edges = grid.size // n_i * (n_i + 1)
        slack += (edges * grid.cell_volume * (1.0 / h_i ** 2 + 1.0) / 2.0
                  + 2.0) * s
    return slack


class TestSliceStencils:
    @settings(max_examples=80, deadline=None)
    @given(grid_and_field())
    # squares in the subnormal range: 8e-323 against the oracle's 9e-323
    @example((SpatialGrid.rectangle((1.0,), (3,)),
              np.full(3, 3.38009884e-162)))
    def test_match_pad_oracle_and_sum_by_parts(self, case):
        grid, f = case
        lap = grid.laplacian(f)
        oracle = pad_laplacian(grid, f)
        scale = max(np.max(np.abs(oracle)), 1e-300)
        assert np.max(np.abs(lap - oracle)) <= 1e-13 * scale
        h1 = grid.h1_seminorm_sq(f)
        assert h1 == pytest.approx(pad_h1_seminorm_sq(grid, f), rel=1e-13,
                                   abs=subnormal_slack(grid))
        assert -inner(grid, lap, f) == pytest.approx(h1, rel=1e-12,
                                                     abs=1e-300)


@st.composite
def grid_and_field_2d(draw):
    n = (draw(st.integers(3, 12)), draw(st.integers(3, 12)))
    extents = (draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))
    f = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))
    return SpatialGrid.rectangle(extents, n), f


@settings(max_examples=80, deadline=None)
@given(grid_and_field_2d())
# equal spacings, where the grouped sum is 1-2 ulp from per-axis quotients
@example((SpatialGrid.rectangle((0.1, 0.1), (3, 3)), np.full((3, 3), 0.1)))
def test_flat_last_axis_matches_pad_oracle_bitwise(case):
    # the oracle subtracts 2f from a padded 0.0 at the boundary where the
    # stencil starts from -2f, so the two may differ in the sign of a zero
    # only; adding 0.0 maps -0.0 to 0.0 and leaves every other value as is
    grid, f = case
    lap = grid.laplacian(f)
    oracle = pad_laplacian(grid, f)
    np.testing.assert_array_equal((lap + 0.0).view(np.int64),
                                  (oracle + 0.0).view(np.int64))
    # a Fortran-order field is shifted in C order all the same
    np.testing.assert_array_equal(
        grid.laplacian(np.asfortranarray(f)).view(np.int64),
        lap.view(np.int64))


class TestLaplacianOut:
    @pytest.mark.parametrize("grid, shape", [
        (line_grid(n=9, length=1.3), (9,)),
        (SpatialGrid.rectangle((1.3, 0.7), (6, 7)), (6, 7)),
        (SpatialGrid.rectangle((1.3, 0.7), (6, 7)), (3, 6, 7)),
    ], ids=["1d", "2d", "stacked"])
    def test_out_is_returned_bit_for_bit(self, grid, shape):
        f = np.random.default_rng(3).standard_normal(shape)
        out = np.full(shape, np.nan)
        assert grid.laplacian(f, out=out) is out
        np.testing.assert_array_equal(out.view(np.int64),
                                      grid.laplacian(f).view(np.int64))

    def test_out_of_another_shape_is_rejected(self):
        grid = line_grid(n=9)
        with pytest.raises(GridError, match="out shape"):
            grid.laplacian(np.ones(9), out=np.empty((2, 9)))


BOUND_CASES = [
    (line_grid(n=9, length=1.3), (9,)),
    (SpatialGrid.rectangle((1.3, 0.7), (6, 7)), (6, 7)),
    (SpatialGrid.rectangle((1.3, 0.7), (6, 7)), (3, 6, 7)),
]


def bits(a):
    return a.view(np.int64)


@pytest.mark.parametrize("grid, shape", BOUND_CASES,
                         ids=["1d", "2d", "stacked"])
class TestBoundLaplacian:
    """The plan the grid keeps for its last (f, out) pair."""

    def test_f_changed_in_place_gives_a_fresh_result(self, grid, shape):
        rng = np.random.default_rng(5)
        f, out = rng.standard_normal(shape), np.empty(shape)
        grid.laplacian(f, out=out)
        for _ in range(3):
            f[...] = rng.standard_normal(shape)
            out[...] = np.nan
            assert grid.laplacian(f, out=out) is out
            np.testing.assert_array_equal(bits(out),
                                          bits(grid.laplacian(f.copy())))

    def test_second_pair_replaces_the_first(self, grid, shape):
        rng = np.random.default_rng(6)
        f, g = rng.standard_normal(shape), rng.standard_normal(shape)
        out, out2 = np.empty(shape), np.empty(shape)
        grid.laplacian(f, out=out)
        lap_f = out.copy()
        grid.laplacian(g, out=out2)
        assert grid._bound[0] is g and grid._bound[1] is out2
        np.testing.assert_array_equal(bits(out), bits(lap_f))
        # the same f into another out, and another f into the same out
        grid.laplacian(f, out=out2)
        np.testing.assert_array_equal(bits(out2), bits(lap_f))
        grid.laplacian(g, out=out)
        np.testing.assert_array_equal(bits(out), bits(grid.laplacian(g)))

    def test_no_plan_kept_without_out_or_for_a_converted_f(self, grid, shape):
        # an integer field is converted on every call, so no plan reads a
        # stale copy of it; a list likewise, and out=None keeps none
        rng = np.random.default_rng(7)
        f, out = rng.standard_normal(shape), np.empty(shape)
        grid.laplacian(f, out=out)
        bound = grid._bound
        ints = rng.integers(-9, 9, shape)
        for _ in range(2):
            np.testing.assert_array_equal(
                bits(grid.laplacian(ints, out=out)),
                bits(grid.laplacian(ints.astype(float))))
            ints[...] = rng.integers(-9, 9, shape)
        grid.laplacian(f.tolist(), out=out)
        assert grid.laplacian(f) is not out
        assert grid._bound is bound
        f *= 2.0
        np.testing.assert_array_equal(bits(grid.laplacian(f, out=out)),
                                      bits(grid.laplacian(f.copy())))

    def test_shape_checks_still_raise(self, grid, shape):
        f, out = np.ones(shape), np.empty(shape)
        grid.laplacian(f, out=out)
        with pytest.raises(GridError, match="out shape"):
            grid.laplacian(f, out=np.empty((2,) + shape))
        with pytest.raises(GridError, match="does not match grid"):
            grid.laplacian(np.ones(shape[:-1] + (shape[-1] + 1,)),
                           out=out)
        np.testing.assert_array_equal(grid.laplacian(f, out=out),
                                      grid.laplacian(f))


class TestSquareCellLaplacian:
    """A square-cell grid takes both axes into out in one group, so out's
    flat rows carry the shifted adds: each way of passing f and out must
    give the bits of one contiguous call."""

    grid = SpatialGrid.rectangle((1.3, 1.3), (7, 7))

    def test_stacked_fields_match_per_field_calls(self):
        f = np.random.default_rng(9).standard_normal((3, 7, 7))
        want = np.stack([self.grid.laplacian(g.copy()) for g in f])
        np.testing.assert_array_equal(bits(self.grid.laplacian(f)),
                                      bits(want))
        out = np.full(f.shape, np.nan)
        np.testing.assert_array_equal(bits(self.grid.laplacian(f, out=out)),
                                      bits(want))

    @pytest.mark.parametrize("layout", ["fortran", "strided", "stacked"])
    def test_non_contiguous_out_keeps_the_shifted_adds(self, layout):
        rng = np.random.default_rng(10)
        shape = (2, 7, 7) if layout == "stacked" else (7, 7)
        f = rng.standard_normal(shape)
        # each one's flat rows would be a copy
        out = {"fortran": np.asfortranarray(np.empty(shape)),
               "strided": np.empty((7, 8))[:, :7],
               "stacked": np.empty((2, 7, 8))[..., :7]}[layout]
        assert not np.may_share_memory(out.reshape(shape[:-2] + (-1,)), out)
        for _ in range(2):
            out[...] = np.nan
            assert self.grid.laplacian(f, out=out) is out
            np.testing.assert_array_equal(bits(out),
                                          bits(self.grid.laplacian(f)))
            f[...] = rng.standard_normal(shape)


def test_plan_of_a_fortran_order_field_is_not_kept():
    # its flat rows are a copy, which would not see f change
    grid = SpatialGrid.rectangle((1.3, 0.7), (6, 7))
    f = np.asfortranarray(np.random.default_rng(8).standard_normal((6, 7)))
    out = np.empty((6, 7))
    grid.laplacian(f, out=out)
    f[2, 3] += 1.0
    np.testing.assert_array_equal(bits(grid.laplacian(f, out=out)),
                                  bits(grid.laplacian(np.ascontiguousarray(f))))


@st.composite
def grid_and_normal_field(draw):
    """A 1-D or 2-D grid and a field whose nonzero values, and their
    products with the stencil's 1/h^2, stay normal doubles."""
    dim = draw(st.sampled_from([1, 2]))
    n = tuple(draw(st.integers(3, 16)) for _ in range(dim))
    extents = tuple(draw(st.floats(0.1, 10.0)) for _ in range(dim))
    mag = st.floats(1e-3, 1e3)
    f = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.just(0.0), mag, mag.map(lambda x: -x))))
    return SpatialGrid.rectangle(extents, n), f


@settings(max_examples=80, deadline=None)
@given(grid_and_normal_field())
def test_h1_by_parts_matches_edge_sum(case):
    # the step's ||grad u||^2 = -<lap u, u>, one dot product given lap u
    grid, f = case
    h1 = grid.h1_by_parts(f, grid.laplacian(f))
    assert h1 == pytest.approx(grid.h1_seminorm_sq(f), rel=1e-13, abs=0.0)
    zero = grid.zeros()
    h1 = grid.h1_by_parts(zero, grid.laplacian(zero))
    assert h1 == 0.0 and math.copysign(1.0, h1) == 1.0


class TestPoisson:
    def test_zero_rhs(self):
        g = line_grid(n=30)
        assert np.all(g.poisson_solve(g.zeros()) == 0.0)

    def test_sine_eigenpair(self):
        g = line_grid(n=400)
        f = np.sin(g.coords()[0])
        sol = g.poisson_solve(f)
        assert np.max(np.abs(sol - f)) <= 5 * g.h[0] ** 2

    @pytest.mark.parametrize("grid", [
        line_grid(n=90, length=1.3),
        SpatialGrid.rectangle((1.0, 1.0), (25, 25)),
        line_grid(n=800),
        SpatialGrid.rectangle((math.pi, math.pi), (64, 64)),
    ], ids=["1d", "2d", "1d-800", "2d-64"])
    def test_residual_contract(self, grid):
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal(grid.shape)
        sol = grid.poisson_solve(rhs)
        res = -grid.laplacian(sol) - rhs
        rel = math.sqrt(grid.lp_norm_pow(res, 2.0)
                        / grid.lp_norm_pow(rhs, 2.0))
        assert rel <= 1e-12

    @pytest.mark.parametrize("grid, gamma", [
        (line_grid(n=200), 0.8375110887374386),
        (SpatialGrid.rectangle((math.pi, math.pi), (64, 64)),
         0.5056694587228651),
    ], ids=["1d-200", "2d-64"])
    def test_well_constant(self, grid, gamma):
        # reference values from a banded (1-D) and sparse LU (2-D) direct solve
        assert wellconst.sobolev_gamma(grid, 3.0) == pytest.approx(gamma,
                                                                   rel=1e-12)

    def test_first_eigenmode_shape(self):
        g = line_grid(n=99)
        mode = g.sine_mode((1,))
        assert mode.shape == g.shape
        assert np.all(mode > 0)

    @pytest.mark.parametrize("grid", [
        line_grid(n=60, length=1.3),
        SpatialGrid.rectangle((1.0, 2.5), (12, 10)),
        SpatialGrid.rectangle((math.pi, 0.7), (9, 12)),
    ], ids=["1d", "2d-12x10", "2d-9x12"])
    def test_sine_solve_product_order(self, grid):
        # gamma's bits depend on the order of the products: S_0 from the
        # left, then S_1 from the right, as written out here
        bases, lam = grid._sine_basis
        rhs = np.random.default_rng(4).standard_normal(grid.shape)

        def transform(f):
            return bases[0] @ f if len(bases) == 1 else bases[0] @ f @ bases[1]

        expected = transform(transform(rhs) / lam)
        np.testing.assert_array_equal(grid._sine_solve(rhs).view(np.int64),
                                      expected.view(np.int64))


@st.composite
def grid_field_and_modes(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = tuple(draw(st.integers(3, 16)) for _ in range(dim))
    extents = tuple(draw(st.floats(0.1, 10.0)) for _ in range(dim))
    f = draw(hnp.arrays(np.float64, n,
                        elements=st.floats(-10, 10, allow_nan=False)))
    modes = tuple(draw(st.integers(1, k)) for k in n)
    return SpatialGrid.rectangle(extents, n), f, modes


# Bounds of TestEveryDimension, each about 10x the largest value measured
# over 20,000 draws of grid_field_and_modes: relative |h1_by_parts -
# h1_seminorm_sq| 1.3e-15; Poisson residual max|-lap sol - rhs| / max|rhs|
# 1.8e-14; eigen-residual max|-lap phi - lam phi| / (lam max|phi|) 3.9e-14;
# max|phi - product of scaled basis columns| 1.3e-14.  The 1e-300 floor
# covers fields whose squares or solutions fall below the normal range.
SBP_REL, POISSON_REL, EIGEN_REL, BASIS_ABS = 1e-14, 2e-13, 4e-13, 1.3e-13


class TestEveryDimension:
    """One code path serves every dimension: on random 1-D and 2-D grids,
    non-square with mixed extents, summation by parts, the Poisson solve
    and the sine modes hold alike."""

    @settings(max_examples=100, deadline=None)
    @given(grid_field_and_modes())
    def test_operators(self, case):
        grid, f, modes = case
        h1 = grid.h1_seminorm_sq(f)
        by_parts = grid.h1_by_parts(f, grid.laplacian(f))
        assert abs(by_parts - h1) <= SBP_REL * h1 + 1e-300
        residual = -grid.laplacian(grid.poisson_solve(f)) - f
        assert np.max(np.abs(residual)) <= (POISSON_REL * np.max(np.abs(f))
                                            + 1e-300)
        # sine_mode(k) is column k of each axis's sine matrix, unscaled,
        # and an eigenvector of -laplacian with _sine_basis's eigenvalue
        bases, lam = grid._sine_basis
        phi, lam_k = grid.sine_mode(modes), lam[tuple(k - 1 for k in modes)]
        columns = [S[:, k - 1] * math.sqrt((n_i + 1) / 2.0)
                   for S, k, n_i in zip(bases, modes, grid.n)]
        product = np.prod(np.meshgrid(*columns, indexing="ij"), axis=0)
        assert np.max(np.abs(phi - product)) <= BASIS_ABS
        eigen_residual = -grid.laplacian(phi) - lam_k * phi
        assert np.max(np.abs(eigen_residual)) <= (EIGEN_REL * lam_k
                                                  * np.max(np.abs(phi)))

    def test_sine_mode_needs_one_mode_per_axis(self):
        with pytest.raises(GridError, match="one mode number per grid axis"):
            SpatialGrid.rectangle((1.0, 1.0), (5, 6)).sine_mode((1,))


@given(n=st.integers(0, 5000), at=st.integers(0, 5000),
       rows=st.one_of(st.none(), st.integers(1, 4)))
def test_aligned_buffer_puts_element_at_on_a_cache_line(n, at, rows):
    # a flat buffer of n doubles, or a (rows, n) one, whose flat element at
    # starts a 64-byte line: a store into it that begins there is whole
    # lines, which on 64 x 64 fields runs about 80% faster than one off them.
    # An empty buffer has no line to start
    shape = n if rows is None else (rows, n)
    a = aligned(shape, at)
    assert a.shape == np.empty(shape).shape and a.dtype == np.float64
    assert a.flags.c_contiguous and a.flags.writeable
    assert not n or (a.ctypes.data + 8 * at) % 64 == 0, (
        "element at starts off a 64-byte line: stores into it split lines")
    b = aligned(shape, at)
    assert not np.may_share_memory(a, b)
