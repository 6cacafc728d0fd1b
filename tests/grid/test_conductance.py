"""Tests for sparse conductance-matrix assembly.

The key invariants: symmetry, positive semi-definite Laplacian structure
(row sums equal the rail conductance), and agreement with hand-computed
tiny circuits.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.errors import GridError
from repro.grid.conductance import (
    _laplacian_from_edges,
    grid2d_matrix,
    grid2d_system,
    stack_node_index,
    stack_system,
    stack_voltage_array,
    tier_edges,
)
from repro.grid.generators import synthesize_stack
from repro.grid.grid2d import Grid2D
from repro.grid.validate import validate_grid2d


class TestTierEdges:
    def test_edge_count(self):
        grid = Grid2D.uniform(3, 4)
        u, v, g = tier_edges(grid)
        assert u.size == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_single_node_no_edges(self):
        u, v, g = tier_edges(Grid2D.uniform(1, 1))
        assert u.size == 0


class TestGrid2DMatrix:
    def test_symmetry(self):
        grid = Grid2D.uniform(4, 5)
        grid.g_pad[0, 0] = 10.0
        matrix, _ = grid2d_matrix(grid)
        assert (matrix - matrix.T).nnz == 0

    def test_row_sums_equal_pad_conductance(self):
        grid = Grid2D.uniform(4, 5)
        grid.g_pad[0, 0] = 10.0
        grid.g_pad[3, 4] = 2.0
        matrix, _ = grid2d_matrix(grid)
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        assert np.allclose(row_sums, grid.g_pad.ravel())

    def test_two_node_divider(self):
        """Two nodes, 1 ohm wire, pad on node 0 at 1 V, 1 A load on node 1:
        v0 = 1 - 0.01 (pad drop), v1 = v0 - 1.0."""
        grid = Grid2D.uniform(1, 2, r_wire=1.0)
        grid.g_pad[0, 0] = 100.0
        grid.v_pad = 1.0
        grid.loads[0, 1] = 1.0
        matrix, rhs = grid2d_matrix(grid)
        x = spla.spsolve(matrix.tocsc(), rhs)
        assert x[0] == pytest.approx(1.0 - 1.0 / 100.0)
        assert x[1] == pytest.approx(x[0] - 1.0)

    def test_rhs_carries_loads(self):
        grid = Grid2D.uniform(2, 2)
        grid.loads[0, 0] = 0.5
        _, rhs = grid2d_matrix(grid)
        assert rhs[0] == -0.5


def edge_laplacian(grid: Grid2D):
    """The tier Laplacian assembled from its edge list, as
    :func:`stack_system` assembles the whole stack."""
    return _laplacian_from_edges(
        grid.n_nodes, *tier_edges(grid), grid.g_pad.ravel()
    )


def assert_same_csr(actual, expected):
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        assert a.tobytes() == e.tobytes(), name


#: Conductances with open wires (zeros) among them.
conductances = st.one_of(
    st.just(0.0), st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
)


@st.composite
def tiers(draw, max_side: int = 6) -> Grid2D:
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))

    def field(shape):
        values = draw(st.lists(conductances, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        return np.array(values, dtype=float).reshape(shape)

    grid = Grid2D(
        rows=rows, cols=cols,
        g_h=field((rows, max(cols - 1, 0))),
        g_v=field((max(rows - 1, 0), cols)),
    )
    if draw(st.booleans()):
        grid.g_pad = field((rows, cols))
        grid.v_pad = 1.8
    return grid


class TestStencilAssembly:
    """``grid2d_matrix`` writes the 5-point stencil straight into CSR;
    it must be bitwise the edge-list Laplacian it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(grid=tiers())
    def test_bitwise_equal_to_the_edge_laplacian(self, grid):
        assert_same_csr(grid2d_matrix(grid)[0], edge_laplacian(grid))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2)])
    @pytest.mark.parametrize("pads", [False, True])
    def test_degenerate_lattices(self, shape, pads, rng):
        grid = Grid2D.uniform(*shape)
        grid.g_h = grid.g_h * rng.uniform(0.5, 2.0, grid.g_h.shape)
        grid.g_v = grid.g_v * rng.uniform(0.5, 2.0, grid.g_v.shape)
        if grid.g_h.size:
            grid.g_h[0, 0] = 0.0
        if pads:
            grid.g_pad[0, 0] = 4.0
        assert_same_csr(grid2d_matrix(grid)[0], edge_laplacian(grid))

    def test_zeros_kept_without_pads_dropped_with_them(self):
        grid = Grid2D.uniform(3, 3)
        grid.g_h[1, 0] = 0.0
        assert grid2d_matrix(grid)[0].nnz == 5 * 9 - 4 * 3
        grid.g_pad[0, 0] = 1.0
        matrix, _ = grid2d_matrix(grid)
        assert matrix.nnz == 5 * 9 - 4 * 3 - 2
        assert np.all(matrix.data != 0)

    def test_validate_flags_an_island_cut_off_by_an_open_wire(self):
        grid = Grid2D.uniform(4, 4)
        grid.g_pad[0, 0] = 10.0
        grid.g_h[3, 2] = 0.0  # isolate the bottom-right corner node
        grid.g_v[2, 3] = 0.0
        report = validate_grid2d(grid)
        assert "1 of 2 connected components have no path to a pad" in (
            report.errors
        )


class TestGrid2DSystem:
    def test_no_mask_returns_full(self):
        grid = Grid2D.uniform(3, 3)
        a, b, free = grid2d_system(grid)
        assert a.shape == (9, 9)
        assert free.size == 9

    def test_dirichlet_reduction(self):
        grid = Grid2D.uniform(3, 3, r_wire=1.0)
        grid.loads[:] = 1e-3
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        values = np.full((3, 3), 2.0)
        a, b, free = grid2d_system(grid, mask, values)
        assert a.shape == (8, 8)
        x = spla.spsolve(a.tocsc(), b)
        # Reconstruct the full field and check KCL at a free node.
        full = np.empty(9)
        full[free] = x
        full[4] = 2.0
        matrix, rhs = grid2d_matrix(grid)
        residual = matrix @ full - rhs
        residual_free = np.delete(residual, 4)
        assert np.max(np.abs(residual_free)) < 1e-12

    def test_dirichlet_without_values_raises(self):
        grid = Grid2D.uniform(3, 3)
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(GridError):
            grid2d_system(grid, mask, None)


class TestStackSystem:
    def test_index_layout(self, small_stack):
        assert stack_node_index(small_stack, 0, 0, 0) == 0
        assert stack_node_index(small_stack, 1, 0, 0) == 64
        assert stack_node_index(small_stack, 2, 7, 7) == 3 * 64 - 1

    def test_index_bounds(self, small_stack):
        with pytest.raises(GridError):
            stack_node_index(small_stack, 3, 0, 0)

    def test_symmetry(self, small_stack):
        matrix, _ = stack_system(small_stack)
        assert abs(matrix - matrix.T).max() < 1e-14

    def test_row_sums_equal_pin_conductance(self, small_stack):
        matrix, _ = stack_system(small_stack)
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        per_tier = small_stack.rows * small_stack.cols
        expected = np.zeros(small_stack.n_nodes)
        top = (small_stack.n_tiers - 1) * per_tier
        flat = small_stack.pillar_flat_indices()
        expected[top + flat] = 1.0 / small_stack.pillars.r_seg[-1]
        assert np.allclose(row_sums, expected)

    def test_zero_loads_give_flat_vdd(self):
        stack = synthesize_stack(6, 6, 3, current_per_node=0.0, rng=0)
        matrix, rhs = stack_system(stack)
        x = spla.spsolve(matrix.tocsc(), rhs)
        assert np.allclose(x, stack.v_pin)

    def test_voltages_below_vdd_with_loads(self, small_stack):
        matrix, rhs = stack_system(small_stack)
        x = spla.spsolve(matrix.tocsc(), rhs)
        assert np.all(x < small_stack.v_pin + 1e-12)
        assert np.all(x > 0)

    def test_gnd_net_bounce_positive(self):
        stack = synthesize_stack(6, 6, 3, net="gnd", rng=0)
        matrix, rhs = stack_system(stack)
        x = spla.spsolve(matrix.tocsc(), rhs)
        assert np.all(x >= -1e-12)  # ground bounce raises voltages
        assert x.max() > 0

    def test_pin_subset_changes_rhs(self):
        full = synthesize_stack(6, 6, 3, rng=0)
        subset = synthesize_stack(6, 6, 3, pin_fraction=0.5, rng=0)
        _, rhs_full = stack_system(full)
        _, rhs_sub = stack_system(subset)
        assert rhs_full.sum() > rhs_sub.sum()

    def test_voltage_array_shape(self, small_stack):
        matrix, rhs = stack_system(small_stack)
        x = spla.spsolve(matrix.tocsc(), rhs)
        cube = stack_voltage_array(small_stack, x)
        assert cube.shape == (3, 8, 8)
        with pytest.raises(GridError):
            stack_voltage_array(small_stack, x[:-1])


class TestSuperposition:
    """The nodal system is linear: scaling all loads scales all drops."""

    @settings(max_examples=10, deadline=None)
    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    def test_load_scaling_scales_drops(self, scale):
        stack = synthesize_stack(5, 5, 2, rng=1)
        matrix, rhs = stack_system(stack)
        x1 = spla.spsolve(matrix.tocsc(), rhs)

        scaled = stack.copy()
        for tier in scaled.tiers:
            tier.loads = tier.loads * scale
        matrix2, rhs2 = stack_system(scaled)
        x2 = spla.spsolve(matrix2.tocsc(), rhs2)

        drops1 = stack.v_pin - x1
        drops2 = scaled.v_pin - x2
        assert np.allclose(drops2, scale * drops1, atol=1e-9)
