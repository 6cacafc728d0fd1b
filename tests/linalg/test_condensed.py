"""Condensed plane factorization: ``DirectSolver(spd=True)`` eliminates a
leading diagonal block exactly ahead of the LU, and
``ReducedPlaneSystem`` orders the between-pillar nodes first so that the
block exists.  Every solve must agree with a plain symmetric LU of the
same matrix."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.bench.circuits import build_circuit
from repro.core.planes import ReducedPlaneSystem, condensable_nodes
from repro.errors import SingularSystemError
from repro.grid.generators import random_tsv_positions, synthesize_stack
from repro.linalg.direct import CONDENSE_MIN_SHARE, DirectSolver

RTOL = 1e-12


def plain_lu(matrix):
    """The whole-matrix symmetric LU the condensed path replaces."""
    return spla.splu(
        sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0, options={"SymmetricMode": True},
    )


def assert_matches_plain_lu(solver, matrix, rng, k):
    reference = plain_lu(matrix)
    n = matrix.shape[0]
    for b in (rng.normal(size=n), np.asfortranarray(rng.normal(size=(n, k)))):
        for trans in ("N", "T"):
            expected = reference.solve(b, trans=trans)
            actual = solver.solve(b, trans=trans)
            assert actual.shape == expected.shape
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(actual - expected)) <= RTOL * scale


def free_block(planes, tier):
    matrix = planes.planes[tier][0]
    return matrix[planes.free][:, planes.free]


def layout_stack(layout, rows, cols, tiers, seed):
    if layout == "random":
        positions = random_tsv_positions(rows, cols, rows * cols // 4, rng=seed)
        extra = {"tsv_positions": positions}
    else:
        extra = {"tsv_pitch": int(layout[-1])}
    # Jittered wires give every tier its own matrix and factorization.
    return synthesize_stack(
        rows, cols, tiers, jitter_sigma=0.1, rng=seed, **extra
    )


@settings(max_examples=30, deadline=None)
@given(
    layout=st.sampled_from(["pitch2", "pitch3", "pitch4", "random"]),
    rows=st.integers(6, 20),
    cols=st.integers(6, 20),
    tiers=st.integers(2, 4),
    k=st.integers(2, 6),
    seed=st.integers(0, 10_000),
)
def test_plane_solves_match_a_plain_symmetric_lu(layout, rows, cols, tiers, k, seed):
    stack = layout_stack(layout, rows, cols, tiers, seed)
    planes = ReducedPlaneSystem(stack)
    if layout == "pitch2":
        assert planes.a_ff[0].n_eliminated > 0  # the condensed path runs
    rng = np.random.default_rng(seed)
    for tier in sorted(set(planes.groups)):
        assert_matches_plain_lu(planes.a_ff[tier], free_block(planes, tier), rng, k)


def spd_with_diagonal_lead(n, lead, density, rng):
    """A symmetric diagonally dominant M-matrix whose first ``lead`` rows
    and columns carry no off-diagonal entry among themselves."""
    upper = sp.triu(sp.random(n, n, density=density, random_state=rng), k=1)
    upper = upper.tocoo()
    keep = (upper.row >= lead) | (upper.col >= lead)
    off = sp.coo_matrix(
        (-upper.data[keep], (upper.row[keep], upper.col[keep])), shape=(n, n)
    )
    off = (off + off.T).tocsr()
    diagonal = np.abs(off).sum(axis=1).A1 + rng.uniform(0.1, 1.0, size=n)
    return (off + sp.diags(diagonal)).tocsr()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    share=st.floats(0.0, 1.0),
    density=st.floats(0.0, 0.4),
    k=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_leading_diagonal_block_is_eliminated_exactly(n, share, density, k, seed):
    rng = np.random.default_rng(seed)
    matrix = spd_with_diagonal_lead(n, int(share * n), density, rng)
    solver = DirectSolver(matrix, spd=True)
    eliminated = solver.n_eliminated
    if eliminated:
        assert eliminated >= CONDENSE_MIN_SHARE * n
        lead = matrix[:eliminated, :eliminated]
        assert lead.nnz == np.count_nonzero(lead.diagonal())
    assert_matches_plain_lu(solver, matrix, rng, k)


@pytest.fixture(scope="module")
def c1_planes():
    return ReducedPlaneSystem(build_circuit("C1"))


def test_c1_lu_sees_only_the_pillar_cell_centres(c1_planes):
    solver = c1_planes.a_ff[0]
    k = solver.n_eliminated
    assert (solver.n, k, solver.n - k) == (22_360, 14_964, 7_396)
    lead = free_block(c1_planes, 0)[:k, :k]
    assert lead.nnz == k
    assert sp.triu(lead, k=1).nnz == 0 and sp.tril(lead, k=-1).nnz == 0
    assert solver.factor_nnz < 350_234  # the whole LU's fill on C1


def test_factor_nnz_counts_lu_coupling_blocks_and_pivots():
    planes = ReducedPlaneSystem(synthesize_stack(24, 24, 2, rng=3))
    solver = planes.a_ff[0]
    k = solver.n_eliminated
    assert k > 0
    a_ff = free_block(planes, 0).tocsr()
    b_block, c_block = a_ff[:k, k:], a_ff[k:, :k]
    d_inv = sp.diags(1.0 / a_ff.diagonal()[:k])
    schur = a_ff[k:, k:] - c_block @ d_inv @ b_block
    expected = plain_lu(schur).nnz + b_block.nnz + c_block.nnz + k
    assert solver.factor_nnz == expected


@pytest.mark.parametrize("trans", ["N", "T"])
def test_c1_wide_solve_matches_its_single_columns(c1_planes, trans):
    """Each column of an 8-column solve is bitwise its own 1-column solve
    (the batched engines rely on it)."""
    solver = c1_planes.a_ff[0]
    b = np.random.default_rng(1).normal(size=(solver.n, 8))
    wide = solver.solve(b, trans=trans)
    for k in range(b.shape[1]):
        assert np.array_equal(solver.solve(b[:, k].copy(), trans=trans), wide[:, k])


@pytest.fixture(scope="module", params=[2, 3], ids=["pitch2-condensed", "pitch3-whole-lu"])
def pitch_planes(request):
    planes = ReducedPlaneSystem(synthesize_stack(18, 18, 2, tsv_pitch=request.param, rng=4))
    assert (planes.a_ff[0].n_eliminated > 0) == (request.param == 2)
    return planes


class TestLayoutNeverChangesTheBits:
    """The condensed solve works row-major; C-ordered, Fortran-ordered and
    1-D right-hand sides, wide or one column at a time, give the same
    bits, and no solve writes into its input."""

    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_orders_and_widths(self, pitch_planes, trans):
        solver = pitch_planes.a_ff[0]
        b = np.random.default_rng(7).normal(size=(solver.n, 5))
        kept = b.copy()
        wide = solver.solve(b, trans=trans)
        assert np.array_equal(solver.solve(np.asfortranarray(b), trans=trans), wide)
        for k in range(b.shape[1]):
            assert np.array_equal(solver.solve(b[:, k].copy(), trans=trans), wide[:, k])
            narrow = solver.solve(b[:, k : k + 1], trans=trans)
            assert np.array_equal(narrow[:, 0], wide[:, k])
        assert np.array_equal(b, kept)

    @pytest.mark.parametrize("zero_pillars", [False, True])
    def test_scaled_solve_free_per_column_and_inputs_kept(self, pitch_planes, zero_pillars):
        rng = np.random.default_rng(8)
        b_free = rng.normal(size=(pitch_planes.n_free, 4))
        pillar_v = rng.normal(size=(pitch_planes.n_pillars, 4)) * (not zero_pillars)
        scale = np.array([1.0, 0.8, 1.25, 1.5])
        kept = (b_free.copy(), pillar_v.copy())
        for trans in ("N", "T"):
            wide = pitch_planes.solve_free(
                1, pillar_v, b_free=b_free, scale=scale, trans=trans
            )
            for k in range(4):
                one = pitch_planes.solve_free(
                    1, pillar_v[:, k : k + 1], b_free=b_free[:, k : k + 1],
                    scale=scale[k : k + 1], trans=trans,
                )
                assert np.array_equal(one[:, 0], wide[:, k])
        assert np.array_equal(b_free, kept[0]) and np.array_equal(pillar_v, kept[1])


class TestEdgeCases:
    def test_diagonal_matrix_needs_no_lu(self):
        d = np.array([2.0, 4.0, 0.5])
        solver = DirectSolver(sp.diags(d), spd=True)
        assert solver.n_eliminated == 3
        assert solver.factor_nnz == 3
        b = np.array([1.0, 2.0, 3.0])
        for trans in ("N", "T"):
            assert np.array_equal(solver.solve(b, trans=trans), b / d)
        cols = np.ones((3, 2))
        assert np.array_equal(solver.solve(cols), cols / d[:, None])

    def test_one_by_one(self):
        solver = DirectSolver(sp.csr_matrix([[4.0]]), spd=True)
        assert solver.n_eliminated == 1
        assert solver.solve(np.array([2.0]))[0] == 0.5

    def test_empty_column_batch(self, small_stack):
        solver = ReducedPlaneSystem(small_stack).a_ff[0]
        assert solver.n_eliminated > 0
        x = solver.solve(np.empty((solver.n, 0)))
        assert x.shape == (solver.n, 0)

    @pytest.mark.parametrize("pivot", [0.0, np.nan, np.inf])
    def test_bad_pivot_raises_at_construction(self, small_stack, pivot):
        planes = ReducedPlaneSystem(small_stack)
        a_ff = free_block(planes, 0).tolil()
        a_ff[1, 1] = pivot
        with pytest.raises(SingularSystemError, match="pivot"):
            DirectSolver(a_ff.tocsr(), spd=True)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
def test_condensable_nodes_are_free_sparse_and_independent(rows, cols, seed):
    free = np.random.default_rng(seed).random((rows, cols)) < 0.6
    lead = condensable_nodes(rows, cols, free.ravel()).reshape(rows, cols)
    assert not (lead & ~free).any()
    padded = np.pad(free, 1)
    degree = (
        padded[:-2, 1:-1].astype(int) + padded[2:, 1:-1]
        + padded[1:-1, :-2] + padded[1:-1, 2:]
    )
    assert (degree[lead] <= 2).all()
    assert not (lead[1:] & lead[:-1]).any()
    assert not (lead[:, 1:] & lead[:, :-1]).any()


def test_condensable_nodes_at_pitch_two_lie_between_pillars():
    stack = synthesize_stack(9, 9, 1, rng=0)
    free = ~stack.pillar_mask()
    lead = condensable_nodes(9, 9, free.ravel()).reshape(9, 9)
    i, j = np.indices((9, 9))
    assert np.array_equal(lead, (i + j) % 2 == 1)
