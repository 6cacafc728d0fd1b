"""ReducedPlaneSystem solve entries against dense oracles, and its
byte accounting.

The adjoint and ECO engines leans on two properties of the cached plane
factors: transpose back-substitution must be exact against the dense
``A_ff^T`` solve for *multi-column* right-hand sides, and the
zero-pillar fast path of :meth:`reduced_rhs` (taken by every low-rank
``Z`` and correction solve) must be bit-compatible with the general
path.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core.planes import ReducedPlaneSystem, condensable_nodes, plane_blocks
from repro.core.tsv import plane_matrices
from repro.core.vp import solve_vp
from repro.errors import SingularSystemError
from repro.grid.generators import synthesize_stack


def dense_blocks(planes, tier):
    matrix = planes.planes[tier][0]
    a_ff = matrix[planes.free][:, planes.free].toarray()
    a_fp = matrix[planes.free][:, planes.pillar_flat].toarray()
    return a_ff, a_fp


def same_csr(actual, expected) -> bool:
    return actual.shape == expected.shape and all(
        getattr(actual, name).dtype == getattr(expected, name).dtype
        and getattr(actual, name).tobytes() == getattr(expected, name).tobytes()
        for name in ("indptr", "indices", "data")
    )


@st.composite
def open_wire_stacks(draw):
    """Pitch-2 and pitch-3 stacks whose tiers may carry open wires
    (zero conductances) and in-plane pads."""
    rows, cols = draw(st.integers(4, 11)), draw(st.integers(4, 11))
    stack = synthesize_stack(
        rows, cols, draw(st.integers(1, 3)),
        tsv_pitch=draw(st.sampled_from([2, 3])),
        replicate_tier=draw(st.booleans()),
        rng=draw(st.integers(0, 2**16)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    open_share = draw(st.sampled_from([0.0, 0.1, 0.3]))
    for tier in stack.tiers:
        tier.g_h = np.where(rng.random(tier.g_h.shape) < open_share, 0.0, tier.g_h)
        tier.g_v = np.where(rng.random(tier.g_v.shape) < open_share, 0.0, tier.g_v)
        if draw(st.booleans()):
            tier.g_pad = np.where(rng.random((rows, cols)) < 0.2, 3.0, 0.0)
    return stack


class TestPlaneBlocks:
    """The plane blocks are gathered through index maps; they must be
    the three slices of the plane matrix bit for bit, in the natural and
    in the condensed free order."""

    @settings(max_examples=60, deadline=None)
    @given(stack=open_wire_stacks())
    def test_equal_to_the_slices(self, stack):
        free_mask = ~stack.pillar_mask().ravel()
        lead = condensable_nodes(stack.rows, stack.cols, free_mask)
        natural = np.flatnonzero(free_mask)
        condensed = np.concatenate(
            (np.flatnonzero(lead), np.flatnonzero(free_mask & ~lead))
        )
        pillars = stack.pillar_flat_indices()
        matrices = [matrix for matrix, _ in plane_matrices(stack)]
        for free in (natural, condensed):
            for matrix in matrices:
                expected = (
                    matrix[free][:, free],
                    matrix[free][:, pillars],
                    matrix[pillars, :],
                )
                blocks = plane_blocks(matrix, stack.rows, stack.cols, free, pillars)
                assert all(map(same_csr, blocks, expected))
        # A free node cut off on every side (no pad) makes its plane
        # singular: the system refuses it instead of dividing by zero.
        if any((matrix.diagonal()[natural] == 0).any() for matrix in matrices):
            with pytest.raises(SingularSystemError, match="every wire open"):
                ReducedPlaneSystem(stack, factorize=False)
            return
        system = ReducedPlaneSystem(stack, factorize=False)
        assert np.array_equal(system.free, natural)
        for l, matrix in enumerate(matrices):
            assert same_csr(system.a_ff[l], matrix[natural][:, natural])

    def test_factored_system_holds_the_slices(self, small_stack):
        system = ReducedPlaneSystem(small_stack, factorize=True)
        free, pillars = system.free, system.pillar_flat
        assert not np.array_equal(free, np.sort(free))  # condensed order
        for l, (matrix, _) in enumerate(system.planes):
            assert same_csr(system.a_fp[l], matrix[free][:, pillars])
            assert same_csr(system.a_pillar[l], matrix[pillars, :])


class TestTransposeSolveMultiColumn:
    def test_matches_dense_transpose_oracle(self, small_stack, rng):
        planes = ReducedPlaneSystem(small_stack, factorize=True)
        for tier in range(small_stack.n_tiers):
            a_ff, a_fp = dense_blocks(planes, tier)
            pillar_v = rng.normal(size=(planes.n_pillars, 4))
            b_free = rng.normal(size=(planes.n_free, 4))
            x = planes.solve_free_transpose(
                tier, pillar_v, b_free=b_free
            )
            expected = np.linalg.solve(a_ff.T, b_free - a_fp @ pillar_v)
            assert np.allclose(x, expected, rtol=1e-10, atol=1e-12)

    def test_forward_and_transpose_satisfy_the_adjoint_identity(
        self, small_stack, rng
    ):
        planes = ReducedPlaneSystem(small_stack, factorize=True)
        zeros = np.zeros((planes.n_pillars, 3))
        x = rng.normal(size=(planes.n_free, 3))
        y = rng.normal(size=(planes.n_free, 3))
        forward = planes.solve_free(0, zeros, b_free=x)
        adjoint = planes.solve_free_transpose(0, zeros, b_free=y)
        # <A^{-1} x, y> == <x, A^{-T} y>, column-wise.
        assert np.allclose(
            np.einsum("ns,ns->s", forward, y),
            np.einsum("ns,ns->s", x, adjoint),
            rtol=1e-10,
        )


class TestReducedRhsZeroPillarFastPath:
    def test_zero_pillar_voltage_skips_nothing_numerically(
        self, small_stack, rng
    ):
        planes = ReducedPlaneSystem(small_stack, factorize=True)
        b_free = rng.normal(size=(planes.n_free, 5))
        zeros = np.zeros((planes.n_pillars, 5))
        fast = planes.reduced_rhs(0, zeros, b_free=b_free)
        a_ff, a_fp = dense_blocks(planes, 0)
        # The coupling term vanishes exactly; the fast path must return
        # the RHS bit-for-bit (the ECO engine's parity depends on it).
        assert np.array_equal(fast, b_free)
        eps = np.full_like(zeros, 1e-9)
        general = planes.reduced_rhs(0, eps, b_free=b_free)
        assert np.allclose(general, b_free - a_fp @ eps, atol=1e-15)
        # Both paths hand the solve a row-major RHS: the condensed solve's
        # coupling products read its row blocks without a copy.
        assert fast.flags.c_contiguous and general.flags.c_contiguous
        f_ordered = planes.reduced_rhs(0, zeros, b_free=np.asfortranarray(b_free))
        assert f_ordered.flags.c_contiguous
        assert np.array_equal(f_ordered, b_free)

    def test_solve_free_agrees_between_paths(self, small_stack, rng):
        planes = ReducedPlaneSystem(small_stack, factorize=True)
        b_free = rng.normal(size=(planes.n_free, 3))
        zeros = np.zeros((planes.n_pillars, 3))
        via_fast = planes.solve_free(0, zeros, b_free=b_free)
        a_ff, _ = dense_blocks(planes, 0)
        assert np.allclose(
            via_fast, np.linalg.solve(a_ff, b_free), rtol=1e-10
        )


class TestFloatingFreeNode:
    """A free node with every wire open and no pad leaves its plane
    singular.  Both the factored and the ``cg`` path refuse it when the
    system is built, naming the tier and the node, instead of the ``cg``
    path's Jacobi preconditioner dividing by zero."""

    @pytest.fixture
    def floating_stack(self):
        stack = synthesize_stack(8, 8, 2, rng=1)
        tier = stack.tiers[0]
        assert not stack.pillar_mask()[1, 1] and not tier.g_pad.any()
        tier.g_h[1, 0] = tier.g_h[1, 1] = 0.0
        tier.g_v[0, 1] = tier.g_v[1, 1] = 0.0
        return stack

    @pytest.mark.parametrize("factorize", [True, False])
    def test_construction_names_tier_and_node(self, floating_stack, factorize):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match=r"tier 0: free node \(1, 1\)"):
                ReducedPlaneSystem(floating_stack, factorize=factorize)

    @pytest.mark.parametrize("inner", ["direct", "cg"])
    def test_solve_vp_fails_at_once(self, floating_stack, inner):
        with pytest.raises(SingularSystemError, match=r"free node \(1, 1\)"):
            solve_vp(floating_stack, inner=inner)


def held_arrays(system) -> dict[int, np.ndarray]:
    """Every ndarray the system keeps (sparse matrices by their index
    and value arrays), keyed by identity.  Factors report their own
    estimate and the stack belongs to the caller, so both are skipped."""
    found: dict[int, np.ndarray] = {}

    def walk(obj):
        if isinstance(obj, np.ndarray):
            found[id(obj)] = obj
        elif sp.issparse(obj):
            for part in (obj.data, obj.indices, obj.indptr):
                found[id(part)] = part
        elif isinstance(obj, list | tuple):
            for item in obj:
                walk(item)

    for name, value in vars(system).items():
        if name != "stack":
            walk(value)
    return found


class TestMemoryBytes:
    def test_counts_every_array_the_system_holds(self, small_stack):
        for factorize in (True, False):
            system = ReducedPlaneSystem(small_stack, factorize=factorize)
            arrays = held_arrays(system)
            # The full plane matrices (the dense oracle tests read) are
            # among them.
            assert id(system.planes[0][0].data) in arrays
            held = sum(a.nbytes for a in arrays.values())
            assert system.memory_bytes >= held


class TestGroupTiers:
    def test_groups_tiers_with_bitwise_equal_signatures(self):
        from repro.core.planes import group_tiers, tier_signature
        from repro.grid.generators import synthesize_stack
        from repro.grid.stack3d import PowerGridStack

        for seed in range(12):
            stack = synthesize_stack(
                6, 7, 4, replicate_tier=seed % 2 == 0,
                jitter_sigma=0.1 if seed % 3 == 0 else 0.0, rng=seed,
            )
            if seed % 4 == 1:  # a non-adjacent repeat
                tiers = list(stack.tiers)
                tiers[2] = tiers[0]
                stack = PowerGridStack(tiers, stack.pillars)
            first: dict[bytes, int] = {}
            expected = [
                first.setdefault(tier_signature(tier), l)
                for l, tier in enumerate(stack.tiers)
            ]
            assert group_tiers(stack) == expected
