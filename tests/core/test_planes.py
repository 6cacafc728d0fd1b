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

import numpy as np
import scipy.sparse as sp

from repro.core.planes import ReducedPlaneSystem


def dense_blocks(planes, tier):
    matrix = planes.planes[tier][0]
    a_ff = matrix[planes.free][:, planes.free].toarray()
    a_fp = matrix[planes.free][:, planes.pillar_flat].toarray()
    return a_ff, a_fp


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
        assert fast.flags.f_contiguous
        eps = np.full_like(zeros, 1e-9)
        general = planes.reduced_rhs(0, eps, b_free=b_free)
        assert np.allclose(general, b_free - a_fp @ eps, atol=1e-15)

    def test_solve_free_agrees_between_paths(self, small_stack, rng):
        planes = ReducedPlaneSystem(small_stack, factorize=True)
        b_free = rng.normal(size=(planes.n_free, 3))
        zeros = np.zeros((planes.n_pillars, 3))
        via_fast = planes.solve_free(0, zeros, b_free=b_free)
        a_ff, _ = dense_blocks(planes, 0)
        assert np.allclose(
            via_fast, np.linalg.solve(a_ff, b_free), rtol=1e-10
        )


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
