"""Cross-engine differential test: every VP engine runs the one
outer-iteration kernel, so their outputs must agree exactly.

On hypothesis-generated stacks -- sparse pins, 2-4 tiers, TSV
resistances up to well past the paper's design regime -- the single
scenario solver with ``inner="direct"`` must equal a 1-column batched
solve bit for bit, the ECO engine under an identity edit must equal the
batched engine on the same cached factors bit for bit, and a converged
adjoint must satisfy ``G^T lam = g`` against the assembled 3-D system.

The sweep also exposes three sparse-pin defects; each is pinned below
as a strict xfail so a fix shows up.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.batch import BatchedVPSolver
from repro.core.planes import PlaneFactorCache
from repro.core.vp import solve_vp
from repro.eco.edits import EcoCandidate, TsvResizeEdit, compile_candidate
from repro.eco.engine import EcoBatchSolver
from repro.grid.conductance import stack_system
from repro.grid.generators import synthesize_stack
from repro.linalg.direct import solve_direct
from repro.scenarios.spec import Scenario
from repro.sensitivity import AdjointVPSolver, SmoothWorstDrop

BUDGET = 0.5e-3

stacks = st.builds(
    synthesize_stack,
    st.integers(6, 16),
    st.integers(6, 16),
    st.integers(2, 4),
    pin_fraction=st.sampled_from([1.0, 0.5, 0.25]),
    r_tsv=st.sampled_from([0.01, 0.05, 0.2, 1.0]),
    rng=st.integers(0, 10_000),
)


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(stack=stacks)
def test_engines_agree(stack):
    planes = PlaneFactorCache().get(stack)
    batch = BatchedVPSolver(stack, [Scenario("base")], planes=planes).solve()

    # Forward: the standalone direct solve is the 1-column batch.
    single = solve_vp(stack, inner="direct")
    assert single.converged == bool(batch.converged[0])
    assert single.outer_iterations == int(batch.outer_iterations[0])
    assert_same_bits(single.voltages, batch.voltages[..., 0])
    assert_same_bits(single.pillar_v0, batch.pillar_v0[:, 0])

    # ECO with an identity edit runs the batched engine's iteration on
    # the same base factors.
    identity = compile_candidate(
        stack, EcoCandidate("identity", (TsvResizeEdit((0,), 1.0),))
    )
    eco = EcoBatchSolver(stack, planes, [Scenario("base")], [identity]).solve()
    assert_same_bits(eco.converged, batch.converged)
    assert_same_bits(eco.outer_iterations, batch.outer_iterations)
    assert_same_bits(eco.voltages, batch.voltages)

    # Adjoint: a converged reverse pass solves the transposed 3-D system.
    injection = SmoothWorstDrop().dv(single.voltages, stack.v_pin)
    adjoint = AdjointVPSolver(stack, planes).solve(injection)
    if adjoint.converged:
        matrix, _ = stack_system(stack)
        residual = matrix.T @ adjoint.lam.ravel() - injection.ravel()
        assert np.max(np.abs(residual)) <= 1e-6


class TestSparsePinDefects:
    """Sparse-pin defects found by the sweep above; fixing them changes
    iteration counts and voltages."""

    @pytest.mark.xfail(
        strict=True,
        reason="auto picks adaptive (240 iterations); anderson needs 33",
    )
    def test_auto_vda_converges_on_stiff_sparse_pins(self):
        stack = synthesize_stack(8, 8, 4, pin_fraction=0.25, r_tsv=0.2, rng=0)
        assert solve_vp(stack, inner="direct").converged

    @pytest.mark.xfail(
        strict=True, reason="adjoint stalls near 1.7e-8 after 400 iterations"
    )
    def test_adjoint_converges_on_sparse_pins(self):
        stack = synthesize_stack(8, 8, 3, pin_fraction=0.25, r_tsv=0.2, rng=2)
        forward = solve_vp(stack, inner="direct")
        assert forward.converged
        injection = SmoothWorstDrop().dv(forward.voltages, stack.v_pin)
        assert AdjointVPSolver(stack).solve(injection).converged

    @pytest.mark.xfail(
        strict=True, reason="converged solve misses MNA by 0.572 mV"
    )
    def test_converged_sparse_pin_solve_within_budget(self):
        stack = synthesize_stack(
            12, 11, 2, pin_fraction=0.25, r_tsv=0.05, rng=929
        )
        result = solve_vp(stack, inner="direct")
        assert result.converged
        reference = solve_direct(*stack_system(stack))
        assert np.max(np.abs(result.flat_voltages() - reference)) <= BUDGET
