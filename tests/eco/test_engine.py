"""Batched SMW engine: incremental results vs direct re-solve.

The engine runs the *same* lockstep outer iteration a direct
:class:`BatchedVPSolver` on the edited stack would, with the plane
solves rerouted through the pinned base factors plus a Woodbury
correction.  The parity contract is therefore far tighter than the
outer tolerance: worst drops must agree to ~1e-10 relative, for every
edit kind, on every scenario column -- with zero plane factorizations
during evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.planes import ReducedPlaneSystem
from repro.eco.edits import (
    DecapEdit,
    EcoCandidate,
    LoadEdit,
    PadMoveEdit,
    PinMoveEdit,
    StrapEdit,
    TsvResizeEdit,
    WireWidthEdit,
    compile_candidate,
)
from repro.eco.engine import EcoBatchSolver
from repro.eco.session import EcoConfig, EcoSession
from repro.errors import ReproError
from repro.scenarios import pad_current_sweep

PARITY_RTOL = 1e-10


def max_rel_error(session, report) -> float:
    worst = 0.0
    for row in report.rows:
        reference = session.solve_reference(row.candidate)
        scale = max(float(np.abs(reference).max()), 1e-30)
        worst = max(
            worst, float(np.abs(row.scenario_drops - reference).max() / scale)
        )
    return worst


def plane_candidates(stack):
    """One candidate per plane-editing kind, plus a multi-edit bundle."""
    stack.tiers[0].g_pad[2, 3] = 0.8  # synthesized stacks carry no pads
    return [
        EcoCandidate("strap-span", (StrapEdit(0, "h", 3, 1.5, span=(1, 4)),)),
        EcoCandidate("strap-full", (StrapEdit(2, "v", 5, 0.9),)),
        EcoCandidate(
            "width",
            (WireWidthEdit(1, (("h", 2, 2), ("v", 3, 3)), 2.5),),
        ),
        EcoCandidate("pad-move", (PadMoveEdit(0, (2, 3), (5, 6)),)),
        EcoCandidate(
            "bundle",
            (
                StrapEdit(0, "v", 2, 1.0, span=(0, 3)),
                LoadEdit(0, (1, 1), 1e-3),
                TsvResizeEdit((2,), 2.0),
            ),
        ),
    ]


def rank0_candidates(stack):
    return [
        EcoCandidate("tsv", (TsvResizeEdit((1, 3), 0.5),)),
        EcoCandidate("load", (LoadEdit(1, (4, 4), 2e-3),)),
        EcoCandidate("decap", (DecapEdit(0, 2.0),)),
    ]


class TestParity:
    def test_plane_edits_match_direct_resolve(self, small_stack):
        candidates = plane_candidates(small_stack)
        scenarios = pad_current_sweep((0.8, 1.2))
        with EcoSession(small_stack, scenarios=scenarios) as session:
            report = session.evaluate(candidates)
            assert all(row.converged for row in report.rows)
            assert report.eval_factorizations == 0
            assert max_rel_error(session, report) <= PARITY_RTOL

    def test_rank0_edits_match_direct_resolve(self, small_stack):
        candidates = rank0_candidates(small_stack)
        scenarios = pad_current_sweep((0.7, 1.0, 1.3))
        with EcoSession(small_stack, scenarios=scenarios) as session:
            report = session.evaluate(candidates)
            assert [row.rank for row in report.rows] == [0, 0, 0]
            assert max_rel_error(session, report) <= PARITY_RTOL
            # No update columns -> the SMW correction path stays cold
            # (column_solves still counts the ordinary iteration work).
            assert report.result.stats.correction_solves == 0

    def test_pin_move_matches_direct_resolve(self, pinsubset_stack):
        mask = pinsubset_stack.pillars.has_pin
        src = int(np.flatnonzero(mask)[0])
        candidates = [
            EcoCandidate(
                f"pin-{dst}", (PinMoveEdit(src, int(dst)),)
            )
            for dst in np.flatnonzero(~mask)[:3]
        ]
        with EcoSession(pinsubset_stack) as session:
            report = session.evaluate(candidates)
            assert max_rel_error(session, report) <= PARITY_RTOL

    def test_single_scenario_default(self, small_stack):
        candidates = [
            EcoCandidate("s", (StrapEdit(0, "h", 1, 2.0, span=(2, 5)),))
        ]
        with EcoSession(small_stack) as session:
            report = session.evaluate(candidates)
            assert report.rows[0].scenario_drops.shape == (1,)
            assert max_rel_error(session, report) <= PARITY_RTOL


class TestZeroFactorizationContract:
    def test_obs_counter_delta_is_zero_across_evaluate(self, small_stack):
        candidates = plane_candidates(small_stack)
        with obs.session() as tel:
            with EcoSession(small_stack) as session:
                session.baseline_drops()
                before = tel.registry.counters.get("planes.factorizations")
                before_n = before.value if before else 0
                report = session.evaluate(candidates)
            after = tel.registry.counters["planes.factorizations"].value
        assert after - before_n == 0
        assert report.eval_factorizations == 0
        counters = tel.registry.counters
        assert counters["eco.candidates"].value == len(candidates)
        assert counters["eco.column_solves"].value > 0

    def test_verification_is_what_factorizes(self, small_stack):
        candidates = plane_candidates(small_stack)
        config = EcoConfig(verify_fraction=1.0)
        with EcoSession(small_stack, config=config) as session:
            report = session.evaluate(candidates)
        # evaluate() itself stayed factorization-free; the direct
        # re-solves of the verification pass are counted separately.
        assert report.eval_factorizations == 0
        assert all(row.verified for row in report.rows)
        assert session.cache.factorizations > 1


class TestEngineValidation:
    def test_requires_pillar_rows(self, small_stack):
        planes = ReducedPlaneSystem(small_stack, factorize=False)
        compiled = [
            compile_candidate(
                small_stack,
                EcoCandidate("s", (StrapEdit(0, "h", 1, 1.0),)),
            )
        ]
        with pytest.raises(ReproError, match="pillar rows"):
            EcoBatchSolver(
                small_stack,
                planes,
                pad_current_sweep((1.0,)),
                compiled,
                EcoConfig(),
            )

    def test_requires_candidates(self, small_stack):
        with EcoSession(small_stack) as session:
            with pytest.raises(ReproError, match="no candidates"):
                session.evaluate([])
