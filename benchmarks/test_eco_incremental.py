"""E17 -- Incremental ECO re-analysis: SMW updates vs re-factorization.

The baseline for an N-candidate what-if sweep is the loop a user would
otherwise write: apply each edit to the stack and build + solve a fresh
batched solver, paying matrix assembly, plane factorization, and solver
setup per candidate.  The incremental engine leases the base plane
factors once and folds every candidate's perturbation in as a
Sherman-Morrison-Woodbury correction riding the cached
back-substitutions.

The factor-path floor (``TARGET_SPEEDUP``) is asserted on the
*factorization pipeline*: the per-candidate cost of apply + assembly +
LU + solver setup (what the SMW update eliminates) against the
per-candidate incremental update preparation (the fused Z
back-substitutions + capacitance factors).
Both paths then run byte-for-byte identical lockstep outer iterations
-- that shared solve work is where the <= 1e-10 worst-drop parity
comes from, and it dilutes the end-to-end sweep ratio, which is
reported in the artifact but not asserted.  Alongside: zero plane
factorizations during candidate evaluation, counter-asserted on the
obs delta.

The re-factorization baseline is timed on an evenly spaced sample of
candidates and extrapolated (its per-candidate cost is constant by
construction); timing all 128 would dominate the benchmark's own
wall-clock without changing the estimate.  The sampled direct solves
double as the parity references.
"""

from __future__ import annotations

import pytest

from repro.bench.eco import run_eco_benchmark
from repro.eco.sweeps import strap_sweep

#: Paper-scale circuit (C1: 3 x 173 x 173 = ~90 K nodes).
PAPER_SCALE_CIRCUIT = "C1"

N_CANDIDATES = 128
#: Local straps (4 consecutive segments) -- the realistic ECO shape,
#: and what keeps each candidate's low-rank width small.
STRAP_SPAN = 4
#: The lowest factor-path ratio seen on a shared 2-core host was x5.4
#: (20 runs, median x8.0; see docs/eco.md).  x4 still fails an update
#: preparation that costs over a quarter of a re-factorization.
TARGET_SPEEDUP = 4.0
#: Both paths run the *identical* outer iteration off the same factors,
#: so parity is limited by rounding in the SMW correction, not by the
#: outer tolerance.
PARITY_TOL = 1e-10
BASELINE_SAMPLES = 6


@pytest.mark.smoke
def test_eco_incremental_speedup(circuit_cache, bench_once, benchmark):
    stack = circuit_cache(PAPER_SCALE_CIRCUIT)
    candidates = strap_sweep(
        stack, N_CANDIDATES, span_length=STRAP_SPAN, seed=7
    )

    report = bench_once(
        run_eco_benchmark,
        stack,
        candidates,
        baseline_samples=BASELINE_SAMPLES,
    )

    assert report.n_candidates == N_CANDIDATES
    assert report.report.result.converged.all()
    assert report.eval_factorizations == 0, (
        f"{report.eval_factorizations} plane factorizations during "
        "incremental evaluation (contract: zero -- everything rides the "
        "leased base factors)"
    )
    assert report.max_parity_rel_error <= PARITY_TOL, (
        f"worst-drop parity {report.max_parity_rel_error:.3e} vs direct "
        f"re-solve exceeds {PARITY_TOL:.0e}"
    )
    assert report.refactorize_speedup >= TARGET_SPEEDUP, (
        f"incremental update prep only x{report.refactorize_speedup:.2f} "
        f"over the per-candidate re-factorization pipeline "
        f"(target x{TARGET_SPEEDUP}, {report.baseline_samples} baseline "
        f"samples extrapolated)"
    )
    benchmark.extra_info.update(
        {
            "circuit": PAPER_SCALE_CIRCUIT,
            "n_nodes": report.n_nodes,
            "n_candidates": report.n_candidates,
            "eval_seconds": report.eval_seconds,
            "per_candidate_ms": report.per_candidate_seconds * 1e3,
            "update_prep_per_candidate_ms": report.update_per_candidate * 1e3,
            "baseline_samples": report.baseline_samples,
            "baseline_factor_per_candidate_s": (
                report.baseline_factor_per_candidate
            ),
            "baseline_per_candidate_s": report.baseline_per_candidate,
            "baseline_seconds_extrapolated": report.baseline_seconds_estimated,
            "refactorize_speedup": report.refactorize_speedup,
            "end_to_end_speedup": report.end_to_end_speedup,
            "max_parity_rel_error": report.max_parity_rel_error,
            "eval_factorizations": report.eval_factorizations,
            "baseline_methodology": (
                "evenly spaced sample of direct re-factorizing solves, "
                "construction timed apart from the (lockstep-identical) "
                "solve, extrapolated to all candidates"
            ),
        }
    )
