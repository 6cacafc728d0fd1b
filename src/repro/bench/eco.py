"""ECO incremental re-analysis benchmark harness and report.

The baseline for an ``N``-candidate edit sweep is the loop a user would
otherwise write: apply each candidate to the stack, build a fresh solver
(matrix assembly + plane LU + setup), and solve.  The incremental engine
evaluates every candidate against the *pinned* base factors via
Sherman-Morrison-Woodbury updates, replacing the per-candidate
re-factorization pipeline with a few back-substitutions of the update
columns.

Two speedups come out of one comparison, and the report keeps them
separate because they answer different questions:

* ``refactorize_speedup`` -- per-candidate re-factorization pipeline
  cost (assembly + LU + solver setup) over per-candidate incremental
  update preparation (the ``Z`` back-substitutions + capacitance
  factors).  This is the work the SMW update *eliminates*; the
  benchmark asserts a floor on it (see docs/eco.md).
* ``end_to_end_speedup`` -- the whole incremental sweep against the
  extrapolated per-candidate loop.  Both paths run the *identical*
  lockstep outer iterations (that is where the rtol <= 1e-10 parity
  comes from), so this ratio is diluted by the solve work they share
  and is reported for honesty, not asserted.

Because the baseline genuinely re-factorizes, timing all ``N``
candidates would dominate the benchmark's own wall-clock; the harness
times an evenly spaced sample and extrapolates (the per-candidate cost
is constant by construction).  The sampled direct solves double as the
parity references.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.bench.reporting import ascii_table, write_csv, write_json
from repro.core.batch import BatchedVPSolver
from repro.core.planes import PlaneFactorCache
from repro.eco.edits import EcoCandidate
from repro.eco.session import EcoConfig, EcoReport, EcoSession
from repro.grid.stack3d import PowerGridStack

ECO_BENCH_HEADERS = [
    "candidates", "scenarios", "eco_s", "per_cand_ms", "update_ms",
    "refactor_ms", "refactor_x", "end_to_end_x", "parity_rel_err",
    "factorizations",
]


@dataclass
class EcoBenchReport:
    """Everything one incremental-vs-refactorize comparison produced."""

    stack_name: str
    n_nodes: int
    n_candidates: int
    n_scenarios: int
    report: EcoReport = field(repr=False)
    eval_seconds: float = 0.0
    #: Incremental update preparation inside ``eval_seconds``: the fused
    #: ``Z`` back-substitutions plus per-candidate capacitance factors.
    update_seconds: float = 0.0
    #: ``planes.factorizations`` obs delta across :meth:`EcoSession.evaluate`
    #: -- the zero-factorization contract, measured not assumed.
    eval_factorizations: int = 0
    baseline_samples: int = 0
    #: Sampled per-candidate pipeline cost, split into the part the SMW
    #: update replaces (apply + assembly + LU + solver setup) ...
    baseline_factor_seconds: float = 0.0
    #: ... and the lockstep solve both approaches run identically.
    baseline_solve_seconds: float = 0.0
    max_parity_rel_error: float | None = None

    @property
    def per_candidate_seconds(self) -> float:
        return self.eval_seconds / max(self.n_candidates, 1)

    @property
    def update_per_candidate(self) -> float:
        return self.update_seconds / max(self.n_candidates, 1)

    @property
    def baseline_factor_per_candidate(self) -> float | None:
        if self.baseline_samples == 0:
            return None
        return self.baseline_factor_seconds / self.baseline_samples

    @property
    def baseline_per_candidate(self) -> float | None:
        if self.baseline_samples == 0:
            return None
        return (
            self.baseline_factor_seconds + self.baseline_solve_seconds
        ) / self.baseline_samples

    @property
    def baseline_seconds_estimated(self) -> float | None:
        per = self.baseline_per_candidate
        return None if per is None else per * self.n_candidates

    @property
    def refactorize_speedup(self) -> float | None:
        """Re-factorization pipeline cost over incremental update prep,
        per candidate -- the ratio the benchmark's floor is on."""
        factor = self.baseline_factor_per_candidate
        if factor is None:
            return None
        return factor / max(self.update_per_candidate, 1e-12)

    @property
    def end_to_end_speedup(self) -> float | None:
        estimated = self.baseline_seconds_estimated
        if estimated is None:
            return None
        return estimated / max(self.eval_seconds, 1e-12)

    def row(self) -> list:
        factor = self.baseline_factor_per_candidate
        return [
            self.n_candidates,
            self.n_scenarios,
            self.eval_seconds,
            self.per_candidate_seconds * 1e3,
            self.update_per_candidate * 1e3,
            None if factor is None else factor * 1e3,
            self.refactorize_speedup,
            self.end_to_end_speedup,
            self.max_parity_rel_error,
            self.eval_factorizations,
        ]

    def table(self) -> str:
        return ascii_table(ECO_BENCH_HEADERS, [self.row()])

    def summary(self) -> str:
        lines = [
            f"{self.stack_name or 'stack'}: {self.n_nodes} nodes, "
            f"{self.n_candidates} candidates x {self.n_scenarios} "
            f"scenario(s) in {self.eval_seconds:.3f}s "
            f"({self.per_candidate_seconds * 1e3:.1f} ms/candidate, "
            f"{self.eval_factorizations} factorizations during evaluation)",
        ]
        if self.refactorize_speedup is not None:
            lines.append(
                f"re-factorization baseline: factorization pipeline "
                f"{self.baseline_factor_per_candidate * 1e3:.0f} ms/candidate "
                f"vs incremental update prep "
                f"{self.update_per_candidate * 1e3:.1f} ms/candidate -> "
                f"x{self.refactorize_speedup:.1f} "
                f"({self.baseline_samples} sampled)"
            )
            lines.append(
                f"end-to-end sweep {self.eval_seconds:.2f}s vs extrapolated "
                f"per-candidate loop {self.baseline_seconds_estimated:.2f}s "
                f"-> x{self.end_to_end_speedup:.1f} (both paths run "
                f"identical lockstep solve iterations)"
            )
        if self.max_parity_rel_error is not None:
            lines.append(
                f"worst-drop parity vs direct re-solve: "
                f"{self.max_parity_rel_error:.3e} rel "
                f"({self.baseline_samples} candidates spot-checked)"
            )
        return "\n".join(lines)

    def payload(self) -> dict:
        return {
            "stack": self.stack_name,
            "n_nodes": self.n_nodes,
            "n_candidates": self.n_candidates,
            "n_scenarios": self.n_scenarios,
            "eval_seconds": self.eval_seconds,
            "per_candidate_seconds": self.per_candidate_seconds,
            "update_seconds": self.update_seconds,
            "update_per_candidate_seconds": self.update_per_candidate,
            "eval_factorizations": self.eval_factorizations,
            "baseline_samples": self.baseline_samples,
            "baseline_factor_seconds": self.baseline_factor_seconds,
            "baseline_solve_seconds": self.baseline_solve_seconds,
            "baseline_factor_per_candidate_seconds": (
                self.baseline_factor_per_candidate
            ),
            "baseline_per_candidate_seconds": self.baseline_per_candidate,
            "baseline_seconds_estimated": self.baseline_seconds_estimated,
            "refactorize_speedup": self.refactorize_speedup,
            "end_to_end_speedup": self.end_to_end_speedup,
            "max_parity_rel_error": self.max_parity_rel_error,
            "ranking": self.report.payload(),
        }

    def to_csv(self, path) -> None:
        write_csv(path, ECO_BENCH_HEADERS, [self.row()])

    def to_json(self, path) -> None:
        write_json(path, self.payload())


def run_eco_benchmark(
    stack: PowerGridStack,
    candidates: list[EcoCandidate],
    *,
    scenarios=None,
    config: EcoConfig | None = None,
    cache: PlaneFactorCache | None = None,
    compare_refactorize: bool = True,
    baseline_samples: int = 8,
) -> EcoBenchReport:
    """Evaluate ``candidates`` incrementally; optionally time the
    per-candidate re-factorization loop on an evenly spaced sample and
    spot-check worst-drop parity against those direct re-solves (the
    sampled rows are marked verified).  ``cache`` is the session's
    factor cache (a private one when omitted).

    The factorization counter-assert deliberately brackets *only* the
    incremental evaluation: the session's own base priming happens
    before the snapshot, and the re-solves of ``config.verify_fraction``
    and of the baseline (which must factorize -- they are the
    reference) run after.
    """
    config = config or EcoConfig()
    with EcoSession(
        stack, scenarios=scenarios, config=config, cache=cache
    ) as session:
        session.baseline_drops()  # prime the base solve outside the timing
        metrics_before = obs.metrics().snapshot()
        t0 = time.perf_counter()
        report = session.rank_candidates(candidates, verify_fraction=0.0)
        eval_seconds = time.perf_counter() - t0
        delta = obs.snapshot_delta(metrics_before, obs.metrics().snapshot())
        eval_factorizations = int(
            delta["counters"].get("planes.factorizations", 0)
        )
        session.verify(report)

        bench = EcoBenchReport(
            stack_name=stack.name,
            n_nodes=stack.n_nodes,
            n_candidates=len(report.rows),
            n_scenarios=len(report.scenario_names),
            report=report,
            eval_seconds=eval_seconds,
            update_seconds=report.result.stats.setup_seconds,
            eval_factorizations=eval_factorizations,
        )
        if compare_refactorize and report.rows:
            subset = np.unique(
                np.linspace(
                    0,
                    len(report.rows) - 1,
                    min(baseline_samples, len(report.rows)),
                ).astype(int)
            )
            worst = 0.0
            for k in subset:
                row = report.rows[int(k)]
                t0 = time.perf_counter()
                solver = BatchedVPSolver(
                    row.candidate.apply(stack), session.scenarios, config
                )
                t1 = time.perf_counter()
                reference = solver.solve().worst_ir_drop()
                t2 = time.perf_counter()
                bench.baseline_factor_seconds += t1 - t0
                bench.baseline_solve_seconds += t2 - t1
                scale = max(float(np.abs(reference).max()), 1e-30)
                rel = float(
                    np.abs(row.scenario_drops - reference).max() / scale
                )
                row.verified = True
                row.verify_error = rel
                worst = max(worst, rel)
            bench.baseline_samples = int(subset.size)
            bench.max_parity_rel_error = worst
    return bench


__all__ = ["ECO_BENCH_HEADERS", "EcoBenchReport", "run_eco_benchmark"]
