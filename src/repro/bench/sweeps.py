"""Scenario-sweep benchmark: batched engine vs the sequential loop.

The honest baseline for a sweep is what users would otherwise write --
``solve_vp(scenario.apply(stack), inner="direct")`` per scenario, paying
one plane factorization (and stack materialization) per design point.
The batched engine factorizes once and back-substitutes all scenario
columns together, so the expected win grows with the scenario count and
the factorization/back-substitution cost ratio (target: >= 3x on a
16-scenario sweep of a Table-1 mid-size grid).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.reporting import ascii_table, write_csv, write_json
from repro.core.batch import BatchedVPConfig, BatchedVPResult, BatchedVPSolver
from repro.core.vp import VPConfig, VoltagePropagationSolver
from repro.grid.stack3d import PowerGridStack
from repro.scenarios.spec import ScenarioSet

SWEEP_HEADERS = [
    "scenario",
    "load_scale",
    "r_tsv_scale",
    "plane_scale",
    "converged",
    "outer_iters",
    "max_vdiff_mV",
    "worst_drop_mV",
]


@dataclass
class SweepOutcome:
    """One scenario's solution summary."""

    scenario: str
    load_scale: object
    r_tsv_scale: float
    converged: bool
    outer_iterations: int
    max_vdiff: float
    worst_ir_drop: float
    plane_scale: object = 1.0

    def row(self) -> list:
        return [
            self.scenario,
            self.load_scale,
            self.r_tsv_scale,
            self.plane_scale,
            "yes" if self.converged else "NO",
            self.outer_iterations,
            f"{self.max_vdiff * 1e3:.4f}",
            f"{self.worst_ir_drop * 1e3:.4f}",
        ]


@dataclass
class SweepReport:
    """Everything a sweep run produced, renderable as table/CSV/JSON."""

    stack_name: str
    n_nodes: int
    n_scenarios: int
    outcomes: list[SweepOutcome]
    batched_setup_seconds: float
    batched_solve_seconds: float
    sequential_seconds: float | None = None
    max_parity_error: float | None = None
    batched_result: BatchedVPResult | None = field(default=None, repr=False)

    @property
    def batched_seconds(self) -> float:
        return self.batched_setup_seconds + self.batched_solve_seconds

    @property
    def speedup(self) -> float | None:
        if self.sequential_seconds is None:
            return None
        return self.sequential_seconds / max(self.batched_seconds, 1e-12)

    def table(self) -> str:
        return ascii_table(SWEEP_HEADERS, [o.row() for o in self.outcomes])

    def summary(self) -> str:
        lines = [
            f"{self.stack_name or 'stack'}: {self.n_nodes} nodes, "
            f"{self.n_scenarios} scenarios, batched "
            f"{self.batched_seconds:.3f}s "
            f"(setup {self.batched_setup_seconds:.3f}s + solve "
            f"{self.batched_solve_seconds:.3f}s)"
        ]
        if self.sequential_seconds is not None:
            lines.append(
                f"sequential loop {self.sequential_seconds:.3f}s -> "
                f"speedup x{self.speedup:.1f}, max parity error "
                f"{(self.max_parity_error or 0.0) * 1e3:.4f} mV"
            )
        return "\n".join(lines)

    def records(self) -> list[dict]:
        return [
            {
                "scenario": o.scenario,
                "load_scale": o.load_scale,
                "r_tsv_scale": o.r_tsv_scale,
                "plane_scale": o.plane_scale,
                "converged": o.converged,
                "outer_iterations": o.outer_iterations,
                "max_vdiff_v": o.max_vdiff,
                "worst_ir_drop_v": o.worst_ir_drop,
            }
            for o in self.outcomes
        ]

    def to_csv(self, path) -> None:
        rows = [
            [
                o.scenario,
                o.load_scale,
                o.r_tsv_scale,
                o.plane_scale,
                o.converged,
                o.outer_iterations,
                o.max_vdiff,
                o.worst_ir_drop,
            ]
            for o in self.outcomes
        ]
        write_csv(path, SWEEP_HEADERS, rows)

    def to_json(self, path) -> None:
        payload = {
            "stack": self.stack_name,
            "n_nodes": self.n_nodes,
            "n_scenarios": self.n_scenarios,
            "batched_setup_seconds": self.batched_setup_seconds,
            "batched_solve_seconds": self.batched_solve_seconds,
            "sequential_seconds": self.sequential_seconds,
            "speedup": self.speedup,
            "max_parity_error_v": self.max_parity_error,
            "scenarios": self.records(),
        }
        write_json(path, payload)


def run_sweep(
    stack: PowerGridStack,
    scenarios,
    config: BatchedVPConfig | None = None,
    *,
    compare_sequential: bool = False,
) -> SweepReport:
    """Solve a scenario set with the batched engine; optionally time the
    per-scenario ``solve_vp`` loop on the same sweep and cross-check the
    voltages."""
    scenarios = ScenarioSet.ensure(scenarios)
    config = config or BatchedVPConfig()

    solver = BatchedVPSolver(stack, scenarios, config)
    result = solver.solve()

    drops = result.worst_ir_drop()
    outcomes = []
    for k, scenario in enumerate(scenarios):
        record = scenario.describe()
        outcomes.append(
            SweepOutcome(
                scenario=scenario.name,
                load_scale=record["load_scale"],
                r_tsv_scale=record["r_tsv_scale"],
                plane_scale=record.get("plane_scale", 1.0),
                converged=bool(result.converged[k]),
                outer_iterations=int(result.outer_iterations[k]),
                max_vdiff=float(result.max_vdiff[k]),
                worst_ir_drop=float(drops[k]),
            )
        )

    report = SweepReport(
        stack_name=stack.name,
        n_nodes=stack.n_nodes,
        n_scenarios=len(scenarios),
        outcomes=outcomes,
        batched_setup_seconds=result.stats.setup_seconds,
        batched_solve_seconds=result.stats.solve_seconds,
        batched_result=result,
    )

    if compare_sequential:
        parity = 0.0
        t0 = time.perf_counter()
        for k, scenario in enumerate(scenarios):
            seq = VoltagePropagationSolver(
                scenario.apply(stack), VPConfig.direct(config)
            ).solve()
            parity = max(
                parity,
                float(np.max(np.abs(seq.voltages - result.scenario_voltages(k)))),
            )
        report.sequential_seconds = time.perf_counter() - t0
        report.max_parity_error = parity
    return report
