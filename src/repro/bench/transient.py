"""Transient-sweep benchmark: batched engine vs the sequential loop.

The honest baseline for a transient sweep is what users would otherwise
write -- one :class:`~repro.core.transient.TransientVPSolver` per
scenario (companion factorization included) stepped through the whole
waveform with ``inner="direct"``.  The batched engine factorizes once
per ``(plane_scale, cap_scale)`` group and advances all scenarios of a
group through multi-column back-substitutions, so the expected win
grows with the scenario count, the step count, and the
factorization/back-substitution cost ratio (target: >= 3x on a
16-scenario droop sweep of a Table-1 mid-size grid).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.reporting import ascii_table, write_csv, write_json
from repro.core.planes import PlaneFactorCache
from repro.core.transient import TransientVPSolver, normalize_capacitance
from repro.core.transient_batch import (
    BatchedTransientConfig,
    BatchedTransientResult,
    BatchedTransientSolver,
)
from repro.core.vp import VPConfig
from repro.grid.stack3d import PowerGridStack
from repro.scenarios.spec import ScenarioSet

TRANSIENT_HEADERS = [
    "scenario",
    "stimulus",
    "load_scale",
    "cap_scale",
    "worst_droop_mV",
    "v_min_mV",
    "outer_total",
    "settled_step",
]


@dataclass
class TransientOutcome:
    """One scenario's droop summary."""

    scenario: str
    stimulus: str
    load_scale: object
    cap_scale: object
    worst_droop: float
    min_voltage: float
    outer_total: int
    settled_step: int

    def row(self) -> list:
        return [
            self.scenario,
            self.stimulus,
            self.load_scale,
            self.cap_scale,
            f"{self.worst_droop * 1e3:.4f}",
            f"{self.min_voltage * 1e3:.2f}",
            self.outer_total,
            self.settled_step if self.settled_step >= 0 else "-",
        ]


@dataclass
class TransientSweepReport:
    """Everything a transient sweep produced, renderable as
    table/CSV/JSON."""

    stack_name: str
    n_nodes: int
    n_scenarios: int
    n_steps: int
    dt: float
    outcomes: list[TransientOutcome]
    batched_setup_seconds: float
    batched_solve_seconds: float
    n_groups: int
    factorizations: int
    column_steps: int
    #: Columns of the t = 0 DC solves (one per distinct DC problem).
    dc_columns: int
    sequential_seconds: float | None = None
    max_parity_error: float | None = None
    #: ``(S,)`` worst droops of the sequential oracle (set by
    #: ``compare_sequential`` -- what the parity assertions compare the
    #: batched :attr:`BatchedTransientResult.worst_droop` against).
    sequential_droops: np.ndarray | None = None
    batched_result: BatchedTransientResult | None = field(
        default=None, repr=False
    )

    @property
    def batched_seconds(self) -> float:
        return self.batched_setup_seconds + self.batched_solve_seconds

    @property
    def speedup(self) -> float | None:
        if self.sequential_seconds is None:
            return None
        return self.sequential_seconds / max(self.batched_seconds, 1e-12)

    def table(self) -> str:
        return ascii_table(TRANSIENT_HEADERS, [o.row() for o in self.outcomes])

    def summary(self) -> str:
        lines = [
            f"{self.stack_name or 'stack'}: {self.n_nodes} nodes, "
            f"{self.n_scenarios} scenarios x {self.n_steps} steps "
            f"(dt {self.dt:g}s), batched {self.batched_seconds:.3f}s "
            f"(setup {self.batched_setup_seconds:.3f}s + solve "
            f"{self.batched_solve_seconds:.3f}s), "
            f"{self.n_groups} factor group(s), "
            f"{self.factorizations} factorization(s)"
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
                "stimulus": o.stimulus,
                "load_scale": o.load_scale,
                "cap_scale": o.cap_scale,
                "worst_droop_v": o.worst_droop,
                "min_voltage_v": o.min_voltage,
                "outer_total": o.outer_total,
                "settled_step": o.settled_step,
            }
            for o in self.outcomes
        ]

    def to_csv(self, path) -> None:
        headers = [
            "scenario",
            "stimulus",
            "load_scale",
            "cap_scale",
            "worst_droop_v",
            "min_voltage_v",
            "outer_total",
            "settled_step",
        ]
        rows = [
            [
                o.scenario,
                o.stimulus,
                o.load_scale,
                o.cap_scale,
                o.worst_droop,
                o.min_voltage,
                o.outer_total,
                o.settled_step,
            ]
            for o in self.outcomes
        ]
        write_csv(path, headers, rows)

    def to_json(self, path) -> None:
        payload = {
            "stack": self.stack_name,
            "n_nodes": self.n_nodes,
            "n_scenarios": self.n_scenarios,
            "n_steps": self.n_steps,
            "dt_seconds": self.dt,
            "batched_setup_seconds": self.batched_setup_seconds,
            "batched_solve_seconds": self.batched_solve_seconds,
            "n_factor_groups": self.n_groups,
            "factorizations": self.factorizations,
            "column_steps": self.column_steps,
            "dc_columns": self.dc_columns,
            "sequential_seconds": self.sequential_seconds,
            "speedup": self.speedup,
            "max_parity_error_v": self.max_parity_error,
            "scenarios": self.records(),
        }
        write_json(path, payload)


def run_sequential_transient(
    stack: PowerGridStack,
    scenarios,
    capacitance,
    dt: float,
    t_end: float,
    config: BatchedTransientConfig | None = None,
    *,
    probes=(),
) -> list:
    """The per-scenario baseline loop: apply each scenario to the stack,
    build a fresh :class:`~repro.core.transient.TransientVPSolver`
    (paying its companion factorization), and step the waveform.

    Returns the per-scenario
    :class:`~repro.core.transient.TransientResult` list in scenario
    order -- the parity oracle the batched engine is asserted against.
    """
    scenarios = ScenarioSet.ensure(scenarios)
    config = config or BatchedTransientConfig()
    base_caps = normalize_capacitance(stack, capacitance)
    vp_config = VPConfig.direct(config)
    results = []
    for scenario in scenarios:
        applied = scenario.apply(stack)
        cap_scales = scenario.tier_cap_scales(stack.n_tiers)
        caps = [c * k for c, k in zip(base_caps, cap_scales)]
        solver = TransientVPSolver(applied, caps, dt, vp_config)
        stimulus = None
        if scenario.stimulus is not None:
            base_loads = [tier.loads.copy() for tier in applied.tiers]
            stimulus = scenario.stimulus.as_stimulus(base_loads)
        results.append(solver.run(t_end, stimulus, probes=probes))
    return results


def run_transient_sweep(
    stack: PowerGridStack,
    scenarios,
    capacitance,
    dt: float,
    t_end: float,
    config: BatchedTransientConfig | None = None,
    *,
    probes=(),
    compare_sequential: bool = False,
    factor_cache: PlaneFactorCache | None = None,
) -> TransientSweepReport:
    """Run a transient scenario sweep with the batched engine; optionally
    time the per-scenario sequential loop on the same sweep and
    cross-check the worst-voltage waveforms."""
    scenarios = ScenarioSet.ensure(scenarios)
    config = config or BatchedTransientConfig()

    solver = BatchedTransientSolver(
        stack, scenarios, capacitance, dt, config, factor_cache=factor_cache
    )
    result = solver.run(t_end, probes=probes)

    droops = result.worst_droop
    outcomes = []
    for k, scenario in enumerate(scenarios):
        record = scenario.describe()
        outcomes.append(
            TransientOutcome(
                scenario=scenario.name,
                stimulus=record.get("stimulus", "-"),
                load_scale=record["load_scale"],
                cap_scale=record.get("cap_scale", 1.0),
                worst_droop=float(droops[k]),
                min_voltage=float(result.worst_voltage[:, k].min()),
                outer_total=int(result.outer_iterations[:, k].sum()),
                settled_step=int(result.settled_step[k]),
            )
        )

    report = TransientSweepReport(
        stack_name=stack.name,
        n_nodes=stack.n_nodes,
        n_scenarios=len(scenarios),
        n_steps=result.stats.n_steps,
        dt=dt,
        outcomes=outcomes,
        batched_setup_seconds=result.stats.setup_seconds,
        batched_solve_seconds=result.stats.solve_seconds,
        n_groups=result.stats.n_groups,
        factorizations=result.stats.factorizations,
        column_steps=result.stats.column_steps,
        dc_columns=result.stats.dc_columns,
        batched_result=result,
    )

    if compare_sequential:
        t0 = time.perf_counter()
        sequential = run_sequential_transient(
            stack, scenarios, capacitance, dt, t_end, config, probes=probes
        )
        report.sequential_seconds = time.perf_counter() - t0
        parity = 0.0
        for k, seq in enumerate(sequential):
            parity = max(
                parity,
                float(
                    np.max(
                        np.abs(seq.worst_voltage - result.worst_voltage[:, k])
                    )
                ),
            )
        report.max_parity_error = parity
        report.sequential_droops = np.array(
            [seq.worst_droop for seq in sequential]
        )
    return report
