"""Figure-shaped experiment drivers: E2 (speedup series), E3 (memory
ratio series), E4 (accuracy), E5 (Fig. 3 convergence trace), E10 (Fig. 2
phase split).

The paper's figures proper are schematics; these drivers regenerate the
quantitative *claims* attached to them (10-20x speedup growing with size,
~3x memory, <=0.5 mV error, propagated voltage converging to VDD).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.circuits import PAPER_TABLE1
from repro.bench.reporting import ascii_table
from repro.bench.table1 import Table1Result
from repro.core.kernel import resolve_vda_policy
from repro.core.vp import VPConfig, VoltagePropagationSolver
from repro.grid.stack3d import PowerGridStack


@dataclass
class SeriesPoint:
    n_nodes: int
    measured: float
    paper: float | None


def speedup_series(table: Table1Result) -> list[SeriesPoint]:
    """E2: VP-vs-PCG speedup against circuit size, paper alongside."""
    points = []
    for row in table.rows:
        speedup = row.speedup_vs_pcg
        if speedup is None:
            continue
        paper = PAPER_TABLE1.get(row.circuit)
        points.append(
            SeriesPoint(
                n_nodes=row.n_nodes,
                measured=speedup,
                paper=paper.speedup_vs_pcg if paper else None,
            )
        )
    return points


def memory_ratio_series(table: Table1Result) -> list[SeriesPoint]:
    """E3: PCG/VP memory ratio against circuit size (paper: ~3x)."""
    points = []
    for row in table.rows:
        ratio = row.memory_ratio_vs_pcg
        if ratio is None:
            continue
        paper = PAPER_TABLE1.get(row.circuit)
        points.append(
            SeriesPoint(
                n_nodes=row.n_nodes,
                measured=ratio,
                paper=paper.memory_ratio_vs_pcg if paper else None,
            )
        )
    return points


def render_series(points: list[SeriesPoint], quantity: str) -> str:
    headers = ["nodes", f"measured {quantity}", f"paper {quantity}"]
    rows = [
        [p.n_nodes, f"{p.measured:.2f}", f"{p.paper:.2f}" if p.paper else None]
        for p in points
    ]
    return ascii_table(headers, rows)


# ----------------------------------------------------------------------
# E5: Fig. 3 semantics -- the propagated source voltage converging to VDD
# ----------------------------------------------------------------------
@dataclass
class Fig3Trace:
    """Per-outer-iteration trajectory of the VP boundary state."""

    max_vdiff: list[float] = field(default_factory=list)
    probe_propagated: list[float] = field(default_factory=list)
    probe_v0: list[float] = field(default_factory=list)
    v_pin: float = 0.0
    converged: bool = False

    def monotone_after(self, k: int = 1) -> bool:
        """True when ``max |Vdiff|`` is non-increasing from iteration
        ``k`` on (the paper's VDA principle)."""
        tail = self.max_vdiff[k:]
        return all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))


def fig3_trace(
    stack: PowerGridStack,
    probe_pillar: int = 0,
    config: VPConfig | None = None,
) -> Fig3Trace:
    """Run VP while recording the propagated source voltage of one pillar
    (Fig. 3's V0 + sum I_k R_TSV) every outer iteration."""
    from repro.core.vda import VDAPolicy as _VDAPolicy

    config = config or VPConfig()
    trace = Fig3Trace(v_pin=stack.v_pin)

    class _RecordingPolicy(_VDAPolicy):
        """Wraps the configured VDA policy to observe v0 per iteration."""

        def __init__(self, inner):
            self.inner = inner

        def reset(self, n):
            self.inner.reset(n)

        def update(self, v0, residual, active=None):
            # The kernel passes (P, 1) column batches.
            trace.probe_v0.append(float(v0[probe_pillar, 0]))
            trace.probe_propagated.append(
                float(stack.v_pin - residual[probe_pillar, 0])
            )
            trace.max_vdiff.append(float(np.max(np.abs(residual))))
            return self.inner.update(v0, residual, active=active)

    from dataclasses import replace

    solver = VoltagePropagationSolver(stack, replace(config))
    base = resolve_vda_policy(
        solver.config.vda, solver.config.eta, solver.pillars.auto_eta
    )
    solver.config.vda = _RecordingPolicy(base)
    result = solver.solve()
    # The converged final state is not passed through VDA; append it.
    trace.max_vdiff.append(result.max_vdiff)
    trace.converged = result.converged
    return trace


# ----------------------------------------------------------------------
# E10: Fig. 2 phase split
# ----------------------------------------------------------------------
def phase_breakdown(
    stack: PowerGridStack, config: VPConfig | None = None
) -> dict[str, float]:
    """Seconds spent in each VP phase (CVN / TSV current / propagation /
    VDA), matching the pseudocode structure of Fig. 2."""
    solver = VoltagePropagationSolver(stack, config or VPConfig())
    result = solver.solve()
    breakdown = dict(result.stats.phase_seconds)
    breakdown["total"] = result.stats.solve_seconds
    breakdown["outer_iterations"] = float(result.outer_iterations)
    return breakdown
