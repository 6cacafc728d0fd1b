"""Monte Carlo variation-analysis benchmark harness and reports.

The honest baseline for an ``N``-sample variation study is the loop a
user would otherwise write: materialize each sampled stack and run
``solve_vp(...)`` from scratch, paying one plane factorization (and a
full setup) per sample.  The factor-reuse driver
(:func:`repro.stochastic.run_monte_carlo`) batches same-geometry samples
against the cached baseline factors instead; the expected win grows with
the sample count and the factorization/back-substitution cost ratio
(target: >= 2x at 64 samples on a paper-scale grid, with zero
refactorizations on TSV-only sweeps).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bench.reporting import ascii_table, write_csv, write_json
from repro.grid.stack3d import PowerGridStack
from repro.stochastic.models import VariationSpec
from repro.stochastic.montecarlo import (
    MonteCarloConfig,
    MonteCarloResult,
    naive_monte_carlo,
    run_monte_carlo,
)

MC_QUANTILE_HEADERS = ["quantile", "worst_drop_mV", "ci_low_mV", "ci_high_mV"]


@dataclass
class MCReport:
    """Everything an ``repro mc`` run produced, renderable as
    table/CSV/JSON."""

    stack_name: str
    n_nodes: int
    result: MonteCarloResult
    mc_seconds: float
    naive_seconds: float | None = None
    max_parity_error: float | None = None
    parity_samples: int = 0

    @property
    def speedup(self) -> float | None:
        if self.naive_seconds is None:
            return None
        return self.naive_seconds / max(self.mc_seconds, 1e-12)

    def quantile_rows(self) -> list[list]:
        return [q.row() for q in self.result.quantiles]

    def table(self) -> str:
        return ascii_table(MC_QUANTILE_HEADERS, self.quantile_rows())

    def summary(self) -> str:
        result = self.result
        stats = result.stats
        lines = [
            f"{self.stack_name or 'stack'}: {self.n_nodes} nodes, "
            f"{result.n_samples} samples in {stats.n_batches} batches, "
            f"{self.mc_seconds:.3f}s "
            f"(baseline factorizations {stats.baseline_factorizations}, "
            f"refactorizations {stats.refactorizations})",
            f"worst drop: mean {result.mean_worst_drop * 1e3:.4f} mV, "
            f"sigma {result.std_worst_drop * 1e3:.4f} mV; "
            f"{int(result.converged.sum())}/{result.n_samples} converged",
        ]
        if result.violation is not None:
            v = result.violation
            lines.append(
                f"P(drop > {v.budget * 1e3:g} mV) = {v.probability:.4f} "
                f"[{v.ci_low:.4f}, {v.ci_high:.4f}] "
                f"({v.violations}/{v.trials} samples)"
            )
        if self.naive_seconds is not None:
            lines.append(
                f"naive per-sample loop {self.naive_seconds:.3f}s -> "
                f"speedup x{self.speedup:.1f}, max worst-drop parity error "
                f"{(self.max_parity_error or 0.0) * 1e3:.4f} mV "
                f"({self.parity_samples} samples spot-checked)"
            )
        return "\n".join(lines)

    def payload(self) -> dict:
        result = self.result
        stats = result.stats
        out = {
            "stack": self.stack_name,
            "n_nodes": self.n_nodes,
            "spec": result.spec,
            "seed": result.seed,
            "n_samples": result.n_samples,
            "converged_samples": int(result.converged.sum()),
            "mean_worst_drop_v": result.mean_worst_drop,
            "std_worst_drop_v": result.std_worst_drop,
            "quantiles": [
                {
                    "q": q.q,
                    "worst_drop_v": q.value,
                    "ci_low_v": q.ci_low,
                    "ci_high_v": q.ci_high,
                    "confidence": q.confidence,
                }
                for q in result.quantiles
            ],
            "convergence": result.convergence,
            "mc_seconds": self.mc_seconds,
            "stats": {
                "n_batches": stats.n_batches,
                "baseline_factorizations": stats.baseline_factorizations,
                "refactorizations": stats.refactorizations,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "column_solves": stats.column_solves,
                "setup_seconds": stats.setup_seconds,
                "solve_seconds": stats.solve_seconds,
            },
        }
        if result.violation is not None:
            v = result.violation
            out["violation"] = {
                "budget_v": v.budget,
                "probability": v.probability,
                "ci_low": v.ci_low,
                "ci_high": v.ci_high,
                "violations": v.violations,
                "trials": v.trials,
                "confidence": v.confidence,
            }
        if self.naive_seconds is not None:
            out["naive_seconds"] = self.naive_seconds
            out["speedup"] = self.speedup
            out["max_parity_error_v"] = self.max_parity_error
            out["parity_samples"] = self.parity_samples
        return out

    def to_csv(self, path) -> None:
        """Quantile table -- the sign-off numbers with their CIs, in the
        millivolt units the headers promise (same rows as the table)."""
        write_csv(path, MC_QUANTILE_HEADERS, self.quantile_rows())

    def to_json(self, path) -> None:
        write_json(path, self.payload())


def run_mc_benchmark(
    stack: PowerGridStack,
    spec: VariationSpec,
    n_samples: int,
    *,
    seed: int | None = None,
    config: MonteCarloConfig | None = None,
    compare_naive: bool = False,
    parity_subset: int = 4,
) -> MCReport:
    """Run the factor-reuse Monte Carlo driver; optionally time the naive
    per-sample ``solve_vp`` loop on the *same draws* and spot-check
    per-sample worst-drop parity on a subset."""
    config = config or MonteCarloConfig()
    draws = spec.sample(stack, n_samples, np.random.default_rng(seed))

    t0 = time.perf_counter()
    result = run_monte_carlo(
        stack, spec, n_samples, seed=seed, config=config, draws=draws
    )
    mc_seconds = time.perf_counter() - t0

    report = MCReport(
        stack_name=stack.name,
        n_nodes=stack.n_nodes,
        result=result,
        mc_seconds=mc_seconds,
    )
    if compare_naive:
        t0 = time.perf_counter()
        naive_worst = naive_monte_carlo(stack, draws, config=config)
        report.naive_seconds = time.perf_counter() - t0
        # The timed loop already solved every sample standalone; parity
        # is reported over an explicit subset to keep the contract (and
        # the assertion cost) well-defined even if the baseline timing
        # is ever swapped for a cheaper estimate.
        subset = np.linspace(
            0, n_samples - 1, min(parity_subset, n_samples)
        ).astype(int)
        report.parity_samples = subset.size
        report.max_parity_error = float(
            np.max(np.abs(result.worst_drops[subset] - naive_worst[subset]))
        )
    return report
