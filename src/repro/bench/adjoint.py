"""Adjoint-vs-finite-differences benchmark harness.

The honest baseline for a design gradient is what users would otherwise
run: central finite differences, two full VP solves per parameter.  The
adjoint engine prices *all* parameters with one forward plus one reverse
pass on the cached factors, so the expected win is ~``n_params`` (modulo
fixed costs).  This harness runs both on identical parameter spaces,
cross-checks a sampled subset, and reports the speedup --
``benchmarks/test_adjoint.py`` asserts >= 10x at >= 100 parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.reporting import ascii_table, write_csv, write_json
from repro.core.planes import PlaneFactorCache
from repro.grid.stack3d import PowerGridStack
from repro.sensitivity.adjoint import (
    DropMetric,
    GradientResult,
    SensitivityConfig,
    SmoothWorstDrop,
    adjoint_gradient,
)
from repro.sensitivity.fd import compare_gradients, finite_difference_gradient
from repro.sensitivity.params import ParameterSpace

ADJOINT_HEADERS = ["parameter", "adjoint_gradient", "fd_gradient", "rel_error"]


@dataclass
class AdjointBenchReport:
    """One adjoint-vs-FD run, renderable as table/CSV/JSON."""

    stack_name: str
    n_nodes: int
    n_params: int
    metric_name: str
    metric_value: float
    adjoint_seconds: float
    fd_seconds: float
    fd_params: int
    subset_indices: np.ndarray
    fd_subset: np.ndarray
    parity: dict
    gradient_result: GradientResult = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def speedup(self) -> float:
        """FD cost over adjoint cost, *per full gradient*: the measured
        FD time covers ``fd_params`` parameters, so it is scaled to the
        full space before dividing (exact when FD cost is linear in the
        parameter count, which two-solves-per-parameter is)."""
        full_fd = self.fd_seconds * (self.n_params / max(self.fd_params, 1))
        return full_fd / max(self.adjoint_seconds, 1e-12)

    def rows(self) -> list[list]:
        adjoint = self.gradient_result.gradient[self.subset_indices]
        out = []
        for k, idx in enumerate(self.subset_indices):
            fd = self.fd_subset[k]
            rel = abs(adjoint[k] - fd) / max(abs(fd), 1e-300)
            out.append(
                [
                    self.gradient_result.param_names[idx],
                    f"{adjoint[k]:.6e}",
                    f"{fd:.6e}",
                    f"{rel:.2e}",
                ]
            )
        return out

    def table(self) -> str:
        return ascii_table(ADJOINT_HEADERS, self.rows())

    def summary(self) -> str:
        return (
            f"{self.stack_name or 'stack'}: {self.n_nodes} nodes, "
            f"{self.n_params} parameters; adjoint {self.adjoint_seconds:.3f}s "
            f"vs FD {self.fd_seconds:.3f}s over {self.fd_params} params "
            f"-> x{self.speedup:.1f} per full gradient, max rel error "
            f"{self.parity['max_rel_error']:.2e} on "
            f"{self.parity['n_compared']} sampled parameters"
        )

    def payload(self) -> dict:
        return {
            "stack": self.stack_name,
            "n_nodes": self.n_nodes,
            "n_params": self.n_params,
            "metric": self.metric_name,
            "metric_value_v": float(self.metric_value),
            "adjoint_seconds": float(self.adjoint_seconds),
            "fd_seconds": float(self.fd_seconds),
            "fd_params": int(self.fd_params),
            "speedup": float(self.speedup),
            "parity": self.parity,
            "new_factorizations": int(
                self.gradient_result.new_factorizations
            ),
            "adjoint_outer_iterations": int(
                self.gradient_result.adjoint_outer_iterations
            ),
            "subset": [
                {
                    "parameter": self.gradient_result.param_names[idx],
                    "adjoint": float(self.gradient_result.gradient[idx]),
                    "fd": float(self.fd_subset[k]),
                }
                for k, idx in enumerate(self.subset_indices)
            ],
        }

    def to_csv(self, path) -> None:
        write_csv(path, ADJOINT_HEADERS, self.rows())

    def to_json(self, path) -> None:
        write_json(path, self.payload())


def run_adjoint_benchmark(
    stack: PowerGridStack,
    params: ParameterSpace,
    metric: DropMetric | None = None,
    *,
    fd_params: int | None = None,
    parity_subset: int = 8,
    fd_step: float = 1e-4,
    seed: int = 0,
    config: SensitivityConfig | None = None,
) -> AdjointBenchReport:
    """Time the adjoint gradient against central FD on the same space.

    ``fd_params`` bounds how many parameters the FD baseline actually
    differentiates (it is O(2 solves) each; the speedup extrapolates
    linearly to the full space and says so in the report).  The parity
    subset is drawn from the FD-sampled indices.
    """
    metric = metric or SmoothWorstDrop()
    config = config or SensitivityConfig(forward_tol=1e-9, adjoint_tol=1e-10)
    rng = np.random.default_rng(seed)

    cache = PlaneFactorCache()
    cache.get(stack)  # prime the baseline outside the timing
    t0 = time.perf_counter()
    result = adjoint_gradient(params, metric, cache=cache, config=config)
    adjoint_seconds = time.perf_counter() - t0

    n_fd = params.size if fd_params is None else min(fd_params, params.size)
    fd_indices = np.sort(rng.choice(params.size, size=n_fd, replace=False))
    t0 = time.perf_counter()
    fd = finite_difference_gradient(
        params,
        metric,
        indices=fd_indices,
        step=fd_step,
        solver="vp",
        outer_tol=1e-10,
    )
    fd_seconds = time.perf_counter() - t0

    subset_positions = rng.choice(
        n_fd, size=min(parity_subset, n_fd), replace=False
    )
    subset_positions = np.sort(subset_positions)
    subset_indices = fd_indices[subset_positions]
    fd_subset = fd[subset_positions]
    # Near-zero gradients are FD noise; guard the relative measure with
    # an absolute floor well below any actionable sensitivity.
    parity = compare_gradients(
        result.gradient[subset_indices], fd_subset, atol=1e-9
    )

    return AdjointBenchReport(
        stack_name=stack.name,
        n_nodes=stack.n_nodes,
        n_params=params.size,
        metric_name=metric.name,
        metric_value=result.metric_value,
        adjoint_seconds=adjoint_seconds,
        fd_seconds=fd_seconds,
        fd_params=n_fd,
        subset_indices=subset_indices,
        fd_subset=fd_subset,
        parity=parity,
        gradient_result=result,
    )
