"""Finite-difference cross-checker for the adjoint gradients.

Central differences over the same parameterization: each sampled
parameter pays two full solves of the materialized design point, which
is exactly why the adjoint engine exists -- and exactly what makes this
module the right oracle for it (no shared code path beyond the
parameter ``apply``).

Two solver backends:

* ``solver="vp"`` (default) -- the honest end-to-end path: materialize
  the stack, run :func:`repro.core.vp.solve_vp` with the direct inner
  solver at a tight outer tolerance;
* ``solver="direct"`` -- assemble the full 3-D system and solve it with
  one sparse LU; machine-accurate, used where FD truncation is the only
  error term wanted.
"""

from __future__ import annotations

import numpy as np

from repro.core.vp import VPConfig, VoltagePropagationSolver
from repro.errors import ReproError
from repro.grid.conductance import stack_system, stack_voltage_array
from repro.grid.stack3d import PowerGridStack
from repro.linalg.direct import DirectSolver
from repro.scenarios.spec import Scenario
from repro.sensitivity.adjoint import DropMetric, net_sign
from repro.sensitivity.params import ParameterSpace

__all__ = ["compare_gradients", "finite_difference_gradient"]


def _solve_point(
    stack: PowerGridStack,
    solver: str,
    outer_tol: float,
    max_outer: int,
) -> np.ndarray:
    if solver == "direct":
        matrix, b = stack_system(stack)
        return stack_voltage_array(stack, DirectSolver(matrix).solve(b))
    if solver != "vp":
        raise ReproError(f"unknown FD solver {solver!r}; use 'vp' or 'direct'")
    config = VPConfig(
        inner="direct",
        outer_tol=outer_tol,
        max_outer=max_outer,
        v0_init="loadshare",
    )
    return VoltagePropagationSolver(stack, config).solve().voltages


def finite_difference_gradient(
    params: ParameterSpace,
    metric: DropMetric,
    *,
    values: np.ndarray | None = None,
    indices: np.ndarray | list[int] | None = None,
    step: float = 1e-3,
    scenario: Scenario | None = None,
    solver: str = "vp",
    outer_tol: float = 1e-11,
    max_outer: int = 2000,
) -> np.ndarray:
    """Central-difference gradient over ``indices`` (default: all).

    ``step`` is the absolute perturbation of each multiplier (design
    vectors are dimensionless around 1, so absolute and relative steps
    coincide at the default design point).  Returns an array matching
    ``indices`` in order; unsampled entries are simply not computed --
    at two solves per parameter this is the cost the adjoint benchmark
    measures.
    """
    x = params.check(values)
    if indices is None:
        indices = np.arange(params.size)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= params.size):
        raise ReproError(
            f"FD index outside parameter space of size {params.size}"
        )
    if step <= 0:
        raise ReproError("FD step must be positive")

    sign = net_sign(params.stack.net)
    v_pin = params.stack.v_pin
    out = np.empty(indices.size)
    for k, idx in enumerate(indices):
        samples = []
        for direction in (+1.0, -1.0):
            xk = x.copy()
            xk[idx] += direction * step
            point = params.apply(xk)
            if scenario is not None:
                point = scenario.apply(point)
            voltages = _solve_point(point, solver, outer_tol, max_outer)
            samples.append(metric.value(voltages, v_pin, sign))
        out[k] = (samples[0] - samples[1]) / (2.0 * step)
    return out


def compare_gradients(
    adjoint: np.ndarray,
    fd: np.ndarray,
    *,
    indices: np.ndarray | list[int] | None = None,
    atol: float = 0.0,
) -> dict:
    """Elementwise comparison report of adjoint vs FD gradients.

    ``indices`` selects which entries of the (full) adjoint gradient the
    FD samples correspond to.  The relative error of each pair is
    ``|a - f| / max(|f|, atol)``; ``atol`` guards near-zero gradients
    (where FD noise dominates any relative measure).
    """
    adjoint = np.asarray(adjoint, dtype=float)
    if indices is not None:
        adjoint = adjoint[np.asarray(indices, dtype=np.int64)]
    fd = np.asarray(fd, dtype=float)
    if adjoint.shape != fd.shape:
        raise ReproError(
            f"gradient shapes differ: {adjoint.shape} vs {fd.shape}"
        )
    denom = np.maximum(np.abs(fd), atol if atol > 0 else 1e-300)
    rel = np.abs(adjoint - fd) / denom
    worst = int(np.argmax(rel)) if rel.size else 0
    return {
        "n_compared": int(fd.size),
        "max_rel_error": float(rel.max()) if rel.size else 0.0,
        "mean_rel_error": float(rel.mean()) if rel.size else 0.0,
        "max_abs_error": float(np.abs(adjoint - fd).max()) if rel.size else 0.0,
        "worst_index": worst,
    }
