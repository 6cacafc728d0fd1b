"""Transient (RC) extension of the Voltage Propagation method.

The paper analyzes the static (DC) IR drop; real sign-off also needs the
transient droop when load currents switch.  With node-to-ground
decoupling/parasitic capacitance ``C`` the network obeys

    C dv/dt + G v = b(t)

and a backward-Euler step of size ``h`` turns each time point into a DC
problem with extra diagonal conductance::

    (G + C/h) v_k = b(t_k) + (C/h) v_{k-1}

That companion system has *more* diagonal mass than the DC one, so every
property VP relies on still holds -- the per-tier plane matrices simply
gain ``C/h`` on the diagonal and the RHS gains the history term.  The
solver below builds the companion structure once per step size and then
advances with warm-started VP solves; with the cached-direct inner solver
a step costs three triangular back-substitutions plus the outer loop.

Capacitors are node-to-ground (the standard decap/parasitic model); TSVs
stay purely resistive pillars as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.errors import GridError, ReproError
from repro.core.vp import VPConfig, VPResult, VoltagePropagationSolver
from repro.grid.stack3d import PowerGridStack

#: Type of a load stimulus: maps time (s) to per-tier load arrays (A).
LoadStimulus = Callable[[float], list[np.ndarray]]


def normalize_capacitance(
    stack: PowerGridStack, capacitance: float | Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Validate and normalize node capacitance to per-tier arrays.

    Parameters
    ----------
    stack:
        The grid whose tier shapes and TSV keep-out mask apply.
    capacitance:
        Per-tier ``(rows, cols)`` arrays in farads, or a scalar applied
        to every non-TSV node.

    Returns
    -------
    list of numpy.ndarray
        One ``(rows, cols)`` array per tier, zeroed at pillar nodes: the
        TSV keep-out applies to decap too, because the history current
        of a pillar-node capacitor would violate the plane solvers'
        zero-load assumption at Dirichlet nodes.

    Raises
    ------
    ReproError
        If a scalar capacitance is not positive.
    GridError
        On a tier-count/shape mismatch or negative entries.
    """
    mask = stack.pillar_mask()
    if np.isscalar(capacitance):
        value = float(capacitance)  # type: ignore[arg-type]
        if value <= 0:
            raise ReproError("capacitance must be positive")
        caps = []
        for _ in stack.tiers:
            field_ = np.full((stack.rows, stack.cols), value)
            field_[mask] = 0.0
            caps.append(field_)
        return caps
    caps = [np.asarray(c, dtype=float).copy() for c in capacitance]
    if len(caps) != stack.n_tiers:
        raise GridError(
            f"expected {stack.n_tiers} capacitance arrays, got {len(caps)}"
        )
    for c in caps:
        if c.shape != (stack.rows, stack.cols):
            raise GridError(
                f"capacitance shape {c.shape} != "
                f"{(stack.rows, stack.cols)}"
            )
        if np.any(c < 0):
            raise GridError("capacitance must be non-negative")
        c[mask] = 0.0
    return caps


def step_stimulus(
    base_loads: Sequence[np.ndarray],
    *,
    t_step: float,
    before: float = 0.2,
    after: float = 1.0,
) -> LoadStimulus:
    """Loads scaled by ``before`` until ``t_step``, ``after`` afterwards --
    the classic worst-case di/dt event (clock gating released)."""

    def at(t: float) -> list[np.ndarray]:
        scale = before if t < t_step else after
        return [loads * scale for loads in base_loads]

    return at


def pulse_train_stimulus(
    base_loads: Sequence[np.ndarray],
    *,
    period: float,
    duty: float = 0.5,
    low: float = 0.2,
    high: float = 1.0,
) -> LoadStimulus:
    """Periodic activity bursts (duty-cycled switching)."""
    if not 0 < duty < 1:
        raise ReproError("duty cycle must be in (0, 1)")

    def at(t: float) -> list[np.ndarray]:
        phase = (t % period) / period
        scale = high if phase < duty else low
        return [loads * scale for loads in base_loads]

    return at


@dataclass
class TransientResult:
    """Waveforms of a transient run.

    ``worst_voltage[k]`` is the minimum node voltage at time ``times[k]``
    (maximum droop for a VDD net); ``probe_voltages`` holds the full
    trajectory of the requested probe nodes; ``voltages`` the final field.
    """

    times: np.ndarray
    worst_voltage: np.ndarray
    probe_voltages: np.ndarray
    probes: list[tuple[int, int, int]]
    voltages: np.ndarray
    outer_iterations: list[int] = field(default_factory=list)

    @property
    def worst_droop(self) -> float:
        """Worst instantaneous droop below the initial worst voltage."""
        return float(self.worst_voltage[0] - self.worst_voltage.min())


class TransientVPSolver:
    """Backward-Euler transient analysis driven by VP steps.

    Parameters
    ----------
    stack:
        The power grid.  Loads stored in the stack provide the t=0
        operating point unless a stimulus is given.
    capacitance:
        Per-tier node capacitance arrays ``(rows, cols)`` in farads, or a
        scalar applied to every non-TSV node (TSV nodes follow the
        keep-out rule and carry no decap in this model).
    dt:
        Backward-Euler step (s).
    config:
        VP configuration for the per-step solves.
    """

    def __init__(
        self,
        stack: PowerGridStack,
        capacitance: float | Sequence[np.ndarray],
        dt: float,
        config: VPConfig | None = None,
    ):
        if dt <= 0:
            raise ReproError("dt must be positive")
        self.stack = stack
        self.dt = float(dt)
        self._caps = self._normalize_caps(capacitance)

        # Companion stack: same wiring, extra diagonal conductance C/h
        # expressed as a pad to a 0 V rail... but the companion term must
        # inject (C/h) v_prev, not (C/h)*v_pad, so we keep v_pad = 0 and
        # fold the history into per-step load overrides instead:
        #     (G + C/h) v = b_dc + (C/h) v_prev
        # <=> companion loads = loads_dc - (C/h) v_prev.
        self._companion = stack.copy()
        g_cap = [caps / self.dt for caps in self._caps]
        for tier, extra in zip(self._companion.tiers, g_cap):
            tier.g_pad = tier.g_pad + extra
            # v_pad stays as-is (0 for stacks); history enters via loads.
        self._g_cap = g_cap
        self._solver = VoltagePropagationSolver(
            self._companion, config or VPConfig()
        )
        self._dc_solver = VoltagePropagationSolver(stack, config or VPConfig())

    # ------------------------------------------------------------------
    def _normalize_caps(
        self, capacitance: float | Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        return normalize_capacitance(self.stack, capacitance)

    # ------------------------------------------------------------------
    def dc_operating_point(
        self, loads: list[np.ndarray] | None = None
    ) -> VPResult:
        """Initial condition: the DC solution of the (resistive) grid."""
        if loads is not None:
            self._dc_solver.update_loads(loads)
        return self._dc_solver.solve()

    def run(
        self,
        t_end: float,
        stimulus: LoadStimulus | None = None,
        *,
        probes: Sequence[tuple[int, int, int]] = (),
        v0: np.ndarray | None = None,
    ) -> TransientResult:
        """Advance from 0 to ``t_end`` in backward-Euler steps.

        ``stimulus(t)`` supplies per-tier loads at each step (defaults to
        the stack's static loads); ``probes`` are (tier, row, col) nodes
        whose waveforms are recorded; ``v0`` overrides the initial field
        (defaults to the DC operating point of the t=0 loads).
        """
        stack = self.stack
        base_loads = [tier.loads.copy() for tier in stack.tiers]
        stimulus = stimulus or (lambda t: base_loads)

        pillar_seed = None
        if v0 is None:
            dc = self.dc_operating_point(stimulus(0.0))
            if not dc.converged:
                raise ReproError(
                    "transient VP DC operating point did not converge"
                )
            v = dc.voltages.copy()
            # Seed the first companion solve from the DC pillar voltages
            # (later steps warm-start from the previous step anyway);
            # the batched engine mirrors this seed for exact parity.
            pillar_seed = dc.pillar_v0
        else:
            v = np.array(v0, dtype=float)
            expected = (stack.n_tiers, stack.rows, stack.cols)
            if v.shape != expected:
                raise GridError(f"v0 shape {v.shape} != {expected}")

        n_steps = int(np.ceil(t_end / self.dt))
        times = np.empty(n_steps + 1)
        worst = np.empty(n_steps + 1)
        probes = list(probes)
        probe_wave = np.empty((n_steps + 1, len(probes)))
        times[0] = 0.0
        worst[0] = float(v.min())
        for p, (l, i, j) in enumerate(probes):
            probe_wave[0, p] = v[l, i, j]

        reg = obs.metrics()
        outer_counts: list[int] = []
        for k in range(1, n_steps + 1):
            t = k * self.dt
            with obs.Stopwatch("step.solve", step=k):
                loads_t = stimulus(t)
                companion_loads = [
                    loads - g_cap * v[l]
                    for l, (loads, g_cap) in enumerate(zip(loads_t, self._g_cap))
                ]
                self._solver.update_loads(companion_loads)
                result = self._solver.solve(v0=pillar_seed)
                reg.add("transient.steps")
            if not result.converged:
                raise ReproError(
                    f"transient VP step at t={t:.3e}s did not converge"
                )
            v = result.voltages.copy()
            pillar_seed = result.pillar_v0
            outer_counts.append(result.outer_iterations)
            times[k] = t
            worst[k] = float(v.min())
            for p, (l, i, j) in enumerate(probes):
                probe_wave[k, p] = v[l, i, j]

        return TransientResult(
            times=times,
            worst_voltage=worst,
            probe_voltages=probe_wave,
            probes=probes,
            voltages=v,
            outer_iterations=outer_counts,
        )
