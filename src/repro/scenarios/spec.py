"""Scenario specifications for multi-corner 3-D power-grid analysis.

A *scenario* is one what-if point of a sweep: a load corner (per-tier
activity multipliers), a rail-current scaling, a TSV design/process
point, a metal-width (global conductance) scaling, or any combination.
Crucially, every knob a :class:`Scenario` exposes reuses one shared set
of plane factorizations:

* load and pad-current scalings only move the plane right-hand sides;
* TSV segment resistances -- whether the scalar ``r_tsv_scale`` design
  knob or a per-segment ``r_seg_scale`` process spread -- never enter
  the plane solves at all (the paper's "a resistance should not be
  processed twice" rule); they act in the propagation phase;
* ``plane_scale`` multiplies *every* conductance of a tier by one factor
  ``alpha``, so the scaled system ``alpha G x = b`` is solved against the
  unscaled factors (scale the coupling, back-substitute, divide) -- the
  scaled-factor fast path of
  :class:`repro.core.planes.ReducedPlaneSystem`.

That contract is what lets the batched engine
(:class:`repro.core.batch.BatchedVPSolver`) solve a whole
:class:`ScenarioSet` -- and the Monte Carlo variation driver
(:mod:`repro.stochastic`) whole sample populations -- with zero
refactorizations.

Transient sweeps add two more knobs that keep the same reuse story:

* ``stimulus`` -- a declarative :class:`StimulusSpec` (step, ramp, or
  pulse activity waveform) evaluated per time step; activity only moves
  the right-hand sides, exactly like ``load_scale``;
* ``cap_scale`` -- per-tier decap multipliers.  Capacitance enters the
  backward-Euler companion matrix ``G + C/h`` on the diagonal, so the
  batched transient engine (:mod:`repro.core.transient_batch`) groups
  scenarios by their ``(plane_scale, cap_scale)`` tuples and factorizes
  one companion system per group -- never per scenario or per step.

Both knobs are ignored by the DC engines (a DC solve has no time axis
and no capacitors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GridError, ReproError
from repro.grid.loads import scale_loads
from repro.grid.stack3d import PillarSet, PowerGridStack

#: Stimulus waveform kinds understood by :class:`StimulusSpec`.
STIMULUS_KINDS = ("step", "ramp", "pulse")


@dataclass(frozen=True)
class StimulusSpec:
    """Declarative activity waveform of one transient scenario.

    The spec maps time to a scalar activity multiplier applied to the
    scenario's (already ``load_scale``-scaled) loads; keeping it
    declarative -- instead of an opaque callable -- lets sweep
    generators build stimulus families, reports label them, and both the
    batched and the sequential transient paths evaluate the *same*
    waveform (the exact-parity contract).

    Parameters
    ----------
    kind:
        ``"step"`` (activity jumps at ``t_event``), ``"ramp"`` (linear
        transition over ``rise`` seconds starting at ``t_event``), or
        ``"pulse"`` (periodic burst: ``after`` for the first ``duty``
        fraction of each ``period``, ``before`` otherwise).
    t_event:
        Event time (s) of a step/ramp; ignored for pulses.
    before, after:
        Activity multipliers on either side of the event (for pulses:
        the low/high levels of the burst).  Must be >= 0.
    rise:
        Ramp duration (s); must be > 0 for ``"ramp"`` and 0 otherwise.
    period:
        Pulse period (s); must be > 0 for ``"pulse"`` and 0 otherwise.
    duty:
        High fraction of each pulse period, in (0, 1).
    """

    kind: str = "step"
    t_event: float = 0.0
    before: float = 1.0
    after: float = 1.0
    rise: float = 0.0
    period: float = 0.0
    duty: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in STIMULUS_KINDS:
            raise ReproError(
                f"unknown stimulus kind {self.kind!r}; use one of "
                f"{STIMULUS_KINDS}"
            )
        if self.before < 0 or self.after < 0:
            raise ReproError("stimulus activity levels must be >= 0")
        if self.kind == "ramp":
            if self.rise <= 0:
                raise ReproError("ramp stimulus needs rise > 0")
        elif self.rise != 0:
            raise ReproError(f"{self.kind} stimulus must keep rise = 0")
        if self.kind == "pulse":
            if self.period <= 0:
                raise ReproError("pulse stimulus needs period > 0")
            if not 0 < self.duty < 1:
                raise ReproError("pulse duty cycle must be in (0, 1)")
        elif self.period != 0:
            raise ReproError(f"{self.kind} stimulus must keep period = 0")

    def scale_at(self, t: float) -> float:
        """Activity multiplier at time ``t`` (s)."""
        if self.kind == "pulse":
            phase = (t % self.period) / self.period
            return self.after if phase < self.duty else self.before
        if t < self.t_event:
            return self.before
        if self.kind == "ramp" and t < self.t_event + self.rise:
            return self.before + (self.after - self.before) * (
                (t - self.t_event) / self.rise
            )
        return self.after

    def settles_at(self) -> float | None:
        """Time after which the waveform is constant (``None`` for
        pulses, which never settle)."""
        if self.kind == "pulse":
            return None
        return self.t_event + self.rise

    def as_stimulus(self, base_loads: Sequence[np.ndarray]):
        """Materialize as a sequential-path load stimulus: a callable
        ``t -> [loads * scale_at(t) per tier]`` accepted by
        :meth:`repro.core.transient.TransientVPSolver.run`."""
        base = list(base_loads)

        def at(t: float) -> list[np.ndarray]:
            scale = self.scale_at(t)
            return [loads * scale for loads in base]

        return at

    def label(self) -> str:
        """Compact report label, e.g. ``step(0.2->1)``."""
        if self.kind == "pulse":
            return f"pulse({self.before:g}/{self.after:g}@{self.duty:g})"
        arrow = f"{self.before:g}->{self.after:g}"
        if self.kind == "ramp":
            return f"ramp({arrow}/{self.rise:g}s)"
        return f"step({arrow})"


@dataclass(frozen=True)
class Scenario:
    """One design/operating point of a sweep.

    Parameters
    ----------
    name:
        Unique label used in reports and result lookups.
    load_scale:
        Multiplier on every tier's device currents: a scalar (global
        corner / pad-current scaling -- the total current delivered
        through the package pins scales by the same factor) or a
        per-tier tuple (activity corners).
    r_tsv_scale:
        Multiplier on every TSV segment resistance (a TSV process/design
        point).  Must be positive.
    plane_scale:
        Multiplier on every wire *and* pad conductance of a tier -- the
        metal-width / global-process scaling ``G -> alpha G``.  A scalar
        or a per-tier tuple; must be positive.  Solved against the
        shared factors via the scaled-factor fast path.
    r_seg_scale:
        Optional ``(T, P)`` per-segment multiplier on the TSV resistance
        table (process spread across individual vias), composing
        multiplicatively with ``r_tsv_scale``.  Must be positive.
    cap_scale:
        Multiplier on every tier's node decap (a decap budget/placement
        point): a scalar or a per-tier tuple; must be positive.  Only
        the transient engines read it -- it scales the ``C/h`` diagonal
        of the backward-Euler companion system, so scenarios sharing a
        ``(plane_scale, cap_scale)`` signature share one companion
        factorization.
    stimulus:
        Optional :class:`StimulusSpec` activity waveform for transient
        sweeps (``None`` means constant activity 1).  Ignored by the DC
        engines.
    """

    name: str
    load_scale: float | tuple[float, ...] = 1.0
    r_tsv_scale: float = 1.0
    plane_scale: float | tuple[float, ...] = 1.0
    r_seg_scale: np.ndarray | None = None
    cap_scale: float | tuple[float, ...] = 1.0
    stimulus: StimulusSpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("scenario needs a non-empty name")
        scales = np.atleast_1d(np.asarray(self.load_scale, dtype=float))
        if np.any(scales < 0):
            raise ReproError(f"scenario {self.name!r}: load_scale must be >= 0")
        if self.r_tsv_scale <= 0:
            raise ReproError(f"scenario {self.name!r}: r_tsv_scale must be > 0")
        planes = np.atleast_1d(np.asarray(self.plane_scale, dtype=float))
        if np.any(planes <= 0):
            raise ReproError(f"scenario {self.name!r}: plane_scale must be > 0")
        if self.r_seg_scale is not None:
            table = np.asarray(self.r_seg_scale, dtype=float)
            if table.ndim != 2:
                raise ReproError(
                    f"scenario {self.name!r}: r_seg_scale must be (T, P), "
                    f"got shape {table.shape}"
                )
            if np.any(table <= 0):
                raise ReproError(
                    f"scenario {self.name!r}: r_seg_scale must be > 0"
                )
            object.__setattr__(self, "r_seg_scale", table)
        caps = np.atleast_1d(np.asarray(self.cap_scale, dtype=float))
        if np.any(caps <= 0):
            raise ReproError(f"scenario {self.name!r}: cap_scale must be > 0")
        if self.stimulus is not None and not isinstance(
            self.stimulus, StimulusSpec
        ):
            raise ReproError(
                f"scenario {self.name!r}: stimulus must be a StimulusSpec"
            )

    @classmethod
    def nominal(cls, name: str = "nominal") -> "Scenario":
        """The identity operating point: every scale at 1, no stimulus.

        The canonical single-scenario batch -- ECO sessions and the
        placement optimizer evaluate against it when the caller supplies
        no scenario set of their own.
        """
        return cls(name=name)

    @staticmethod
    def _broadcast_tiers(
        value, n_tiers: int, name: str, what: str
    ) -> np.ndarray:
        scales = np.atleast_1d(np.asarray(value, dtype=float))
        if scales.size == 1:
            return np.full(n_tiers, float(scales[0]))
        if scales.size != n_tiers:
            raise GridError(
                f"scenario {name!r}: {scales.size} per-tier {what} "
                f"scales for a {n_tiers}-tier stack"
            )
        return scales

    def tier_scales(self, n_tiers: int) -> np.ndarray:
        """Per-tier load multipliers, broadcast to ``(n_tiers,)``."""
        return self._broadcast_tiers(self.load_scale, n_tiers, self.name, "load")

    def tier_plane_scales(self, n_tiers: int) -> np.ndarray:
        """Per-tier conductance multipliers, broadcast to ``(n_tiers,)``."""
        return self._broadcast_tiers(
            self.plane_scale, n_tiers, self.name, "plane"
        )

    def tier_cap_scales(self, n_tiers: int) -> np.ndarray:
        """Per-tier decap multipliers, broadcast to ``(n_tiers,)``."""
        return self._broadcast_tiers(self.cap_scale, n_tiers, self.name, "cap")

    def activity_at(self, t: float) -> float:
        """Stimulus activity multiplier at time ``t`` (1 when the
        scenario carries no stimulus)."""
        return 1.0 if self.stimulus is None else self.stimulus.scale_at(t)

    def r_seg_factors(self, r_seg: np.ndarray) -> np.ndarray:
        """Total TSV multiplier table ``(T, P)`` for a base segment table
        (scalar design knob times the optional per-segment spread)."""
        factors = np.full(r_seg.shape, float(self.r_tsv_scale))
        if self.r_seg_scale is not None:
            if self.r_seg_scale.shape != r_seg.shape:
                raise GridError(
                    f"scenario {self.name!r}: r_seg_scale shape "
                    f"{self.r_seg_scale.shape} != r_seg table {r_seg.shape}"
                )
            factors = factors * self.r_seg_scale
        return factors

    def apply(self, stack: PowerGridStack) -> PowerGridStack:
        """Materialize this scenario as a standalone stack copy.

        This is the reference path for the sequential baseline and for
        parity checks against the batched engine.
        """
        scales = self.tier_scales(stack.n_tiers)
        alphas = self.tier_plane_scales(stack.n_tiers)
        tiers = [tier.copy() for tier in stack.tiers]
        for tier, scale, alpha in zip(tiers, scales, alphas):
            tier.loads = scale_loads(tier.loads, scale)
            if alpha != 1.0:
                tier.g_h = tier.g_h * alpha
                tier.g_v = tier.g_v * alpha
                tier.g_pad = tier.g_pad * alpha
        pillars = PillarSet(
            positions=stack.pillars.positions.copy(),
            r_seg=stack.pillars.r_seg * self.r_seg_factors(stack.pillars.r_seg),
            v_pin=stack.pillars.v_pin,
            has_pin=stack.pillars.has_pin.copy(),
        )
        name = f"{stack.name}/{self.name}" if stack.name else self.name
        return PowerGridStack(tiers=tiers, pillars=pillars, name=name, net=stack.net)

    @staticmethod
    def _scale_label(value) -> float | str:
        scales = np.atleast_1d(np.asarray(value, dtype=float))
        if scales.size == 1:
            return float(scales[0])
        return "x".join(f"{s:g}" for s in scales)

    def describe(self) -> dict:
        """Flat record for CSV/JSON reports."""
        record = {
            "scenario": self.name,
            "load_scale": self._scale_label(self.load_scale),
            "r_tsv_scale": float(self.r_tsv_scale),
        }
        if not np.all(np.atleast_1d(np.asarray(self.plane_scale)) == 1.0):
            record["plane_scale"] = self._scale_label(self.plane_scale)
        if self.r_seg_scale is not None:
            record["r_seg_spread"] = (
                f"{float(self.r_seg_scale.min()):.3g}.."
                f"{float(self.r_seg_scale.max()):.3g}"
            )
        if not np.all(np.atleast_1d(np.asarray(self.cap_scale)) == 1.0):
            record["cap_scale"] = self._scale_label(self.cap_scale)
        if self.stimulus is not None:
            record["stimulus"] = self.stimulus.label()
        return record


class ScenarioSet(Sequence):
    """A validated, ordered collection of scenarios sharing one topology.

    All scenarios of a set are solvable against the same grid structure
    (same tiers, TSV positions, pin map); only right-hand sides and TSV
    segment resistances differ, which is exactly the contract the
    batched engine needs.
    """

    def __init__(self, scenarios: Iterable[Scenario]):
        self.scenarios: tuple[Scenario, ...] = tuple(scenarios)
        if not self.scenarios:
            raise ReproError("a scenario set needs at least one scenario")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ReproError(f"duplicate scenario names: {duplicates}")

    @classmethod
    def ensure(cls, obj) -> "ScenarioSet":
        """Coerce a ScenarioSet, a single Scenario, or an iterable."""
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, Scenario):
            return cls([obj])
        return cls(obj)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.scenarios)

    def __getitem__(self, index):
        return self.scenarios[index]

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.scenarios]

    def index_of(self, name: str) -> int:
        """Position of the scenario named ``name`` (its batch column).

        Raises
        ------
        ReproError
            If no scenario in the set carries that name.
        """
        for k, scenario in enumerate(self.scenarios):
            if scenario.name == name:
                return k
        raise ReproError(f"no scenario named {name!r}")

    def crossed_with(self, design: Scenario, sep: str = "+") -> "ScenarioSet":
        """Overlay one *design* scenario onto every operating scenario.

        The optimizer evaluates a candidate design point (e.g. a
        metal-width vector as ``plane_scale``) against all operating
        corners at once: scales compose multiplicatively per scenario
        (see :func:`repro.scenarios.sweeps.combine`), and the whole
        crossed set still shares the base factorization.
        """
        from repro.scenarios.sweeps import combine

        return ScenarioSet(
            [combine(design, s, sep=sep) for s in self.scenarios]
        )

    # ------------------------------------------------------------------
    def load_scale_matrix(self, n_tiers: int) -> np.ndarray:
        """``(T, S)`` per-tier load multipliers, one column per scenario."""
        return np.column_stack(
            [s.tier_scales(n_tiers) for s in self.scenarios]
        )

    def r_scale_vector(self) -> np.ndarray:
        """``(S,)`` scalar TSV-resistance multipliers (the design knob
        only; per-segment spreads live in :meth:`r_seg_table`)."""
        return np.array([s.r_tsv_scale for s in self.scenarios], dtype=float)

    def plane_scale_matrix(self, n_tiers: int) -> np.ndarray:
        """``(T, S)`` per-tier conductance multipliers, one column per
        scenario (all ones for sweeps that never touch metal width)."""
        return np.column_stack(
            [s.tier_plane_scales(n_tiers) for s in self.scenarios]
        )

    def r_seg_table(self, r_seg: np.ndarray) -> np.ndarray:
        """``(T, P, S)`` per-scenario TSV segment resistances for a base
        ``(T, P)`` table, combining the scalar design knob with any
        per-segment process spread."""
        return np.stack(
            [r_seg * s.r_seg_factors(r_seg) for s in self.scenarios], axis=2
        )

    def describe(self) -> list[dict]:
        """Per-scenario flat records (see :meth:`Scenario.describe`)."""
        return [s.describe() for s in self.scenarios]
