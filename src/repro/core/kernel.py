"""The VP outer-iteration kernel: the one loop every VP engine runs.

One outer iteration is the paper's Fig. 2/3: per tier, bottom-up, solve
the plane with its pillar nodes held (CVN), take the currents it draws
through its pillars and propagate the pillar voltages up the TSV
segments; then drive the propagated source voltages to the pin target
(VDA).  :func:`run_outer_loop` runs it in lockstep over a ``(P, S)``
column batch, retiring columns as they converge.  An engine plugs in a
plane operator (:class:`PlaneOperator`) and a pin target: VDD for the
forward engines, 0 V for the adjoint (its pin rail is grounded).
Besides the loop, the setup every engine shares lives here:
:func:`pillar_gain`, :func:`resolve_vda_policy` and :func:`seed_v0`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.planes import ReducedPlaneSystem
from repro.core.vda import VDAPolicy, make_vda_policy
from repro.errors import ConvergenceError, GridError

#: Gain-bound damping below which the ``"auto"`` VDA rule abandons the
#: paper's adaptive policy for Anderson acceleration (stiff pillars).
AUTO_ETA_THRESHOLD = 0.05
#: Anderson window the ``"auto"`` rule uses in the stiff regime.
AUTO_ANDERSON_WINDOW = 30
#: The timed phases of one outer iteration (Fig. 2), as ``phase_seconds``
#: keys.
PHASES = ("cvn", "tsv", "propagate", "vda")


def narrow_columns(matrix: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Columns ``idx`` of ``matrix``, without a copy when all are live."""
    return matrix if idx.size == matrix.shape[1] else matrix[:, idx]


@dataclass
class PillarGain:
    """Per-column pillar data of a batch (see :func:`pillar_gain`)."""

    r_seg: np.ndarray           # (T, P, S) segment resistances
    has_pin: np.ndarray         # (P, S)
    bound: np.ndarray           # (P, S) gain bound
    auto_eta: np.ndarray        # (S,) gain-bound damping
    r_unit: np.ndarray | None   # (P, S); None when every pillar is pinned


def pillar_gain(
    degree: np.ndarray, r_seg: np.ndarray, has_pin: np.ndarray
) -> PillarGain:
    """Stability bound, damping and residual scale of a column batch.

    Raising ``V0(j)`` by 1 V raises the propagated source voltage by at
    most ``prod_l (1 + r_seg[l, j] * G_deg(j))`` volts, ``G_deg`` being
    the tier-0 plane conductance at the pillar node (``degree``,
    ``(P, S)``), so ``1 / bound`` is a safe Richardson step (``auto_eta``,
    capped at 0.5).  Un-pinned pillars report leftover current, turned
    into volts by the total pillar resistance plus a local
    plane-spreading estimate (``r_unit``).  ``r_seg`` is ``(T, P, S)``;
    ``has_pin`` is ``(P,)`` or ``(P, S)``.
    """
    n_pillars, n_cols = degree.shape
    bound = np.ones((n_pillars, n_cols))
    for r_l in r_seg:
        bound *= 1.0 + r_l * degree
    peak = np.maximum(bound.max(axis=0), 1.0) if n_pillars else np.ones(n_cols)
    has_pin = np.broadcast_to(
        has_pin if has_pin.ndim == 2 else has_pin[:, None], degree.shape
    )
    r_unit = None
    if not np.all(has_pin):
        series = (
            r_seg[:-1].sum(axis=0)
            if len(r_seg) > 1
            else np.zeros((n_pillars, n_cols))
        )
        r_unit = series + 1.0 / np.maximum(degree, 1e-12)
    return PillarGain(r_seg, has_pin, bound, np.minimum(0.5, 1.0 / peak), r_unit)


class _ColumnSplitVDA(VDAPolicy):
    """Different policies on disjoint column subsets (the ``"auto"``
    rule on a batch mixing healthy and stiff design points).

    Each sub-policy sees the full ``(P, S)`` batch every iteration,
    keeping its per-column state aligned with the batch layout; the
    split only selects whose output each column uses.
    """

    name = "auto-split"

    def __init__(self, parts: list[tuple[VDAPolicy, np.ndarray]]):
        self.parts = parts

    def reset(self, n_pillars) -> None:
        for policy, _ in self.parts:
            policy.reset(n_pillars)

    def update(
        self,
        v0: np.ndarray,
        residual: np.ndarray,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        out = np.array(v0, copy=True)
        for policy, cols in self.parts:
            sub = cols if active is None else (cols & active)
            v_new = policy.update(v0, residual, active=sub)
            out[:, cols] = v_new[:, cols]
        return out


def resolve_vda_policy(
    vda: str | VDAPolicy, eta, auto_eta: np.ndarray
) -> VDAPolicy:
    """Materialize a VDA policy; ``auto_eta`` ``(S,)`` is the damping
    used when ``eta`` is None.

    ``"auto"`` gives the paper's adaptive rule to columns whose
    gain-bound damping is healthy and Anderson acceleration (window 30)
    to columns whose stiffest pillar forces tiny damping, so every
    column gets the policy a 1-column solve of it would pick.
    """
    if isinstance(vda, VDAPolicy):
        return vda
    eta = auto_eta if eta is None else eta
    if vda != "auto":
        return make_vda_policy(vda, **{"eta" if vda == "fixed" else "eta0": eta})
    soft = auto_eta >= AUTO_ETA_THRESHOLD
    parts = [
        (make_vda_policy("adaptive", eta0=eta), soft),
        (make_vda_policy("anderson", m=AUTO_ANDERSON_WINDOW, eta0=eta), ~soft),
    ]
    parts = [(policy, cols) for policy, cols in parts if cols.any()]
    return parts[0][0] if len(parts) == 1 else _ColumnSplitVDA(parts)


def loadshare_v0(
    v_pin: float, r_seg: np.ndarray, tier_totals: np.ndarray, n_pillars: int
) -> np.ndarray:
    """The ``v0_init="loadshare"`` seed ``(P, S)``.

    Segment ``l`` carries roughly an equal share ``sum_{m <= l} load_m
    / P`` of the ``(T, S)`` tier loads, so ``V0 ~= v_pin - sum_l
    r_seg[l] * i_seg,l`` with ``r_seg`` ``(T, P, S)``.
    """
    seg_currents = np.cumsum(np.asarray(tier_totals, dtype=float), axis=0)
    seg_currents = seg_currents / max(n_pillars, 1)
    return v_pin - (r_seg * seg_currents[:, None, :]).sum(axis=0)


def seed_v0(
    v0: np.ndarray | None,
    pillars: PillarGain,
    target: float,
    v0_init: str = "pin",
    tier_totals: np.ndarray | None = None,
) -> np.ndarray:
    """A fresh ``(P, S)`` layer-0 seed: ``v0`` itself (``(P,)`` seeds
    every column alike), else ``v0_init`` -- the pin target (the paper's
    ``V0 = VDD``) or :func:`loadshare_v0` over ``tier_totals``.

    Raises
    ------
    GridError
        If ``v0`` has neither accepted shape.
    """
    n_pillars, n_cols = pillars.bound.shape
    if v0 is not None:
        v0 = np.array(v0, dtype=float)
        if v0.shape == (n_pillars,):
            return np.repeat(v0[:, None], n_cols, axis=1)
        if v0.shape != (n_pillars, n_cols):
            raise GridError(
                f"v0 has shape {v0.shape}, expected ({n_pillars},) "
                f"or ({n_pillars}, {n_cols})"
            )
        return v0
    if v0_init == "pin" or n_pillars == 0:
        return np.full((n_pillars, n_cols), float(target))
    return loadshare_v0(target, pillars.r_seg, tier_totals, n_pillars)


class PlaneOperator:
    """The kernel's plane plug point; it owns the batch's right-hand
    sides.  ``idx`` lists the live batch columns (sorted), and
    ``pillar_v`` / ``v_full`` carry one column per entry of ``idx``."""

    #: Nodes per tier.
    n: int

    def begin(self, max_vdiff: np.ndarray) -> None:
        """Hook run before each outer iteration's tier sweep with the
        ``(S,)`` residual norms so far (``inf`` before the first)."""

    def solve(self, l, pillar_v, idx, out) -> np.ndarray:
        """Tier ``l``'s ``(n, k)`` field with its pillar nodes held at
        ``pillar_v`` ``(P, k)``, written into ``out`` when given (every
        full-width iteration)."""
        raise NotImplementedError

    def drawn(self, l, v_full, idx) -> np.ndarray:
        """``(P, k)`` currents the pillars deliver into tier ``l``."""
        raise NotImplementedError


class FactoredPlanes(PlaneOperator):
    """Plane operator over a factorized
    :class:`~repro.core.planes.ReducedPlaneSystem` with pillar rows.

    ``b_free`` / ``b_pillar`` hold one ``(n_free, S)`` / ``(P, S)``
    right-hand side per tier; ``scale`` is an optional ``(T, S)``
    conductance multiplier (the scaled-factor fast path).  ``trans="T"``
    back-substitutes on the transposed factors (the adjoint); the pillar
    rows of the symmetric ``G^T`` are those of ``G``.
    """

    def __init__(
        self,
        planes: ReducedPlaneSystem,
        b_free: list[np.ndarray],
        b_pillar: list[np.ndarray],
        scale: np.ndarray | None = None,
        trans: str = "N",
    ):
        self.planes = planes
        self.n = planes.n
        self.b_free = b_free
        self.b_pillar = b_pillar
        self.scale = scale
        self.trans = trans

    def _scale(self, l: int, idx: np.ndarray):
        return None if self.scale is None else narrow_columns(self.scale, idx)[l]

    def solve(self, l, pillar_v, idx, out):
        x_free = self.planes.solve_free(
            l,
            pillar_v,
            b_free=narrow_columns(self.b_free[l], idx),
            scale=self._scale(l, idx),
            trans=self.trans,
        )
        return self.planes.assemble(x_free, pillar_v, out=out)

    def drawn(self, l, v_full, idx):
        return self.planes.drawn_currents(
            l,
            v_full,
            b_pillar=narrow_columns(self.b_pillar[l], idx),
            scale=self._scale(l, idx),
        )


@dataclass
class BatchOuterRecord:
    """Telemetry of one batched outer iteration."""

    iteration: int
    active_scenarios: int
    max_vdiff: np.ndarray  # (S,) snapshot (inf until first visited)


@dataclass
class OuterLoop:
    """One kernel run; arrays carry the column axis last."""

    voltages: np.ndarray          # (T, n, S)
    converged: np.ndarray         # (S,) bool
    outer_counts: np.ndarray      # (S,) retirement iteration per column
    max_vdiff: np.ndarray         # (S,)
    pillar_v0: np.ndarray         # (P, S)
    pillar_currents: np.ndarray   # (P, S)
    outer_iterations: int
    column_solves: int            # live columns summed over iterations
    phase_seconds: dict[str, float]
    seconds: float
    history: list[BatchOuterRecord]


def run_outer_loop(
    op: PlaneOperator,
    pillars: PillarGain,
    v0: np.ndarray,
    config,
    *,
    target: float,
    engine: str,
) -> OuterLoop:
    """Run the VP outer iteration in lockstep over a column batch.

    Per outer iteration: solve every tier for the live columns
    (``op.solve``), accumulate their pillar currents (``op.drawn``) and
    propagate; the residual is ``target - V'dd`` at pinned pillars and
    the leftover current in volts at un-pinned ones.  Columns within
    ``config.outer_tol`` retire with their fields frozen, the rest take
    the ``config.vda`` update.  ``v0`` (:func:`seed_v0`) is updated in
    place.  ``config`` is a :class:`~repro.core.batch.BatchedVPConfig`
    (or an engine's subclass of it).  Every iteration appends a
    :class:`BatchOuterRecord` to the history.  ``engine`` prefixes the
    telemetry: ``<engine>.column_solves`` /
    ``.retirements`` / ``.outer_iterations`` counters, the
    ``<engine>.residual`` series and the ``<engine>.solve`` span around
    per-tier ``cvn`` and ``tsv`` spans.

    Raises
    ------
    ConvergenceError
        When ``config.raise_on_divergence`` is set and a column is still
        above tolerance after ``config.max_outer`` iterations.
    """
    n_pillars, n_cols = v0.shape
    with obs.Stopwatch(f"{engine}.solve", columns=n_cols) as solve_sw:
        n_tiers = len(pillars.r_seg)
        policy = resolve_vda_policy(config.vda, config.eta, pillars.auto_eta)
        policy.reset((n_pillars, n_cols))

        # Uninitialized is safe: every column is stored either when it
        # retires or at loop exit (stragglers) -- and 33 MB+ memsets per
        # solve are measurable in the transient step loop.
        voltages = np.empty((n_tiers, op.n, n_cols))
        phase = dict.fromkeys(PHASES, 0.0)
        reg = obs.metrics()
        residual_series = obs.active_series(f"{engine}.residual")
        column_counter = f"{engine}.column_solves"
        history: list[BatchOuterRecord] = []
        active = np.ones(n_cols, dtype=bool)
        converged = np.zeros(n_cols, dtype=bool)
        outer_counts = np.zeros(n_cols, dtype=int)
        max_f = np.full(n_cols, np.inf)
        residual_full = np.zeros((n_pillars, n_cols))
        pillar_currents = np.zeros((n_pillars, n_cols))
        column_solves = 0
        outer_iterations = 0

        idx = np.flatnonzero(active)
        fields: list[np.ndarray] = []
        in_place = False
        for outer in range(1, config.max_outer + 1):
            idx = np.flatnonzero(active)
            n_live = int(idx.size)
            column_solves += n_live
            reg.add(column_counter, n_live)
            # Full-width iterations assemble straight into the result
            # buffer, so retirement needs no copy for them.
            in_place = n_live == n_cols
            pillar_v = v0.copy() if in_place else v0[:, idx]
            cumulative = np.zeros((n_pillars, n_live))
            fields = []
            op.begin(max_f)

            for l in range(n_tiers):
                with obs.Stopwatch("cvn", outer=outer, tier=l, columns=n_live) as sw:
                    v_full = op.solve(
                        l, pillar_v, idx, voltages[l] if in_place else None
                    )
                    fields.append(v_full)
                phase["cvn"] += sw.seconds

                with obs.Stopwatch("tsv", outer=outer, tier=l, columns=n_live) as sw:
                    cumulative += op.drawn(l, v_full, idx)
                phase["tsv"] += sw.seconds

                with obs.Stopwatch(None) as sw:
                    pillar_v = pillar_v + cumulative * narrow_columns(
                        pillars.r_seg[l], idx
                    )
                phase["propagate"] += sw.seconds

            pillar_currents[:, idx] = cumulative
            if pillars.r_unit is None:
                residual = target - pillar_v
            else:
                residual = np.where(
                    narrow_columns(pillars.has_pin, idx),
                    target - pillar_v,
                    -cumulative * narrow_columns(pillars.r_unit, idx),
                )
            residual_full[:, idx] = residual
            f_active = (
                np.max(np.abs(residual), axis=0) if n_pillars else np.zeros(n_live)
            )
            max_f[idx] = f_active
            outer_counts[idx] = outer
            if residual_series is not None:
                residual_series.append(outer, float(f_active.max()))

            # Retire freshly converged columns: freeze their fields now
            # (still-active columns are rewritten every iteration anyway,
            # so they are only stored on retirement or at loop exit).
            done = f_active <= config.outer_tol
            if np.any(done):
                reg.add(f"{engine}.retirements", int(done.sum()))
                cols = idx[done]
                if not in_place:
                    for l in range(n_tiers):
                        voltages[l][:, cols] = fields[l][:, done]
                converged[cols] = True
                active[cols] = False
            outer_iterations = outer
            history.append(BatchOuterRecord(outer, int(active.sum()), max_f.copy()))
            if not active.any():
                break

            with obs.Stopwatch(None) as sw:
                # Full-width update, masked write-back: retired columns
                # stay frozen while the policy's per-column state keeps
                # indexing consistent with the batch layout.
                v_new = policy.update(v0, residual_full, active=active)
                live = np.flatnonzero(active)
                v0[:, live] = v_new[:, live]
            phase["vda"] += sw.seconds

        if active.any() and not in_place:
            # max_outer exhausted: store the stragglers' last fields
            # (``fields`` columns follow ``idx`` of the final iteration;
            # full-width iterations already wrote in place).
            live = active[idx]
            cols = np.flatnonzero(active)
            for l in range(n_tiers):
                voltages[l][:, cols] = fields[l][:, live]
        solve_sw.attrs["outer_iterations"] = outer_iterations
        solve_sw.attrs["converged"] = int(converged.sum())

    reg.add(f"{engine}.outer_iterations", outer_iterations)
    if config.raise_on_divergence and not converged.all():
        stragglers = np.flatnonzero(~converged)
        worst = float(max_f.max())
        raise ConvergenceError(
            f"{engine}: {stragglers.size} of {n_cols} column(s) did not "
            f"converge in {config.max_outer} outer iterations (max residual "
            f"{worst:.3e}; columns {stragglers[:5].tolist()})",
            outer_iterations,
            worst,
        )
    return OuterLoop(
        voltages, converged, outer_counts, max_f, v0, pillar_currents,
        outer_iterations, column_solves, phase, solve_sw.seconds, history,
    )
