"""Batched multi-scenario VP engine -- shared-factorization CVN.

Sweeping load corners, rail-current scalings, TSV design points, or
metal-width corners with the plain solver means one
:func:`repro.core.vp.solve_vp` call per scenario, each re-deriving the
same per-tier plane structure.  But none of those knobs require a new
factorization: loads and pad currents only move the right-hand sides,
TSV resistances (scalar knob or per-segment spread) act purely in the
propagation phase, and a metal-width scaling ``G -> alpha G`` solves
against the unscaled factors via the scaled-factor fast path.  So all
scenarios of a sweep share one set of plane factorizations, and the CVN
phase becomes a *multi-column* back-substitution:

* per tier, the reduced RHS is an ``(n_free, S)`` matrix -- one column
  per scenario -- solved against the cached LU factors in a single call;
* TSV current accumulation and voltage propagation run as
  ``(layers, tsvs, scenarios)`` array operations;
* the VDA update applies column-wise (every policy in
  :mod:`repro.core.vda` is batch-aware with per-scenario state);
* a per-scenario convergence mask retires finished scenarios early, so
  late outer iterations only back-substitute the stragglers' columns.

Column ``s`` of the batch follows exactly the iteration sequence a
standalone ``solve_vp(scenario.apply(stack), inner="direct")`` would
take -- the single-scenario path is the batch-size-1 special case of
this code (both drive :class:`repro.core.planes.ReducedPlaneSystem`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.planes import ReducedPlaneSystem
from repro.core.vda import VDAPolicy, make_vda_policy
from repro.core.vp import (
    AUTO_ANDERSON_WINDOW,
    AUTO_ETA_THRESHOLD,
    loadshare_v0,
    resolve_vda_policy,
)
from repro.errors import ConvergenceError, GridError, ReproError
from repro.grid.stack3d import PowerGridStack
from repro.scenarios.spec import Scenario, ScenarioSet


class _ColumnSplitVDA(VDAPolicy):
    """Different policies on disjoint scenario-column subsets.

    The batched ``"auto"`` rule must mirror the standalone choice *per
    scenario*: adaptive where the gain-bound damping is healthy,
    Anderson where a stiff design point forces tiny damping.  Each
    sub-policy sees the full ``(P, S)`` batch every iteration (keeping
    its per-column state aligned with the batch layout); the split only
    selects whose output each column uses, so column ``s`` still follows
    exactly the sequence a standalone solve of scenario ``s`` takes.
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


@dataclass
class BatchedVPConfig:
    """Tuning knobs of the batched solver.

    The inner solver is always the cached-direct plane factorization --
    sharing it across scenario columns is the engine's reason to exist.
    ``vda`` accepts the same policy names as :class:`~repro.core.vp.VPConfig`;
    damping auto-scales per scenario from each design point's pillar
    gain bound when ``eta`` is left unset.
    """

    outer_tol: float = 1e-4
    max_outer: int = 200
    vda: str | VDAPolicy = "auto"
    eta: float | None = None
    record_history: bool = True
    raise_on_divergence: bool = False
    #: Layer-0 seed: ``"pin"`` (paper) or ``"loadshare"`` (pre-drop each
    #: pillar by its load share; same rule as VPConfig.v0_init, applied
    #: per scenario column).
    v0_init: str = "pin"

    def __post_init__(self) -> None:
        if self.outer_tol <= 0:
            raise ReproError("outer_tol must be positive")
        if self.max_outer < 1:
            raise ReproError("max_outer must be >= 1")
        if self.v0_init not in ("pin", "loadshare"):
            raise ReproError(
                f"unknown v0_init {self.v0_init!r}; use 'pin' or 'loadshare'"
            )


@dataclass
class BatchOuterRecord:
    """Telemetry of one batched outer iteration."""

    iteration: int
    active_scenarios: int
    max_vdiff: np.ndarray  # (S,) snapshot (inf until first visited)


@dataclass
class BatchedVPStats:
    """Cost accounting of one batched solve."""

    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(
        default_factory=lambda: {"cvn": 0.0, "tsv": 0.0, "propagate": 0.0, "vda": 0.0}
    )
    outer_iterations: int = 0
    #: Sum over outer iterations of the number of still-active scenario
    #: columns -- the work actually back-substituted.  A sequential sweep
    #: would pay ``sum(per-scenario outer iterations)`` single columns
    #: plus S factorization setups.
    column_solves: int = 0
    memory_bytes: int = 0


@dataclass
class BatchedVPResult:
    """Per-scenario solutions of a batched sweep.

    Arrays carry the scenario axis *last*: ``voltages[l, i, j, s]`` is
    tier ``l``'s node voltage under scenario ``s`` (ordering matches
    ``scenario_names``).
    """

    voltages: np.ndarray          # (T, R, C, S)
    converged: np.ndarray         # (S,) bool
    outer_iterations: np.ndarray  # (S,) retirement iteration per scenario
    max_vdiff: np.ndarray         # (S,)
    pillar_v0: np.ndarray         # (P, S)
    pillar_currents: np.ndarray   # (P, S)
    scenario_names: list[str]
    history: list[BatchOuterRecord]
    stats: BatchedVPStats
    info_v_pin: float = 0.0

    @property
    def n_scenarios(self) -> int:
        return len(self.scenario_names)

    def scenario_index(self, name: str) -> int:
        """Column index of the scenario named ``name``.

        Raises
        ------
        ReproError
            If no scenario in the batch carries that name.
        """
        try:
            return self.scenario_names.index(name)
        except ValueError:
            raise ReproError(f"no scenario named {name!r}") from None

    def scenario_voltages(self, name_or_index) -> np.ndarray:
        """One scenario's ``(T, R, C)`` voltage field."""
        index = (
            name_or_index
            if isinstance(name_or_index, (int, np.integer))
            else self.scenario_index(name_or_index)
        )
        return self.voltages[..., index]

    def worst_ir_drop(self, v_nominal: float | None = None) -> np.ndarray:
        """``(S,)`` worst IR drop per scenario."""
        from repro.analysis.irdrop import batch_worst_ir_drop

        reference = self.info_v_pin if v_nominal is None else v_nominal
        return batch_worst_ir_drop(self.voltages, reference)


class BatchedVPSolver:
    """VP solver vectorized over a scenario set sharing one topology.

    Structure-dependent setup -- the grouped plane factorizations, the
    per-scenario RHS batches, and the ``(T, P, S)`` segment-resistance
    table -- happens once in the constructor; :meth:`solve` runs the
    lockstep outer iteration with early retirement.
    """

    def __init__(
        self,
        stack: PowerGridStack,
        scenarios,
        config: BatchedVPConfig | None = None,
        *,
        planes: ReducedPlaneSystem | None = None,
    ):
        t_start = time.perf_counter()
        self.stack = stack
        self.scenarios = ScenarioSet.ensure(scenarios)
        self.config = config or BatchedVPConfig()
        self.rows, self.cols = stack.rows, stack.cols
        self.n_tiers = stack.n_tiers
        self.n_scenarios = len(self.scenarios)
        self.has_pin = stack.pillars.has_pin
        self.v_pin = stack.v_pin

        if planes is None:
            planes = ReducedPlaneSystem(stack, factorize=True, pillar_rows=True)
        elif not (planes.factorized and planes.has_pillar_rows):
            raise ReproError(
                "a pre-built plane system must be factorized with pillar rows"
            )
        # A pre-built system (e.g. from a PlaneFactorCache) shares this
        # stack's plane *geometry*; base RHS vectors may be stale, so the
        # solve below always passes explicit per-scenario RHS batches.
        self.planes = planes
        self.pillar_flat = self.planes.pillar_flat
        n_pillars = self.pillar_flat.size

        # Per-tier conductance multipliers (metal width): alpha (T, S).
        alpha = self.scenarios.plane_scale_matrix(self.n_tiers)
        self.plane_scale = alpha
        self._has_plane_scale = bool(np.any(alpha != 1.0))

        # Per-scenario right-hand sides: (n_free, S) / (P, S) per tier,
        # each formed straight from its own rows (no full (n, S) batch).
        # The pad term carries the plane scaling (pads are conductances of
        # the scaled plane); loads are currents and scale independently.
        load_scales = self.scenarios.load_scale_matrix(self.n_tiers)
        self._b_free: list[np.ndarray] = []
        self._b_pillar: list[np.ndarray] = []
        for l, tier in enumerate(stack.tiers):
            pad_term = (tier.g_pad * tier.v_pad).ravel()
            loads = tier.loads.ravel()
            for rows, out in (
                (self.planes.free, self._b_free),
                (self.pillar_flat, self._b_pillar),
            ):
                out.append(
                    pad_term[rows][:, None] * alpha[l][None, :]
                    - loads[rows][:, None] * load_scales[l][None, :]
                )

        # Segment resistances as a (T, P, S) design tensor (scalar design
        # knob plus any per-segment process spread).
        self.r_seg = self.scenarios.r_seg_table(stack.pillars.r_seg)

        # Per-scenario stability bound (see VoltagePropagationSolver):
        # gain_bound[p, s] = prod_l (1 + r_seg[l, p, s] * alpha_0 G_deg(p)),
        # mirroring the standalone solver, which reads the (scaled)
        # degree conductance off tier 0.
        degree = stack.tiers[0].degree_conductance().ravel()[self.pillar_flat]
        degree_s = degree[:, None] * alpha[0][None, :]
        gain_bound = np.ones((n_pillars, self.n_scenarios))
        for l in range(self.n_tiers):
            gain_bound *= 1.0 + self.r_seg[l] * degree_s
        self.pillar_gain_bound = gain_bound
        peak = np.maximum(gain_bound.max(axis=0), 1.0) if n_pillars else np.ones(
            self.n_scenarios
        )
        self.auto_eta = np.minimum(0.5, 1.0 / peak)

        # Residual voltage scale of un-pinned pillars, per scenario.
        if not np.all(self.has_pin):
            series = (
                self.r_seg[:-1].sum(axis=0)
                if self.n_tiers > 1
                else np.zeros((n_pillars, self.n_scenarios))
            )
            self._r_unit = series + 1.0 / np.maximum(degree_s, 1e-12)
        else:
            self._r_unit = None

        self._setup_seconds = time.perf_counter() - t_start

    # ------------------------------------------------------------------
    def set_rhs(self, tier_rhs: list[np.ndarray]) -> None:
        """Replace the per-scenario plane right-hand sides.

        The constructor derives the RHS batches from the stack's static
        loads and the scenarios' load scales; drivers that move the RHS
        every solve -- the batched transient engine folds the
        backward-Euler history term ``(C/h) v_{k-1}`` into per-step
        loads -- push the full vectors here instead.  Matrices and
        factors are untouched (loads never enter them).

        Parameters
        ----------
        tier_rhs:
            One ``(rows * cols, S)`` array per tier: the full-node RHS
            ``g_pad * v_pad - loads`` of each scenario column, in the
            stack's row-major node order.  Sliced into the free/pillar
            partitions internally.

        Raises
        ------
        GridError
            On a tier-count or shape mismatch.
        """
        if len(tier_rhs) != self.n_tiers:
            raise GridError(
                f"expected {self.n_tiers} RHS arrays, got {len(tier_rhs)}"
            )
        n = self.rows * self.cols
        b_free, b_pillar = [], []
        for l, rhs in enumerate(tier_rhs):
            rhs = np.asarray(rhs, dtype=float)
            if rhs.shape != (n, self.n_scenarios):
                raise GridError(
                    f"tier {l} RHS shape {rhs.shape} != "
                    f"{(n, self.n_scenarios)}"
                )
            b_free.append(np.ascontiguousarray(rhs[self.planes.free]))
            b_pillar.append(np.ascontiguousarray(rhs[self.pillar_flat]))
        self._b_free = b_free
        self._b_pillar = b_pillar

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Solver state: shared plane blocks plus the batched RHS/field
        arrays."""
        total = self.planes.memory_bytes
        for b_f, b_p in zip(self._b_free, self._b_pillar):
            total += b_f.nbytes + b_p.nbytes
        total += self.r_seg.nbytes + self.pillar_gain_bound.nbytes
        # Voltage fields and pillar batch vectors.
        total += self.n_tiers * self.rows * self.cols * self.n_scenarios * 8
        total += 4 * self.pillar_flat.size * self.n_scenarios * 8
        return int(total)

    def _resolve_vda_policy(self) -> VDAPolicy:
        """Materialize the policy with per-scenario damping.

        Concrete names go through the rule shared with the standalone
        solver (:func:`repro.core.vp.resolve_vda_policy`), fed the
        ``(S,)`` per-scenario damping vector.  ``"auto"`` on a batch
        that mixes healthy and stiff design points splits column-wise so
        every scenario gets the same policy its standalone solve would
        pick (exact-parity contract)."""
        config = self.config
        if not isinstance(config.vda, VDAPolicy) and config.vda == "auto":
            soft = self.auto_eta >= AUTO_ETA_THRESHOLD
            if soft.any() and (~soft).any():
                eta = self.auto_eta if config.eta is None else config.eta
                return _ColumnSplitVDA(
                    [
                        (make_vda_policy("adaptive", eta0=eta), soft),
                        (
                            make_vda_policy(
                                "anderson", m=AUTO_ANDERSON_WINDOW, eta0=eta
                            ),
                            ~soft,
                        ),
                    ]
                )
        return resolve_vda_policy(config.vda, config.eta, self.auto_eta)

    def _initial_v0(self) -> np.ndarray:
        """Per-scenario layer-0 seed (``(P, S)``): the pin voltage, or
        :func:`repro.core.vp.loadshare_v0` applied with each scenario's
        load scales and segment resistances -- column ``s`` matches what
        a standalone solve of scenario ``s`` seeds."""
        n_pillars = self.pillar_flat.size
        if self.config.v0_init == "pin" or n_pillars == 0:
            return np.full((n_pillars, self.n_scenarios), self.v_pin)
        base_totals = np.array(
            [tier.total_load() for tier in self.stack.tiers]
        )
        load_scales = self.scenarios.load_scale_matrix(self.n_tiers)
        totals = base_totals[:, None] * load_scales  # (T, S)
        return loadshare_v0(self.v_pin, self.r_seg, totals, n_pillars)

    # ------------------------------------------------------------------
    def solve(self, v0: np.ndarray | None = None) -> BatchedVPResult:
        """Run the lockstep outer iteration with early retirement.

        Every outer iteration back-substitutes the still-active scenario
        columns through the shared plane factors (CVN), accumulates TSV
        currents, propagates voltages bottom-up, and applies the VDA
        update column-wise; scenarios whose residual drops under
        ``config.outer_tol`` retire early and their voltage fields are
        frozen.

        Parameters
        ----------
        v0:
            Optional layer-0 TSV voltage seed: ``(P,)`` seeds every
            scenario alike, ``(P, S)`` seeds each column (e.g. the
            ``pillar_v0`` of a previous solve for warm starts).  Default
            is the per-scenario ``config.v0_init`` rule.

        Returns
        -------
        BatchedVPResult
            Per-scenario voltage fields ``(T, R, C, S)``, convergence
            flags, retirement iterations, final pillar voltages and
            currents, plus cost accounting (:class:`BatchedVPStats`).

        Raises
        ------
        GridError
            If ``v0`` has neither of the accepted shapes.
        ConvergenceError
            When ``config.raise_on_divergence`` is set and any scenario
            is still above tolerance after ``config.max_outer``
            iterations.
        """
        config = self.config
        t_start = time.perf_counter()
        n_pillars = self.pillar_flat.size
        n_scen = self.n_scenarios
        if v0 is None:
            v0 = self._initial_v0()
        else:
            v0 = np.array(v0, dtype=float)
            if v0.shape == (n_pillars,):
                v0 = np.repeat(v0[:, None], n_scen, axis=1)
            elif v0.shape != (n_pillars, n_scen):
                raise GridError(
                    f"v0 has shape {v0.shape}, expected ({n_pillars},) "
                    f"or ({n_pillars}, {n_scen})"
                )

        policy = self._resolve_vda_policy()
        policy.reset((n_pillars, n_scen))

        n = self.rows * self.cols
        # Uninitialized is safe: every column is stored either when its
        # scenario retires or at loop exit (stragglers) -- and 33 MB+
        # memsets per solve are measurable in the transient step loop.
        voltages = np.empty((self.n_tiers, n, n_scen))
        stats = BatchedVPStats(setup_seconds=self._setup_seconds)
        phase = stats.phase_seconds
        tr = obs.tracer()
        reg = obs.metrics()
        residual_series = obs.active_series("batch.residual")
        history: list[BatchOuterRecord] = []
        active = np.ones(n_scen, dtype=bool)
        converged = np.zeros(n_scen, dtype=bool)
        outer_counts = np.zeros(n_scen, dtype=int)
        max_f = np.full(n_scen, np.inf)
        residual_full = np.zeros((n_pillars, n_scen))
        pillar_currents = np.zeros((n_pillars, n_scen))

        def narrow(matrix: np.ndarray, idx: np.ndarray) -> np.ndarray:
            """Column subset without a copy when every scenario is live."""
            return matrix if idx.size == n_scen else matrix[:, idx]

        idx = np.flatnonzero(active)
        fields: list[np.ndarray] = []
        in_place = False
        for outer in range(1, config.max_outer + 1):
            idx = np.flatnonzero(active)
            stats.column_solves += idx.size
            reg.add("batch.column_solves", int(idx.size))
            pillar_v = v0[:, idx].copy() if idx.size != n_scen else v0.copy()
            cumulative = np.zeros((n_pillars, idx.size))
            fields = []
            # Full-width iterations assemble straight into the result
            # buffer, so retirement needs no copy for them.
            in_place = idx.size == n_scen

            for l in range(self.n_tiers):
                t0 = time.perf_counter()
                scale = None
                if self._has_plane_scale:
                    alpha_l = self.plane_scale[l]
                    scale = alpha_l if idx.size == n_scen else alpha_l[idx]
                x_free = self.planes.solve_free(
                    l, pillar_v, b_free=narrow(self._b_free[l], idx),
                    scale=scale,
                )
                v_full = self.planes.assemble(
                    x_free, pillar_v, out=voltages[l] if in_place else None
                )
                fields.append(v_full)
                dt = time.perf_counter() - t0
                phase["cvn"] += dt
                if tr.enabled:
                    tr.add_complete(
                        "cvn", t0, dt, outer=outer, tier=l, columns=int(idx.size)
                    )

                t0 = time.perf_counter()
                drawn = self.planes.drawn_currents(
                    l, v_full, b_pillar=narrow(self._b_pillar[l], idx),
                    scale=scale,
                )
                cumulative += drawn
                dt = time.perf_counter() - t0
                phase["tsv"] += dt
                if tr.enabled:
                    tr.add_complete(
                        "tsv", t0, dt, outer=outer, tier=l, columns=int(idx.size)
                    )

                t0 = time.perf_counter()
                pillar_v = pillar_v + cumulative * narrow(self.r_seg[l], idx)
                phase["propagate"] += time.perf_counter() - t0

            pillar_currents[:, idx] = cumulative
            if self._r_unit is None:
                residual = self.v_pin - pillar_v
            else:
                residual = np.where(
                    self.has_pin[:, None],
                    self.v_pin - pillar_v,
                    -cumulative * narrow(self._r_unit, idx),
                )
            residual_full[:, idx] = residual
            f_active = (
                np.max(np.abs(residual), axis=0)
                if n_pillars
                else np.zeros(idx.size)
            )
            max_f[idx] = f_active
            outer_counts[idx] = outer
            if residual_series is not None and f_active.size:
                residual_series.append(outer, float(f_active.max()))

            # Retire freshly converged scenarios: freeze their voltage
            # fields now (still-active columns are rewritten every
            # iteration anyway, so they are only stored on retirement or
            # at loop exit).
            done = f_active <= config.outer_tol
            if np.any(done):
                reg.add("batch.retirements", int(done.sum()))
                cols = idx[done]
                if not in_place:
                    for l in range(self.n_tiers):
                        voltages[l][:, cols] = fields[l][:, done]
                converged[cols] = True
                active[cols] = False
            stats.outer_iterations = outer
            if config.record_history:
                history.append(
                    BatchOuterRecord(
                        iteration=outer,
                        active_scenarios=int(active.sum()),
                        max_vdiff=max_f.copy(),
                    )
                )
            if not active.any():
                break

            t0 = time.perf_counter()
            # Full-width update, masked write-back: retired columns stay
            # frozen while the policy's per-column state keeps indexing
            # consistent with the batch layout.
            v_new = policy.update(v0, residual_full, active=active)
            live = np.flatnonzero(active)
            v0[:, live] = v_new[:, live]
            phase["vda"] += time.perf_counter() - t0

        if active.any() and not in_place:
            # max_outer exhausted: store the stragglers' last fields
            # (``fields`` columns follow ``idx`` of the final iteration;
            # full-width iterations already wrote in place).
            live = active[idx]
            cols = np.flatnonzero(active)
            for l in range(self.n_tiers):
                voltages[l][:, cols] = fields[l][:, live]

        stats.solve_seconds = time.perf_counter() - t_start
        stats.memory_bytes = self.memory_bytes
        reg.add("batch.outer_iterations", stats.outer_iterations)
        if tr.enabled:
            tr.add_complete(
                "batch.solve", t_start, stats.solve_seconds,
                scenarios=n_scen, outer_iterations=stats.outer_iterations,
            )
        result = BatchedVPResult(
            voltages=voltages.reshape(
                self.n_tiers, self.rows, self.cols, n_scen
            ),
            converged=converged,
            outer_iterations=outer_counts,
            max_vdiff=max_f,
            pillar_v0=v0,
            pillar_currents=pillar_currents,
            scenario_names=self.scenarios.names,
            history=history,
            stats=stats,
        )
        result.info_v_pin = self.v_pin
        if config.raise_on_divergence and not converged.all():
            stragglers = [
                name
                for name, ok in zip(result.scenario_names, converged)
                if not ok
            ]
            raise ConvergenceError(
                f"{len(stragglers)} scenario(s) did not converge in "
                f"{config.max_outer} outer iterations: {stragglers[:5]}",
                stats.outer_iterations,
                float(max_f.max()),
            )
        return result


def solve_vp_batch(
    stack: PowerGridStack, scenarios, **config_kwargs
) -> BatchedVPResult:
    """One-shot convenience: build a batched solver and run it."""
    return BatchedVPSolver(
        stack, scenarios, BatchedVPConfig(**config_kwargs)
    ).solve()


__all__ = [
    "BatchOuterRecord",
    "BatchedVPConfig",
    "BatchedVPResult",
    "BatchedVPSolver",
    "BatchedVPStats",
    "Scenario",
    "solve_vp_batch",
]
