"""Batched multi-scenario transient engine -- shared companion factors.

A transient droop sweep (load-step corners, decap placements, ramp
shapes) re-runs the backward-Euler recursion

    (G + C/h) v_k = b(t_k) + (C/h) v_{k-1}

once per scenario.  The sequential loop
(:class:`repro.core.transient.TransientVPSolver` per scenario) pays a
fresh companion factorization *and* a fresh outer-iteration history for
every scenario, although most knobs never touch the companion matrix:

* ``load_scale`` and stimulus activity only move the right-hand side;
* ``r_tsv_scale`` / ``r_seg_scale`` act purely in the propagation phase;
* only ``plane_scale`` (``G -> alpha G``) and ``cap_scale`` (``C ->
  kappa C``) change the companion matrix ``alpha G + kappa C / h`` --
  and the DC scaled-factor fast path does **not** apply here, because
  ``alpha G + C/h`` is not a scaling of ``G + C/h``.

So this engine groups scenarios by their ``(plane_scale, cap_scale)``
tuples, builds one companion stack per group and one DC stack per DC
geometry (per-tier ``plane_scale``), fetches their factors through a
:class:`~repro.core.planes.PlaneFactorCache`, and advances *all*
scenarios of a group through one
:class:`~repro.core.batch.BatchedVPSolver` per time step: the per-step
history term folds into the RHS batch via
:meth:`~repro.core.batch.BatchedVPSolver.set_rhs`, and every step is a
multi-column CVN back-substitution with per-scenario convergence masks.
The factorization count is therefore *independent of the scenario count
and the step count* -- the property the benchmark counter-asserts.

The t = 0 operating point is solved once per distinct problem: scenarios
that agree on per-tier ``load_scale``, ``r_tsv_scale``, ``r_seg_scale``
and the stimulus activity at t = 0 share one DC column, across companion
groups, and each takes its field and pillar seed from it by index.

Exact parity: scenario column ``s`` follows exactly the solve sequence
a sequential ``TransientVPSolver(scenario.apply(stack), caps *
cap_scale, dt, VPConfig.direct(config)).run(...)`` takes -- same
DC seed, same per-step warm starts, same RHS floating-point op order --
so per-scenario waveforms agree to round-off (the benchmark asserts
worst-droop parity at rtol 1e-10).

Scenarios whose stimulus has settled (steps and ramps past the event;
pulses never settle) can optionally *retire early*: once a scenario's
step-to-step voltage change stays under ``settle_tol`` for
:data:`SETTLE_WINDOW` consecutive steps, its waveform tail is frozen
and later steps back-substitute only the survivors' columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.batch import BatchedVPConfig, BatchedVPResult, BatchedVPSolver
from repro.core.kernel import loadshare_v0, narrow_columns
from repro.core.planes import PlaneFactorCache
from repro.core.transient import normalize_capacitance
from repro.errors import ConvergenceError, GridError, ReproError
from repro.grid.stack3d import PowerGridStack
from repro.scenarios.spec import Scenario, ScenarioSet


#: Consecutive quiet steps after which a settled scenario retires.
SETTLE_WINDOW = 2


@dataclass
class BatchedTransientConfig(BatchedVPConfig):
    """Knobs of the batched transient engine: the outer loop's
    (:class:`~repro.core.batch.BatchedVPConfig`, run by every per-step
    batched VP solve) plus ``settle_tol``, which enables early
    retirement of settled scenarios: 0 (default) disables it, preserving
    exact parity with the sequential path; a positive value (volts)
    retires a scenario once its stimulus has settled and its
    step-to-step voltage change stays under the threshold for
    :data:`SETTLE_WINDOW` consecutive steps (its waveform tail is frozen
    at the retirement value).

    The engine raises :class:`~repro.errors.ConvergenceError` on any
    unconverged column whatever ``raise_on_divergence`` says, naming the
    scenarios on it.
    """

    settle_tol: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.settle_tol < 0:
            raise ReproError("settle_tol must be >= 0")


@dataclass
class BatchedTransientStats:
    """Cost accounting of one batched transient run."""

    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    n_steps: int = 0
    #: Distinct ``(plane_scale, cap_scale)`` companion groups.
    n_groups: int = 0
    #: LU factorizations performed through the factor cache during
    #: engine construction -- per *group geometry*, never per scenario
    #: or per step (the benchmark's counter-assert).
    factorizations: int = 0
    #: Sum over time steps of the scenario columns actually solved;
    #: early settle-retirement makes this < n_steps * n_scenarios.
    column_steps: int = 0
    #: Columns of the t = 0 DC solves: one per distinct DC problem, so
    #: scenarios that differ only in ``cap_scale`` or in their stimulus
    #: after t = 0 share one (0 when the caller passes ``v0``).
    dc_columns: int = 0


@dataclass
class BatchedTransientResult:
    """Waveforms of a batched transient run (scenario axis last).

    ``worst_voltage[k, s]`` is scenario ``s``'s minimum node voltage at
    ``times[k]``; ``probe_voltages[k, p, s]`` the probe trajectories;
    ``voltages[..., s]`` the final field; ``outer_iterations[k-1, s]``
    the VP outer iterations of step ``k``.  ``settled_step[s]`` is the
    step index at which scenario ``s`` was retired as settled (-1 when
    it ran to the end).
    """

    times: np.ndarray                 # (K+1,)
    worst_voltage: np.ndarray         # (K+1, S)
    probe_voltages: np.ndarray        # (K+1, n_probes, S)
    probes: list[tuple[int, int, int]]
    voltages: np.ndarray              # (T, R, C, S)
    outer_iterations: np.ndarray      # (K, S)
    settled_step: np.ndarray          # (S,)
    scenario_names: list[str]
    stats: BatchedTransientStats = field(default_factory=BatchedTransientStats)

    @property
    def n_scenarios(self) -> int:
        return len(self.scenario_names)

    @property
    def worst_droop(self) -> np.ndarray:
        """``(S,)`` worst instantaneous droop below each scenario's
        initial worst voltage (matches
        :attr:`repro.core.transient.TransientResult.worst_droop`
        per column)."""
        return self.worst_voltage[0] - self.worst_voltage.min(axis=0)

    def scenario_index(self, name: str) -> int:
        try:
            return self.scenario_names.index(name)
        except ValueError:
            raise ReproError(f"no scenario named {name!r}") from None

    def scenario_waveform(self, name_or_index) -> np.ndarray:
        """One scenario's ``(K+1,)`` worst-voltage waveform."""
        index = (
            name_or_index
            if isinstance(name_or_index, (int, np.integer))
            else self.scenario_index(name_or_index)
        )
        return self.worst_voltage[:, index]


#: Row blocks :func:`_worst_voltage` folds a field into before its
#: column minimum.
_WORST_FOLD = 256


def _worst_voltage(v: np.ndarray) -> np.ndarray:
    """``v.min(axis=(0, 1))`` of a C-ordered ``(T, n, S)`` field.  numpy
    reduces a narrow C-ordered array one node at a time, in inner loops
    of ``S`` elements (~3 ms for a C1 field at S = 8); folding the nodes
    into :data:`_WORST_FOLD` blocks first gives it long contiguous runs.
    A minimum is exact in any order, so the result is the same."""
    s = v.shape[-1]
    rows = v.reshape(-1, s)
    head = rows.shape[0] // _WORST_FOLD * _WORST_FOLD
    out = rows[head:].min(axis=0, initial=np.inf)
    if head:
        folded = np.minimum.reduce(rows[:head].reshape(_WORST_FOLD, -1), axis=0)
        np.minimum(out, folded.reshape(-1, s).min(axis=0), out=out)
    return out


def _scaled_planes(stack: PowerGridStack, alphas) -> PowerGridStack:
    """``stack`` with each tier's conductances scaled by its
    ``plane_scale``: a copy, or ``stack`` itself when nothing scales
    (the engine never writes into it).  The transient engine always
    bakes alpha into the matrices (the scaled-factor fast path is
    unusable for the companion system); mirroring the op order of
    ``Scenario.apply`` keeps parity bitwise."""
    if all(alpha == 1.0 for alpha in alphas):
        return stack
    scaled = stack.copy()
    for tier, alpha in zip(scaled.tiers, alphas):
        if alpha != 1.0:
            tier.g_h = tier.g_h * alpha
            tier.g_v = tier.g_v * alpha
            tier.g_pad = tier.g_pad * alpha
    return scaled


def _dc_key(scenario: Scenario, n_tiers: int) -> bytes:
    """Everything a scenario's t = 0 problem reads besides its DC
    geometry, bit for bit: per-tier ``load_scale``, ``r_tsv_scale``,
    ``r_seg_scale`` and the stimulus activity at t = 0.  Loads and
    activity stay two entries, not their product, so the DC loads are
    formed exactly as a scenario's own."""
    parts = [
        scenario.tier_scales(n_tiers),
        np.float64([scenario.r_tsv_scale, scenario.activity_at(0.0)]),
    ]
    if scenario.r_seg_scale is not None:
        parts += [np.int64(scenario.r_seg_scale.shape), scenario.r_seg_scale]
    return b"".join(part.tobytes() for part in parts)


def _tsv_knobs(scenarios) -> ScenarioSet:
    """The scenarios with only the knobs that survive the baking: TSV
    scales feed the propagation phase, while plane and cap scales live
    in the matrices and loads enter through ``set_rhs``."""
    return ScenarioSet(
        Scenario(name=s.name, r_tsv_scale=s.r_tsv_scale, r_seg_scale=s.r_seg_scale)
        for s in scenarios
    )


class _DCPoint:
    """The t = 0 problems on one DC geometry (per-tier ``plane_scale``):
    one scaled stack, its factors, and one batched solver whose columns
    are the *distinct* problems.  ``cap_scale`` and the stimulus after
    t = 0 never enter the DC problem, so scenarios that differ only
    there -- across companion groups too -- share one column and get
    bitwise the field a column of their own would get (every step of
    the kernel works column by column)."""

    def __init__(
        self,
        stack: PowerGridStack,
        alphas: tuple[float, ...],
        scenarios: list[Scenario],
        cache: PlaneFactorCache,
        config: BatchedTransientConfig,
    ):
        self.stack = _scaled_planes(stack, alphas)
        keys: dict[bytes, int] = {}
        #: One scenario per column, the names of all sharing each column,
        #: and each scenario's column.
        self.members: list[Scenario] = []
        self.names: list[list[str]] = []
        self.column_of: dict[str, int] = {}
        for scenario in scenarios:
            col = keys.setdefault(_dc_key(scenario, stack.n_tiers), len(keys))
            if col == len(self.members):
                self.members.append(scenario)
                self.names.append([])
            self.names[col].append(scenario.name)
            self.column_of[scenario.name] = col
        self.solver = BatchedVPSolver(
            self.stack,
            _tsv_knobs(self.members),
            config,
            planes=cache.get(self.stack),
        )

    def solve(self, v0_init: str) -> BatchedVPResult:
        """Every distinct DC operating point, in one multi-column solve."""
        stack = self.stack
        n_tiers = stack.n_tiers
        # Op order (base * load_scale) * activity, as the sequential path
        # (Scenario.apply, then the stimulus) forms the t = 0 loads.
        load_scales = np.column_stack([s.tier_scales(n_tiers) for s in self.members])
        activity = np.array([s.activity_at(0.0) for s in self.members])
        loads0 = [
            tier.loads.ravel()[:, None] * load_scales[l][None, :] * activity[None, :]
            for l, tier in enumerate(stack.tiers)
        ]
        self.solver.set_rhs(
            [
                (tier.g_pad.ravel() * tier.v_pad)[:, None] - loads
                for tier, loads in zip(stack.tiers, loads0)
            ]
        )
        seed = None
        if v0_init == "loadshare" and stack.pillars.count:
            # The stripped scenarios carry load_scale 1, so the solver's
            # own loadshare seed would miss the corner scales; feed it the
            # actual t=0 column totals (column-contiguous sums match the
            # sequential solver's per-tier sums bitwise).
            totals = np.stack(
                [np.asfortranarray(loads).sum(axis=0) for loads in loads0]
            )
            seed = loadshare_v0(
                stack.v_pin, self.solver.r_seg, totals, stack.pillars.count
            )
        return self.solver.solve(v0=seed)


class _ScenarioGroup:
    """All scenarios sharing one ``(plane_scale, cap_scale)`` signature:
    one companion stack and its batched solver, plus each scenario's
    column of the shared DC point."""

    def __init__(
        self,
        dc: _DCPoint,
        originals: list[Scenario],
        columns: list[int],
        base_caps: list[np.ndarray],
        dt: float,
        cache: PlaneFactorCache,
        config: BatchedTransientConfig,
    ):
        self.originals = originals
        self.columns = np.array(columns, dtype=int)
        self.dc = dc
        self.dc_columns = np.array([dc.column_of[s.name] for s in originals])
        n_tiers = dc.stack.n_tiers
        cap_scales = originals[0].tier_cap_scales(n_tiers)

        # Companion stack: extra diagonal conductance C/h as a pad to a
        # 0 V rail; the history term enters through per-step loads (same
        # construction as TransientVPSolver).
        caps = [c * k for c, k in zip(base_caps, cap_scales)]
        self.g_cap = [(c / dt).ravel() for c in caps]
        comp_stack = dc.stack.copy()
        for tier, c in zip(comp_stack.tiers, caps):
            tier.g_pad = tier.g_pad + c / dt

        stripped = _tsv_knobs(originals)
        comp_planes = cache.get(comp_stack)
        self._full_solver = BatchedVPSolver(
            comp_stack, stripped, config, planes=comp_planes
        )
        self._comp_stack = comp_stack
        self._stripped = stripped
        self._config = config
        self._comp_planes = comp_planes

        # (n, S) per tier: loads pre-scaled by each scenario's per-tier
        # load corner; the stimulus activity multiplies per step.  The
        # op order (base * load_scale) * activity matches the sequential
        # path (Scenario.apply then stimulus) bitwise.
        load_scales = np.column_stack(
            [s.tier_scales(n_tiers) for s in originals]
        )
        self.base_scaled = [
            tier.loads.ravel()[:, None] * load_scales[l][None, :]
            for l, tier in enumerate(comp_stack.tiers)
        ]
        self.pad_comp = [
            tier.g_pad.ravel() * tier.v_pad for tier in comp_stack.tiers
        ]

    def start(self) -> None:
        """Reset the run state, which settle retirement narrows, to every
        scenario: each run starts from the full group."""
        self.active = np.arange(len(self.originals))
        self.comp_solver = self._full_solver
        self.v: np.ndarray | None = None          # (T, n, S_active)
        self.pillar_seed: np.ndarray | None = None
        self.settle_count = np.zeros(len(self.originals), dtype=int)
        # Step-to-step load cache: step/pulse stimuli hold their activity
        # vector constant across most steps, so the (n, S_active) load
        # batches are recomputed only when the activity actually moves.
        self._loads_activity: np.ndarray | None = None
        self._loads_cached: list[np.ndarray] | None = None
        self._rhs_buffers: list[np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def active_columns(self) -> np.ndarray:
        """Global result-column indices of the still-active scenarios."""
        return self.columns[self.active]

    def activity(self, t: float) -> np.ndarray:
        """``(S_active,)`` stimulus activity at time ``t``."""
        return np.array(
            [self.originals[k].activity_at(t) for k in self.active]
        )

    def loads_at(self, t: float) -> list[np.ndarray]:
        """Per-tier ``(n, S_active)`` device currents at time ``t``
        (cached between steps with identical activity vectors)."""
        a = self.activity(t)
        if self._loads_cached is None or not np.array_equal(
            a, self._loads_activity
        ):
            self._loads_cached = [
                narrow_columns(base, self.active) * a[None, :]
                for base in self.base_scaled
            ]
            self._loads_activity = a
        return self._loads_cached

    def narrow(self, keep: np.ndarray) -> None:
        """Drop retired columns: slice the run state and rebuild the
        companion solver over the survivors (reusing the cached plane
        factors -- no refactorization)."""
        self.active = self.active[keep]
        self.settle_count = self.settle_count[keep]
        self.v = self.v[:, :, keep]
        self._loads_activity = None
        self._loads_cached = None
        self._rhs_buffers = None
        if self.pillar_seed is not None:
            self.pillar_seed = self.pillar_seed[:, keep]
        if self.active.size:
            self.comp_solver = BatchedVPSolver(
                self._comp_stack,
                ScenarioSet([self._stripped[k] for k in self.active]),
                self._config,
                planes=self._comp_planes,
            )

    def step_rhs(self, loads_t: list[np.ndarray]) -> list[np.ndarray]:
        """Per-tier companion RHS ``pad - (loads - (C/h) v_prev)``, one
        reused buffer per tier -- the exact FP op grouping of the
        sequential path's ``update_loads(loads - g_cap * v)``, without
        allocating ``(n, S_active)`` temporaries per step (the
        downstream ``set_rhs`` gathers into its own partitions)."""
        if (
            self._rhs_buffers is None
            or self._rhs_buffers[0].shape != loads_t[0].shape
        ):
            self._rhs_buffers = [np.empty_like(loads) for loads in loads_t]
        for l, (loads, rhs) in enumerate(zip(loads_t, self._rhs_buffers)):
            np.multiply(self.g_cap[l][:, None], self.v[l], out=rhs)
            np.subtract(loads, rhs, out=rhs)
            np.subtract(self.pad_comp[l][:, None], rhs, out=rhs)
        return self._rhs_buffers

    def settles_by(self, t: float) -> np.ndarray:
        """``(S_active,)`` mask of scenarios whose stimulus is constant
        from time ``t`` on (pulses never settle)."""
        out = np.zeros(self.active.size, dtype=bool)
        for pos, k in enumerate(self.active):
            spec = self.originals[k].stimulus
            settles = 0.0 if spec is None else spec.settles_at()
            out[pos] = settles is not None and t >= settles
        return out


class BatchedTransientSolver:
    """Backward-Euler transient analysis of a whole scenario set.

    Parameters
    ----------
    stack:
        The power grid; its stored loads are the activity-1 baseline
        every scenario's ``load_scale`` and stimulus multiply.
    scenarios:
        A :class:`~repro.scenarios.spec.ScenarioSet` (or anything
        :meth:`~repro.scenarios.spec.ScenarioSet.ensure` accepts).  All
        scenario knobs participate: ``load_scale``, ``r_tsv_scale``,
        ``r_seg_scale``, ``plane_scale``, ``cap_scale``, ``stimulus``.
    capacitance:
        Baseline node decap: per-tier ``(rows, cols)`` arrays (F) or a
        scalar for every non-TSV node; scenarios scale it via
        ``cap_scale``.
    dt:
        Backward-Euler step (s), shared by all scenarios (the companion
        factors depend on it).
    config:
        :class:`BatchedTransientConfig`; defaults preserve exact parity
        with the sequential solver.
    factor_cache:
        Optional shared :class:`~repro.core.planes.PlaneFactorCache`;
        pass one to reuse factors across engines (e.g. several step
        sizes over the same grid).  The engine leases nothing: it keeps
        its systems by reference.
    """

    def __init__(
        self,
        stack: PowerGridStack,
        scenarios,
        capacitance,
        dt: float,
        config: BatchedTransientConfig | None = None,
        *,
        factor_cache: PlaneFactorCache | None = None,
    ):
        t0 = time.perf_counter()
        if dt <= 0:
            raise ReproError("dt must be positive")
        self.stack = stack
        self.dt = float(dt)
        self.scenarios = ScenarioSet.ensure(scenarios)
        self.config = config or BatchedTransientConfig()
        self.base_caps = normalize_capacitance(stack, capacitance)

        n_tiers = stack.n_tiers
        grouped: dict[tuple, tuple[list[Scenario], list[int]]] = {}
        by_geometry: dict[tuple, list[Scenario]] = {}
        for col, s in enumerate(self.scenarios):
            alphas = tuple(s.tier_plane_scales(n_tiers))
            members, columns = grouped.setdefault(
                (alphas, tuple(s.tier_cap_scales(n_tiers))), ([], [])
            )
            members.append(s)
            columns.append(col)
            by_geometry.setdefault(alphas, []).append(s)

        # NOT `factor_cache or ...`: an empty cache is falsy (__len__).
        self.cache = (
            factor_cache
            if factor_cache is not None
            else PlaneFactorCache(max_entries=max(8, 2 * len(grouped)))
        )
        count0 = self.cache.factorizations
        # The engine raises on any unconverged column itself, naming the
        # scenarios; the kernel's own raise would name batch positions.
        solver_config = replace(self.config, raise_on_divergence=False)
        dc_points = {
            alphas: _DCPoint(stack, alphas, members, self.cache, solver_config)
            for alphas, members in by_geometry.items()
        }
        #: One DC point per DC geometry (per-tier ``plane_scale``), each
        #: solving only its distinct t = 0 problems.
        self.dc_points = list(dc_points.values())
        self.groups = [
            _ScenarioGroup(
                dc_points[alphas], members, columns, self.base_caps, self.dt,
                self.cache, solver_config,
            )
            for (alphas, _), (members, columns) in grouped.items()
        ]
        #: LU factorizations this engine's construction performed --
        #: scales with the number of distinct (plane_scale, cap_scale)
        #: groups, never with the scenario count.
        self.n_factorizations = self.cache.factorizations - count0
        self._setup_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def _check_probes(
        self, probes: Sequence[tuple[int, int, int]]
    ) -> list[tuple[int, int, int]]:
        stack = self.stack
        out = []
        for l, i, j in probes:
            if not 0 <= l < stack.n_tiers:
                raise GridError(f"probe tier {l} outside 0..{stack.n_tiers - 1}")
            stack.tiers[l].node_index(i, j)  # validates (i, j)
            out.append((int(l), int(i), int(j)))
        return out

    @staticmethod
    def _raise_diverged(result, names: list[list[str]], solve: str) -> None:
        """Raise :class:`~repro.errors.ConvergenceError` when a column of
        ``result`` did not converge, naming every scenario on it
        (``names[k]`` lists the scenarios on column ``k``)."""
        bad = ~result.converged
        if not bad.any():
            return
        failed = [name for k in np.flatnonzero(bad) for name in names[k]]
        raise ConvergenceError(
            f"transient VP {solve} did not converge for "
            f"{len(failed)} scenario(s): {failed}",
            int(result.outer_iterations[bad].max()),
            float(result.max_vdiff[bad].max()),
        )

    def run(
        self,
        t_end: float,
        *,
        probes: Sequence[tuple[int, int, int]] = (),
        v0: np.ndarray | None = None,
    ) -> BatchedTransientResult:
        """Advance every scenario from 0 to ``t_end``.

        Parameters
        ----------
        t_end:
            End time (s); the run takes ``ceil(t_end / dt)`` steps.
        probes:
            ``(tier, row, col)`` nodes whose waveforms are recorded for
            every scenario.
        v0:
            Optional initial field overriding the per-scenario DC
            operating point: ``(T, R, C)`` (shared by all scenarios) or
            ``(T, R, C, S)``.

        Returns
        -------
        BatchedTransientResult

        Raises
        ------
        ConvergenceError
            When any scenario's VP solve fails to converge, at its DC
            operating point or at some step (mirrors the sequential
            solver); the message names every scenario concerned.
        GridError
            On a bad probe or ``v0`` shape.
        """
        with obs.Stopwatch("transient.run") as run_sw:
            stack = self.stack
            config = self.config
            n_tiers, rows, cols = stack.n_tiers, stack.rows, stack.cols
            n = rows * cols
            n_scen = len(self.scenarios)
            probes = self._check_probes(probes)
            probe_flat = [(l, i * cols + j) for l, i, j in probes]

            if t_end <= 0:
                raise ReproError("t_end must be positive")
            n_steps = int(np.ceil(t_end / self.dt))
            run_sw.attrs.update(steps=n_steps, scenarios=n_scen, groups=self.n_groups)
            times = np.empty(n_steps + 1)
            times[0] = 0.0
            worst = np.empty((n_steps + 1, n_scen))
            probe_wave = np.empty((n_steps + 1, len(probes), n_scen))
            outer_iters = np.zeros((n_steps, n_scen), dtype=int)
            settled_step = np.full(n_scen, -1, dtype=int)
            final_fields = np.empty((n_tiers, n, n_scen))
            column_steps = 0
            dc_columns = 0

            # ------------------------------------------------------------------
            # t = 0: each scenario's column of its shared DC point (or the
            # caller's v0).
            if v0 is not None:
                v0 = np.asarray(v0, dtype=float)
                if v0.shape == (n_tiers, rows, cols):
                    v0 = np.repeat(v0[..., None], n_scen, axis=3)
                if v0.shape != (n_tiers, rows, cols, n_scen):
                    raise GridError(
                        f"v0 shape {v0.shape} != {(n_tiers, rows, cols)} or "
                        f"{(n_tiers, rows, cols, n_scen)}"
                    )
            else:
                dc_fields = {}
                for dc in self.dc_points:
                    dc_res = dc.solve(config.v0_init)
                    self._raise_diverged(dc_res, dc.names, "DC operating point")
                    v_dc = dc_res.voltages.reshape(n_tiers, n, -1)
                    dc_fields[dc] = (v_dc, dc_res.pillar_v0, _worst_voltage(v_dc))
                    dc_columns += dc_res.n_scenarios
            for group in self.groups:
                group.start()
                cols_g = group.active_columns
                if v0 is None:
                    # Each scenario takes its DC column's field, pillar
                    # seed and worst voltage.
                    v_dc, pillar_dc, worst_dc = dc_fields[group.dc]
                    dc_cols = group.dc_columns[group.active]
                    group.v = v_dc[:, :, dc_cols]
                    group.pillar_seed = pillar_dc[:, dc_cols]
                    worst[0, cols_g] = worst_dc[dc_cols]
                else:
                    group.v = np.ascontiguousarray(
                        v0.reshape(n_tiers, n, n_scen)[:, :, cols_g]
                    )
                    group.pillar_seed = None
                    worst[0, cols_g] = _worst_voltage(group.v)
                for p, (l, flat) in enumerate(probe_flat):
                    probe_wave[0, p, cols_g] = group.v[l, flat]

            # ------------------------------------------------------------------
            # Backward-Euler steps.
            reg = obs.metrics()
            for k in range(1, n_steps + 1):
                t = k * self.dt
                times[k] = t
                for group in self.groups:
                    if not group.active.size:
                        continue
                    cols_g = group.active_columns
                    column_steps += cols_g.size
                    reg.add("transient.column_steps", int(cols_g.size))
                    with obs.Stopwatch(
                        "step.solve", step=k, scenarios=int(cols_g.size)
                    ):
                        group.comp_solver.set_rhs(
                            group.step_rhs(group.loads_at(t))
                        )
                        res = group.comp_solver.solve(v0=group.pillar_seed)
                    self._raise_diverged(
                        res,
                        [[self.scenarios[c].name] for c in cols_g],
                        f"step at t={t:.3e}s",
                    )
                    v_prev = group.v
                    group.v = res.voltages.reshape(n_tiers, n, cols_g.size)
                    group.pillar_seed = res.pillar_v0
                    outer_iters[k - 1, cols_g] = res.outer_iterations
                    worst[k, cols_g] = _worst_voltage(group.v)
                    for p, (l, flat) in enumerate(probe_flat):
                        probe_wave[k, p, cols_g] = group.v[l, flat]

                    if config.settle_tol > 0 and k < n_steps:
                        delta = np.abs(group.v - v_prev).max(axis=(0, 1))
                        quiet = (delta <= config.settle_tol) & group.settles_by(t)
                        group.settle_count = np.where(
                            quiet, group.settle_count + 1, 0
                        )
                        retire = group.settle_count >= SETTLE_WINDOW
                        if np.any(retire):
                            reg.add("transient.retirements", int(retire.sum()))
                            retired_cols = cols_g[retire]
                            settled_step[retired_cols] = k
                            worst[k + 1 :, retired_cols] = worst[k, retired_cols]
                            probe_wave[k + 1 :, :, retired_cols] = probe_wave[
                                k : k + 1, :, retired_cols
                            ]
                            final_fields[:, :, retired_cols] = group.v[:, :, retire]
                            group.narrow(~retire)

            for group in self.groups:
                if group.active.size:
                    final_fields[:, :, group.active_columns] = group.v

        stats = BatchedTransientStats(
            setup_seconds=self._setup_seconds,
            solve_seconds=run_sw.seconds,
            n_steps=n_steps,
            n_groups=self.n_groups,
            factorizations=self.n_factorizations,
            column_steps=column_steps,
            dc_columns=dc_columns,
        )
        reg.add("transient.steps", n_steps)
        return BatchedTransientResult(
            times=times,
            worst_voltage=worst,
            probe_voltages=probe_wave,
            probes=probes,
            voltages=final_fields.reshape(n_tiers, rows, cols, n_scen),
            outer_iterations=outer_iters,
            settled_step=settled_step,
            scenario_names=self.scenarios.names,
            stats=stats,
        )


def solve_transient_batch(
    stack: PowerGridStack,
    scenarios,
    capacitance,
    dt: float,
    t_end: float,
    *,
    probes: Sequence[tuple[int, int, int]] = (),
    factor_cache: PlaneFactorCache | None = None,
    **config_kwargs,
) -> BatchedTransientResult:
    """One-shot convenience: build a batched transient solver and run it."""
    solver = BatchedTransientSolver(
        stack,
        scenarios,
        capacitance,
        dt,
        BatchedTransientConfig(**config_kwargs),
        factor_cache=factor_cache,
    )
    return solver.run(t_end, probes=probes)


__all__ = [
    "BatchedTransientConfig",
    "BatchedTransientResult",
    "BatchedTransientSolver",
    "BatchedTransientStats",
    "solve_transient_batch",
]
