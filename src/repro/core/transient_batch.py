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
tuples, builds one DC stack and one companion stack per group, fetches
their factors through a :class:`~repro.core.planes.PlaneFactorCache`
(groups that differ only in decap share the DC factors), and advances
*all* scenarios of a group through one
:class:`~repro.core.batch.BatchedVPSolver` per time step: the per-step
history term folds into the RHS batch via
:meth:`~repro.core.batch.BatchedVPSolver.set_rhs`, and every step is a
multi-column CVN back-substitution with per-scenario convergence masks.
The factorization count is therefore *independent of the scenario count
and the step count* -- the property the benchmark counter-asserts.

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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.batch import BatchedVPConfig, BatchedVPSolver
from repro.core.planes import PlaneFactorCache
from repro.core.transient import normalize_capacitance
from repro.core.kernel import loadshare_v0
from repro.errors import GridError, ReproError
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


class _ScenarioGroup:
    """All scenarios sharing one ``(plane_scale, cap_scale)`` signature:
    one DC stack, one companion stack, one pair of batched solvers."""

    def __init__(
        self,
        stack: PowerGridStack,
        originals: list[Scenario],
        columns: list[int],
        base_caps: list[np.ndarray],
        dt: float,
        cache: PlaneFactorCache,
        config: BatchedTransientConfig,
    ):
        self.originals = originals
        self.columns = np.array(columns, dtype=int)
        n_tiers = stack.n_tiers
        alphas = originals[0].tier_plane_scales(n_tiers)
        cap_scales = originals[0].tier_cap_scales(n_tiers)

        # DC stack: plane_scale baked into the matrices (the scaled-
        # factor fast path is unusable for the companion system, so the
        # transient engine always bakes alpha in -- mirroring the op
        # order of Scenario.apply keeps parity bitwise).
        dc_stack = stack.copy()
        for tier, alpha in zip(dc_stack.tiers, alphas):
            if alpha != 1.0:
                tier.g_h = tier.g_h * alpha
                tier.g_v = tier.g_v * alpha
                tier.g_pad = tier.g_pad * alpha

        # Companion stack: extra diagonal conductance C/h as a pad to a
        # 0 V rail; the history term enters through per-step loads (same
        # construction as TransientVPSolver).
        caps = [c * k for c, k in zip(base_caps, cap_scales)]
        self.g_cap = [(c / dt).ravel() for c in caps]
        comp_stack = dc_stack.copy()
        for tier, c in zip(comp_stack.tiers, caps):
            tier.g_pad = tier.g_pad + c / dt

        # Scenario knobs that survive the baking: load scales feed the
        # per-step RHS directly, TSV knobs feed the propagation phase.
        stripped = ScenarioSet(
            [
                Scenario(
                    name=s.name,
                    r_tsv_scale=s.r_tsv_scale,
                    r_seg_scale=s.r_seg_scale,
                )
                for s in originals
            ]
        )
        dc_planes = cache.get(dc_stack)
        comp_planes = cache.get(comp_stack)
        self.dc_solver = BatchedVPSolver(
            dc_stack, stripped, config, planes=dc_planes
        )
        self.comp_solver = BatchedVPSolver(
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
            for l, tier in enumerate(dc_stack.tiers)
        ]
        self.pad_dc = [
            tier.g_pad.ravel() * tier.v_pad for tier in dc_stack.tiers
        ]
        self.pad_comp = [
            tier.g_pad.ravel() * tier.v_pad for tier in comp_stack.tiers
        ]

        # Run state (narrowed on settle retirement).
        self.active = np.arange(len(originals))
        self.v: np.ndarray | None = None          # (T, n, S_active)
        self.pillar_seed: np.ndarray | None = None
        self.settle_count = np.zeros(len(originals), dtype=int)
        # Step-to-step load cache: step/pulse stimuli hold their activity
        # vector constant across most steps, so the (n, S_active) load
        # batches are recomputed only when the activity actually moves.
        self._loads_activity: np.ndarray | None = None
        self._loads_cached: list[np.ndarray] | None = None
        self._rhs_buffers: list[tuple[np.ndarray, np.ndarray]] | None = None

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
                base[:, self.active] * a[None, :] for base in self.base_scaled
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
        """Per-tier companion RHS ``pad - (loads - (C/h) v_prev)`` into
        reused buffers -- the exact FP op grouping of the sequential
        path's ``update_loads(loads - g_cap * v)``, without allocating
        six ``(n, S_active)`` temporaries per step (the downstream
        ``set_rhs`` copies into its own partitions)."""
        if (
            self._rhs_buffers is None
            or self._rhs_buffers[0][0].shape != loads_t[0].shape
        ):
            self._rhs_buffers = [
                (np.empty_like(loads), np.empty_like(loads))
                for loads in loads_t
            ]
        out = []
        for l, loads in enumerate(loads_t):
            history, rhs = self._rhs_buffers[l]
            np.multiply(self.g_cap[l][:, None], self.v[l], out=history)
            np.subtract(loads, history, out=history)
            np.subtract(self.pad_comp[l][:, None], history, out=rhs)
            out.append(rhs)
        return out

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
        for col, s in enumerate(self.scenarios):
            key = (
                tuple(s.tier_plane_scales(n_tiers)),
                tuple(s.tier_cap_scales(n_tiers)),
            )
            members, columns = grouped.setdefault(key, ([], []))
            members.append(s)
            columns.append(col)

        # NOT `factor_cache or ...`: an empty cache is falsy (__len__).
        self.cache = (
            factor_cache
            if factor_cache is not None
            else PlaneFactorCache(max_entries=max(8, 2 * len(grouped)))
        )
        count0 = self.cache.factorizations
        self.groups = [
            _ScenarioGroup(
                stack, members, columns, self.base_caps, self.dt,
                self.cache, self.config,
            )
            for members, columns in grouped.values()
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

    def _raise_diverged(self, result, names: list[str], solve: str) -> None:
        if result.converged.all():
            return
        bad = [n for n, ok in zip(names, result.converged) if not ok]
        raise ReproError(
            f"transient VP {solve} did not converge for "
            f"{len(bad)} scenario(s): {bad[:5]}"
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
        ReproError
            When any scenario's VP solve fails to converge, at its DC
            operating point or at some step (mirrors the sequential
            solver).
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

            # ------------------------------------------------------------------
            # t = 0: per-group DC operating point (or the caller's v0).
            if v0 is not None:
                v0 = np.asarray(v0, dtype=float)
                if v0.shape == (n_tiers, rows, cols):
                    v0 = np.repeat(v0[..., None], n_scen, axis=3)
                if v0.shape != (n_tiers, rows, cols, n_scen):
                    raise GridError(
                        f"v0 shape {v0.shape} != {(n_tiers, rows, cols)} or "
                        f"{(n_tiers, rows, cols, n_scen)}"
                    )
            for group in self.groups:
                cols_g = group.active_columns
                if v0 is None:
                    loads0 = group.loads_at(0.0)
                    group.dc_solver.set_rhs(
                        [
                            group.pad_dc[l][:, None] - loads0[l]
                            for l in range(n_tiers)
                        ]
                    )
                    seed = None
                    if config.v0_init == "loadshare" and stack.pillars.count:
                        # The stripped scenarios carry load_scale 1, so the
                        # solver's own loadshare seed would miss the corner
                        # scales; feed it the actual t=0 column totals
                        # (column-contiguous sums match the sequential
                        # solver's per-tier sums bitwise).
                        totals = np.stack(
                            [
                                np.asfortranarray(loads0[l]).sum(axis=0)
                                for l in range(n_tiers)
                            ]
                        )
                        seed = loadshare_v0(
                            stack.v_pin,
                            group.dc_solver.r_seg,
                            totals,
                            stack.pillars.count,
                        )
                    dc_res = group.dc_solver.solve(v0=seed)
                    self._raise_diverged(
                        dc_res,
                        [self.scenarios[c].name for c in cols_g],
                        "DC operating point",
                    )
                    group.v = dc_res.voltages.reshape(n_tiers, n, cols_g.size)
                    group.pillar_seed = dc_res.pillar_v0
                else:
                    group.v = np.ascontiguousarray(
                        v0.reshape(n_tiers, n, n_scen)[:, :, cols_g]
                    )
                    group.pillar_seed = None
                worst[0, cols_g] = group.v.min(axis=(0, 1))
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
                        [self.scenarios[c].name for c in cols_g],
                        f"step at t={t:.3e}s",
                    )
                    v_prev = group.v
                    group.v = res.voltages.reshape(n_tiers, n, cols_g.size)
                    group.pillar_seed = res.pillar_v0
                    outer_iters[k - 1, cols_g] = res.outer_iterations
                    worst[k, cols_g] = group.v.min(axis=(0, 1))
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
