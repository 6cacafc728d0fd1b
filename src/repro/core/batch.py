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
take: both run the one outer-iteration kernel
(:func:`repro.core.kernel.run_outer_loop`) with the same factored plane
operator, and the standalone solve is its batch-size-1 case.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.kernel import (
    PHASES,
    BatchOuterRecord,
    FactoredPlanes,
    pillar_gain,
    run_outer_loop,
    seed_v0,
)
from repro.core.planes import ReducedPlaneSystem
from repro.core.vda import VDA_NAMES, VDAPolicy
from repro.errors import GridError, ReproError
from repro.grid.stack3d import PowerGridStack
from repro.scenarios.spec import Scenario, ScenarioSet


@dataclass
class BatchedVPConfig:
    """The knobs of the VP outer loop (:func:`repro.core.kernel.run_outer_loop`),
    declared and checked once.

    The batched engine and the adjoint take it as is; every other engine
    config that runs one kernel loop subclasses it with its own knobs
    only, and each engine hands its config straight to the kernel.

    ``outer_tol`` bounds the propagated-source-voltage mismatch in volts
    (the paper's epsilon; its error budget is 0.5 mV -- the default
    0.1 mV leaves headroom for inner-solver error).  ``vda`` picks the
    adjustment policy: ``"fixed"``/``"adaptive"`` are the paper's §III-C
    variants, ``"secant"``/``"anderson"`` quasi-Newton/accelerated
    extensions (benchmark E8), and ``"auto"`` (default) uses adaptive in
    the paper's low-TSV-resistance design regime and switches to
    Anderson per column when the pillar gain bound signals a stiff outer
    Jacobian (large ``r_tsv``).
    """

    outer_tol: float = 1e-4
    max_outer: int = 200
    vda: str | VDAPolicy = "auto"
    #: Initial VDA damping; None auto-scales it per column from the
    #: pillar gain bound (1 / max_j prod_l (1 + r_seg[l,j] * G_deg(j))),
    #: which keeps the outer iteration stable even for unusually
    #: resistive TSVs.
    eta: float | None = None
    raise_on_divergence: bool = False
    #: Layer-0 TSV voltage seed: ``"pin"`` is the paper's ``V0 = VDD``;
    #: ``"loadshare"`` pre-drops each pillar by its load share through
    #: the segment resistances, typically saving a few outer iterations.
    v0_init: str = "pin"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.outer_tol) and self.outer_tol > 0):
            raise ReproError(
                f"outer_tol must be a finite number > 0, got {self.outer_tol!r}"
            )
        if self.max_outer < 1:
            raise ReproError(f"max_outer must be >= 1, got {self.max_outer!r}")
        if self.v0_init not in ("pin", "loadshare"):
            raise ReproError(
                f"'v0_init' must be 'pin' or 'loadshare', got {self.v0_init!r}"
            )
        if not isinstance(self.vda, VDAPolicy) and self.vda not in VDA_NAMES:
            raise ReproError(f"'vda' must be one of {list(VDA_NAMES)}, got {self.vda!r}")


@dataclass
class BatchedVPStats:
    """Cost accounting of one batched solve."""

    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASES, 0.0)
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

    Structure-dependent setup -- the grouped plane factorizations and
    the ``(T, P, S)`` segment-resistance table -- happens once in the
    constructor; :meth:`solve` runs the lockstep outer iteration with
    early retirement, on the RHS batches :meth:`set_rhs` wrote or, when
    none came first, on the stack's own loads.
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
        self.v_pin = stack.v_pin

        if planes is None:
            planes = ReducedPlaneSystem(stack, factorize=True)
        elif not planes.factorized:
            raise ReproError(
                "a pre-built plane system must be factorized with pillar rows"
            )
        # A pre-built system (e.g. from a PlaneFactorCache) shares this
        # stack's plane *geometry*; base RHS vectors may be stale, so the
        # solve below always passes explicit per-scenario RHS batches.
        self.planes = planes
        self.pillar_flat = self.planes.pillar_flat

        # Per-tier conductance multipliers (metal width): alpha (T, S).
        alpha = self.scenarios.plane_scale_matrix(self.n_tiers)
        self.plane_scale = alpha
        self._has_plane_scale = bool(np.any(alpha != 1.0))

        # Per-scenario right-hand sides, (n_free, S) / (P, S) per tier:
        # set_rhs() writes them, and solve() builds the stack's own only
        # when no set_rhs() came first (callers that push every RHS never
        # pay for a default one).
        self._load_scales = self.scenarios.load_scale_matrix(self.n_tiers)
        self._b_free: list[np.ndarray] | None = None
        self._b_pillar: list[np.ndarray] | None = None

        # Segment resistances as a (T, P, S) design tensor (scalar design
        # knob plus any per-segment process spread).
        self.r_seg = self.scenarios.r_seg_table(stack.pillars.r_seg)

        # Per-scenario gain bound and damping, read off the (scaled)
        # tier-0 degree conductance as the standalone solver does.
        degree = stack.tiers[0].degree_conductance().ravel()[self.pillar_flat]
        self.pillars = pillar_gain(
            degree[:, None] * alpha[0][None, :], self.r_seg, stack.pillars.has_pin
        )
        base_totals = np.array([tier.total_load() for tier in stack.tiers])
        self._tier_totals = base_totals[:, None] * self._load_scales  # (T, S)

        self._setup_seconds = time.perf_counter() - t_start

    # ------------------------------------------------------------------
    def _default_rhs(self) -> None:
        """The RHS batches of the stack's own loads under each scenario,
        each formed straight from its own rows (no full ``(n, S)``
        batch).  The pad term carries the plane scaling (pads are
        conductances of the scaled plane); loads are currents and scale
        independently."""
        alpha = self.plane_scale
        self._b_free, self._b_pillar = [], []
        for l, tier in enumerate(self.stack.tiers):
            pad_term = (tier.g_pad * tier.v_pad).ravel()
            loads = tier.loads.ravel()
            for rows, out in (
                (self.planes.free, self._b_free),
                (self.pillar_flat, self._b_pillar),
            ):
                out.append(
                    pad_term[rows][:, None] * alpha[l][None, :]
                    - loads[rows][:, None] * self._load_scales[l][None, :]
                )

    def set_rhs(self, tier_rhs: list[np.ndarray]) -> None:
        """Replace the per-scenario plane right-hand sides.

        By default :meth:`solve` derives the RHS batches from the
        stack's static loads and the scenarios' load scales; callers
        that move the RHS every solve -- the batched transient engine
        folds the backward-Euler history term ``(C/h) v_{k-1}`` into
        per-step loads -- push the full vectors here instead.  Matrices
        and factors are untouched (loads never enter them).

        Parameters
        ----------
        tier_rhs:
            One ``(rows * cols, S)`` array per tier: the full-node RHS
            ``g_pad * v_pad - loads`` of each scenario column, in the
            stack's row-major node order.  Gathered into the solver's
            own free/pillar partition arrays, which later calls
            overwrite in place.

        Raises
        ------
        GridError
            On a tier-count or shape mismatch (nothing is written).
        """
        if len(tier_rhs) != self.n_tiers:
            raise GridError(
                f"expected {self.n_tiers} RHS arrays, got {len(tier_rhs)}"
            )
        n = self.rows * self.cols
        tier_rhs = [np.asarray(rhs, dtype=float) for rhs in tier_rhs]
        for l, rhs in enumerate(tier_rhs):
            if rhs.shape != (n, self.n_scenarios):
                raise GridError(
                    f"tier {l} RHS shape {rhs.shape} != "
                    f"{(n, self.n_scenarios)}"
                )
        if self._b_free is None:
            s = self.n_scenarios
            self._b_free = [np.empty((self.planes.n_free, s)) for _ in tier_rhs]
            self._b_pillar = [np.empty((self.pillar_flat.size, s)) for _ in tier_rhs]
        for rhs, b_free, b_pillar in zip(tier_rhs, self._b_free, self._b_pillar):
            # "clip" never triggers (the partitions index valid rows) and,
            # unlike the default, writes into ``out`` without a buffer.
            np.take(rhs, self.planes.free, axis=0, out=b_free, mode="clip")
            np.take(rhs, self.pillar_flat, axis=0, out=b_pillar, mode="clip")

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Solver state: shared plane blocks plus the batched RHS/field
        arrays."""
        total = self.planes.memory_bytes
        n_rhs = self.planes.n_free + self.pillar_flat.size
        total += self.n_tiers * n_rhs * self.n_scenarios * 8
        total += self.r_seg.nbytes + self.pillars.bound.nbytes
        # Voltage fields and pillar batch vectors.
        total += self.n_tiers * self.rows * self.cols * self.n_scenarios * 8
        total += 4 * self.pillar_flat.size * self.n_scenarios * 8
        return int(total)

    # ------------------------------------------------------------------
    def solve(self, v0: np.ndarray | None = None) -> BatchedVPResult:
        """Run the lockstep outer iteration with early retirement: the
        shared kernel (:func:`repro.core.kernel.run_outer_loop`) with the
        factored plane operator over every scenario column.

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
        scale = self.plane_scale if self._has_plane_scale else None
        if self._b_free is None:
            self._default_rhs()
        loop = run_outer_loop(
            FactoredPlanes(self.planes, self._b_free, self._b_pillar, scale),
            self.pillars,
            seed_v0(v0, self.pillars, self.v_pin, config.v0_init, self._tier_totals),
            config,
            target=self.v_pin,
            engine="batch",
        )
        stats = BatchedVPStats(
            setup_seconds=self._setup_seconds,
            solve_seconds=loop.seconds,
            phase_seconds=loop.phase_seconds,
            outer_iterations=loop.outer_iterations,
            column_solves=loop.column_solves,
            memory_bytes=self.memory_bytes,
        )
        return BatchedVPResult(
            voltages=loop.voltages.reshape(
                self.n_tiers, self.rows, self.cols, self.n_scenarios
            ),
            converged=loop.converged,
            outer_iterations=loop.outer_counts,
            max_vdiff=loop.max_vdiff,
            pillar_v0=loop.pillar_v0,
            pillar_currents=loop.pillar_currents,
            scenario_names=self.scenarios.names,
            history=loop.history,
            stats=stats,
            info_v_pin=self.v_pin,
        )


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
