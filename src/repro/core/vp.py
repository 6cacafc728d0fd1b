"""The 3-D Voltage Propagation (VP) method -- the paper's contribution.

One outer iteration implements Fig. 2/3 of the paper:

1. **CVN (intra-plane voltage calculation).**  Starting from the
   bottommost tier (layer 0, farthest from the package pins), solve each
   tier's plane with its TSV nodes held at fixed voltages -- layer 0 at the
   current guesses ``V0(j)``, higher layers at the values propagated from
   below.  TSV segment resistances are deliberately *not* part of these
   plane solves ("a resistance should not be processed twice").
2. **TSV current computation.**  KCL at each TSV node yields the current
   the pillar delivers into the plane; accumulating these bottom-up gives
   the current through each TSV segment (each TSV feeds its own tier plus
   all tiers farther from the pins).
3. **Voltage propagation.**  ``V_{l+1}(j) = V_l(j) + i_seg,l(j) r_seg,l(j)``
   climbs the pillar; applying it to the topmost segment produces the
   "propagated source voltage" ``V'dd(j)``.
4. **VDA.**  The mismatch ``Vdiff(j) = VDD - V'dd(j)`` adjusts the layer-0
   guesses; iterate until ``max_j |Vdiff| < epsilon``.

At the fixed point the propagated pin voltages equal VDD exactly, so the
assembled 3-D system's KCL/KVL hold everywhere and VP returns the true DC
solution up to the inner tolerance (tests verify this against the direct
solver).

The loop itself is the one every engine runs
(:func:`repro.core.kernel.run_outer_loop`); this module plugs in the
intra-plane phase: the paper's row-based method (``inner="rb"``), a
cached per-tier sparse factorization (``inner="direct"`` -- the plane
matrices never change across outer iterations, so each outer iteration
costs only back-substitutions), or Jacobi-PCG (``inner="cg"``).
Benchmark E11 compares them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.errors import GridError, ReproError
from repro.core.batch import BatchedVPConfig
from repro.core.kernel import (
    PHASES,
    FactoredPlanes,
    PlaneOperator,
    pillar_gain,
    run_outer_loop,
    seed_v0,
)
from repro.core.planes import ReducedPlaneSystem, group_tiers
from repro.core.rowbased import RowBasedConfig, RowBasedSolver, estimate_optimal_omega
from repro.core.tsv import pillar_drawn_currents, plane_matrices
from repro.grid.stack3d import PowerGridStack
from repro.linalg.cg import cg

INNER_SOLVERS = ("rb", "direct", "cg")
#: Inexact-Newton forcing of the iterative inner solvers: each outer
#: iteration's plane solves target this fraction of the previous outer
#: mismatch (see :meth:`VoltagePropagationSolver._inner_tolerance`).
INNER_TOL_RATIO = 0.1
#: Loosest tolerance (volts) of an iterative inner solve.
INNER_TOL_CAP = 1e-4


@dataclass
class VPConfig(BatchedVPConfig):
    """Knobs of the single-stack VP solver: the outer loop's
    (:class:`~repro.core.batch.BatchedVPConfig`) plus the intra-plane
    solver ``inner`` -- ``"rb"`` (the paper's row-based method),
    ``"direct"`` (cached factorization) or ``"cg"`` (Jacobi-PCG) -- and
    ``inner_tol``, the floor of the gain-aware inexact tolerance of the
    iterative ones.  Iterative inner solves always warm-start from the
    tier's previous field; the row-based SOR factor is estimated once
    per solver.
    """

    inner: str = "rb"
    inner_tol: float = 1e-5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.inner not in INNER_SOLVERS:
            raise ReproError(
                f"unknown inner solver {self.inner!r}; use one of {INNER_SOLVERS}"
            )
        if not self.inner_tol > 0:
            raise ReproError(f"inner_tol must be > 0, got {self.inner_tol!r}")

    @classmethod
    def direct(cls, config: BatchedVPConfig) -> "VPConfig":
        """The ``inner="direct"`` config with ``config``'s loop knobs: its
        solve of ``scenario.apply(stack)`` matches that scenario's column
        of a batched solve under ``config`` bit for bit (to round-off
        for ``plane_scale``, which the batch solves on unscaled
        factors)."""
        return cls(
            inner="direct",
            **{f.name: getattr(config, f.name) for f in fields(BatchedVPConfig)},
        )


@dataclass
class OuterRecord:
    """One outer iteration's telemetry."""

    iteration: int
    max_vdiff: float
    inner_iterations: list[int]
    inner_tol: float


@dataclass
class VPStats:
    """Cost accounting of one solve."""

    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASES, 0.0)
    )
    outer_iterations: int = 0
    total_inner_iterations: int = 0
    memory_bytes: int = 0


@dataclass
class VPResult:
    """Solution of a 3-D stack by voltage propagation.

    ``voltages[l, i, j]`` is the node voltage of tier ``l`` (0 =
    bottommost).  ``pillar_v0`` holds the converged layer-0 TSV voltages;
    ``history`` the per-outer-iteration telemetry.
    """

    voltages: np.ndarray
    converged: bool
    outer_iterations: int
    max_vdiff: float
    pillar_v0: np.ndarray
    pillar_currents: np.ndarray
    history: list[OuterRecord]
    stats: VPStats

    def flat_voltages(self) -> np.ndarray:
        """Tier-major flat vector matching
        :func:`repro.grid.conductance.stack_system` ordering."""
        return self.voltages.ravel()

    def drop_field(self, v_nominal: float | None = None) -> np.ndarray:
        """Per-node IR drop ``|v_ref - v|`` as a ``(T, R, C)`` array.

        The field the sensitivity metrics and the optimizers consume
        (uses the stack pin voltage by default).
        """
        reference = self.info_v_pin if v_nominal is None else v_nominal
        return np.abs(reference - self.voltages)

    def worst_ir_drop(self, v_nominal: float | None = None) -> float:
        """Worst IR drop in volts (uses the stack pin voltage by default)."""
        return float(np.max(self.drop_field(v_nominal)))

    # set by the solver; kept out of __init__ noise
    info_v_pin: float = 0.0


class VoltagePropagationSolver:
    """Reusable VP solver bound to one stack.

    Structure-dependent setup (row factorizations or plane LU factors)
    happens once in the constructor; :meth:`solve` may be called many
    times (e.g. after load changes via :meth:`update_loads`).
    """

    def __init__(self, stack: PowerGridStack, config: VPConfig | None = None):
        t_start = time.perf_counter()
        self.stack = stack
        self.config = config or VPConfig()
        self.rows, self.cols = stack.rows, stack.cols
        self.n_tiers = stack.n_tiers
        self.pillar_flat = stack.pillar_flat_indices()
        self.pillar_mask = stack.pillar_mask()
        self.v_pin = stack.v_pin

        # Per-tier plane systems -- used for TSV current extraction in all
        # inner modes (and as the basis of the direct/cg reduced systems).
        # Tiers sharing wire geometry (the paper replicates one tier) share
        # one matrix; right-hand sides stay per-tier (loads may differ).
        self._tier_group = group_tiers(stack)
        self._planes = plane_matrices(stack, groups=self._tier_group)

        if self.config.inner == "rb":
            self._setup_rb()
        else:
            self._setup_reduced()

        # Gain bound, VDA damping and residual scale of the pillars: the
        # kernel's 1-column batch.
        degree = stack.tiers[0].degree_conductance().ravel()[self.pillar_flat]
        self.pillars = pillar_gain(
            degree[:, None], stack.pillars.r_seg[:, :, None], stack.pillars.has_pin
        )

        self._setup_seconds = time.perf_counter() - t_start

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _tier_base_rhs(self, tier) -> np.ndarray:
        """Constant intra-plane RHS of one tier (zeroed at pillar nodes)."""
        base = tier.g_pad * tier.v_pad - tier.loads
        base[self.pillar_mask] = 0.0
        return base

    def _setup_rb(self) -> None:
        rb_config = RowBasedConfig(tol=self.config.inner_tol, omega=1.0)
        solvers: dict[int, RowBasedSolver] = {}
        self._rb_solvers = []
        self._rb_base = []
        for l, tier in enumerate(self.stack.tiers):
            group = self._tier_group[l]
            if group not in solvers:
                solvers[group] = RowBasedSolver(
                    self.stack.tiers[group], self.pillar_mask, rb_config
                )
            self._rb_solvers.append(solvers[group])
            self._rb_base.append(self._tier_base_rhs(tier))
        self._rb_omega, _rho = estimate_optimal_omega(
            self._rb_solvers[0], n_iter=12
        )

    def _setup_reduced(self) -> None:
        """Reduced free-node systems for the direct/cg inner solvers.

        The partitioned structure (and, for ``direct``, the shared LU
        factors and pillar rows) lives in :class:`ReducedPlaneSystem`;
        ``direct`` solves run it as the batched engine does, with a
        1-column batch.
        """
        self._reduced = ReducedPlaneSystem(
            self.stack,
            groups=self._tier_group,
            planes=self._planes,
            factorize=self.config.inner == "direct",
        )
        self._free = self._reduced.free

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Explicit accounting of solver state (factors, matrices, fields).

        Objects shared between replicated tiers are counted once.
        """
        total = 0
        seen: set[int] = set()

        def once(obj, n_bytes: int) -> int:
            if id(obj) in seen:
                return 0
            seen.add(id(obj))
            return n_bytes

        def csr_bytes(matrix) -> int:
            return once(
                matrix,
                matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes,
            )

        if self.config.inner == "rb":
            for matrix, rhs in self._planes:
                total += csr_bytes(matrix) + rhs.nbytes
            for solver, base in zip(self._rb_solvers, self._rb_base):
                total += once(solver, solver.memory_bytes) + base.nbytes
        else:
            # The reduced system counts the plane matrices it shares.
            total += self._reduced.memory_bytes
        # Voltage fields and pillar vectors.
        total += self.n_tiers * self.rows * self.cols * 8
        total += 5 * self.pillar_flat.size * 8
        return int(total)

    # ------------------------------------------------------------------
    # Outer loop
    # ------------------------------------------------------------------
    def solve(self, v0: np.ndarray | None = None) -> VPResult:
        """Run the VP outer iteration to convergence: the shared kernel
        (:func:`repro.core.kernel.run_outer_loop`) as a 1-column batch,
        with the batched engine's factored plane operator for
        ``inner="direct"`` and a warm-started iterative one for ``"rb"``
        / ``"cg"``.

        ``v0`` optionally seeds the layer-0 TSV voltages (default: the
        ``config.v0_init`` rule; the paper's is the pin voltage).
        """
        config = self.config
        if config.inner == "direct":
            reduced = self._reduced
            op = FactoredPlanes(
                reduced,
                [b[:, None] for b in reduced.b_free],
                [b[:, None] for b in reduced.b_pillar],
            )
        else:
            op = _IterativePlanes(self)
        tier_totals = np.array([tier.total_load() for tier in self.stack.tiers])
        loop = run_outer_loop(
            op,
            self.pillars,
            seed_v0(v0, self.pillars, self.v_pin, config.v0_init, tier_totals[:, None]),
            config,
            target=self.v_pin,
            engine="vp",
        )

        if config.inner == "direct":
            inner = [[1] * self.n_tiers for _ in range(loop.outer_iterations)]
        else:
            inner = op.inner_iterations
        max_f = [float(record.max_vdiff[0]) for record in loop.history]
        history = [
            OuterRecord(k + 1, f, iters, self._inner_tolerance(prev))
            for k, (f, iters, prev) in enumerate(zip(max_f, inner, [None] + max_f))
        ]
        stats = VPStats(
            setup_seconds=self._setup_seconds,
            solve_seconds=loop.seconds,
            phase_seconds=loop.phase_seconds,
            outer_iterations=loop.outer_iterations,
            total_inner_iterations=sum(map(sum, inner)),
            memory_bytes=self.memory_bytes,
        )
        result = VPResult(
            voltages=loop.voltages[..., 0].reshape(
                self.n_tiers, self.rows, self.cols
            ),
            converged=bool(loop.converged[0]),
            outer_iterations=loop.outer_iterations,
            max_vdiff=float(loop.max_vdiff[0]),
            pillar_v0=loop.pillar_v0[:, 0],
            pillar_currents=loop.pillar_currents[:, 0],
            history=history,
            stats=stats,
        )
        result.info_v_pin = self.v_pin
        return result

    def _inner_tolerance(self, prev_max_f: float | None) -> float:
        """Inexact inner solves, gain-aware.

        A plane-solve error of ``tau`` volts perturbs the propagated
        source voltage by up to ``gain * tau`` (the drawn-current error is
        amplified through every TSV segment), so the inner tolerance must
        shrink with the pillar gain bound or the outer residual bottoms
        out on inner noise.  The schedule targets an F-accuracy of a
        fraction of the current outer mismatch (classic inexact-Newton
        forcing), never sloppier than a tenth of the outer tolerance.
        """
        config = self.config
        gain = float(max(self.pillars.bound.max(), 1.0))
        if prev_max_f is None:
            f_target = 10.0 * config.outer_tol
        else:
            f_target = max(INNER_TOL_RATIO * prev_max_f, 0.1 * config.outer_tol)
        return float(
            np.clip(f_target / gain, config.inner_tol / gain, INNER_TOL_CAP)
        )

    # ------------------------------------------------------------------
    def update_loads(self, tier_loads: list[np.ndarray]) -> None:
        """Swap device currents without rebuilding factorizations.

        Only the plane right-hand sides depend on loads; matrices and
        factors survive, which makes repeated what-if analyses cheap.
        """
        if len(tier_loads) != self.n_tiers:
            raise GridError(
                f"expected {self.n_tiers} load arrays, got {len(tier_loads)}"
            )
        for l, loads in enumerate(tier_loads):
            loads = np.asarray(loads, dtype=float)
            tier = self.stack.tiers[l]
            if loads.shape != (self.rows, self.cols):
                raise GridError(
                    f"tier {l} loads shape {loads.shape} != "
                    f"{(self.rows, self.cols)}"
                )
            if np.any(loads.ravel()[self.pillar_flat] != 0):
                raise GridError(f"tier {l}: loads violate TSV keep-out")
            tier.loads = loads.copy()
            matrix, _ = self._planes[l]
            rhs = tier.g_pad.ravel() * tier.v_pad - loads.ravel()
            self._planes[l] = (matrix, rhs)
            if self.config.inner == "rb":
                self._rb_base[l] = self._tier_base_rhs(tier)
            else:
                self._reduced.update_rhs(l, rhs)


class _IterativePlanes(PlaneOperator):
    """Single-column ``rb`` / ``cg`` plane operator of the paper
    reproduction.

    Each tier solve warm-starts from the tier's previous field and runs
    to the gain-aware inexact tolerance of the current outer iteration
    (:meth:`VoltagePropagationSolver._inner_tolerance`); drawn currents
    come from the full plane matrices.  ``inner_iterations`` logs the
    per-tier inner iteration counts of every outer iteration.
    """

    def __init__(self, solver: VoltagePropagationSolver):
        self.solver = solver
        self.n = solver.rows * solver.cols
        self.warm = [
            np.full((solver.rows, solver.cols), solver.v_pin)
            for _ in range(solver.n_tiers)
        ]
        self.tol = 0.0
        self.inner_iterations: list[list[int]] = []

    def begin(self, max_vdiff):
        prev_max_f = float(max_vdiff[0]) if self.inner_iterations else None
        self.tol = self.solver._inner_tolerance(prev_max_f)
        self.inner_iterations.append([])

    def solve(self, l, pillar_v, idx, out):
        solver = self.solver
        pillar_v = pillar_v[:, 0]
        warm = self.warm[l]
        if solver.config.inner == "rb":
            dvals = warm.copy()
            positions = solver.stack.pillars.positions
            dvals[positions[:, 0], positions[:, 1]] = pillar_v
            result = solver._rb_solvers[l].solve(
                dirichlet_values=dvals,
                v0=warm,
                tol=self.tol,
                omega=solver._rb_omega,
                base_rhs=solver._rb_base[l],
            )
            field_l, iterations = result.v, result.sweeps
        else:
            reduced = solver._reduced
            v_field = warm.copy().ravel()
            inv_diag = reduced.jacobi_inv[l]
            result = cg(
                reduced.a_ff[l],
                reduced.reduced_rhs(l, pillar_v),
                x0=v_field[solver._free],
                m_inv=lambda r: inv_diag * r,
                tol=self.tol,
                criterion="max_dx",
                max_iter=50_000,
            )
            v_field[solver._free] = result.x
            v_field[solver.pillar_flat] = pillar_v
            field_l = v_field.reshape(solver.rows, solver.cols)
            iterations = result.iterations
        self.warm[l] = field_l
        self.inner_iterations[-1].append(iterations)
        out[:, 0] = field_l.ravel()
        return out

    def drawn(self, l, v_full, idx):
        matrix, rhs = self.solver._planes[l]
        return pillar_drawn_currents(
            matrix, rhs, v_full[:, 0], self.solver.pillar_flat
        )[:, None]


def solve_vp(stack: PowerGridStack, **config_kwargs) -> VPResult:
    """One-shot convenience: build a solver and run it."""
    return VoltagePropagationSolver(stack, VPConfig(**config_kwargs)).solve()
