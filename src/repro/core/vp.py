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

The intra-plane phase is pluggable: the paper's row-based method
(``inner="rb"``), a cached per-tier sparse factorization (``inner="direct"``
-- the plane matrices never change across outer iterations, so each outer
iteration costs only back-substitutions), or Jacobi-PCG (``inner="cg"``).
Benchmark E11 compares them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ConvergenceError, GridError, ReproError
from repro.core.planes import ReducedPlaneSystem, group_tiers
from repro.core.rowbased import RowBasedConfig, RowBasedSolver, estimate_optimal_omega
from repro.core.tsv import pillar_drawn_currents, plane_matrices
from repro.core.vda import VDAPolicy, make_vda_policy
from repro.grid.stack3d import PowerGridStack
from repro.linalg.cg import cg

INNER_SOLVERS = ("rb", "direct", "cg")

#: Gain-bound damping below which the ``"auto"`` VDA rule abandons the
#: paper's adaptive policy for Anderson acceleration (stiff pillars).
AUTO_ETA_THRESHOLD = 0.05
#: Anderson window the ``"auto"`` rule uses in the stiff regime.
AUTO_ANDERSON_WINDOW = 30


def resolve_vda_policy(
    vda: str | VDAPolicy, eta, auto_eta
) -> VDAPolicy:
    """Materialize a VDA policy -- shared by the single-scenario and
    batched solvers so the ``"auto"`` rule cannot drift between them.

    ``"auto"`` chooses the paper's adaptive rule when every (scenario's)
    gain-bound damping is healthy, and Anderson acceleration (window 30)
    when the stiffest pillar gain forces tiny damping.  ``auto_eta`` is
    a scalar (one scenario) or an ``(S,)`` per-scenario array; a batch
    mixing both regimes is handled by the batched solver, which applies
    this same threshold per scenario column.
    """
    if isinstance(vda, VDAPolicy):
        return vda
    name = vda
    eta = auto_eta if eta is None else eta
    kwargs: dict = {}
    if name == "auto":
        name = (
            "adaptive"
            if float(np.min(auto_eta)) >= AUTO_ETA_THRESHOLD
            else "anderson"
        )
        if name == "anderson":
            kwargs["m"] = AUTO_ANDERSON_WINDOW
    kwargs["eta" if name == "fixed" else "eta0"] = eta
    return make_vda_policy(name, **kwargs)


def loadshare_v0(
    v_pin: float, r_seg: np.ndarray, tier_totals: np.ndarray, n_pillars: int
) -> np.ndarray:
    """The ``v0_init="loadshare"`` seed -- one formula for both solvers.

    Approximates each pillar's fixed-point voltage by dropping an equal
    share of the tiers' total load through the pillar's segment
    resistances: segment ``l`` carries roughly ``sum_{m <= l} load_m / P``,
    so ``V0 ~= v_pin - sum_l r_seg[l] * i_seg,l``.  Accepts the
    single-scenario shapes (``r_seg (T, P)``, ``tier_totals (T,)``) and
    the batched ones (``(T, P, S)``, ``(T, S)``), returning ``(P,)`` or
    ``(P, S)`` accordingly.
    """
    seg_currents = np.cumsum(np.asarray(tier_totals, dtype=float), axis=0)
    seg_currents = seg_currents / max(n_pillars, 1)
    if r_seg.ndim == 3:
        drop = (r_seg * seg_currents[:, None, :]).sum(axis=0)
    else:
        drop = (r_seg * seg_currents[:, None]).sum(axis=0)
    return v_pin - drop


@dataclass
class VPConfig:
    """Tuning knobs of the VP solver.

    ``outer_tol`` bounds the propagated-source-voltage mismatch in volts
    (the paper's epsilon; its error budget is 0.5 mV -- the default 0.1 mV
    leaves headroom for inner-solver error).  ``vda`` picks the adjustment
    policy: ``"fixed"``/``"adaptive"`` are the paper's §III-C variants,
    ``"secant"``/``"anderson"`` quasi-Newton/accelerated extensions
    (benchmark E8), and ``"auto"`` (default) uses adaptive in the paper's
    low-TSV-resistance design regime and switches to Anderson when the
    pillar gain bound signals a stiff outer Jacobian (large ``r_tsv``).
    """

    outer_tol: float = 1e-4
    max_outer: int = 200
    vda: str | VDAPolicy = "auto"
    #: Initial VDA damping; None auto-scales it from the pillar gain bound
    #: (1 / max_j prod_l (1 + r_seg[l,j] * G_deg(j))), which keeps the
    #: outer iteration stable even for unusually resistive TSVs.
    eta: float | None = None
    inner: str = "rb"
    inner_tol: float = 1e-5
    inner_tol_ratio: float = 0.1
    inner_tol_cap: float = 1e-4
    rb_omega: float | None = None
    rb_ordering: str = "redblack"
    rb_max_sweeps: int = 20_000
    warm_start: bool = True
    record_history: bool = True
    raise_on_divergence: bool = False
    #: Layer-0 TSV voltage seed: ``"pin"`` is the paper's ``V0 = VDD``;
    #: ``"loadshare"`` pre-drops each pillar by its load share through the
    #: segment resistances, typically saving a few outer iterations.
    v0_init: str = "pin"

    def __post_init__(self) -> None:
        if self.inner not in INNER_SOLVERS:
            raise ReproError(
                f"unknown inner solver {self.inner!r}; use one of {INNER_SOLVERS}"
            )
        if self.v0_init not in ("pin", "loadshare"):
            raise ReproError(
                f"unknown v0_init {self.v0_init!r}; use 'pin' or 'loadshare'"
            )
        if self.outer_tol <= 0 or self.inner_tol <= 0:
            raise ReproError("tolerances must be positive")
        if self.max_outer < 1:
            raise ReproError("max_outer must be >= 1")


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
        default_factory=lambda: {"cvn": 0.0, "tsv": 0.0, "propagate": 0.0, "vda": 0.0}
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
        self.has_pin = stack.pillars.has_pin
        self.r_seg = stack.pillars.r_seg
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

        # Stability bound for the VDA damping: raising V0(j) by 1 V raises
        # the propagated source voltage by at most
        # prod_l (1 + r_seg[l,j] * G_deg(j)) volts, G_deg being the plane
        # conductance incident at the pillar node.  1 / (that bound) is a
        # safe Richardson step for the diagonal of the outer Jacobian.
        degree_all = stack.tiers[0].degree_conductance().ravel()[self.pillar_flat]
        gain_bound = np.ones(self.pillar_flat.size)
        for l in range(self.n_tiers):
            gain_bound *= 1.0 + self.r_seg[l] * degree_all
        self.pillar_gain_bound = gain_bound
        self.auto_eta = float(min(0.5, 1.0 / max(gain_bound.max(), 1.0)))

        # Voltage scale for the residual of un-pinned pillars: total pillar
        # resistance plus a local plane-spreading estimate.
        if not np.all(self.has_pin):
            degree = stack.tiers[0].degree_conductance().ravel()[self.pillar_flat]
            series = self.r_seg[:-1].sum(axis=0) if self.n_tiers > 1 else np.zeros(
                self.pillar_flat.shape
            )
            self._r_unit = series + 1.0 / np.maximum(degree, 1e-12)
        else:
            self._r_unit = None

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
        config = self.config
        rb_config = RowBasedConfig(
            tol=config.inner_tol,
            max_sweeps=config.rb_max_sweeps,
            omega=1.0,
            ordering=config.rb_ordering,
        )
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
        if config.rb_omega is None:
            omega, _rho = estimate_optimal_omega(
                self._rb_solvers[0], n_iter=12
            )
            self._rb_omega = omega
        else:
            self._rb_omega = config.rb_omega

    def _setup_reduced(self) -> None:
        """Reduced free-node systems for the direct/cg inner solvers.

        The partitioned structure (and, for ``direct``, the shared LU
        factors) lives in :class:`ReducedPlaneSystem` -- the same kernel
        the batched scenario engine drives with multi-column RHS
        matrices; here it runs with single columns (batch size 1).
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
    # Intra-plane solve (phase 1)
    # ------------------------------------------------------------------
    def _solve_tier(
        self,
        tier_index: int,
        pillar_voltages: np.ndarray,
        warm: np.ndarray,
        tol: float,
    ) -> tuple[np.ndarray, int]:
        """Solve one tier with its pillar nodes fixed; returns (field,
        inner iterations)."""
        if self.config.inner == "rb":
            dvals = warm.copy()
            dvals[self.stack.pillars.positions[:, 0],
                  self.stack.pillars.positions[:, 1]] = pillar_voltages
            result = self._rb_solvers[tier_index].solve(
                dirichlet_values=dvals,
                v0=warm if self.config.warm_start else None,
                tol=tol,
                omega=self._rb_omega,
                base_rhs=self._rb_base[tier_index],
            )
            return result.v, result.sweeps

        reduced = self._reduced
        v_field = warm.copy().ravel()
        if self.config.inner == "direct":
            x = reduced.solve_free(tier_index, pillar_voltages)
            iterations = 1
        else:
            b = reduced.reduced_rhs(tier_index, pillar_voltages)
            inv_diag = reduced.jacobi_inv[tier_index]
            x0 = v_field[self._free] if self.config.warm_start else None
            result = cg(
                reduced.a_ff[tier_index],
                b,
                x0=x0,
                m_inv=lambda r: inv_diag * r,
                tol=tol,
                criterion="max_dx",
                max_iter=50_000,
            )
            x = result.x
            iterations = result.iterations
        v_field[self._free] = x
        v_field[self.pillar_flat] = pillar_voltages
        return v_field.reshape(self.rows, self.cols), iterations

    # ------------------------------------------------------------------
    # Outer loop
    # ------------------------------------------------------------------
    def solve(self, v0: np.ndarray | None = None) -> VPResult:
        """Run the VP outer iteration to convergence.

        ``v0`` optionally seeds the layer-0 TSV voltages (defaults to the
        pin voltage, the paper's initialization).
        """
        config = self.config
        t_start = time.perf_counter()
        n_pillars = self.pillar_flat.size
        if v0 is None:
            v0 = self._initial_v0()
        else:
            v0 = np.array(v0, dtype=float)
            if v0.shape != (n_pillars,):
                raise GridError(
                    f"v0 has shape {v0.shape}, expected ({n_pillars},)"
                )

        policy = self._resolve_vda_policy()
        policy.reset(n_pillars)

        voltages = np.full((self.n_tiers, self.rows, self.cols), self.v_pin)
        stats = VPStats(setup_seconds=self._setup_seconds)
        phase = stats.phase_seconds
        tr = obs.tracer()
        residual_series = obs.active_series("vp.residual")
        history: list[OuterRecord] = []
        prev_max_f: float | None = None
        converged = False
        max_f = np.inf
        cumulative = np.zeros(n_pillars)

        for outer in range(1, config.max_outer + 1):
            inner_tol = self._inner_tolerance(prev_max_f)
            pillar_v = v0.copy()
            cumulative = np.zeros(n_pillars)
            inner_iters: list[int] = []

            for l in range(self.n_tiers):
                t0 = time.perf_counter()
                field_l, iters = self._solve_tier(
                    l, pillar_v, voltages[l], inner_tol
                )
                voltages[l] = field_l
                dt = time.perf_counter() - t0
                phase["cvn"] += dt
                if tr.enabled:
                    tr.add_complete("cvn", t0, dt, outer=outer, tier=l)

                t0 = time.perf_counter()
                matrix, rhs = self._planes[l]
                drawn = pillar_drawn_currents(
                    matrix, rhs, field_l, self.pillar_flat
                )
                cumulative += drawn
                dt = time.perf_counter() - t0
                phase["tsv"] += dt
                if tr.enabled:
                    tr.add_complete("tsv", t0, dt, outer=outer, tier=l)

                t0 = time.perf_counter()
                pillar_v = pillar_v + cumulative * self.r_seg[l]
                phase["propagate"] += time.perf_counter() - t0
                inner_iters.append(iters)

            # Residual: propagated-source-voltage gap at pinned pillars,
            # leftover pillar current (in volts) at un-pinned ones.
            if self._r_unit is None:
                residual = self.v_pin - pillar_v
            else:
                residual = np.where(
                    self.has_pin,
                    self.v_pin - pillar_v,
                    -cumulative * self._r_unit,
                )
            max_f = float(np.max(np.abs(residual))) if n_pillars else 0.0
            stats.total_inner_iterations += sum(inner_iters)
            if residual_series is not None:
                residual_series.append(outer, max_f)
            if config.record_history:
                history.append(
                    OuterRecord(
                        iteration=outer,
                        max_vdiff=max_f,
                        inner_iterations=inner_iters,
                        inner_tol=inner_tol,
                    )
                )
            if max_f <= config.outer_tol:
                converged = True
                stats.outer_iterations = outer
                break

            t0 = time.perf_counter()
            v0 = policy.update(v0, residual)
            phase["vda"] += time.perf_counter() - t0
            prev_max_f = max_f
            stats.outer_iterations = outer

        stats.solve_seconds = time.perf_counter() - t_start
        stats.memory_bytes = self.memory_bytes
        obs.add("vp.outer_iterations", stats.outer_iterations)
        if tr.enabled:
            tr.add_complete(
                "vp.solve", t_start, stats.solve_seconds,
                outer_iterations=stats.outer_iterations, converged=converged,
            )
        result = VPResult(
            voltages=voltages,
            converged=converged,
            outer_iterations=stats.outer_iterations,
            max_vdiff=max_f,
            pillar_v0=v0,
            pillar_currents=cumulative,
            history=history,
            stats=stats,
        )
        result.info_v_pin = self.v_pin
        if config.raise_on_divergence and not converged:
            raise ConvergenceError(
                f"VP did not converge in {config.max_outer} outer iterations "
                f"(max |Vdiff| = {max_f:.3e} V)",
                stats.outer_iterations,
                max_f,
            )
        return result

    def _initial_v0(self) -> np.ndarray:
        """Default layer-0 TSV voltage seed per ``config.v0_init``
        (see :func:`loadshare_v0`)."""
        n_pillars = self.pillar_flat.size
        if self.config.v0_init == "pin" or n_pillars == 0:
            return np.full(n_pillars, self.v_pin)
        tier_totals = np.array(
            [tier.total_load() for tier in self.stack.tiers]
        )
        return loadshare_v0(self.v_pin, self.r_seg, tier_totals, n_pillars)

    def _resolve_vda_policy(self) -> VDAPolicy:
        """Materialize the configured VDA policy (see
        :func:`resolve_vda_policy`)."""
        return resolve_vda_policy(
            self.config.vda, self.config.eta, self.auto_eta
        )

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
        gain = float(max(self.pillar_gain_bound.max(), 1.0))
        if prev_max_f is None:
            f_target = 10.0 * config.outer_tol
        else:
            f_target = max(
                config.inner_tol_ratio * prev_max_f, 0.1 * config.outer_tol
            )
        return float(
            np.clip(
                f_target / gain, config.inner_tol / gain, config.inner_tol_cap
            )
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


def solve_vp(stack: PowerGridStack, **config_kwargs) -> VPResult:
    """One-shot convenience: build a solver and run it."""
    return VoltagePropagationSolver(stack, VPConfig(**config_kwargs)).solve()
