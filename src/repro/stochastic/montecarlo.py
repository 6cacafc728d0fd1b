"""Monte Carlo variation analysis over conductance space.

The driver turns a :class:`~repro.stochastic.models.VariationSpec` into
a population of solved grids while doing as little factorization work as
the samples allow:

* draws that leave the plane matrices untouched (TSV spreads) or only
  scale them globally (metal-width ``G -> alpha G``) are grouped and
  pushed through :class:`~repro.core.batch.BatchedVPSolver` in chunks,
  all against the **baseline** factorization leased from a
  :class:`~repro.core.planes.PlaneFactorCache` -- zero refactorizations;
* draws that change wire-conductance *fields* are solved one by one,
  each against its own :class:`~repro.core.planes.ReducedPlaneSystem`
  (one LU per distinct tier, counted as refactorizations).  A
  continuous field never repeats, so these systems are built outside
  the cache and freed after the solve: they neither take an entry nor
  evict a live one, and a run whose every draw is a wire-field draw
  leases (and factors) no baseline at all.

Per-sample cost on the fast path is therefore a handful of multi-column
back-substitutions -- the "near a back-substitution, never a
refactorization" target the transient-topology literature sets for
repeated solves.

Statistics stream: per-node drop moments accumulate via Welford, so
memory stays at a few fields regardless of the sample count.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.batch import BatchedVPConfig, BatchedVPSolver
from repro.core.planes import PlaneFactorCache, ReducedPlaneSystem
from repro.core.vp import VPConfig, VoltagePropagationSolver
from repro.errors import ReproError
from repro.grid.stack3d import PowerGridStack
from repro.stochastic.models import VariationDraw, VariationSpec
from repro.stochastic.stats import (
    QuantileEstimate,
    RunningFieldStats,
    ViolationEstimate,
    convergence_trace,
    quantile_table,
    violation_probability,
)


#: Bootstrap resamples behind each quantile's confidence interval.
BOOTSTRAP_RESAMPLES = 400


@dataclass
class MonteCarloConfig(BatchedVPConfig):
    """Knobs of the Monte Carlo driver: the outer loop's
    (:class:`~repro.core.batch.BatchedVPConfig`, seeded by load share by
    default), run by every batched sample solve, plus the batching and
    the statistics."""

    v0_init: str = "loadshare"
    #: Max scenario columns per batched solve on the shared-factor path.
    batch_size: int = 32
    #: Worst-drop quantiles to estimate (each carries a bootstrap CI).
    quantiles: tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)
    confidence: float = 0.95
    #: Optional IR-drop budget (volts) for the violation probability.
    budget: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.batch_size < 1:
            raise ReproError("batch_size must be >= 1")
        if self.budget is not None and self.budget <= 0:
            raise ReproError("drop budget must be positive")
        for q in self.quantiles:
            if not 0.0 <= q <= 1.0:
                raise ReproError(f"quantile {q} outside [0, 1]")


@dataclass
class MonteCarloStats:
    """Cost accounting of one Monte Carlo run."""

    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    n_batches: int = 0
    #: LU factorizations performed for the baseline geometry (0 when
    #: the cache already held it, or when no draw shares it).
    baseline_factorizations: int = 0
    #: LU factorizations forced by samples (wire-field draws).  The
    #: acceptance contract: TSV-only / width-only sweeps keep this at 0.
    refactorizations: int = 0
    #: The baseline lease's cache lookup (wire-field draws skip the cache).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Total scenario-column back-substitution rounds across batches.
    column_solves: int = 0


@dataclass
class MonteCarloResult:
    """Population statistics of a variation-analysis run.

    Per-sample arrays are indexed by draw order (the order
    ``VariationSpec.sample`` produced, not solve order).
    """

    spec: dict
    n_samples: int
    worst_drops: np.ndarray        # (N,) volts
    converged: np.ndarray          # (N,) bool
    outer_iterations: np.ndarray   # (N,)
    mean_drop: np.ndarray          # (T, R, C) per-node mean IR drop
    std_drop: np.ndarray           # (T, R, C) per-node sigma
    quantiles: list[QuantileEstimate]
    violation: ViolationEstimate | None
    convergence: list[dict]
    stats: MonteCarloStats
    v_pin: float = 0.0
    seed: int | None = None

    @property
    def mean_worst_drop(self) -> float:
        return float(self.worst_drops.mean())

    @property
    def std_worst_drop(self) -> float:
        if self.worst_drops.size < 2:
            return 0.0
        return float(self.worst_drops.std(ddof=1))

    def quantile(self, q: float) -> QuantileEstimate:
        for estimate in self.quantiles:
            if abs(estimate.q - q) < 1e-12:
                return estimate
        raise ReproError(f"quantile {q} was not estimated in this run")


def _drop_fields(voltages: np.ndarray, v_pin: float) -> np.ndarray:
    """IR-drop fields of a batched voltage array ``(T, R, C, S)``."""
    return np.abs(v_pin - voltages)


def run_monte_carlo(
    stack: PowerGridStack,
    spec: VariationSpec,
    n_samples: int,
    *,
    seed: int | None = None,
    config: MonteCarloConfig | None = None,
    cache: PlaneFactorCache | None = None,
    draws: list[VariationDraw] | None = None,
) -> MonteCarloResult:
    """Sample ``n_samples`` grids from ``spec`` and solve them with
    factor reuse.

    ``seed`` drives both the sampling and the bootstrap resampling
    (deterministic end to end).  ``draws`` overrides the sampling with a
    pre-drawn population (the benchmark harness uses this to feed the
    identical samples to the naive reference loop).  ``cache`` lets
    several runs share one factor cache.

    Raises
    ------
    ConvergenceError
        When ``config.raise_on_divergence`` is set and a batch leaves a
        sample above tolerance after ``config.max_outer`` iterations.
    """
    config = config or MonteCarloConfig()
    t_setup = time.perf_counter()
    rng = np.random.default_rng(seed)
    if draws is None:
        draws = spec.sample(stack, n_samples, rng)
    elif len(draws) != n_samples:
        raise ReproError(
            f"{len(draws)} pre-drawn samples but n_samples={n_samples}"
        )
    boot_seed = int(rng.integers(2**63))

    if cache is None:
        cache = PlaneFactorCache()
    shared = [draw for draw in draws if draw.shares_baseline_planes]
    unique = [draw for draw in draws if not draw.shares_baseline_planes]
    hits0, misses0 = cache.hits, cache.misses
    factorizations0 = cache.factorizations
    # Only draws that share the stack's own planes need its factors: a
    # wire-only run leases (and, on a cold cache, factors) nothing.
    with (cache.lease(stack) if shared else nullcontext()) as baseline:
        stats = MonteCarloStats(
            baseline_factorizations=cache.factorizations - factorizations0,
            cache_hits=cache.hits - hits0,
            cache_misses=cache.misses - misses0,
        )

        n_tiers, rows, cols = stack.n_tiers, stack.rows, stack.cols
        field_stats = RunningFieldStats((n_tiers, rows, cols))
        worst = np.empty(n_samples)
        converged = np.zeros(n_samples, dtype=bool)
        outers = np.zeros(n_samples, dtype=int)
        stats.setup_seconds = time.perf_counter() - t_setup

        t_solve = time.perf_counter()
        reg = obs.metrics()

        def solve_group(
            group_stack: PowerGridStack,
            group: list[VariationDraw],
            planes,
        ) -> None:
            scenarios = [draw.scenario() for draw in group]
            with obs.Stopwatch("mc.batch", samples=len(group)):
                solver = BatchedVPSolver(
                    group_stack, scenarios, config, planes=planes
                )
                result = solver.solve()
            drops = _drop_fields(result.voltages, stack.v_pin)
            field_stats.update_batch(drops)
            flat_worst = drops.reshape(-1, len(group)).max(axis=0)
            for j, draw in enumerate(group):
                worst[draw.index] = flat_worst[j]
                converged[draw.index] = bool(result.converged[j])
                outers[draw.index] = int(result.outer_iterations[j])
            stats.n_batches += 1
            stats.column_solves += result.stats.column_solves
            reg.add("mc.batches")
            reg.add("mc.samples", len(group))

        for start in range(0, len(shared), config.batch_size):
            chunk = shared[start : start + config.batch_size]
            solve_group(stack, chunk, baseline)

        for draw in unique:
            perturbed = draw.wire_stack(stack)
            # A continuous field never repeats, so the draw's planes are
            # factored outside the cache: a one-off geometry would only
            # take an entry and evict a live one.
            planes = ReducedPlaneSystem(perturbed)
            stats.refactorizations += planes.n_factorizations
            solve_group(perturbed, [draw], planes)
            del planes  # free the draw's factors before the next (peak RSS)

        stats.solve_seconds = time.perf_counter() - t_solve

    return MonteCarloResult(
        spec=spec.describe(),
        n_samples=n_samples,
        worst_drops=worst,
        converged=converged,
        outer_iterations=outers,
        mean_drop=field_stats.mean,
        std_drop=field_stats.std,
        quantiles=quantile_table(
            worst,
            config.quantiles,
            n_boot=BOOTSTRAP_RESAMPLES,
            confidence=config.confidence,
            rng=boot_seed,
        ),
        violation=(
            violation_probability(worst, config.budget, config.confidence)
            if config.budget is not None
            else None
        ),
        convergence=convergence_trace(worst),
        stats=stats,
        v_pin=stack.v_pin,
        seed=seed,
    )


def naive_monte_carlo(
    stack: PowerGridStack,
    draws: list[VariationDraw],
    *,
    config: BatchedVPConfig | None = None,
) -> np.ndarray:
    """Reference loop: materialize every draw as a standalone stack and
    run :class:`VoltagePropagationSolver` from scratch (one plane
    factorization per sample) with ``config``'s loop knobs (default:
    :class:`MonteCarloConfig`'s).  Returns the ``(N,)`` worst drops --
    the honest baseline the factor-reuse driver is benchmarked against,
    and the parity oracle for spot checks."""
    worst = np.empty(len(draws))
    config = VPConfig.direct(config or MonteCarloConfig())
    for k, draw in enumerate(draws):
        result = VoltagePropagationSolver(
            draw.materialize(stack), config
        ).solve()
        worst[k] = result.worst_ir_drop()
    return worst
