"""Tests for the factor-reuse Monte Carlo driver.

The two contracts: (1) per-sample results match the naive
materialize-and-solve loop on identical draws, (2) the factorization
accounting honors the partition -- TSV/width samples never refactorize,
wire-field samples do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.planes import PlaneFactorCache
from repro.errors import ReproError
from repro.stochastic import (
    MetalWidthVariation,
    MonteCarloConfig,
    TSVVariation,
    VariationSpec,
    WireFieldVariation,
    naive_monte_carlo,
    run_monte_carlo,
)

REUSE_SPEC = VariationSpec(
    width=MetalWidthVariation(sigma=0.05),
    tsv=TSVVariation(sigma=0.10),
    name="reuse",
)


class TestConfig:
    def test_bad_batch_size(self):
        with pytest.raises(ReproError):
            MonteCarloConfig(batch_size=0)

    def test_bad_budget(self):
        with pytest.raises(ReproError):
            MonteCarloConfig(budget=-1.0)

    def test_bad_quantile(self):
        with pytest.raises(ReproError):
            MonteCarloConfig(quantiles=(0.5, 1.2))


class TestFactorReuse:
    def test_tsv_only_zero_refactorizations(self, small_stack):
        spec = VariationSpec(tsv=TSVVariation(sigma=0.2))
        result = run_monte_carlo(
            small_stack, spec, 12, seed=0,
            config=MonteCarloConfig(batch_size=5),
        )
        assert result.converged.all()
        assert result.stats.baseline_factorizations == 1
        assert result.stats.refactorizations == 0
        assert result.stats.n_batches == 3  # ceil(12 / 5)

    def test_width_scaling_reuses_factors(self, small_stack):
        spec = VariationSpec(width=MetalWidthVariation(sigma=0.1))
        result = run_monte_carlo(small_stack, spec, 8, seed=1)
        assert result.converged.all()
        assert result.stats.refactorizations == 0

    def test_wire_fields_refactorize_per_sample(self, small_stack):
        spec = VariationSpec(wire=WireFieldVariation(sigma=0.1))
        result = run_monte_carlo(small_stack, spec, 3, seed=2)
        assert result.converged.all()
        # Wire draws perturb every tier independently, so each sample
        # factorizes its own (3-group) plane system.
        assert result.stats.refactorizations > 0

    def test_shared_cache_across_runs(self, small_stack):
        cache = PlaneFactorCache()
        spec = VariationSpec(tsv=TSVVariation(sigma=0.1))
        first = run_monte_carlo(small_stack, spec, 4, seed=0, cache=cache)
        assert cache.factorizations > 0  # the run used *this* cache
        assert first.stats.baseline_factorizations == cache.factorizations
        before = cache.factorizations
        second = run_monte_carlo(small_stack, spec, 4, seed=1, cache=cache)
        assert cache.factorizations == before  # second run fully cached
        assert cache.hits > 0
        assert second.stats.baseline_factorizations == 0

    def test_baseline_survives_wire_churn(self, small_stack):
        """Wire-field draws factor their own planes outside the cache:
        TSV, wire, TSV through a two-entry cache pays nothing new on the
        last run, and the wire run leaves the cache as it found it."""
        cache = PlaneFactorCache(max_entries=2)
        tsv = VariationSpec(tsv=TSVVariation(sigma=0.1))
        wire = VariationSpec(wire=WireFieldVariation(sigma=0.1))
        run_monte_carlo(small_stack, tsv, 4, seed=0, cache=cache)

        def state():
            return len(cache), cache.factor_bytes, cache.misses, cache.evictions

        before = state()
        churn = run_monte_carlo(small_stack, wire, 5, seed=1, cache=cache)
        assert state() == before
        assert churn.stats.baseline_factorizations == 0
        assert churn.stats.refactorizations == 5 * small_stack.n_tiers
        factorizations = cache.factorizations
        result = run_monte_carlo(small_stack, tsv, 4, seed=2, cache=cache)
        assert cache.factorizations == factorizations  # baseline resident
        assert result.stats.baseline_factorizations == 0

    def test_mixed_population_leases_the_baseline_once(self, small_stack):
        wire = VariationSpec(wire=WireFieldVariation(sigma=0.1))
        tsv = VariationSpec(tsv=TSVVariation(sigma=0.1))
        mixed = wire.sample(small_stack, 3, rng=4) + tsv.sample(
            small_stack, 3, rng=5
        )
        draws = [mixed[k] for k in (0, 3, 1, 4, 5, 2)]
        for k, draw in enumerate(draws):
            draw.index = k
        cache = PlaneFactorCache()
        leased = []
        lease = cache.lease

        def counting_lease(stack):
            leased.append(stack)
            return lease(stack)

        cache.lease = counting_lease
        result = run_monte_carlo(
            small_stack, wire, 6, seed=6, cache=cache, draws=draws
        )
        assert len(leased) == 1 and leased[0] is small_stack
        assert (cache.hits, cache.misses) == (0, 1)
        assert result.stats.baseline_factorizations == 1
        assert result.stats.refactorizations == 3 * small_stack.n_tiers
        assert result.converged.all()

    def test_pad_spread_on_a_padless_stack_shares_the_baseline(
        self, small_stack
    ):
        """Without pads a pad spread changes no plane, so its draws
        ride the baseline factors instead of factoring copies of them."""
        spec = VariationSpec(
            wire=WireFieldVariation(sigma=0.0, sigma_pad=0.2),
            tsv=TSVVariation(sigma=0.1),
        )
        assert not any(tier.g_pad.any() for tier in small_stack.tiers)
        result = run_monte_carlo(small_stack, spec, 4, seed=3)
        assert result.stats.baseline_factorizations == 1
        assert result.stats.refactorizations == 0


class TestParity:
    def test_matches_naive_loop_on_same_draws(self, small_stack):
        spec = VariationSpec(
            wire=WireFieldVariation(sigma=0.08, corr_length=2.0, kl_rank=8),
            width=MetalWidthVariation(sigma=0.05),
            tsv=TSVVariation(sigma=0.1),
        )
        draws = spec.sample(small_stack, 5, rng=6)
        result = run_monte_carlo(
            small_stack, spec, 5, seed=6, draws=draws
        )
        naive = naive_monte_carlo(small_stack, draws)
        np.testing.assert_allclose(
            result.worst_drops, naive, atol=2e-4
        )

    def test_seed_reproducibility(self, small_stack):
        a = run_monte_carlo(small_stack, REUSE_SPEC, 10, seed=3)
        b = run_monte_carlo(small_stack, REUSE_SPEC, 10, seed=3)
        np.testing.assert_array_equal(a.worst_drops, b.worst_drops)
        assert a.quantiles[0].ci_low == b.quantiles[0].ci_low

    def test_draw_count_mismatch(self, small_stack):
        draws = REUSE_SPEC.sample(small_stack, 3, rng=0)
        with pytest.raises(ReproError):
            run_monte_carlo(small_stack, REUSE_SPEC, 4, draws=draws)


class TestStatistics:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.grid.generators import synthesize_stack

        stack = synthesize_stack(8, 8, 3, rng=7, name="mc-stats")
        return run_monte_carlo(
            stack,
            REUSE_SPEC,
            24,
            seed=8,
            config=MonteCarloConfig(batch_size=8, budget=0.1),
        )

    def test_population_shapes(self, result):
        assert result.worst_drops.shape == (24,)
        assert result.mean_drop.shape == result.std_drop.shape
        assert np.all(result.std_drop >= 0)
        # Jensen: mean over samples of the nodewise max dominates the
        # nodewise max of the mean field.
        assert result.mean_worst_drop >= result.mean_drop.max() - 1e-12

    def test_quantiles_carry_cis(self, result):
        for estimate in result.quantiles:
            assert estimate.ci_low <= estimate.value <= estimate.ci_high
        p95 = result.quantile(0.95)
        assert p95.q == 0.95
        with pytest.raises(ReproError):
            result.quantile(0.42)

    def test_violation_and_convergence(self, result):
        assert result.violation is not None
        assert 0.0 <= result.violation.probability <= 1.0
        assert result.convergence[-1]["n"] == 24
        assert result.convergence[-1]["mean"] == pytest.approx(
            result.mean_worst_drop
        )

    def test_mean_field_matches_population(self, small_stack):
        """Streaming moments equal the batch recompute."""
        spec = VariationSpec(tsv=TSVVariation(sigma=0.2))
        draws = spec.sample(small_stack, 6, rng=1)
        result = run_monte_carlo(small_stack, spec, 6, seed=1, draws=draws)
        from repro.core.vp import solve_vp

        fields = np.stack(
            [
                np.abs(
                    small_stack.v_pin
                    - solve_vp(
                        draw.materialize(small_stack),
                        inner="direct",
                        v0_init="loadshare",
                    ).voltages
                )
                for draw in draws
            ]
        )
        np.testing.assert_allclose(
            result.mean_drop, fields.mean(axis=0), atol=2e-4
        )
