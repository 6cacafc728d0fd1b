"""Tests for the variation models (sampling, composition, geometry)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.grid.perturb import kl_gaussian_field
from repro.stochastic import (
    MetalWidthVariation,
    TSVVariation,
    VariationSpec,
    WireFieldVariation,
)


class TestKLField:
    def test_unit_marginal_variance(self):
        rng = np.random.default_rng(0)
        fields = np.stack(
            [kl_gaussian_field(12, 12, 4.0, 24, rng) for _ in range(400)]
        )
        variance = fields.var(axis=0)
        assert abs(float(variance.mean()) - 1.0) < 0.15

    def test_neighbors_correlate_more_than_distant_nodes(self):
        rng = np.random.default_rng(1)
        fields = np.stack(
            [kl_gaussian_field(16, 16, 4.0, 32, rng) for _ in range(500)]
        )
        near = np.corrcoef(fields[:, 8, 8], fields[:, 8, 9])[0, 1]
        far = np.corrcoef(fields[:, 8, 8], fields[:, 8, 15])[0, 1]
        assert near > 0.5
        assert near > far

    def test_bad_parameters(self):
        from repro.errors import GridError

        with pytest.raises(GridError):
            kl_gaussian_field(8, 8, 0.0)
        with pytest.raises(GridError):
            kl_gaussian_field(8, 8, 2.0, rank=0)


class TestComponents:
    def test_negative_sigmas_rejected(self):
        with pytest.raises(ReproError):
            WireFieldVariation(sigma=-0.1)
        with pytest.raises(ReproError):
            MetalWidthVariation(sigma=-0.1)
        with pytest.raises(ReproError):
            TSVVariation(sigma=-0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: WireFieldVariation(sigma=v),
            lambda v: WireFieldVariation(sigma=0.1, sigma_pad=v),
            lambda v: WireFieldVariation(sigma=0.1, corr_length=v),
            MetalWidthVariation,
            TSVVariation,
        ],
        ids=["wire", "pad", "corr_length", "width", "tsv"],
    )
    def test_non_finite_values_rejected(self, build, value):
        """NaN fails both ``< 0`` and ``> 0``, so it used to switch the
        source off silently instead of raising."""
        with pytest.raises(ReproError, match="finite"):
            build(value)

    def test_empty_spec_rejected(self):
        with pytest.raises(ReproError):
            VariationSpec()

    def test_width_per_tier_vs_global(self):
        rng = np.random.default_rng(2)
        per_tier = MetalWidthVariation(0.1, per_tier=True).sample(3, rng)
        assert np.unique(per_tier).size == 3
        shared = MetalWidthVariation(0.1, per_tier=False).sample(3, rng)
        assert np.unique(shared).size == 1

    def test_tsv_scalar_vs_per_segment(self):
        rng = np.random.default_rng(3)
        scalar, table = TSVVariation(0.1, per_segment=False).sample((3, 4), rng)
        assert table is None and scalar != 1.0
        scalar, table = TSVVariation(0.1).sample((3, 4), rng)
        assert scalar == 1.0 and table.shape == (3, 4)


class TestSampling:
    @pytest.fixture
    def spec(self):
        return VariationSpec(
            wire=WireFieldVariation(sigma=0.1, corr_length=2.0, kl_rank=8),
            width=MetalWidthVariation(sigma=0.05),
            tsv=TSVVariation(sigma=0.1),
        )

    def test_seed_determinism(self, small_stack, spec):
        a = spec.sample(small_stack, 4, rng=9)
        b = spec.sample(small_stack, 4, rng=9)
        for da, db in zip(a, b):
            assert np.array_equal(da.plane_scale, db.plane_scale)
            assert np.array_equal(da.r_seg_scale, db.r_seg_scale)
            for (ha, va, _), (hb, vb, _) in zip(da.wire, db.wire):
                assert np.array_equal(ha, hb) and np.array_equal(va, vb)

    def test_draws_are_independent(self, small_stack, spec):
        a, b = spec.sample(small_stack, 2, rng=10)
        assert not np.array_equal(a.plane_scale, b.plane_scale)
        assert not np.array_equal(a.wire[0][0], b.wire[0][0])

    def test_shares_baseline_partition(self, small_stack):
        reuse = VariationSpec(
            width=MetalWidthVariation(0.05), tsv=TSVVariation(0.1)
        )
        for draw in reuse.sample(small_stack, 3, rng=0):
            assert draw.shares_baseline_planes
            assert draw.wire_stack(small_stack) is small_stack
        field = VariationSpec(wire=WireFieldVariation(sigma=0.1))
        for draw in field.sample(small_stack, 3, rng=0):
            assert not draw.shares_baseline_planes

    def test_materialize_applies_everything(self, small_stack, spec):
        draw = spec.sample(small_stack, 1, rng=4)[0]
        applied = draw.materialize(small_stack)
        base_tier = small_stack.tiers[0]
        # Wire factors and the tier's width alpha both multiply g_h.
        expected = (
            base_tier.g_h * draw.wire[0][0] * draw.plane_scale[0]
        )
        np.testing.assert_allclose(applied.tiers[0].g_h, expected)
        np.testing.assert_allclose(
            applied.pillars.r_seg,
            small_stack.pillars.r_seg * draw.r_seg_scale,
        )
        # Loads never vary under process variation.
        np.testing.assert_array_equal(
            applied.tiers[1].loads, base_tier.loads
        )

    def test_scenario_round_trip(self, small_stack):
        spec = VariationSpec(
            width=MetalWidthVariation(0.05), tsv=TSVVariation(0.1)
        )
        draw = spec.sample(small_stack, 1, rng=5)[0]
        scenario = draw.scenario()
        assert scenario.name == draw.name
        applied = scenario.apply(small_stack)
        np.testing.assert_allclose(
            applied.tiers[2].g_v,
            small_stack.tiers[2].g_v * draw.plane_scale[2],
        )

    def test_bad_sample_count(self, small_stack, spec):
        with pytest.raises(ReproError):
            spec.sample(small_stack, 0, rng=0)

    def test_describe_lists_active_sources(self, spec):
        record = spec.describe()
        assert record["sigma_wire"] == 0.1
        assert record["corr_length"] == 2.0
        assert record["sigma_width"] == 0.05
        assert record["sigma_tsv"] == 0.1
