"""Parameterization layer: apply semantics, factor-reuse decomposition,
and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GridError, ReproError
from repro.grid.generators import synthesize_stack
from repro.scenarios.spec import Scenario
from repro.sensitivity import (
    EdgeConductanceParam,
    LoadCurrentParam,
    MetalWidthParam,
    PadResistanceParam,
    ParameterSpace,
    TSVConductanceParam,
)


@pytest.fixture
def stack():
    return synthesize_stack(6, 5, 3, rng=0, replicate_tier=False)


class TestApply:
    def test_defaults_are_identity(self, stack):
        params = ParameterSpace(
            stack,
            [MetalWidthParam(), TSVConductanceParam(), LoadCurrentParam(0)],
        )
        out = params.apply()
        for a, b in zip(out.tiers, stack.tiers):
            assert np.array_equal(a.g_h, b.g_h)
            assert np.array_equal(a.g_v, b.g_v)
            assert np.array_equal(a.loads, b.loads)
        assert np.array_equal(out.pillars.r_seg, stack.pillars.r_seg)
        assert out is not stack  # always a copy

    def test_width_matches_scenario_plane_scale(self, stack):
        """MetalWidthParam.apply == Scenario(plane_scale=...).apply."""
        params = ParameterSpace(stack, [MetalWidthParam()])
        x = np.array([1.3, 0.9, 1.1])
        via_params = params.apply(x)
        via_scenario = Scenario(
            name="w", plane_scale=(1.3, 0.9, 1.1)
        ).apply(stack)
        for a, b in zip(via_params.tiers, via_scenario.tiers):
            assert np.allclose(a.g_h, b.g_h)
            assert np.allclose(a.g_v, b.g_v)
            assert np.allclose(a.g_pad, b.g_pad)

    def test_tsv_multiplier_divides_resistance(self, stack):
        params = ParameterSpace(
            stack, [TSVConductanceParam(segments=[(1, 2), (0, 0)])]
        )
        out = params.apply(np.array([2.0, 4.0]))
        assert out.pillars.r_seg[1, 2] == pytest.approx(
            stack.pillars.r_seg[1, 2] / 2.0
        )
        assert out.pillars.r_seg[0, 0] == pytest.approx(
            stack.pillars.r_seg[0, 0] / 4.0
        )
        untouched = np.ones_like(stack.pillars.r_seg, dtype=bool)
        untouched[1, 2] = untouched[0, 0] = False
        assert np.array_equal(
            out.pillars.r_seg[untouched], stack.pillars.r_seg[untouched]
        )

    def test_edge_multiplier_touches_selected_edges(self, stack):
        tier = stack.tiers[1]
        n_h = tier.g_h.size
        params = ParameterSpace(
            stack, [EdgeConductanceParam(1, edges=[0, n_h])]
        )
        out = params.apply(np.array([2.0, 3.0]))
        assert out.tiers[1].g_h.flat[0] == pytest.approx(
            tier.g_h.flat[0] * 2.0
        )
        assert out.tiers[1].g_v.flat[0] == pytest.approx(
            tier.g_v.flat[0] * 3.0
        )
        assert np.array_equal(out.tiers[0].g_h, stack.tiers[0].g_h)

    def test_load_tier_and_node_modes(self, stack):
        tier_knob = ParameterSpace(stack, [LoadCurrentParam(0)])
        out = tier_knob.apply(np.array([1.5]))
        assert np.allclose(out.tiers[0].loads, stack.tiers[0].loads * 1.5)

        nodes = np.array([1, 7])
        node_knob = ParameterSpace(stack, [LoadCurrentParam(2, nodes=nodes)])
        out2 = node_knob.apply(np.array([2.0, 3.0]))
        flat0 = stack.tiers[2].loads.ravel()
        flat1 = out2.tiers[2].loads.ravel()
        assert flat1[1] == pytest.approx(flat0[1] * 2.0)
        assert flat1[7] == pytest.approx(flat0[7] * 3.0)

    def test_pad_resistance_divides_conductance(self):
        stack = synthesize_stack(5, 5, 1, rng=1)
        stack.tiers[0].g_pad[0, 0] = 2.0
        stack.tiers[0].g_pad[2, 2] = 4.0
        params = ParameterSpace(stack, [PadResistanceParam(0)])
        assert params.size == 2
        out = params.apply(np.array([2.0, 1.0]))
        assert out.tiers[0].g_pad[0, 0] == pytest.approx(1.0)
        assert out.tiers[0].g_pad[2, 2] == pytest.approx(4.0)


class TestFactorReuseDecomposition:
    def test_reusable_blocks(self, stack):
        params = ParameterSpace(
            stack,
            [MetalWidthParam(), TSVConductanceParam(), LoadCurrentParam(1)],
        )
        x = np.full(params.size, 1.2)
        assert params.factor_reusable(x)
        alpha = params.plane_scales(x)
        assert np.allclose(alpha, 1.2)
        rhs = params.apply_rhs(x)
        # Plane geometry untouched; TSV table and loads materialized.
        assert np.array_equal(rhs.tiers[0].g_h, stack.tiers[0].g_h)
        assert np.allclose(rhs.pillars.r_seg, stack.pillars.r_seg / 1.2)
        assert np.allclose(rhs.tiers[1].loads, stack.tiers[1].loads * 1.2)

    def test_edge_block_breaks_reuse_only_off_default(self, stack):
        params = ParameterSpace(
            stack, [EdgeConductanceParam(0, edges=[0]), MetalWidthParam()]
        )
        assert params.factor_reusable(params.defaults())
        x = params.defaults()
        x[0] = 1.01
        assert not params.factor_reusable(x)
        with pytest.raises(ReproError):
            params.apply_rhs(x)

    def test_plane_signature_preserved_by_rhs_apply(self, stack):
        from repro.core.planes import stack_plane_signature

        params = ParameterSpace(
            stack, [MetalWidthParam(), TSVConductanceParam(), LoadCurrentParam(0)]
        )
        x = np.full(params.size, 1.3)
        rhs = params.apply_rhs(x)
        assert stack_plane_signature(rhs) == stack_plane_signature(stack)
        # The full materialization does change it (width scales planes).
        assert stack_plane_signature(params.apply(x)) != stack_plane_signature(
            stack
        )


class TestValidation:
    def test_sizes_names_offsets(self, stack):
        params = ParameterSpace(
            stack, [MetalWidthParam(), LoadCurrentParam(0)]
        )
        assert params.size == stack.n_tiers + 1
        assert len(params.names) == params.size
        assert params.names[0] == "width[tier0]"

    def test_wrong_vector_shape(self, stack):
        params = ParameterSpace(stack, [MetalWidthParam()])
        with pytest.raises(ReproError):
            params.apply(np.ones(5))
        with pytest.raises(ReproError):
            params.apply(np.array([1.0, -0.5, 1.0]))

    def test_bad_block_indices(self, stack):
        with pytest.raises(GridError):
            ParameterSpace(stack, [MetalWidthParam(tiers=[7])])
        with pytest.raises(GridError):
            ParameterSpace(stack, [EdgeConductanceParam(0, edges=[10**6])])
        with pytest.raises(GridError):
            ParameterSpace(stack, [TSVConductanceParam(segments=[(9, 0)])])
        with pytest.raises(GridError):
            ParameterSpace(stack, [LoadCurrentParam(0, nodes=[-1])])

    def test_no_pads_is_an_error(self, stack):
        with pytest.raises(GridError):
            ParameterSpace(stack, [PadResistanceParam(0)])

    def test_empty_space_and_duplicate_labels(self, stack):
        with pytest.raises(ReproError):
            ParameterSpace(stack, [])
        with pytest.raises(ReproError):
            ParameterSpace(stack, [MetalWidthParam(), MetalWidthParam()])


def loop_tsv_gradient(stack, segments, values, v, lam, v_pin):
    """Per-segment reference loop for ``TSVConductanceParam.gradient``."""
    pillar_flat = stack.pillar_flat_indices()
    top = stack.n_tiers - 1
    out = np.empty(len(segments))
    for k, ((l, p), s) in enumerate(zip(segments, values)):
        node = pillar_flat[p]
        g_cur = 1.0 / stack.pillars.r_seg[l, p]
        if l == top:
            dm_dg = (
                lam[top, node] * (v_pin - v[top, node])
                if stack.pillars.has_pin[p]
                else 0.0
            )
        else:
            dm_dg = -(
                (lam[l, node] - lam[l + 1, node]) * (v[l, node] - v[l + 1, node])
            )
        out[k] = dm_dg * g_cur / s
    return out


class TestTSVBlockMatchesSegmentLoop:
    """The index-array TSV block keeps the per-segment loop's op order, so
    gradients and applied tables agree with it bit for bit."""

    @pytest.fixture
    def pin_stack(self):
        stack = synthesize_stack(10, 10, 3, rng=5, pin_fraction=0.5)
        assert not stack.pillars.has_pin.all() and stack.pillars.has_pin.any()
        return stack

    def fields(self, stack, seed):
        rng = np.random.default_rng(seed)
        n = stack.rows * stack.cols
        return rng.normal(size=(stack.n_tiers, n)), rng.normal(size=(stack.n_tiers, n))

    def test_every_segment(self, pin_stack):
        block = TSVConductanceParam()
        n_tiers, n_pillars = pin_stack.pillars.r_seg.shape
        segments = [(l, p) for l in range(n_tiers) for p in range(n_pillars)]
        values = np.random.default_rng(1).uniform(0.5, 2.0, len(segments))
        v, lam = self.fields(pin_stack, 2)
        got = block.gradient(pin_stack, values, v, lam, v_pin=1.8, plane_scale=None)
        want = loop_tsv_gradient(pin_stack, segments, values, v, lam, 1.8)
        assert np.array_equal(got, want)
        assert block.labels(pin_stack)[n_pillars + 2] == "gtsv[l1,p2]"

    def test_custom_segments_with_a_repeat(self, pin_stack):
        n_pillars = pin_stack.pillars.count
        unpinned = int(np.flatnonzero(~pin_stack.pillars.has_pin)[0])
        segments = [(2, 0), (0, 1), (2, unpinned), (1, 3), (2, 0), (0, n_pillars - 1)]
        block = TSVConductanceParam(segments=segments)
        values = np.array([1.5, 0.7, 2.0, 1.1, 0.9, 1.3])
        v, lam = self.fields(pin_stack, 3)
        got = block.gradient(pin_stack, values, v, lam, v_pin=1.8, plane_scale=None)
        want = loop_tsv_gradient(pin_stack, segments, values, v, lam, 1.8)
        assert np.array_equal(got, want)
        assert got[2] == 0.0  # an unpinned top segment carries no current

        applied = pin_stack.copy()
        block.apply(applied, values)
        expected = pin_stack.pillars.r_seg.copy()
        for (l, p), s in zip(segments, values):
            expected[l, p] /= s
        assert np.array_equal(applied.pillars.r_seg, expected)
        assert block.labels(pin_stack) == [f"gtsv[l{l},p{p}]" for l, p in segments]

    def test_out_of_range_segment_is_named(self, pin_stack):
        block = TSVConductanceParam(segments=[(0, 0), (1, pin_stack.pillars.count)])
        with pytest.raises(GridError, match=rf"segment \(1, {pin_stack.pillars.count}\)"):
            block.size_for(pin_stack)
