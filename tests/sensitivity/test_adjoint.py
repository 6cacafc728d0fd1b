"""Adjoint engine correctness: gradients vs central finite differences.

The acceptance contract of the sensitivity subsystem: adjoint gradients
match central FD to rtol=1e-5 on randomized small stacks (seeded,
across metal-width / TSV / load parameters and at least two metrics),
and the adjoint pass performs zero plane factorizations beyond the
cached baseline (counter-asserted against ``PlaneFactorCache``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.planes import PlaneFactorCache, ReducedPlaneSystem
from repro.core.vp import VPConfig, VoltagePropagationSolver
from repro.errors import GridError, ReproError
from repro.grid.generators import synthesize_stack
from repro.scenarios.spec import Scenario
from repro.sensitivity import (
    AdjointVPSolver,
    EdgeConductanceParam,
    LoadCurrentParam,
    MetalWidthParam,
    NodeDrop,
    ParameterSpace,
    SensitivityConfig,
    SmoothWorstDrop,
    TSVConductanceParam,
    WeightedDrop,
    adjoint_gradient,
    compare_gradients,
    finite_difference_gradient,
    make_metric,
)

RTOL = 1e-5
TIGHT = SensitivityConfig(forward_tol=1e-10, adjoint_tol=1e-11)


def small_stack(seed: int, **kwargs):
    kwargs.setdefault("replicate_tier", False)
    return synthesize_stack(7, 6, 3, rng=seed, name=f"adj-{seed}", **kwargs)


def full_space(stack) -> ParameterSpace:
    return ParameterSpace(
        stack,
        [
            MetalWidthParam(),
            TSVConductanceParam(),
            LoadCurrentParam(0),
            LoadCurrentParam(stack.n_tiers - 1),
        ],
    )


def weighted_metric(stack, seed: int) -> WeightedDrop:
    rng = np.random.default_rng(seed)
    weights = rng.uniform(
        0.0, 1.0, size=(stack.n_tiers, stack.rows, stack.cols)
    )
    return WeightedDrop(weights / weights.sum())


class TestAdjointVsFiniteDifferences:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_worst_drop_metric(self, seed):
        """Width + TSV + load gradients match central FD to rtol=1e-5."""
        stack = small_stack(seed)
        params = full_space(stack)
        result = adjoint_gradient(
            params, SmoothWorstDrop(beta=2000.0), config=TIGHT
        )
        assert result.adjoint_converged
        fd = finite_difference_gradient(
            params, SmoothWorstDrop(beta=2000.0), solver="direct", step=1e-4
        )
        report = compare_gradients(result.gradient, fd, atol=1e-10)
        assert report["max_rel_error"] < RTOL, report

    @pytest.mark.parametrize("seed", [0, 3])
    def test_weighted_drop_metric(self, seed):
        """Second metric family: weighted drop, same parity bar."""
        stack = small_stack(seed)
        params = full_space(stack)
        metric = weighted_metric(stack, seed + 100)
        result = adjoint_gradient(params, metric, config=TIGHT)
        fd = finite_difference_gradient(
            params, metric, solver="direct", step=1e-4
        )
        report = compare_gradients(result.gradient, fd, atol=1e-10)
        assert report["max_rel_error"] < RTOL, report

    def test_node_drop_metric(self):
        stack = small_stack(4)
        params = ParameterSpace(stack, [MetalWidthParam(), TSVConductanceParam()])
        metric = NodeDrop(0, 3, 3)
        result = adjoint_gradient(params, metric, config=TIGHT)
        fd = finite_difference_gradient(
            params, metric, solver="direct", step=1e-4
        )
        report = compare_gradients(result.gradient, fd, atol=1e-10)
        assert report["max_rel_error"] < RTOL, report

    def test_edge_and_pad_free_point_matches_fd(self):
        """Per-edge parameters at the base point still ride the shared
        factors and match FD."""
        stack = small_stack(5)
        params = ParameterSpace(
            stack,
            [EdgeConductanceParam(0, edges=[0, 5, 11]), MetalWidthParam()],
        )
        cache = PlaneFactorCache()
        result = adjoint_gradient(
            params, SmoothWorstDrop(), cache=cache, config=TIGHT
        )
        assert result.new_factorizations == 0
        fd = finite_difference_gradient(
            params, SmoothWorstDrop(), solver="direct", step=1e-4
        )
        report = compare_gradients(result.gradient, fd, atol=1e-10)
        assert report["max_rel_error"] < RTOL, report

    def test_off_base_design_point(self):
        """Gradients at a non-unit (factor-reusable) design point."""
        stack = small_stack(6)
        params = full_space(stack)
        rng = np.random.default_rng(9)
        x = rng.uniform(0.8, 1.25, size=params.size)
        result = adjoint_gradient(params, SmoothWorstDrop(), values=x, config=TIGHT)
        fd = finite_difference_gradient(
            params, SmoothWorstDrop(), values=x, solver="direct", step=1e-4
        )
        report = compare_gradients(result.gradient, fd, atol=1e-10)
        assert report["max_rel_error"] < RTOL, report

    def test_operating_scenario_overlay(self):
        """Gradient under a load/TSV operating corner matches FD under
        the same corner."""
        stack = small_stack(7)
        params = ParameterSpace(stack, [MetalWidthParam(), TSVConductanceParam()])
        corner = Scenario(name="hot", load_scale=(1.3, 1.0, 0.8), r_tsv_scale=1.5)
        result = adjoint_gradient(
            params, SmoothWorstDrop(), scenario=corner, config=TIGHT
        )
        fd = finite_difference_gradient(
            params, SmoothWorstDrop(), scenario=corner, solver="direct", step=1e-4
        )
        report = compare_gradients(result.gradient, fd, atol=1e-10)
        assert report["max_rel_error"] < RTOL, report

    def test_ground_net(self):
        stack = synthesize_stack(
            6, 6, 2, rng=8, net="gnd", replicate_tier=False
        )
        params = ParameterSpace(stack, [MetalWidthParam(), TSVConductanceParam()])
        result = adjoint_gradient(params, SmoothWorstDrop(), config=TIGHT)
        fd = finite_difference_gradient(
            params, SmoothWorstDrop(), solver="direct", step=1e-4
        )
        report = compare_gradients(result.gradient, fd, atol=1e-10)
        assert report["max_rel_error"] < RTOL, report

    @pytest.mark.parametrize("seed", [0, 5])
    def test_sparse_pin_stack(self, seed):
        """Partially-pinned pillars: the unpinned-pillar residual branch
        of the adjoint recursion meets the same FD parity bar."""
        stack = small_stack(seed, pin_fraction=0.4)
        assert not stack.pillars.has_pin.all()
        params = full_space(stack)
        result = adjoint_gradient(params, SmoothWorstDrop(), config=TIGHT)
        assert result.adjoint_converged
        fd = finite_difference_gradient(
            params, SmoothWorstDrop(), solver="direct", step=1e-4
        )
        # Sparse-pin stacks carry gradient entries down at ~1e-9 where
        # central-FD truncation (~1e-10 absolute at this step) swamps
        # any relative measure; hold those to the absolute floor and the
        # rest (dominant scale ~1e-3) to the usual rtol.
        report = compare_gradients(result.gradient, fd, atol=1e-4)
        assert report["max_rel_error"] < RTOL, report
        assert report["max_abs_error"] < 1e-9, report

    def test_vp_fd_backend_agrees_with_direct(self):
        stack = small_stack(2)
        params = ParameterSpace(stack, [MetalWidthParam()])
        fd_vp = finite_difference_gradient(
            params, SmoothWorstDrop(), solver="vp", step=1e-3
        )
        fd_direct = finite_difference_gradient(
            params, SmoothWorstDrop(), solver="direct", step=1e-3
        )
        assert np.allclose(fd_vp, fd_direct, rtol=1e-6, atol=1e-12)


class TestFactorReuse:
    def test_zero_new_factorizations_for_reusable_spaces(self):
        """Width/TSV/load gradient passes never factorize beyond the
        cached baseline -- the PR-2 counter-assert, applied to the
        adjoint."""
        stack = small_stack(0)
        params = full_space(stack)
        cache = PlaneFactorCache()
        baseline = cache.get(stack)
        assert baseline.n_factorizations >= 1
        before = cache.factorizations
        for values in (None, np.full(params.size, 1.1)):
            result = adjoint_gradient(
                params, SmoothWorstDrop(), values=values, cache=cache
            )
            assert result.new_factorizations == 0
            assert result.cache_hits >= 1
        assert cache.factorizations == before

    def test_non_reusable_point_counts_its_factorization(self):
        stack = small_stack(1)
        params = ParameterSpace(stack, [EdgeConductanceParam(0, edges=[2])])
        cache = PlaneFactorCache()
        cache.get(stack)
        result = adjoint_gradient(
            params, SmoothWorstDrop(), values=np.array([1.2]), cache=cache
        )
        assert result.new_factorizations >= 1
        # ... and the perturbed geometry is cached: a second call at the
        # same design point is all hits.
        again = adjoint_gradient(
            params, SmoothWorstDrop(), values=np.array([1.2]), cache=cache
        )
        assert again.new_factorizations == 0

    def test_forward_result_reused_at_base_point(self):
        stack = small_stack(3)
        params = ParameterSpace(stack, [MetalWidthParam()])
        forward = VoltagePropagationSolver(
            stack, VPConfig(inner="direct", outer_tol=1e-10)
        ).solve()
        result = adjoint_gradient(
            params, SmoothWorstDrop(), forward=forward, config=TIGHT
        )
        assert result.forward_outer_iterations == forward.outer_iterations
        fd = finite_difference_gradient(
            params, SmoothWorstDrop(), solver="direct", step=1e-4
        )
        report = compare_gradients(result.gradient, fd, atol=1e-10)
        assert report["max_rel_error"] < RTOL


class TestTransposeSolve:
    def test_matches_explicit_transpose_system(self):
        """solve_free_transpose solves A^T x = b against the forward
        factors (and the plane Laplacians are verifiably symmetric)."""
        stack = small_stack(2)
        planes = ReducedPlaneSystem(stack, factorize=True)
        matrix = planes.planes[0][0]
        asym = abs(matrix - matrix.T).max()
        assert asym == 0.0  # symmetric by construction

        rng = np.random.default_rng(0)
        pillar_v = rng.normal(size=planes.n_pillars)
        b_free = rng.normal(size=planes.n_free)
        x_t = planes.solve_free_transpose(0, pillar_v, b_free=b_free)
        # Reference: dense solve of the transposed reduced system.
        a_ff = matrix[planes.free][:, planes.free].toarray()
        a_fp = matrix[planes.free][:, planes.pillar_flat].toarray()
        expected = np.linalg.solve(a_ff.T, b_free - a_fp @ pillar_v)
        assert np.allclose(x_t, expected, rtol=1e-10, atol=1e-12)

    def test_adjoint_solver_solves_full_transposed_system(self):
        """AdjointVPSolver's fixed point satisfies G^T lam = g."""
        from repro.grid.conductance import stack_system

        stack = small_stack(3)
        rng = np.random.default_rng(1)
        injection = rng.normal(
            size=(stack.n_tiers, stack.rows, stack.cols)
        )
        result = AdjointVPSolver(stack).solve(injection)
        assert result.converged
        matrix, _ = stack_system(stack)
        residual = matrix.T @ result.lam.ravel() - injection.ravel()
        assert np.max(np.abs(residual)) < 1e-7


class TestMetricsAndValidation:
    def test_smooth_worst_drop_bounds_true_max(self):
        stack = small_stack(0)
        result = VoltagePropagationSolver(
            stack, VPConfig(inner="direct")
        ).solve()
        metric = SmoothWorstDrop(beta=5000.0)
        smooth = metric.value(result.voltages, stack.v_pin, 1.0)
        true_worst = result.worst_ir_drop()
        n = result.voltages.size
        assert true_worst <= smooth <= true_worst + np.log(n) / 5000.0

    def test_make_metric_factory(self):
        assert isinstance(make_metric("worst", beta=100.0), SmoothWorstDrop)
        assert isinstance(make_metric("node", tier=0, row=1, col=2), NodeDrop)
        with pytest.raises(ReproError):
            make_metric("entropy")

    def test_metric_validation(self):
        field = np.zeros((2, 3, 3))
        with pytest.raises(GridError):
            NodeDrop(5, 0, 0).value(field, 1.8)
        with pytest.raises(GridError):
            WeightedDrop(np.ones((1, 3, 3))).value(field, 1.8)
        with pytest.raises(ReproError):
            SmoothWorstDrop(beta=0.0)

    def test_fd_index_validation(self):
        stack = small_stack(0)
        params = ParameterSpace(stack, [MetalWidthParam()])
        with pytest.raises(ReproError):
            finite_difference_gradient(
                params, SmoothWorstDrop(), indices=[99]
            )
        with pytest.raises(ReproError):
            finite_difference_gradient(
                params, SmoothWorstDrop(), indices=[0], step=0.0
            )
        with pytest.raises(ReproError):
            compare_gradients(np.zeros(3), np.zeros(2))
