"""Engines own their factor-cache holds.

Every engine that reads a shared :class:`PlaneFactorCache` must (a) use
the cache it is given, even an empty one, and (b) release every lease
it took on every exit path, exceptions included -- a leaked lease keeps
an entry resident past the cache's bound for the life of the process.
"""

from __future__ import annotations

import pytest

from repro.core.batch import BatchedVPSolver
from repro.core.planes import PlaneFactorCache
from repro.eco import EcoSession, strap_sweep
from repro.grid.generators import synthesize_stack
from repro.optimize import (
    BudgetConfig,
    PlacementConfig,
    allocate_wire_width,
    refine_pin_placement,
)
from repro.sensitivity import (
    MetalWidthParam,
    ParameterSpace,
    SmoothWorstDrop,
    adjoint_gradient,
)
from repro.stochastic import MetalWidthVariation, VariationSpec, run_monte_carlo


def _stack():
    return synthesize_stack(8, 8, 2, rng=3, name="lease-test")


def _sensitivity(stack, cache):
    space = ParameterSpace(stack, [MetalWidthParam()])
    adjoint_gradient(space, SmoothWorstDrop(), cache=cache)


def _budget(stack, cache):
    allocate_wire_width(stack, config=BudgetConfig(max_iterations=1), cache=cache)


def _placement(stack, cache):
    refine_pin_placement(stack, config=PlacementConfig(max_rounds=1), cache=cache)


def _monte_carlo(stack, cache):
    spec = VariationSpec(width=MetalWidthVariation(sigma=0.05))
    run_monte_carlo(stack, spec, 2, seed=0, cache=cache)


def _eco(stack, cache):
    with EcoSession(stack, cache=cache) as session:
        session.rank_candidates(strap_sweep(stack, 1, seed=0))


CACHE_TAKING_ENTRY_POINTS = [_sensitivity, _budget, _placement]
LEASING_ENGINES = [_monte_carlo, _sensitivity, _budget, _placement, _eco]


@pytest.mark.parametrize("run", CACHE_TAKING_ENTRY_POINTS, ids=lambda f: f.__name__)
def test_an_empty_cache_passed_in_is_used(run):
    """An empty cache is falsy (``__len__``); ``cache or
    PlaneFactorCache()`` used to swap it for a private one, so the
    caller's cache stayed empty after the run."""
    cache = PlaneFactorCache()
    run(_stack(), cache)
    assert len(cache) == 1
    assert cache.factorizations > 0


@pytest.mark.parametrize("run", LEASING_ENGINES, ids=lambda f: f.__name__)
def test_engine_releases_its_leases_on_return(run):
    cache = PlaneFactorCache(max_entries=1)
    run(_stack(), cache)
    assert not cache._leases
    assert len(cache) == 1


@pytest.mark.parametrize("run", LEASING_ENGINES, ids=lambda f: f.__name__)
def test_engine_releases_its_leases_when_the_solve_raises(run, monkeypatch):
    def fail(self):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(BatchedVPSolver, "solve", fail)
    cache = PlaneFactorCache(max_entries=1)
    with pytest.raises(RuntimeError, match="solver crashed"):
        run(_stack(), cache)
    assert not cache._leases
    assert len(cache) == 1
