"""One solver config: the outer loop's knobs are declared and checked by
:class:`~repro.core.batch.BatchedVPConfig`, and every engine config that
runs one kernel loop extends it with its own knobs only."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.sensitivity
from repro.core.batch import BatchedVPConfig, BatchedVPSolver
from repro.core.transient_batch import BatchedTransientConfig
from repro.core.vp import VPConfig, VoltagePropagationSolver
from repro.eco.session import EcoConfig
from repro.errors import ConvergenceError, ReproError
from repro.scenarios import Scenario
from repro.stochastic import (
    MonteCarloConfig,
    TSVVariation,
    VariationSpec,
    naive_monte_carlo,
    run_monte_carlo,
)

ENGINE_CONFIGS = [VPConfig, BatchedTransientConfig, EcoConfig, MonteCarloConfig]
SRC = Path(repro.__file__).resolve().parent

#: The kernel's knobs only the config family may declare.
LOOP_KNOBS = {"outer_tol", "eta", "raise_on_divergence", "record_history"}
#: The row-based inner solver's own per-sweep history, not the kernel's.
INNER_SOLVER_KNOBS = {("RowBasedConfig", "record_history")}
#: Translation functions the one config made redundant.
GONE = {
    "solver_config",
    "batched_config",
    "vp_config",
    "_sequential_config",
    "_sequential_transient_config",
}


@pytest.mark.parametrize("config_cls", [BatchedVPConfig] + ENGINE_CONFIGS)
@pytest.mark.parametrize(
    "field, value",
    [
        ("outer_tol", math.nan),
        ("outer_tol", math.inf),
        ("outer_tol", 0.0),
        ("outer_tol", -1e-4),
        ("max_outer", 0),
        ("v0_init", "vdd"),
        ("vda", "bogus"),
    ],
)
def test_loop_knobs_checked_when_built(config_cls, field, value):
    with pytest.raises(ReproError, match=field):
        config_cls(**{field: value})


def config_classes() -> dict[str, tuple[list[str], set[str]]]:
    """Every ``*Config`` class in src: its base names and the fields its
    body declares."""
    found = {}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                declared = {
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                }
                found[node.name] = (bases, declared)
    return found


class TestOneSolverConfig:
    @pytest.mark.parametrize("config_cls", ENGINE_CONFIGS)
    def test_engine_configs_extend_the_loop_config(self, config_cls):
        assert issubclass(config_cls, BatchedVPConfig)

    def test_loop_knobs_declared_only_in_the_family(self):
        classes = config_classes()
        family = {"BatchedVPConfig"}
        grew = True
        while grew:
            members = {
                name
                for name, (bases, _) in classes.items()
                if family.intersection(bases)
            }
            grew = not members <= family
            family |= members
        assert {cls.__name__ for cls in ENGINE_CONFIGS} <= family
        strays = sorted(
            (name, knob)
            for name, (_, declared) in classes.items()
            for knob in declared & LOOP_KNOBS
            if name not in family and (name, knob) not in INNER_SOLVER_KNOBS
        )
        assert strays == []
        # The kernel always records its history: no family member
        # declares a switch for it.
        assert not any(
            "record_history" in classes[name][1] for name in family
        )

    def test_translation_functions_are_gone(self):
        assert not hasattr(repro.sensitivity, "AdjointConfig")
        assert "AdjointConfig" not in repro.sensitivity.__all__
        defined = sorted(
            (path.relative_to(SRC).as_posix(), node.name)
            for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name in GONE
        )
        assert defined == []

    def test_engine_defaults(self):
        assert EcoConfig().outer_tol == 1e-6
        assert EcoConfig().max_outer == 300
        assert MonteCarloConfig().v0_init == "loadshare"
        for config_cls in [BatchedVPConfig, VPConfig, BatchedTransientConfig]:
            config = config_cls()
            assert (config.outer_tol, config.max_outer) == (1e-4, 200)
            assert (config.vda, config.eta, config.v0_init) == ("auto", None, "pin")
            assert config.raise_on_divergence is False


class TestDirectConfig:
    def test_copies_the_loop_knobs(self):
        batched = EcoConfig(vda="secant", eta=0.3, v0_init="loadshare", max_outer=50)
        config = VPConfig.direct(batched)
        assert type(config) is VPConfig
        assert config.inner == "direct"
        assert (config.outer_tol, config.max_outer) == (1e-6, 50)
        assert (config.vda, config.eta, config.v0_init) == ("secant", 0.3, "loadshare")

    def test_solve_matches_a_batched_column_bit_for_bit(self, small_stack):
        batched = BatchedVPConfig(outer_tol=1e-6, v0_init="loadshare")
        scenarios = [Scenario("a", load_scale=0.7), Scenario("b", r_tsv_scale=3.0)]
        batch = BatchedVPSolver(small_stack, scenarios, batched).solve()
        for k, scenario in enumerate(scenarios):
            single = VoltagePropagationSolver(
                scenario.apply(small_stack), VPConfig.direct(batched)
            ).solve()
            np.testing.assert_array_equal(single.voltages, batch.scenario_voltages(k))
            assert single.outer_iterations == batch.outer_iterations[k]


class TestMonteCarloConfigPassesThrough:
    SPEC = VariationSpec(tsv=TSVVariation(sigma=0.2))

    def test_divergence_raises_from_the_kernel(self, small_stack):
        config = MonteCarloConfig(max_outer=1, outer_tol=1e-12, raise_on_divergence=True)
        with pytest.raises(ConvergenceError):
            run_monte_carlo(small_stack, self.SPEC, 3, seed=0, config=config)

    def test_naive_loop_takes_the_same_config(self, small_stack):
        config = MonteCarloConfig(outer_tol=1e-6, vda="secant")
        draws = self.SPEC.sample(small_stack, 3, np.random.default_rng(2))
        result = run_monte_carlo(
            small_stack, self.SPEC, 3, config=config, draws=draws
        )
        naive = naive_monte_carlo(small_stack, draws, config=config)
        np.testing.assert_array_equal(naive, result.worst_drops)
