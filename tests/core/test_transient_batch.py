"""Tests for the batched multi-scenario transient engine.

The headline contract is *exact parity*: column ``s`` of a batched run
follows the solve sequence a standalone
:class:`~repro.core.transient.TransientVPSolver` performs for scenario
``s`` bitwise -- same companion stack, same RHS arithmetic grouping,
same VDA policy and seeds -- so waveforms, fields, and outer-iteration
counts all match to the last bit.  The second contract is cost: one DC
+ one companion factorization per ``(plane_scale, cap_scale)`` group,
never per scenario or per step, counter-asserted through
:class:`~repro.core.planes.PlaneFactorCache`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.planes import PlaneFactorCache
from repro.core.transient import TransientVPSolver
from repro.core.transient_batch import (
    BatchedTransientConfig,
    BatchedTransientSolver,
    solve_transient_batch,
)
from repro.core.vp import VPConfig
from repro.errors import ConvergenceError, GridError, ReproError
from repro.scenarios import (
    Scenario,
    ScenarioSet,
    StimulusSpec,
    load_step_sweep,
    pulse_shape_sweep,
)

DT = 0.2e-9
T_END = 2e-9
CAPS = 2e-9
PROBES = [(0, 3, 3), (2, 0, 0)]


def mixed_scenarios() -> ScenarioSet:
    """Every knob the engine supports, in one sweep: load-step corners,
    a ramp, a decap placement, a pulse, TSV and metal-width scalings,
    and a no-stimulus DC-hold scenario."""
    return ScenarioSet(
        load_step_sweep((0.6, 1.4), t_step=1e-9, before=0.2)
        + [
            Scenario(
                name="ramp",
                load_scale=(0.8, 1.1, 1.0),
                stimulus=StimulusSpec(
                    kind="ramp",
                    t_event=0.5e-9,
                    before=0.3,
                    after=1.2,
                    rise=1e-9,
                ),
            ),
            Scenario(
                name="decap-heavy",
                cap_scale=(4.0, 1.0, 1.0),
                stimulus=StimulusSpec(
                    kind="step", t_event=1e-9, before=0.2, after=1.3
                ),
            ),
            Scenario(
                name="pulse",
                stimulus=StimulusSpec(
                    kind="pulse",
                    period=1.6e-9,
                    before=0.2,
                    after=1.0,
                    duty=0.5,
                ),
            ),
            Scenario(
                name="rtsv",
                r_tsv_scale=2.0,
                stimulus=StimulusSpec(
                    kind="step", t_event=1e-9, before=0.5, after=1.0
                ),
            ),
            Scenario(
                name="alpha",
                plane_scale=1.2,
                stimulus=StimulusSpec(
                    kind="step", t_event=1e-9, before=0.5, after=1.0
                ),
            ),
            Scenario(name="plain"),
        ]
    )


def sequential_run(stack, solver, scenario, probes=()):
    """The standalone-solver oracle for one scenario of a batch."""
    applied = scenario.apply(stack)
    cap_scales = scenario.tier_cap_scales(stack.n_tiers)
    caps = [c * k for c, k in zip(solver.base_caps, cap_scales)]
    seq = TransientVPSolver(applied, caps, DT, VPConfig(inner="direct"))
    stimulus = None
    if scenario.stimulus is not None:
        stimulus = scenario.stimulus.as_stimulus(
            [tier.loads.copy() for tier in applied.tiers]
        )
    return seq.run(T_END, stimulus, probes=probes)


class TestExactParity:
    def test_every_scenario_kind_matches_sequential_bitwise(
        self, small_stack
    ):
        scenarios = mixed_scenarios()
        solver = BatchedTransientSolver(small_stack, scenarios, CAPS, DT)
        result = solver.run(T_END, probes=PROBES)

        for s, scenario in enumerate(scenarios):
            seq = sequential_run(small_stack, solver, scenario, PROBES)
            np.testing.assert_array_equal(
                result.worst_voltage[:, s],
                seq.worst_voltage,
                err_msg=scenario.name,
            )
            np.testing.assert_array_equal(
                result.probe_voltages[:, :, s],
                seq.probe_voltages,
                err_msg=scenario.name,
            )
            np.testing.assert_array_equal(
                result.voltages[..., s], seq.voltages, err_msg=scenario.name
            )
            np.testing.assert_array_equal(
                result.outer_iterations[:, s],
                np.asarray(seq.outer_iterations),
                err_msg=scenario.name,
            )

    def test_worst_droop_definition(self, small_stack):
        result = solve_transient_batch(
            small_stack,
            load_step_sweep((0.5, 1.5), t_step=1e-9),
            CAPS,
            DT,
            T_END,
        )
        expected = result.worst_voltage[0] - result.worst_voltage.min(axis=0)
        np.testing.assert_array_equal(result.worst_droop, expected)
        assert (result.worst_droop >= 0).all()

    def test_times_and_shapes(self, small_stack):
        scenarios = mixed_scenarios()
        result = solve_transient_batch(
            small_stack, scenarios, CAPS, DT, T_END, probes=PROBES
        )
        n_steps = int(np.ceil(T_END / DT))
        n_scen = len(scenarios)
        assert result.times.shape == (n_steps + 1,)
        np.testing.assert_allclose(
            result.times, DT * np.arange(n_steps + 1)
        )
        assert result.worst_voltage.shape == (n_steps + 1, n_scen)
        assert result.probe_voltages.shape == (n_steps + 1, 2, n_scen)
        assert result.voltages.shape == (
            small_stack.n_tiers,
            small_stack.rows,
            small_stack.cols,
            n_scen,
        )
        assert result.outer_iterations.shape == (n_steps, n_scen)
        assert result.scenario_names == scenarios.names

    def test_scenario_lookup_helpers(self, small_stack):
        result = solve_transient_batch(
            small_stack,
            load_step_sweep((0.5, 1.5), t_step=1e-9),
            CAPS,
            DT,
            T_END,
        )
        idx = result.scenario_index("step-to-1.5")
        np.testing.assert_array_equal(
            result.scenario_waveform("step-to-1.5"),
            result.worst_voltage[:, idx],
        )
        with pytest.raises(ReproError):
            result.scenario_index("nope")


class TestFactorSharing:
    def test_one_group_per_plane_cap_signature(self, small_stack):
        scenarios = mixed_scenarios()
        solver = BatchedTransientSolver(small_stack, scenarios, CAPS, DT)
        # Signatures: baseline (most scenarios), decap-heavy cap tuple,
        # and the alpha plane scaling.
        assert solver.n_groups == 3

    def test_load_corners_share_all_factors(self, small_stack):
        """A pure droop sweep costs what a single scenario costs: one DC
        + one companion factorization, counter-asserted via the cache."""
        sweep = BatchedTransientSolver(
            small_stack,
            load_step_sweep((0.4, 0.8, 1.2, 1.6), t_step=1e-9),
            CAPS,
            DT,
        )
        single = BatchedTransientSolver(
            small_stack,
            load_step_sweep((1.0,), t_step=1e-9),
            CAPS,
            DT,
        )
        assert sweep.n_groups == 1
        assert sweep.n_factorizations == single.n_factorizations > 0

    def test_shared_cache_second_engine_is_free(self, small_stack):
        cache = PlaneFactorCache()
        first = BatchedTransientSolver(
            small_stack,
            load_step_sweep((0.5,), t_step=1e-9),
            CAPS,
            DT,
            factor_cache=cache,
        )
        assert first.n_factorizations > 0
        second = BatchedTransientSolver(
            small_stack,
            load_step_sweep((0.7, 1.3), t_step=1e-9),
            CAPS,
            DT,
            factor_cache=cache,
        )
        assert second.n_factorizations == 0
        assert cache.hits > 0

    def test_different_dt_needs_new_companion_only(self, small_stack):
        """Changing the step size moves ``C/h``: the companion factors
        are new, the DC factors come from the cache."""
        cache = PlaneFactorCache()
        first = BatchedTransientSolver(
            small_stack,
            load_step_sweep((1.0,), t_step=1e-9),
            CAPS,
            DT,
            factor_cache=cache,
        )
        second = BatchedTransientSolver(
            small_stack,
            load_step_sweep((1.0,), t_step=1e-9),
            CAPS,
            DT / 2,
            factor_cache=cache,
        )
        assert 0 < second.n_factorizations < first.n_factorizations

    def test_engines_hold_no_lease_on_a_shared_cache(self, small_stack):
        """Three step sizes through a two-entry cache: each engine keeps
        its systems by reference and holds nothing, so the cache stays
        within its bound (pins used to pile up past it, never released)."""
        cache = PlaneFactorCache(max_entries=2)
        for dt in (1e-10, 2e-10, 4e-10):
            BatchedTransientSolver(
                small_stack,
                load_step_sweep((1.0,), t_step=1e-9),
                CAPS,
                dt,
                factor_cache=cache,
            ).run(2 * dt)
        assert len(cache) <= 2
        assert not cache._leases
        assert cache.pinned_overflow == 0


def dc_sharing_scenarios() -> ScenarioSet:
    """A sweep whose t = 0 problems repeat across companion groups: two
    ``before`` levels, two load scales (one spelled per tier), two TSV
    scales, a per-segment spread, two ``plane_scale`` and two
    ``cap_scale`` groups, and stimuli that differ only after t = 0."""

    def step(before, after):
        return StimulusSpec(kind="step", t_event=1e-9, before=before, after=after)

    return ScenarioSet(
        [
            Scenario("lo-0.6", stimulus=step(0.2, 0.6)),  # column A
            Scenario("lo-1.4", stimulus=step(0.2, 1.4)),  # A
            Scenario(
                "lo-ramp",
                stimulus=StimulusSpec(
                    kind="ramp", t_event=0.4e-9, before=0.2, after=1.1, rise=1e-9
                ),
            ),  # A
            Scenario("lo-decap", cap_scale=4.0, stimulus=step(0.2, 1.3)),  # A
            Scenario("hi-1.0", stimulus=step(0.5, 1.0)),  # B
            Scenario("hi-decap", cap_scale=(4.0, 1.0, 1.0), stimulus=step(0.5, 1.6)),  # B
            Scenario("load", load_scale=1.2, stimulus=step(0.2, 1.0)),  # C
            Scenario(
                "load-tiers", load_scale=(1.2, 1.2, 1.2), stimulus=step(0.2, 1.5)
            ),  # C
            Scenario("load-decap", load_scale=1.2, cap_scale=4.0, stimulus=step(0.2, 0.4)),  # C
            Scenario("rtsv", r_tsv_scale=2.0, stimulus=step(0.2, 1.0)),  # D
            Scenario("rtsv-hi", r_tsv_scale=2.0, stimulus=step(0.5, 1.0)),  # E
            Scenario(
                "spread",
                r_seg_scale=np.linspace(0.9, 1.1, 3 * 16).reshape(3, 16),
                stimulus=step(0.2, 1.0),
            ),  # F
            Scenario("plain"),  # G: activity 1 at t = 0
            Scenario(
                "pulse",
                stimulus=StimulusSpec(
                    kind="pulse", period=1.6e-9, before=0.2, after=1.0, duty=0.5
                ),
            ),  # G: a pulse starts high
            Scenario("alpha", plane_scale=1.2, stimulus=step(0.2, 1.0)),  # H
            Scenario(
                "alpha-decap", plane_scale=1.2, cap_scale=4.0, stimulus=step(0.2, 0.8)
            ),  # H
        ]
    )


#: Distinct t = 0 problems of :func:`dc_sharing_scenarios` (A-H above).
DC_SHARING_COLUMNS = 8


class TestSharedDCPoint:
    """Scenarios that agree on per-tier plane and load scales, TSV scales
    and the stimulus activity at t = 0 share one DC column, across
    companion groups; every scenario still gets its own bits."""

    def test_each_scenario_gets_its_solo_bits(self, small_stack):
        assert small_stack.pillars.count == 16
        scenarios = dc_sharing_scenarios()
        result = BatchedTransientSolver(small_stack, scenarios, CAPS, DT).run(
            T_END, probes=PROBES
        )
        assert result.stats.n_groups == 5
        assert result.stats.dc_columns == DC_SHARING_COLUMNS
        for s, scenario in enumerate(scenarios):
            solo = BatchedTransientSolver(small_stack, [scenario], CAPS, DT).run(
                T_END, probes=PROBES
            )
            assert solo.stats.dc_columns == 1
            for name in (
                "worst_voltage", "probe_voltages", "voltages", "outer_iterations",
            ):
                np.testing.assert_array_equal(
                    getattr(result, name)[..., s],
                    getattr(solo, name)[..., 0],
                    err_msg=f"{scenario.name}: {name}",
                )

    def test_load_step_corners_solve_one_dc_column(self, small_stack):
        result = solve_transient_batch(
            small_stack,
            load_step_sweep((0.4, 0.8, 1.2, 1.6), t_step=1e-9),
            CAPS,
            DT,
            T_END,
            v0_init="loadshare",
        )
        assert result.stats.dc_columns == 1
        assert (result.worst_voltage[0] == result.worst_voltage[0, 0]).all()

    def test_caller_v0_solves_no_dc_column(self, small_stack):
        solver = BatchedTransientSolver(
            small_stack, load_step_sweep((0.5, 1.5), t_step=1e-9), CAPS, DT
        )
        flat = np.full((3, small_stack.rows, small_stack.cols), small_stack.v_pin)
        assert solver.run(T_END, v0=flat).stats.dc_columns == 0


class TestSettleRetirement:
    def test_retired_waveforms_forward_fill(self, small_stack):
        scenarios = mixed_scenarios()
        full = solve_transient_batch(
            small_stack, scenarios, CAPS, DT, 2 * T_END, probes=PROBES
        )
        retired = solve_transient_batch(
            small_stack,
            scenarios,
            CAPS,
            DT,
            2 * T_END,
            probes=PROBES,
            settle_tol=1e-7,
        )
        assert (retired.settled_step > 0).any()
        assert retired.stats.column_steps < full.stats.column_steps
        # Retirement freezes an already-settled waveform: the frozen
        # tails sit within the settle tolerance of the full run.
        assert (
            np.abs(retired.worst_voltage - full.worst_voltage).max() < 1e-5
        )
        assert (
            np.abs(retired.probe_voltages - full.probe_voltages).max() < 1e-5
        )

    def test_pulse_scenarios_never_retire(self, small_stack):
        result = solve_transient_batch(
            small_stack,
            mixed_scenarios(),
            CAPS,
            DT,
            2 * T_END,
            settle_tol=1e-7,
        )
        pulse = result.scenario_index("pulse")
        assert result.settled_step[pulse] == -1

    def test_a_second_run_starts_from_every_scenario(self, small_stack):
        """A run after one that retired scenarios solves all of them
        again: bitwise the first run and a fresh solver's run."""
        scenarios = ScenarioSet(
            list(load_step_sweep([0.7, 1.0], t_step=1e-9, before=0.2))
            + list(pulse_shape_sweep([0.5], period=2e-9))
        )

        def solver():
            return BatchedTransientSolver(
                small_stack, scenarios, CAPS, DT,
                BatchedTransientConfig(settle_tol=1e-4),
            )

        again = solver()
        runs = [again.run(6e-9, probes=PROBES) for _ in range(2)]
        runs.append(solver().run(6e-9, probes=PROBES))
        assert (runs[0].settled_step[:2] > 0).all()
        for run in runs[1:]:
            for name in ("worst_voltage", "probe_voltages", "voltages",
                         "outer_iterations", "settled_step"):
                assert np.array_equal(getattr(run, name), getattr(runs[0], name)), name

    def test_settle_off_by_default_keeps_exact_parity(self, small_stack):
        config = BatchedTransientConfig()
        assert config.settle_tol == 0.0

    def test_settle_validation(self):
        with pytest.raises(ReproError):
            BatchedTransientConfig(settle_tol=-1.0)


class TestSeedsAndOverrides:
    def test_loadshare_seed_matches_sequential(self, small_stack):
        """The loadshare DC seed is rebuilt from per-scenario t=0 column
        totals -- still bitwise against the standalone path."""
        scenarios = ScenarioSet(
            load_step_sweep((0.6, 1.4), t_step=1e-9, before=0.2)
        )
        config = BatchedTransientConfig(v0_init="loadshare")
        solver = BatchedTransientSolver(
            small_stack, scenarios, CAPS, DT, config
        )
        result = solver.run(T_END)
        for s, scenario in enumerate(scenarios):
            applied = scenario.apply(small_stack)
            seq = TransientVPSolver(
                applied,
                solver.base_caps,
                DT,
                VPConfig(inner="direct", v0_init="loadshare"),
            )
            stimulus = scenario.stimulus.as_stimulus(
                [tier.loads.copy() for tier in applied.tiers]
            )
            ref = seq.run(T_END, stimulus)
            np.testing.assert_array_equal(
                result.worst_voltage[:, s],
                ref.worst_voltage,
                err_msg=scenario.name,
            )

    def test_v0_override_shared_and_per_scenario(self, small_stack):
        scenarios = load_step_sweep((0.5, 1.5), t_step=1e-9)
        solver = BatchedTransientSolver(small_stack, scenarios, CAPS, DT)
        shape = (small_stack.n_tiers, small_stack.rows, small_stack.cols)
        flat = np.full(shape, small_stack.v_pin)
        shared = solver.run(T_END, v0=flat)
        per_scen = solver.run(
            T_END, v0=np.repeat(flat[..., None], len(scenarios), axis=3)
        )
        np.testing.assert_array_equal(
            shared.worst_voltage, per_scen.worst_voltage
        )
        np.testing.assert_array_equal(
            shared.worst_voltage[0],
            np.full(len(scenarios), small_stack.v_pin),
        )

    def test_bad_v0_shape_rejected(self, small_stack):
        solver = BatchedTransientSolver(
            small_stack, load_step_sweep((1.0,), t_step=1e-9), CAPS, DT
        )
        with pytest.raises(GridError):
            solver.run(T_END, v0=np.zeros((2, 2)))


class TestValidation:
    def test_dt_must_be_positive(self, small_stack):
        with pytest.raises(ReproError):
            BatchedTransientSolver(
                small_stack, [Scenario("a")], CAPS, 0.0
            )

    def test_t_end_must_be_positive(self, small_stack):
        solver = BatchedTransientSolver(
            small_stack, [Scenario("a")], CAPS, DT
        )
        with pytest.raises(ReproError):
            solver.run(0.0)

    def test_probe_outside_grid_rejected(self, small_stack):
        solver = BatchedTransientSolver(
            small_stack, [Scenario("a")], CAPS, DT
        )
        with pytest.raises(GridError):
            solver.run(T_END, probes=[(0, 99, 0)])
        with pytest.raises(GridError):
            solver.run(T_END, probes=[(9, 0, 0)])

    def test_empty_scenarioset_rejected(self, small_stack):
        with pytest.raises(ReproError):
            BatchedTransientSolver(small_stack, [], CAPS, DT)


class TestDCSeedConvergence:
    """Both engines start the waveform from a DC operating point and
    must refuse one that did not converge, as they refuse a step."""

    def _inputs(self):
        from repro.grid.generators import synthesize_stack

        stack = synthesize_stack(12, 12, 3, rng=5, r_tsv=0.5)
        scenarios = load_step_sweep((1.0,), t_step=1e-10, before=1.0)
        return stack, scenarios, 2e-11, 5e-11

    def _batched(self, max_outer):
        stack, scenarios, caps, dt = self._inputs()
        config = BatchedTransientConfig(max_outer=max_outer)
        return BatchedTransientSolver(stack, scenarios, caps, dt, config).run(
            6e-10
        )

    def _sequential(self, max_outer):
        from repro.bench.transient import run_sequential_transient

        stack, scenarios, caps, dt = self._inputs()
        return run_sequential_transient(
            stack, scenarios, caps, dt, 6e-10,
            BatchedTransientConfig(max_outer=max_outer),
        )[0]

    @pytest.mark.parametrize("engine", ["_batched", "_sequential"])
    def test_unconverged_dc_seed_raises(self, engine):
        with pytest.raises(ReproError, match="DC operating point"):
            getattr(self, engine)(10)

    def test_batched_error_names_the_scenarios(self):
        message = r"DC operating point did not converge for 1 scenario\(s\)"
        with pytest.raises(ReproError, match=message + r": \['step-to-1'\]"):
            self._batched(10)

    @pytest.mark.parametrize("raise_on_divergence", [False, True])
    def test_error_names_every_scenario_on_the_column(self, raise_on_divergence):
        """Three corners share one DC column (same ``before``); its
        failure names all of them, never a position in the DC batch."""
        stack, _, caps, dt = self._inputs()
        config = BatchedTransientConfig(
            max_outer=10, raise_on_divergence=raise_on_divergence
        )
        solver = BatchedTransientSolver(
            stack,
            load_step_sweep((0.5, 1.0, 1.5), t_step=1e-10, before=1.0),
            caps,
            dt,
            config,
        )
        names = r"\['step-to-0.5', 'step-to-1', 'step-to-1.5'\]"
        with pytest.raises(
            ConvergenceError,
            match=r"DC operating point did not converge for 3 scenario\(s\): " + names,
        ):
            solver.run(6e-10)

    def test_converged_dc_seed_runs_on_both_engines(self):
        batched = self._batched(20)
        sequential = self._sequential(20)
        np.testing.assert_array_equal(
            batched.worst_voltage[:, 0], sequential.worst_voltage
        )
