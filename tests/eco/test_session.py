"""EcoSession behaviour: ranking, verification, cache leasing, config."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchedVPSolver
from repro.core.planes import PlaneFactorCache
from repro.eco.edits import EcoCandidate, StrapEdit, TsvResizeEdit
from repro.eco.session import VERIFY_RTOL, EcoConfig, EcoSession
from repro.eco.sweeps import generate_candidates, strap_sweep
from repro.errors import ReproError
from repro.scenarios import Scenario, pad_current_sweep


def brute_force_metrics(stack, candidates, config, scenarios):
    """Direct re-solve of every candidate: the ranking oracle."""
    out = []
    for cand in candidates:
        solver = BatchedVPSolver(cand.apply(stack), scenarios, config)
        out.append(float(solver.solve().worst_ir_drop().max()))
    return out


class TestRanking:
    def test_matches_brute_force_order_and_metrics(self, small_stack):
        candidates = strap_sweep(small_stack, 6, g_strap=3.0, seed=2)
        scenarios = pad_current_sweep((0.9, 1.1))
        config = EcoConfig()
        with EcoSession(
            small_stack, scenarios=scenarios, config=config
        ) as session:
            report = session.rank_candidates(candidates)
        direct = brute_force_metrics(
            small_stack, candidates, config, session.scenarios
        )
        for row in report.rows:
            assert np.isclose(row.metric, direct[row.index], rtol=1e-10)
        expected_order = sorted(
            range(len(direct)), key=lambda k: direct[k]
        )
        assert [row.index for row in report.ranked()] == expected_order
        best = report.best()
        assert best.metric == min(row.metric for row in report.rows)

    def test_improvement_is_relative_to_the_unedited_base(self, small_stack):
        candidates = strap_sweep(small_stack, 3, g_strap=5.0, seed=1)
        with EcoSession(small_stack) as session:
            baseline = float(session.baseline_drops().max())
            report = session.evaluate(candidates)
        for row in report.rows:
            assert row.baseline_metric == pytest.approx(baseline)
            assert row.improvement == pytest.approx(baseline - row.metric)
            # Adding metal can only help the worst drop on this grid.
            assert row.improvement >= 0.0

    def test_metric_override_is_scoped_to_the_call(self, small_stack):
        candidates = strap_sweep(small_stack, 2, seed=0)
        with EcoSession(small_stack) as session:
            report = session.rank_candidates(candidates, metric="mean_drop")
            assert report.metric == "mean_drop"
            assert session.config.metric == "worst_drop"

    def test_unknown_metric_rejected(self, small_stack):
        with EcoSession(small_stack) as session:
            with pytest.raises(ReproError, match="unknown ECO metric"):
                session.rank_candidates(
                    strap_sweep(small_stack, 1, seed=0), metric="p99"
                )
        with pytest.raises(ReproError, match="unknown ECO metric"):
            EcoConfig(metric="p99")

    def test_generated_sweeps_rank_end_to_end(self, pinsubset_stack):
        for kind in ("strap", "width", "tsv", "pin"):
            candidates = generate_candidates(pinsubset_stack, kind, 3, seed=4)
            with EcoSession(pinsubset_stack) as session:
                report = session.evaluate(candidates)
            assert len(report) == 3
            assert all(row.converged for row in report.rows)


class TestVerification:
    def test_verify_annotates_a_deterministic_sample(self, small_stack):
        candidates = strap_sweep(small_stack, 4, seed=3)
        with EcoSession(small_stack) as session:
            report = session.evaluate(candidates)
            count = session.verify(report, fraction=0.5, seed=11)
        assert count == 2
        verified = [row for row in report.rows if row.verified]
        assert len(verified) == 2
        assert all(row.verify_error <= VERIFY_RTOL for row in verified)

    def test_verify_fraction_validated(self):
        with pytest.raises(ReproError, match="verify_fraction"):
            EcoConfig(verify_fraction=1.5)


class TestCacheIntegration:
    def test_session_pins_the_base_factors(
        self, small_stack, medium_stack, pinsubset_stack
    ):
        cache = PlaneFactorCache(max_entries=1)
        with EcoSession(small_stack, cache=cache) as session:
            session.baseline_drops()
            # Churn a second geometry through the full cache: the
            # leased base must survive, so nothing is evicted.
            cache.get(medium_stack)
            assert cache.evictions == 0
            assert session.evaluate(
                strap_sweep(small_stack, 2, seed=0)
            ).eval_factorizations == 0
        # Closing releases the lease: the cache sheds its overflow and
        # the next miss evicts again (a hit would just refresh a slot).
        cache.get(pinsubset_stack)
        assert cache.evictions >= 1

    def test_closed_session_raises(self, small_stack):
        session = EcoSession(small_stack)
        session.close()
        with pytest.raises(ReproError, match="closed"):
            session.evaluate(strap_sweep(small_stack, 1, seed=0))
        with pytest.raises(ReproError, match="closed"):
            session.baseline_drops()

    def test_two_sessions_share_one_factorization(self, small_stack):
        cache = PlaneFactorCache()
        with EcoSession(small_stack, cache=cache) as first:
            first.baseline_drops()
        count = cache.factorizations
        with EcoSession(small_stack, cache=cache) as second:
            second.baseline_drops()
        assert cache.factorizations == count  # pure cache hit

    def test_plane_scale_scenarios_rejected(self, small_stack):
        scenarios = [Scenario(name="wide", plane_scale=1.2)]
        with pytest.raises(ReproError, match="plane_scale"):
            EcoSession(small_stack, scenarios=scenarios)


class TestReportSurface:
    def test_payload_and_tables_round_numbers(self, small_stack, tmp_path):
        candidates = [
            EcoCandidate(
                "mixed",
                (
                    StrapEdit(0, "h", 2, 1.0, span=(1, 3)),
                    TsvResizeEdit((0,), 0.5),
                ),
            )
        ]
        with EcoSession(small_stack) as session:
            report = session.evaluate(candidates)
        payload = report.payload()
        assert payload["candidates"][0]["name"] == "mixed"
        assert payload["candidates"][0]["rank"] == 2
        assert len(payload["candidates"][0]["edits"]) == 2
        assert "mixed" in report.table()
        assert "1 candidate(s)" in report.summary()
        report.to_csv(tmp_path / "eco.csv")
        report.to_json(tmp_path / "eco.json")
        assert (tmp_path / "eco.csv").exists()
        assert (tmp_path / "eco.json").exists()
