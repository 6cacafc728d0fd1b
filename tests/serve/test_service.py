"""GridAnalysisService: registry, job kinds, coalescing, shared cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.batch import BatchedVPConfig, BatchedVPSolver
from repro.core.planes import stack_plane_signature
from repro.eco import EcoSession
from repro.errors import ReproError
from repro.serve import (
    GridAnalysisService,
    QueueFullError,
    ServiceConfig,
    UnknownGridError,
)

SMALL = {"side": 10, "tiers": 2, "seed": 3}
#: A second geometry (different side, hence a different cache key).
OTHER = {"side": 12, "tiers": 2, "seed": 5}


@pytest.fixture
def service():
    with GridAnalysisService(
        ServiceConfig(workers=2, batch_window=0.02, queue_depth=16)
    ) as svc:
        svc.register_grid("g1", SMALL)
        yield svc


class TestRegistry:
    def test_register_and_describe(self, service):
        info = service.describe_grid("g1")
        assert info["nodes"] == 10 * 10 * 2
        assert service.grids() == ["g1"]
        assert len(info["signature"]) == 16

    def test_circuit_spec(self, service):
        info = service.register_grid("c0", {"circuit": "C0"})
        assert info["tiers"] == 3

    def test_unknown_grid_rejected_at_submit(self, service):
        with pytest.raises(UnknownGridError):
            service.submit("sweep", "nope", {})

    def test_unknown_kind_rejected(self, service):
        with pytest.raises(ReproError, match="unknown job kind"):
            service.submit("transmogrify", "g1", {})

    def test_bad_spec_fields_rejected(self, service):
        with pytest.raises(ReproError, match="unknown grid spec fields"):
            service.register_grid("bad", {"sides": 10})


class TestSweepJobs:
    def test_sweep_runs_and_reports_per_scenario(self, service):
        job = service.submit(
            "sweep",
            "g1",
            {"scenarios": [{"name": "a"}, {"name": "b", "load_scale": 1.3}]},
        )
        done = service.wait(job.id, timeout=60)
        assert done.state == "done"
        rows = done.result["scenarios"]
        assert [r["name"] for r in rows] == ["a", "b"]
        for row in rows:
            assert row["converged"]
            assert row["worst_ir_drop"] > 0
            assert len(row["pillar_v0"]) > 0

    def test_invalid_scenario_is_rejected_at_submit(self, service):
        with pytest.raises(ReproError, match="unknown scenario fields"):
            service.submit(
                "sweep", "g1", {"scenarios": [{"name": "x", "bogus": 1}]}
            )
        assert service.queue.jobs() == []
        # Service still serves afterwards.
        ok = service.submit("sweep", "g1", {})
        assert service.wait(ok.id, timeout=60).state == "done"

    def test_coalesce_key_separates_configs(self, service):
        service.register_grid("g2", SMALL)

        def key(grid, params):
            return service.submit("sweep", grid, params).coalesce_key

        base = key("g1", {})
        assert key("g1", {}) == base
        assert key("g1", {"scenarios": [{"name": "a", "load_scale": 2}]}) == base
        assert key("g2", {}) != base
        assert key("g1", {"outer_tol": 1e-6}) != base
        assert key("g1", {"vda": "anderson"}) != base


class TestCoalescing:
    def test_compatible_jobs_merge_and_match_the_solo_path(self):
        """The tentpole acceptance contract at test scale: concurrent
        compatible sweeps coalesce into one batch, pay one
        factorization, and each job's numbers are bitwise identical to
        a standalone solve of its scenarios."""
        svc = GridAnalysisService(
            ServiceConfig(workers=2, batch_window=0.05, queue_depth=16)
        )
        svc.register_grid("g1", SMALL)
        scales = [0.8, 1.0, 1.2, 1.4]
        # Submit while the dispatcher is not running yet: all four jobs
        # are queued when it starts, so the batching window finds them
        # deterministically.
        jobs = [
            svc.submit(
                "sweep",
                "g1",
                {"scenarios": [{"name": "s", "load_scale": scale}]},
            )
            for scale in scales
        ]
        with svc:
            done = [svc.wait(j.id, timeout=60) for j in jobs]

        assert all(j.state == "done" for j in done)
        assert all(j.batch_jobs == len(jobs) for j in done)
        assert all(j.result["batch_columns"] == len(scales) for j in done)
        # Exactly one factorization for the whole merged batch.
        assert svc.cache.factorizations == 1

        # Bitwise fan-out parity against the standalone path.
        stack = svc._stack("g1")
        for job, scale in zip(done, scales):
            from repro.scenarios.spec import Scenario

            solo = BatchedVPSolver(
                stack,
                [Scenario(name="s", load_scale=scale)],
                BatchedVPConfig(),
            ).solve()
            row = job.result["scenarios"][0]
            assert row["pillar_v0"] == [float(v) for v in solo.pillar_v0[:, 0]]
            assert row["worst_ir_drop"] == float(solo.worst_ir_drop()[0])
            assert row["outer_iterations"] == int(solo.outer_iterations[0])

    def test_cross_request_hits_are_counted(self, service):
        before = obs.metrics().snapshot()["counters"]
        first = service.submit("sweep", "g1", {})
        service.wait(first.id, timeout=60)
        second = service.submit("sweep", "g1", {})
        service.wait(second.id, timeout=60)
        after = obs.metrics().snapshot()["counters"]
        delta = after.get("serve.cache_cross_request_hits", 0) - before.get(
            "serve.cache_cross_request_hits", 0
        )
        assert delta >= 1
        assert service.cache.factorizations == 1


class TestOtherJobKinds:
    def test_mc_job(self, service):
        job = service.submit(
            "mc", "g1", {"samples": 6, "sigma_width": 0.05, "seed": 1}
        )
        done = service.wait(job.id, timeout=120)
        assert done.state == "done", done.error
        assert done.result["n_samples"] == 6
        assert done.result["mean_worst_drop"] > 0
        assert done.result["refactorizations"] == 0  # width-only contract
        # The MC driver leases the baseline for its run only.
        assert not service.cache._leases

    def test_mc_without_variation_fails_cleanly(self, service):
        job = service.submit("mc", "g1", {"samples": 4})
        done = service.wait(job.id, timeout=60)
        assert done.state == "failed"
        assert "varies nothing" in done.error

    def test_sensitivity_job(self, service):
        job = service.submit(
            "sensitivity", "g1", {"params": ["width", "tsv"], "top": 3}
        )
        done = service.wait(job.id, timeout=120)
        assert done.state == "done", done.error
        assert done.result["adjoint_converged"]
        assert len(done.result["top"]) == 3
        assert not service.cache._leases

    def test_optimize_job(self, service):
        job = service.submit(
            "optimize", "g1", {"mode": "budget", "iterations": 2}
        )
        done = service.wait(job.id, timeout=180)
        assert done.state == "done", done.error
        assert done.result["worst_drop_after_v"] <= done.result[
            "worst_drop_before_v"
        ] + 1e-12
        assert not service.cache._leases

    def test_eco_job(self, service):
        job = service.submit(
            "eco", "g1", {"sweep": "strap", "candidates": 4, "seed": 2}
        )
        done = service.wait(job.id, timeout=120)
        assert done.state == "done", done.error
        assert done.result["candidates"] == 4
        assert done.result["eval_factorizations"] == 0  # SMW, no refactor
        assert not service.cache._leases


def _one_entry_service(**config) -> GridAnalysisService:
    """Two grids over a one-entry cache: every lookup of the other grid
    must evict unless a lease holds the resident entry."""
    svc = GridAnalysisService(
        ServiceConfig(
            batch_window=0.0, queue_depth=64, cache_entries=1, **config
        )
    )
    svc.register_grid("g1", SMALL)
    svc.register_grid("g2", OTHER)
    return svc


def _cross_request_hits() -> int:
    counters = obs.metrics().snapshot()["counters"]
    return counters.get("serve.cache_cross_request_hits", 0)


class TestCacheLeases:
    """Only the cache tracks holds: each engine leases what it uses, and
    one job finishing never releases another holder's lease."""

    def test_finished_job_keeps_an_open_sessions_base_resident(self):
        """An mc job on the session's grid used to drop the session's
        set-based pin, so a sweep on a second grid evicted its base."""
        svc = _one_entry_service(workers=2)
        key = stack_plane_signature(svc._stack("g1"))
        with svc, EcoSession(svc._stack("g1"), cache=svc.cache) as session:
            mc = svc.submit(
                "mc", "g1", {"samples": 4, "sigma_width": 0.05, "seed": 1}
            )
            assert svc.wait(mc.id, timeout=120).state == "done"
            sweep = svc.submit("sweep", "g2", {})
            assert svc.wait(sweep.id, timeout=60).state == "done"
            # g2 overflowed the one entry instead of evicting the held
            # base, and was itself evicted when its sweep released it.
            assert svc.cache._entries.get(key) is session.planes
            assert list(svc.cache._entries) == [key]
            assert svc.cache.pinned_overflow == 1
        assert not svc.cache._leases

    def test_evicted_grids_are_not_cross_request_hits(self):
        """g1, g2, g1 through one entry: three misses and no reuse, so
        no cross-request hit (a service-side set of every signature
        ever seen used to count the third sweep as one)."""
        svc = _one_entry_service(workers=1)
        before = _cross_request_hits()
        with svc:
            for grid in ("g1", "g2", "g1"):
                job = svc.submit("sweep", grid, {})
                assert svc.wait(job.id, timeout=60).state == "done"
        assert (svc.cache.hits, svc.cache.misses) == (0, 3)
        assert _cross_request_hits() == before

    def test_wire_mc_keeps_other_grids_resident(self):
        """A wire-field mc job factors each draw outside the cache: on
        a one-entry cache it leaves g1's warm entry resident (a leased
        g2 baseline used to evict it) and g1's next sweep is a hit."""
        svc = _one_entry_service(workers=1)
        key = stack_plane_signature(svc._stack("g1"))
        with svc:
            first = svc.submit("sweep", "g1", {})
            assert svc.wait(first.id, timeout=60).state == "done"
            cache = svc.cache
            before = (cache.factorizations, cache.misses, cache.evictions)
            mc = svc.submit(
                "mc", "g2", {"samples": 3, "sigma_wire": 0.05, "seed": 1}
            )
            done = svc.wait(mc.id, timeout=120)
            assert done.state == "done", done.error
            assert done.result["refactorizations"] == 3 * 2  # 2 tiers
            assert list(cache._entries) == [key]
            assert (cache.factorizations, cache.misses, cache.evictions) == before
            again = svc.submit("sweep", "g1", {})
            assert svc.wait(again.id, timeout=60).state == "done"
            assert cache.factorizations == before[0]
        assert not svc.cache._leases

    def test_mixed_soak_leaks_no_lease(self):
        """24 concurrent jobs of every kind over two grids through a
        one-entry cache: every job finishes, no lease survives the
        drain, and the byte gauge matches a fresh recount."""
        svc = _one_entry_service(workers=4)
        kinds = [
            ("sweep", lambda k: {"scenarios": [{"name": "s", "load_scale": 0.9 + 0.05 * k}]}),
            ("mc", lambda k: {"samples": 4, "sigma_width": 0.05, "seed": k}),
            ("sensitivity", lambda k: {"params": ["width"], "top": 3}),
            ("optimize", lambda k: {"mode": "budget", "iterations": 1}),
            ("optimize", lambda k: {"mode": "placement", "iterations": 1}),
            ("eco", lambda k: {"sweep": "strap", "candidates": 2, "seed": k}),
        ]
        with svc:
            jobs = [
                svc.submit(kind, grid, params(k + rep))
                for rep in range(2)
                for k, (kind, params) in enumerate(kinds)
                for grid in ("g1", "g2")
            ]
            done = [svc.wait(job.id, timeout=300) for job in jobs]
        assert len(done) == 24
        assert [job.state for job in done] == ["done"] * 24, [
            job.error for job in done if job.state != "done"
        ]
        cache = svc.cache
        assert not cache._leases
        assert cache.factor_bytes == sum(
            system.memory_bytes for system in cache._entries.values()
        )
        assert len(cache) <= svc.config.cache_entries


class TestTimeouts:
    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
    def test_config_rejects_a_timeout_no_job_can_meet(self, bad):
        with pytest.raises(ReproError, match="default_timeout"):
            ServiceConfig(default_timeout=bad)

    @pytest.mark.parametrize("bad", [-1.0, 0])
    def test_submit_rejects_a_non_positive_timeout(self, bad):
        svc = GridAnalysisService(ServiceConfig(queue_depth=2))
        svc.register_grid("g1", SMALL)
        with pytest.raises(ReproError, match="'timeout'"):
            svc.submit("sweep", "g1", {}, timeout=bad)
        assert svc.queue.depth == 0


class TestBackpressureAndMetrics:
    def test_submit_raises_queue_full(self):
        svc = GridAnalysisService(ServiceConfig(queue_depth=2))
        svc.register_grid("g1", SMALL)
        # Dispatcher not started: jobs stay queued.
        svc.submit("sweep", "g1", {})
        svc.submit("sweep", "g1", {})
        with pytest.raises(QueueFullError):
            svc.submit("sweep", "g1", {})

    def test_metrics_snapshot_shape(self, service):
        job = service.submit("sweep", "g1", {})
        service.wait(job.id, timeout=60)
        snap = service.metrics()
        assert snap["grids"] == ["g1"]
        assert snap["queue"]["max_depth"] == 16
        assert snap["cache"]["factorizations"] >= 1
        assert snap["counters"]["serve.jobs_submitted"] >= 1
        assert "serve.queue_depth" in snap["gauges"]

    def test_shutdown_fails_still_queued_jobs(self):
        svc = GridAnalysisService(ServiceConfig(workers=1))
        svc.register_grid("g1", SMALL)
        job = svc.submit("sweep", "g1", {})
        # Never started: close() must not hang, and the queued job must
        # not be reported as runnable afterwards.
        svc.close()
        assert job.state in ("queued", "failed")
        with pytest.raises(ReproError):
            svc.submit("sweep", "g1", {})


def test_sweep_results_survive_json_round_trip(service):
    """The HTTP layer serializes results with json; repr round-trip of
    Python floats is exact, so parity holds over the wire too."""
    import json

    job = service.submit("sweep", "g1", {"scenarios": [{"name": "a"}]})
    done = service.wait(job.id, timeout=60)
    row = done.result["scenarios"][0]
    restored = json.loads(json.dumps(row))
    assert restored["pillar_v0"] == row["pillar_v0"]
    assert np.array(restored["pillar_v0"]).dtype == np.float64
