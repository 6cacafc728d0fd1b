"""Labeled families, bucket histograms, forwarding, and their deltas."""

from __future__ import annotations

import json

import pytest

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    BucketHistogram,
    MetricsRegistry,
    snapshot_delta,
)


def test_bucket_histogram_counts_and_overflow():
    h = BucketHistogram("lat", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.counts == [1, 2, 1, 1]  # last slot is +Inf overflow
    assert h.cumulative() == [1, 3, 4, 5]
    assert h.count == 5
    assert h.total == pytest.approx(56.05)
    assert h.min == pytest.approx(0.05) and h.max == pytest.approx(50.0)


def test_bucket_boundaries_are_inclusive():
    h = BucketHistogram("lat", buckets=(1.0, 2.0))
    h.observe(1.0)  # le="1" catches exactly 1.0
    assert h.counts == [1, 0, 0]


def test_bucket_ladder_validation():
    with pytest.raises(ValueError):
        BucketHistogram("bad", buckets=())
    with pytest.raises(ValueError):
        BucketHistogram("bad", buckets=(2.0, 1.0))


def test_labeled_counter_children():
    reg = MetricsRegistry()
    reg.add_labeled("http", {"method": "GET", "status": "200"}, 2)
    reg.add_labeled("http", {"method": "GET", "status": "200"})
    reg.add_labeled("http", {"method": "POST", "status": "429"})
    family = reg.labeled_counters["http"]
    assert family.labels(method="GET", status="200").value == 3
    assert family.labels(method="POST", status="429").value == 1
    with pytest.raises(ValueError, match="missing label"):
        family.labels(method="GET")


def test_observe_bucket_uses_default_ladder():
    reg = MetricsRegistry()
    reg.observe_bucket("serve.phase", 0.02, {"phase": "solve"})
    family = reg.bucket_histograms["serve.phase"]
    assert family.buckets == tuple(DEFAULT_LATENCY_BUCKETS)
    child = family.labels(phase="solve")
    assert child.count == 1


def test_snapshot_carries_labeled_sections():
    reg = MetricsRegistry()
    reg.add_labeled("jobs", {"state": "done"}, 4)
    reg.observe_bucket("lat", 0.3, {"kind": "mc"})
    snap = reg.snapshot()
    assert snap["labeled_counters"]["jobs"]["series"][json.dumps(["done"])] == 4
    series = snap["bucket_histograms"]["lat"]["series"][json.dumps(["mc"])]
    assert series["count"] == 1 and series["sum"] == pytest.approx(0.3)
    # Plain registries keep the compact counters/gauges shape.
    assert "labeled_counters" not in MetricsRegistry().snapshot()


def test_forwarding_mirrors_every_update_kind():
    parent = MetricsRegistry()
    child = MetricsRegistry()
    child.forward_to = parent
    child.add("c", 2)
    child.set_gauge("g", 1.5)
    child.add_labeled("lc", {"k": "v"}, 3)
    child.observe_bucket("bh", 0.1, {"k": "v"})
    child.observe_bucket("h", 0.25)

    assert parent.counters["c"].value == 2
    assert parent.gauges["g"].value == 1.5
    assert parent.labeled_counters["lc"].labels(k="v").value == 3
    assert parent.bucket_histograms["bh"].labels(k="v").count == 1
    assert parent.bucket_histograms["h"].labels().count == 1
    assert parent.ops == child.ops == 5
    # The child keeps its own copy (per-job attribution).
    assert child.counters["c"].value == 2


def test_snapshot_delta_on_labeled_sections():
    reg = MetricsRegistry()
    reg.add_labeled("jobs", {"state": "done"}, 1)
    reg.observe_bucket("lat", 0.02, {"phase": "solve"})
    before = reg.snapshot()

    reg.add_labeled("jobs", {"state": "done"}, 4)
    reg.add_labeled("jobs", {"state": "failed"}, 1)
    reg.observe_bucket("lat", 0.2, {"phase": "solve"})
    reg.observe_bucket("lat", 2.0, {"phase": "solve"})
    delta = snapshot_delta(before, reg.snapshot())

    jobs = delta["labeled_counters"]["jobs"]["series"]
    assert jobs[json.dumps(["done"])] == 4
    assert jobs[json.dumps(["failed"])] == 1
    lat = delta["bucket_histograms"]["lat"]["series"][json.dumps(["solve"])]
    assert lat["count"] == 2
    assert lat["sum"] == pytest.approx(2.2)
    assert sum(lat["counts"]) == 2


def test_snapshot_delta_without_labeled_sections_is_unchanged():
    reg = MetricsRegistry()
    reg.add("plain", 1)
    before = reg.snapshot()
    reg.add("plain", 2)
    delta = snapshot_delta(before, reg.snapshot())
    assert delta["counters"] == {"plain": 2}
    assert "labeled_counters" not in delta
    assert "bucket_histograms" not in delta
