"""MetricsRegistry instruments and snapshot deltas."""

from __future__ import annotations

import json

import pytest

from repro.obs import BucketHistogram, MetricsRegistry, snapshot_delta

#: Snapshot key of an unlabeled bucket histogram's one series.
UNLABELED = json.dumps([])


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.add("factorizations")
        reg.add("factorizations", 3)
        assert reg.counter("factorizations").value == 4

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.bucket_histogram("z") is reg.bucket_histogram("z")
        assert reg.series("s") is reg.series("s")

    def test_gauge_keeps_last_value(self):
        reg = MetricsRegistry()
        reg.set_gauge("bytes", 100)
        reg.set_gauge("bytes", 42.5)
        assert reg.gauge("bytes").value == 42.5

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 3.0, 2.0):
            reg.observe_bucket("dur", v)
        h = reg.bucket_histogram("dur").labels()
        assert h.count == 3
        assert h.total == pytest.approx(6.0)
        assert h.min == 1.0
        assert h.max == 3.0
        assert sum(h.counts) == 3

    def test_empty_histogram_summary_has_no_extremes(self):
        summary = BucketHistogram("dur").summary()
        assert summary["count"] == 0
        assert summary["min"] is None and summary["max"] is None

    def test_series_points(self):
        reg = MetricsRegistry()
        reg.series("residual").append(1, 1e-2)
        reg.series("residual").append(2, 1e-4)
        s = reg.series("residual")
        assert len(s) == 2
        assert s.points() == [(1.0, 1e-2), (2.0, 1e-4)]

    def test_ops_counts_every_update(self):
        reg = MetricsRegistry()
        reg.add("a")
        reg.set_gauge("b", 1.0)
        reg.observe_bucket("c", 1.0)
        reg.add_labeled("d", {"k": "v"})
        assert reg.ops == 4


class TestSnapshot:
    def test_snapshot_is_json_plain(self):
        reg = MetricsRegistry()
        reg.add("a", 2)
        reg.set_gauge("g", 3.0)
        reg.observe_bucket("h", 1.0)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"g": 3.0}
        assert snap["bucket_histograms"]["h"]["series"][UNLABELED]["count"] == 1
        assert "histograms" not in snap
        assert "series" not in snap

    def test_snapshot_include_series(self):
        reg = MetricsRegistry()
        reg.series("r").append(1, 0.5)
        snap = reg.snapshot(include_series=True)
        assert snap["series"]["r"] == {"steps": [1.0], "values": [0.5]}

    def test_delta_differences_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.add("a", 5)
        reg.observe_bucket("h", 1.0)
        before = reg.snapshot()
        reg.add("a", 2)
        reg.add("b")
        reg.observe_bucket("h", 3.0)
        reg.set_gauge("g", 7.0)
        delta = snapshot_delta(before, reg.snapshot())
        assert delta["counters"] == {"a": 2, "b": 1}
        assert delta["gauges"] == {"g": 7.0}
        h = delta["bucket_histograms"]["h"]["series"][UNLABELED]
        assert h["count"] == 1
        assert h["sum"] == pytest.approx(3.0)

    def test_delta_drops_untouched_instruments(self):
        reg = MetricsRegistry()
        reg.add("quiet", 4)
        reg.observe_bucket("h", 1.0)
        before = reg.snapshot()
        delta = snapshot_delta(before, reg.snapshot())
        assert delta["counters"] == {}
        assert "bucket_histograms" not in delta
