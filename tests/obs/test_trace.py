"""Tracer behaviour: span recording, the disabled fast path, sessions."""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.obs import NULL_SPAN, Stopwatch, Tracer


class TestEnabledTracer:
    def test_span_records_event_with_attrs(self):
        tr = Tracer(enabled=True)
        with tr.span("factorize", tier=2):
            pass
        (event,) = tr.events
        assert event.name == "factorize"
        assert event.attrs == {"tier": 2}
        assert event.dur_ns >= 0
        assert event.end_ns == event.t0_ns + event.dur_ns

    def test_nested_spans_are_time_contained(self):
        tr = Tracer(enabled=True)
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        inner, outer = tr.events  # inner exits (and records) first
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.t0_ns <= inner.t0_ns
        assert inner.end_ns <= outer.end_ns

    def test_add_complete_shares_the_perf_counter_timeline(self):
        tr = Tracer(enabled=True)
        with tr.span("ctx"):
            t0 = time.perf_counter()
            tr.add_complete("flat", t0, 1e-6, step=3)
        flat, ctx = tr.events
        assert flat.name == "flat"
        assert flat.attrs == {"step": 3}
        # The flat event's absolute start must land inside the
        # surrounding context-manager span.
        assert ctx.t0_ns <= flat.t0_ns <= ctx.end_ns

    def test_clear(self):
        tr = Tracer(enabled=True)
        with tr.span("a"):
            pass
        tr.clear()
        assert tr.events == []


class TestDisabledFastPath:
    def test_span_returns_shared_null_singleton(self):
        tr = Tracer(enabled=False)
        assert tr.span("anything", tier=1) is NULL_SPAN
        assert tr.span("other") is NULL_SPAN

    def test_disabled_run_emits_nothing(self):
        tr = Tracer(enabled=False)
        with tr.span("a"):
            pass
        tr.add_complete("b", 0.0, 1.0)
        assert tr.events == []

    def test_disabled_span_allocates_no_per_event_objects(self):
        """The satellite contract: a disabled-telemetry run allocates no
        per-event objects -- every span() call returns the same object
        and the null span cannot even hold attributes."""
        tr = Tracer(enabled=False)
        spans = {id(tr.span("s", k=i)) for i in range(100)}
        assert spans == {id(NULL_SPAN)}
        assert not hasattr(NULL_SPAN, "__dict__")
        with pytest.raises(AttributeError):
            NULL_SPAN.anything = 1


class TestSessions:
    def test_default_session_has_tracing_off(self):
        assert obs.tracer().enabled is False
        assert obs.span("x") is NULL_SPAN

    def test_session_pushes_and_pops(self):
        default = obs.active()
        with obs.session(trace=True) as tel:
            assert obs.active() is tel
            assert obs.tracer().enabled
            with obs.span("work"):
                pass
        assert obs.active() is default
        assert [e.name for e in tel.tracer.events] == ["work"]

    def test_session_isolates_counters(self):
        obs.add("outer.count")
        with obs.session() as tel:
            obs.add("inner.count")
            assert obs.metrics() is tel.registry
        assert "inner.count" not in obs.metrics().counters
        assert tel.registry.counter("inner.count").value == 1

    def test_series_disabled_by_default_session(self):
        assert obs.active_series("cg.residual") is None
        assert "cg.residual" not in obs.metrics().series_store
        with obs.session(series=False):
            assert obs.active_series("cg.residual") is None
            assert "cg.residual" not in obs.metrics().series_store

    def test_series_capture_inside_session(self):
        with obs.session(series=True) as tel:
            handle = obs.active_series("cg.residual")
            assert handle is not None
            handle.append(1, 0.25)
            assert obs.active_series("cg.residual") is handle
            handle.append(2, 0.125)
        assert tel.registry.series("cg.residual").points() == [
            (1.0, 0.25),
            (2.0, 0.125),
        ]

    def test_session_pops_on_exception(self):
        default = obs.active()
        with pytest.raises(RuntimeError):
            with obs.session():
                raise RuntimeError("boom")
        assert obs.active() is default


class TestStopwatch:
    def test_always_measures_seconds(self):
        with Stopwatch("bench.block") as sw:
            pass
        assert sw.seconds >= 0.0

    def test_records_span_only_when_tracing(self):
        with Stopwatch("quiet"):
            pass
        assert obs.tracer().events == []
        with obs.session(trace=True) as tel:
            with Stopwatch("loud", kind="test"):
                pass
        (event,) = tel.tracer.events
        assert event.name == "loud"
        assert event.attrs == {"kind": "test"}

    def test_unnamed_stopwatch_records_no_span(self):
        with obs.session(trace=True) as tel:
            with Stopwatch(None) as sw:
                pass
        assert sw.seconds >= 0.0
        assert tel.tracer.events == []

    def test_attrs_set_inside_the_block_land_on_the_span(self):
        with obs.session(trace=True) as tel:
            with Stopwatch("solve", columns=4) as sw:
                sw.attrs["converged"] = 3
        (event,) = tel.tracer.events
        assert event.attrs == {"columns": 4, "converged": 3}

    def test_seconds_are_set_when_the_block_raises(self):
        sw = Stopwatch("failing")
        with pytest.raises(RuntimeError):
            with sw:
                time.sleep(0.001)
                raise RuntimeError("boom")
        assert sw.seconds >= 0.001
