"""Span tracing: flat completed-span events, nested at export time.

Two recording styles, one event shape:

* ``with tracer.span("factorize", tier=l):`` -- for blocks that are
  only ever traced; it costs nothing when tracing is off.
* ``tracer.add_complete("cvn", t0, dt, tier=l)`` -- records an interval
  someone already measured.  :class:`~repro.obs.session.Stopwatch`, the
  one timer for intervals an engine also reports as a number
  (``with obs.Stopwatch("cvn", tier=l) as sw: ...; phase += sw.seconds``),
  records its span this way, and so does the service's fan-out of one
  batch measurement into one span per coalesced job.

Both append a :class:`SpanEvent` carrying absolute start, duration, and
the **recording thread's id**.  Within one thread all spans share one
monotonic clock, so temporal containment *is* the nesting relation and
the exporters recover each thread's span tree with a stack walk over
that thread's events sorted by start time (see
:mod:`repro.obs.export`).  Spans from different threads -- a service's
worker pool all reporting into one tracer -- land in separate lanes and
never corrupt each other's nesting walk.  Nothing in the hot path
maintains parent pointers.

The tracer is thread-safe: event recording, :meth:`Tracer.extend`, and
:meth:`Tracer.clear` serialize on one lock, so concurrent workers can
share a tracer (and a ``--profile`` session can absorb worker-thread
spans) without tearing the event list.  The *disabled* path takes no
lock: :meth:`Tracer.span` returns the shared :data:`NULL_SPAN`
singleton and :meth:`Tracer.add_complete` returns immediately -- no
per-event allocation when nobody is watching.
"""

from __future__ import annotations

import threading
import time


class SpanEvent:
    """One completed span: name, absolute start (ns), duration (ns),
    and the OS thread id it was recorded on (0 = unknown/legacy)."""

    __slots__ = ("name", "t0_ns", "dur_ns", "attrs", "tid")

    def __init__(
        self,
        name: str,
        t0_ns: int,
        dur_ns: int,
        attrs: dict | None,
        tid: int = 0,
    ):
        self.name = name
        self.t0_ns = t0_ns
        self.dur_ns = dur_ns
        self.attrs = attrs
        self.tid = tid

    @property
    def end_ns(self) -> int:
        return self.t0_ns + self.dur_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanEvent({self.name!r}, t0={self.t0_ns}, dur={self.dur_ns})"


class _NullSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """Live context-manager span; records its event on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_t0_ns")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict | None):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        self._t0_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        self._tracer._emit(
            SpanEvent(
                self._name,
                self._t0_ns,
                t1 - self._t0_ns,
                self._attrs,
                threading.get_ident(),
            )
        )
        return False


class Tracer:
    """Collects :class:`SpanEvent` records when enabled.

    ``thread_names`` maps every thread id seen so far to the thread's
    name at recording time, so exporters can label lanes
    ("repro-serve-worker_0") instead of printing raw ids.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.events: list[SpanEvent] = []
        self.thread_names: dict[int, str] = {}
        self._lock = threading.Lock()

    def _emit(self, event: SpanEvent) -> None:
        with self._lock:
            self.events.append(event)
            if event.tid not in self.thread_names:
                self.thread_names[event.tid] = threading.current_thread().name

    def span(self, name: str, **attrs):
        """Context manager timing the enclosed block (or a no-op)."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, attrs or None)

    def add_complete(self, name: str, t0_seconds: float, dur_seconds: float, **attrs) -> None:
        """Record an already-measured ``perf_counter`` interval.

        ``time.perf_counter()`` and ``time.perf_counter_ns()`` share one
        clock, so float-second starts convert directly into the same
        timeline the context-manager spans live on.
        """
        if not self.enabled:
            return
        self._emit(
            SpanEvent(
                name,
                int(t0_seconds * 1e9),
                max(0, int(dur_seconds * 1e9)),
                attrs or None,
                threading.get_ident(),
            )
        )

    def extend(self, events: list[SpanEvent], thread_names: dict[int, str] | None = None) -> None:
        """Absorb already-recorded events (a finished job session's
        spans forwarded into a service-lifetime profile trace)."""
        with self._lock:
            self.events.extend(events)
            if thread_names:
                for tid, name in thread_names.items():
                    self.thread_names.setdefault(tid, name)

    def clear(self) -> None:
        with self._lock:
            self.events.clear()
            self.thread_names.clear()
