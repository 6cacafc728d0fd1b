"""Telemetry sessions: the registry/tracer pair the engines report to.

A :class:`Telemetry` object bundles one :class:`~repro.obs.registry.MetricsRegistry`
with one :class:`~repro.obs.trace.Tracer` and a flag for convergence-series
capture.  A module-level stack holds the active session; the bottom entry
always exists (counters on, tracing and series off), so engine code calls
:func:`metrics` / :func:`tracer` unconditionally -- there is no None case.

``with obs.session(trace=True) as tel:`` pushes a fresh session for the
duration of a profiled run (the ``--profile`` flag and ``repro profile``
subcommand do exactly this), isolating its counters and spans from
whatever accumulated before.

Two stacks, two scopes:

* the **process stack** (``session()``) is what single-threaded CLI runs
  use -- one session active for everyone;
* a **thread-local overlay** (``scoped(tel)``) lets a service worker run
  one job inside its own session without disturbing the sessions other
  worker threads (or the main thread) see.  :func:`active` consults the
  overlay first, so engine code is oblivious; :func:`current_global`
  skips the overlay for code that must reach the process-wide session
  (e.g. forwarding a finished job's spans into a ``--profile`` trace).

Engines follow one idiom::

    reg = obs.metrics()                            # hoisted once per solve
    ...
    reg.add("batch.column_solves", idx.size)       # always-on scalar
    with obs.Stopwatch("cvn", tier=l) as sw:       # timed; a span when tracing
        v = op.solve(l, ...)
    phase["cvn"] += sw.seconds

:class:`Stopwatch` is the one timer for an interval an engine reports:
it always measures ``.seconds`` and records the span only when the
active tracer is enabled.  ``Stopwatch(None)`` times a block that has
no span.  Blocks that are only ever traced use ``obs.span(...)``.

Series capture is the exception: it allocates per iteration, so inner
solvers hoist ``series = obs.active_series("cg.residual")`` and append
only when it is not None.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.obs.registry import MetricsRegistry, Series
from repro.obs.trace import Tracer


class Telemetry:
    """One registry + tracer + series flag; what a session activates."""

    def __init__(self, *, trace: bool = False, series: bool = False):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(enabled=trace)
        self.series_enabled = series


# Bottom of the stack is the always-present default session: counters
# accumulate process-wide, tracing and series capture stay off.
_active: list[Telemetry] = [Telemetry()]

# Per-thread overlay for service workers running scoped job sessions.
_tls = threading.local()


def _overlay() -> list[Telemetry]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def active() -> Telemetry:
    stack = getattr(_tls, "stack", None)
    if stack:
        return stack[-1]
    return _active[-1]


def current_global() -> Telemetry:
    """The process-wide session, ignoring any thread-local overlay."""
    return _active[-1]


def metrics() -> MetricsRegistry:
    return active().registry


def tracer() -> Tracer:
    return active().tracer


@contextmanager
def session(*, trace: bool = True, series: bool = True):
    """Push a fresh telemetry session; pop it on exit.

    The session object stays readable after the block closes, so callers
    export its trace/metrics once the workload finishes.
    """
    tel = Telemetry(trace=trace, series=series)
    _active.append(tel)
    try:
        yield tel
    finally:
        _active.pop()


@contextmanager
def scoped(tel: Telemetry):
    """Make ``tel`` the active session *for the current thread only*.

    This is how the service attributes work to jobs: each worker wraps a
    job's execution in ``scoped(job_tel)`` so every engine-level counter
    and span lands in the job's own registry/tracer, while other threads
    keep seeing the process session.  Typically ``tel.registry.forward_to``
    points at the process registry so service-wide totals stay monotonic.
    """
    stack = _overlay()
    stack.append(tel)
    try:
        yield tel
    finally:
        stack.pop()


# -- convenience wrappers over the active session ------------------------

def span(name: str, **attrs):
    return active().tracer.span(name, **attrs)


def add(name: str, n: int = 1) -> None:
    active().registry.add(name, n)


def set_gauge(name: str, value: float) -> None:
    active().registry.set_gauge(name, value)


def observe_bucket(name: str, value: float, labels: dict | None = None) -> None:
    active().registry.observe_bucket(name, value, labels)


def add_labeled(name: str, labels: dict, n: int = 1) -> None:
    active().registry.add_labeled(name, labels, n)


def active_series(name: str) -> Series | None:
    """Series handle when capture is on, else None.

    Inner solvers hoist this once outside their iteration loop; the
    per-iteration cost when capture is off is a None check.
    """
    tel = active()
    if not tel.series_enabled:
        return None
    return tel.registry.series(name)


class Stopwatch:
    """``with obs.Stopwatch(name, **attrs) as sw:`` -- time a block.

    Always measures: ``.seconds`` holds the block's duration after it
    exits, also when it raised.  When ``name`` is not None and the
    active tracer is enabled, the block is also recorded as a span with
    ``attrs``; an attribute known only at the end of the block can be
    set on ``sw.attrs`` inside it.  ``Stopwatch(None)`` times a block
    without a span.
    """

    __slots__ = ("name", "attrs", "seconds", "_t0")

    def __init__(self, name: str | None, **attrs):
        self.name = name
        self.attrs = attrs
        self.seconds = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        if self.name is not None:
            tr = active().tracer
            if tr.enabled:
                tr.add_complete(self.name, self._t0, self.seconds, **self.attrs)
        return False
