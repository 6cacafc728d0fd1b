"""Zero-dependency telemetry: metrics registry, span tracing, exporters.

Public surface (see docs/observability.md):

* :func:`session` / :class:`Telemetry` -- push a profiling session;
  :func:`metrics` / :func:`tracer` read the active one (always present).
  :func:`scoped` overlays a session on the current thread only (how the
  service attributes work to jobs); :func:`current_global` reaches past
  the overlay to the process-wide session.
* :class:`MetricsRegistry` instruments via :func:`add`,
  :func:`set_gauge`, :func:`observe_bucket`, :func:`add_labeled` and
  :func:`active_series`: counters, gauges, labeled counters, bucket
  histograms and convergence series.
* :class:`Stopwatch` is the one timer for an interval an engine
  reports (``.seconds``, plus a span when tracing); :func:`span` marks
  trace-only blocks.
* :mod:`repro.obs.export` -- Chrome trace-event JSON (Perfetto, one lane
  per recording thread), flat CSV round-trip, and :func:`span_summary`
  self-time aggregation.
* :class:`FlightRecorder` -- always-on bounded ring of recent spans
  (the service's crash/timeout trace source).
* :func:`render_prometheus` / :func:`validate_prometheus_text` --
  Prometheus text exposition of a registry snapshot, plus the in-tree
  promtool-style validator the tests use.
* :class:`JsonLogger` -- structured JSON access/job logs with a
  correlation id on every line.
* :func:`render_profile` -- the ``repro profile`` summary table.
"""

from repro.obs.export import (
    chrome_trace,
    read_csv_trace,
    span_summary,
    write_chrome_trace,
    write_csv_trace,
)
from repro.obs.flight import FlightRecorder
from repro.obs.logging import NULL_LOGGER, JsonLogger
from repro.obs.profile import render_profile
from repro.obs.promexport import render_prometheus, validate_prometheus_text
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    BucketHistogram,
    Counter,
    Gauge,
    LabeledCounter,
    MetricsRegistry,
    Series,
    snapshot_delta,
)
from repro.obs.session import (
    Stopwatch,
    Telemetry,
    active,
    active_series,
    add,
    add_labeled,
    current_global,
    metrics,
    observe_bucket,
    scoped,
    session,
    set_gauge,
    span,
    tracer,
)
from repro.obs.trace import NULL_SPAN, SpanEvent, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "NULL_LOGGER",
    "NULL_SPAN",
    "BucketHistogram",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "JsonLogger",
    "LabeledCounter",
    "MetricsRegistry",
    "Series",
    "SpanEvent",
    "Stopwatch",
    "Telemetry",
    "Tracer",
    "active",
    "active_series",
    "add",
    "add_labeled",
    "chrome_trace",
    "current_global",
    "metrics",
    "observe_bucket",
    "read_csv_trace",
    "render_profile",
    "render_prometheus",
    "scoped",
    "session",
    "set_gauge",
    "snapshot_delta",
    "span",
    "span_summary",
    "tracer",
    "validate_prometheus_text",
    "write_chrome_trace",
    "write_csv_trace",
]
