"""Telemetry overhead guard: disabled-mode instrumentation under 2%.

The engines report counters unconditionally, time their spans with
``obs.Stopwatch`` blocks (which always measure and record only when
tracing is on) and guard series capture behind a hoisted ``None``
handle.  The contract is that this always-on residue costs under 2% of
a real workload -- the 16-scenario C1 droop sweep of E17.

A/B wall-clock diffing cannot resolve a 2% bound on shared hardware, so
the guard is deterministic instead:

1. run the sweep once under a *fully enabled* session and count every
   instrumentation action it performed: registry ops, series points,
   and the timed blocks -- one per recorded span, plus the kernel's
   span-less ``propagate`` block (one per ``cvn``) and ``vda`` block
   (at most one per outer iteration, i.e. per tier-0 ``cvn``);
2. measure the disabled-path unit costs in tight loops (a registry
   counter add; an ``enabled`` guard check; a ``Stopwatch`` block with
   three attributes under a disabled tracer -- the ``cvn`` shape, and
   dearer than a ``Stopwatch(None)`` or a disabled ``tracer.span``);
3. assert  ops x cost_add + blocks x cost_block + series x cost_guard
   <  2% of the measured workload wall time.
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.transient_batch import BatchedTransientSolver
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SpanEvent, Tracer
from repro.scenarios import ScenarioSet, load_step_sweep

PAPER_SCALE_CIRCUIT = "C1"
N_SCENARIOS = 16
DT = 0.5e-9
T_END = 2.5e-9
T_STEP = 0.5e-9
OVERHEAD_BUDGET = 0.02


def droop_corners(n: int) -> ScenarioSet:
    levels = tuple(round(0.4 + 1.5 * k / (n - 1), 3) for k in range(n))
    return ScenarioSet(load_step_sweep(levels, t_step=T_STEP, before=0.2))


def run_sweep(stack) -> None:
    solver = BatchedTransientSolver(
        stack, droop_corners(N_SCENARIOS), 2e-9, DT
    )
    solver.run(T_END)


def _per_call(func, n: int = 200_000) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        func()
    return (time.perf_counter() - t0) / n


def test_obs_overhead_smoke(circuit_cache, bench_once, benchmark):
    stack = circuit_cache(PAPER_SCALE_CIRCUIT)

    # 1. Count the instrumentation actions of one fully enabled run.
    with obs.session(trace=True, series=True) as tel:
        run_sweep(stack)
    n_ops = tel.registry.ops
    n_spans = len(tel.tracer.events)
    n_series = sum(len(s) for s in tel.registry.series_store.values())
    cvn = [e for e in tel.tracer.events if e.name == "cvn"]
    n_propagate = len(cvn)
    n_vda = sum(1 for e in cvn if e.attrs["tier"] == 0)
    n_blocks = n_spans + n_propagate + n_vda

    # 2. Disabled-path unit costs, measured in tight loops (the default
    #    session: tracing and series off).
    reg = MetricsRegistry()
    cost_add = _per_call(lambda: reg.add("bench.op"))
    disabled = Tracer(enabled=False)
    cost_guard = _per_call(lambda: disabled.enabled)

    def timed_block():
        with obs.Stopwatch("cvn", outer=1, tier=0, columns=N_SCENARIOS):
            pass

    assert not obs.tracer().enabled
    cost_block = _per_call(timed_block)

    # 3. Workload wall time (disabled mode: the default session).
    t0 = time.perf_counter()
    bench_once(run_sweep, stack)
    workload_seconds = time.perf_counter() - t0

    overhead_seconds = (
        n_ops * cost_add + n_blocks * cost_block + n_series * cost_guard
    )
    ratio = overhead_seconds / workload_seconds
    assert ratio < OVERHEAD_BUDGET, (
        f"instrumentation bound {overhead_seconds * 1e3:.2f} ms is "
        f"{ratio:.1%} of the {workload_seconds:.2f}s sweep "
        f"(budget {OVERHEAD_BUDGET:.0%}; {n_ops} registry ops, "
        f"{n_blocks} timed blocks ({n_spans} spans), "
        f"{n_series} series points)"
    )
    benchmark.extra_info.update(
        {
            "registry_ops": n_ops,
            "span_events": n_spans,
            "timed_blocks": n_blocks,
            "series_points": n_series,
            "cost_add_ns": cost_add * 1e9,
            "cost_block_ns": cost_block * 1e9,
            "cost_guard_ns": cost_guard * 1e9,
            "overhead_bound_seconds": overhead_seconds,
            "workload_seconds": workload_seconds,
            "overhead_ratio": ratio,
        }
    )


def test_service_mode_overhead_smoke(circuit_cache, bench_once, benchmark):
    """The service's *always-on* path stays under the same 2% budget.

    Every service batch runs with tracing enabled (spans feed the
    flight ring) and a per-job registry forwarding into the process
    one.  Same deterministic method as above: count one enabled run's
    actions, multiply by measured unit costs of the service-mode
    primitives (forwarded counter add, enabled span record, flight-ring
    append), and bound the sum against the workload wall time.
    """
    stack = circuit_cache(PAPER_SCALE_CIRCUIT)

    with obs.session(trace=True, series=False) as tel:
        run_sweep(stack)
    n_ops = tel.registry.ops
    n_spans = len(tel.tracer.events)

    parent = MetricsRegistry()
    child = MetricsRegistry()
    child.forward_to = parent
    cost_add_fwd = _per_call(lambda: child.add("bench.op"))

    enabled = Tracer(enabled=True)

    def record_span():
        enabled.add_complete("x", 0.0, 0.0)
        if len(enabled.events) >= 100_000:
            enabled.clear()

    cost_span = _per_call(record_span, n=100_000)

    flight = FlightRecorder(capacity=4096)
    event = SpanEvent("x", 0, 0, None, 1)
    cost_flight = _per_call(lambda: flight.record(event))

    t0 = time.perf_counter()
    bench_once(run_sweep, stack)
    workload_seconds = time.perf_counter() - t0

    overhead_seconds = n_ops * cost_add_fwd + n_spans * (cost_span + cost_flight)
    ratio = overhead_seconds / workload_seconds
    assert ratio < OVERHEAD_BUDGET, (
        f"service-mode bound {overhead_seconds * 1e3:.2f} ms is "
        f"{ratio:.1%} of the {workload_seconds:.2f}s sweep "
        f"(budget {OVERHEAD_BUDGET:.0%}; {n_ops} forwarded ops, "
        f"{n_spans} spans through tracer + flight ring)"
    )
    benchmark.extra_info.update(
        {
            "registry_ops": n_ops,
            "span_events": n_spans,
            "cost_add_forwarded_ns": cost_add_fwd * 1e9,
            "cost_span_record_ns": cost_span * 1e9,
            "cost_flight_append_ns": cost_flight * 1e9,
            "overhead_bound_seconds": overhead_seconds,
            "workload_seconds": workload_seconds,
            "overhead_ratio": ratio,
        }
    )
