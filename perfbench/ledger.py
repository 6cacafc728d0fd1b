"""Per-layer ledger of the traced run, recorded from outside the program.

``install`` replaces public functions and methods of each layer with
wrappers, each installed under the name its callers look up (a module
function is patched in every loaded ``repro`` module that imported it;
a method is patched on its class).  A wrapper records one span -- name,
start, end, parent span, op id -- in memory; :meth:`Ledger.write_trace`
writes them out when the run ends.  A layer's time is the median over
ops of its per-op self time: span time minus the time of its child
spans.  Counts come from public results and properties, read by the
wrappers' post hooks.

The ledger keeps one open-span stack, so it assumes the traced calls
run on one thread -- true of the library workloads.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from spec import PER_LAYER


class Ledger:
    """Spans and per-op counts of one traced window."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, op id or None)
        self.spans: list = []
        self._open: list[int] = []
        self.op: int | None = None
        self.ops: list[int] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        # Per op: id -> size of each distinct factor / plane system used.
        self._factors: dict[int, dict[int, int]] = defaultdict(dict)
        self._systems: dict[int, dict[int, int]] = defaultdict(dict)
        # Factor caches: long-lived ones registered by the workload, plus
        # the ones an op creates (start from zero, dropped at op end so
        # the ledger never keeps their factors alive).
        self._watched: list = []
        self._in_op_caches: list = []
        self._cache_start: dict[int, tuple[int, int, int]] = {}

    # -- ops -------------------------------------------------------------
    def watch_cache(self, cache) -> None:
        self._watched.append(cache)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.ops.append(op)
        for cache in self._watched:
            self._cache_start[id(cache)] = _cache_counters(cache)

    def end_op(self) -> None:
        counts = self.counts[self.op]
        for cache in self._watched + self._in_op_caches:
            start = self._cache_start.get(id(cache), (0, 0, 0))
            now = _cache_counters(cache)
            counts["planes.cache_hits"] += now[0] - start[0]
            counts["planes.cache_misses"] += now[1] - start[1]
            counts["planes.cache_evictions"] += now[2] - start[2]
        self._in_op_caches.clear()
        self.op = None

    def count(self, name: str, value: float) -> None:
        if self.op is not None:
            self.counts[self.op][name] += value

    # -- post hooks ------------------------------------------------------
    def note_cache(self, cache) -> None:
        if self.op is not None:
            self._in_op_caches.append(cache)

    def note_factor(self, solver) -> None:
        if self.op is not None and id(solver) not in self._factors[self.op]:
            self._factors[self.op][id(solver)] = solver.factor_nnz

    def note_system(self, system) -> None:
        if self.op is not None and id(system) not in self._systems[self.op]:
            self._systems[self.op][id(system)] = system.memory_bytes

    # -- wrapping --------------------------------------------------------
    def wrap(self, name, fn, post=None):
        """``fn`` recording a span named ``name`` (a string, a callable
        of the call's ``(args, kwargs)``, or None for no span);
        ``post(ledger, args, kwargs, result)`` reads counts after the
        call."""
        ledger = self

        if name is None:

            @functools.wraps(fn)
            def counter(*args, **kwargs):
                result = fn(*args, **kwargs)
                post(ledger, args, kwargs, result)
                return result

            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            index = len(ledger.spans)
            ledger.spans.append(None)
            parent = ledger._open[-1] if ledger._open else -1
            ledger._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                ledger._open.pop()
                ledger.spans[index] = (span_name, start, end, parent, ledger.op)
            if post is not None:
                post(ledger, args, kwargs, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------
    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op: span name -> summed self time (seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_op: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op is not None:
                per_op[op][name] += (end - start) - child[i]
        return per_op

    def layer_metrics(self) -> dict[str, float]:
        """Every library per-layer metric: median over ops (0 for a
        layer the ops never entered)."""
        times = self.self_times()
        values: dict[str, list[float]] = defaultdict(list)
        for op in self.ops:
            counts = self.counts[op]
            factors = self._factors[op].values()
            systems = self._systems[op].values()
            for metric in PER_LAYER:
                if metric.startswith(("serve.", "obs.")):
                    continue
                if metric == "direct.factor_nnz":
                    value = statistics.fmean(factors) if factors else 0.0
                elif metric == "planes.factor_mb":
                    value = (
                        statistics.fmean(systems) / 2**20 if systems else 0.0
                    )
                elif PER_LAYER[metric][0] == "s":
                    value = times[op].get(metric[:-2], 0.0)
                else:
                    value = counts.get(metric, 0.0)
                values[metric].append(value)
        return {
            metric: float(statistics.median(v)) for metric, v in values.items()
        }

    def write_trace(self, path) -> None:
        """Chrome trace-event JSON (loads in Perfetto / chrome://tracing)."""
        if not self.spans:
            return
        base = min(start for _, start, _, _, _ in self.spans)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - base) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"op": op, "parent": parent},
            }
            for name, start, end, parent, op in self.spans
            if op is not None
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def _cache_counters(cache) -> tuple[int, int, int]:
    return (cache.hits, cache.misses, cache.evictions)


# ----------------------------------------------------------------------
def _patch_function(module, attr: str, wrapper) -> None:
    """Install ``wrapper`` wherever a ``repro`` module holds the original
    ``module.attr`` (``from x import f`` copies the reference)."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _trans_name(args, kwargs) -> str:
    trans = kwargs.get("trans", args[2] if len(args) > 2 else "N")
    return "direct.solve_transpose" if trans == "T" else "direct.solve"


def _post_factorize(ledger, args, kwargs, result) -> None:
    ledger.count("direct.factorizations", 1)


def _post_solve(ledger, args, kwargs, result) -> None:
    solver, shape = args[0], np.shape(args[1])
    ledger.count("direct.solve_calls", 1)
    ledger.count("direct.solve_columns", shape[1] if len(shape) == 2 else 1)
    ledger.note_factor(solver)


def _post_solve_free(ledger, args, kwargs, result) -> None:
    ledger.note_system(args[0])


def _post_batch_solve(ledger, args, kwargs, result) -> None:
    ledger.count("batch.outer_iterations", result.stats.outer_iterations)
    ledger.count("batch.column_solves", result.stats.column_solves)


def _post_transient_run(ledger, args, kwargs, result) -> None:
    ledger.count("transient.column_steps", result.stats.column_steps)


def _post_gradient(ledger, args, kwargs, result) -> None:
    ledger.count(
        "sensitivity.adjoint_outer_iterations", result.adjoint_outer_iterations
    )


def _post_cache_init(ledger, args, kwargs, result) -> None:
    ledger.note_cache(args[0])


def install(ledger: Ledger) -> None:
    """Wrap every traced layer entry point (idempotence not needed: one
    traced window per process)."""
    from repro.core import batch, planes, transient_batch, tsv, vda
    from repro.eco import edits, engine
    from repro.linalg import direct
    from repro.sensitivity import adjoint, params
    from repro.stochastic import models, montecarlo, stats

    methods = [
        (direct.DirectSolver, "__init__", "direct.factorize", _post_factorize),
        (direct.DirectSolver, "solve", _trans_name, _post_solve),
        (planes.ReducedPlaneSystem, "__init__", "planes.slice", None),
        (planes.ReducedPlaneSystem, "solve_free", "planes.solve_free",
         _post_solve_free),
        (planes.ReducedPlaneSystem, "assemble", "planes.scatter", None),
        (planes.ReducedPlaneSystem, "drawn_currents", "planes.drawn", None),
        (planes.PlaneFactorCache, "__init__", None, _post_cache_init),
        (batch.BatchedVPSolver, "__init__", "batch.init", None),
        (batch.BatchedVPSolver, "set_rhs", "batch.set_rhs", None),
        (batch.BatchedVPSolver, "solve", "batch.loop", _post_batch_solve),
        (transient_batch.BatchedTransientSolver, "__init__", "transient.init",
         None),
        (transient_batch.BatchedTransientSolver, "run", "transient.run",
         _post_transient_run),
        (models.VariationSpec, "sample", "stochastic.sample", None),
        (models.VariationDraw, "wire_stack", "stochastic.perturb", None),
        (stats.RunningFieldStats, "update_batch", "stochastic.stats", None),
        (adjoint.AdjointVPSolver, "solve", "sensitivity.adjoint", None),
        (params.ParameterSpace, "gradient", "sensitivity.param_grad", None),
        (engine.EcoBatchSolver, "__init__", "eco.engine_init", None),
        (engine.EcoBatchSolver, "solve", "eco.engine_solve", None),
    ]
    # Every VDA policy class that defines its own update (the batched
    # engine's column-split policy nests the others).
    pending = [vda.VDAPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "update" in vars(cls):
            methods.append((cls, "update", "vda.update", None))
    for cls, attr, name, post in methods:
        setattr(cls, attr, ledger.wrap(name, vars(cls)[attr], post))

    functions = [
        (planes, "stack_plane_signature", "planes.signature", None),
        (tsv, "plane_matrices", "planes.assemble", None),
        (stats, "quantile_table", "stochastic.stats", None),
        (stats, "convergence_trace", "stochastic.stats", None),
        (stats, "violation_probability", "stochastic.stats", None),
        (montecarlo, "run_monte_carlo", "stochastic.run", None),
        (adjoint, "adjoint_gradient", "sensitivity.gradient", _post_gradient),
        (edits, "compile_candidate", "eco.compile", None),
    ]
    for module, attr, name, post in functions:
        _patch_function(
            module, attr, ledger.wrap(name, getattr(module, attr), post)
        )
