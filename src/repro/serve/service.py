"""The grid-analysis service: registry, dispatcher, workers, coalescing.

:class:`GridAnalysisService` is the transport-independent core behind
``repro serve``.  Clients register named grids once, then submit jobs
(``sweep``, ``mc``, ``sensitivity``, ``optimize``, ``eco``) that all
solve against **one** shared, concurrency-safe
:class:`~repro.core.planes.PlaneFactorCache` -- the expensive plane
factors of a popular grid are computed once and reused by every request
that follows (single-flight even when concurrent requests miss
together).

Request coalescing
------------------
Compatible ``sweep`` jobs -- same grid and same solver configuration --
that arrive within one batching window are merged into a single
:class:`~repro.core.batch.BatchedVPSolver` multi-RHS solve and fanned
back out per job.  Merging is exact, not approximate: every scenario
column of a batched solve follows the same iteration sequence a
standalone solve would (column independence, see
:mod:`repro.core.batch`), so each job's results are bitwise identical
to what it would have computed alone.  Scenario names are prefixed with
the owning job id inside the merged set (``ScenarioSet`` requires
unique names) and stripped again on fan-out.

The dispatcher thread owns the window: it pops a job, and -- if the job
is coalescible -- keeps pulling compatible jobs for up to
``ServiceConfig.batch_window`` seconds before handing the merged batch
to the worker pool.  Incompatible jobs wait out the window (bounded
head-of-line blocking, documented in docs/service.md).

Observability
-------------
Every batch executes inside its own telemetry session
(:func:`repro.obs.scoped`), so engine spans and counters attribute to
the job(s) being run: counters forward into the process registry
(service-wide totals stay monotonic), spans attach to each job for
``GET /jobs/<id>/trace``, feed the always-on :class:`FlightRecorder`
ring, and -- when ``repro serve --profile`` is active -- merge into the
service-lifetime trace.  Queue-wait / coalesce-wait / solve / total
phases land in the ``serve.job_phase_seconds{phase,kind}`` bucket
histogram; :meth:`metrics` renders the JSON snapshot and
:meth:`prometheus` the text exposition behind
``/metrics?format=prometheus``.  Job lifecycle transitions stream as
JSON log lines keyed by correlation id, and failed or timed-out jobs
dump a flight-recorder Chrome trace when ``flight_dump_dir`` is set.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from repro import obs
from repro.core.batch import BatchedVPSolver
from repro.core.planes import PlaneFactorCache, stack_plane_signature
from repro.eco import EcoSession
from repro.errors import ReproError
from repro.jobspec import JOB_SPECS, GridSpec, SweepJob, parse
from repro.scenarios.spec import Scenario, ScenarioSet
from repro.sensitivity import adjoint_gradient
from repro.serve.jobs import Job, JobQueue, JobState
from repro.stochastic import run_monte_carlo

#: Job kinds the service accepts (parameters: :mod:`repro.jobspec`).
JOB_KINDS = tuple(JOB_SPECS)


class UnknownGridError(ReproError):
    """Job references a grid name that was never registered."""


@dataclass
class ServiceConfig:
    """Tuning knobs of one service instance."""

    #: Worker threads executing jobs (numpy/scipy release the GIL in
    #: the factorization and back-substitution kernels, so solver
    #: throughput scales past one thread).
    workers: int = 4
    #: Max jobs in flight (queued + running) before submissions are
    #: rejected with 429.
    queue_depth: int = 64
    #: Coalescing window in seconds: how long the dispatcher holds a
    #: coalescible sweep job open for compatible arrivals.  0 disables
    #: coalescing.
    batch_window: float = 0.025
    #: Shared factor-cache bounds (entries / bytes; None = no byte cap).
    cache_entries: int = 8
    cache_bytes: int | None = None
    #: Default per-job execution timeout (seconds; None = no timeout).
    default_timeout: float | None = None
    #: Flight-recorder ring size (recent spans kept for crash forensics).
    flight_capacity: int = 4096
    #: Directory receiving flight-recorder Chrome-trace dumps for failed
    #: or timed-out jobs (None = no automatic dumps).
    flight_dump_dir: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ReproError("workers must be >= 1")
        if self.batch_window < 0:
            raise ReproError("batch_window must be >= 0")
        if self.flight_capacity < 1:
            raise ReproError("flight_capacity must be >= 1")


def _sweep_coalesce_key(grid: str, params: dict) -> tuple:
    """Compatibility key of a sweep job: the grid and its parsed solver
    fields (all but the scenarios, which the worker parses).  Jobs that
    share it ride one merged batch without changing any job's numbers."""
    solver = {k: v for k, v in params.items() if k != "scenarios"}
    return ("sweep", grid, parse(SweepJob, solver))


class GridAnalysisService:
    """Grid registry + job queue + worker pool over one shared cache.

    Use as a context manager (or call :meth:`start` / :meth:`close`)::

        with GridAnalysisService() as service:
            service.register_grid("c1", {"side": 20, "tiers": 3})
            job = service.submit("sweep", "c1", {"scenarios": [...]})
            result = service.wait(job.id)
    """

    def __init__(self, config: ServiceConfig | None = None, *, log_stream=None):
        self.config = config or ServiceConfig()
        self.cache = PlaneFactorCache(
            max_entries=self.config.cache_entries,
            max_bytes=self.config.cache_bytes,
        )
        #: Always-on bounded ring of recent spans (crash forensics).
        self.flight = obs.FlightRecorder(capacity=self.config.flight_capacity)
        #: Structured JSON job/access log (silent when stream is None).
        self.log = obs.JsonLogger(log_stream)
        self.queue = JobQueue(
            max_depth=self.config.queue_depth, on_terminal=self._log_terminal
        )
        self._grids: dict[str, object] = {}
        self._grids_lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._dispatcher: threading.Thread | None = None
        self._stop = threading.Event()
        self.started_at = time.time()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "GridAnalysisService":
        if self._dispatcher is not None:
            return self
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve-worker",
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()
        return self

    def close(self) -> None:
        """Drain and stop: no new submissions, running jobs finish."""
        self._stop.set()
        self.queue.close()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10.0)
            self._dispatcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "GridAnalysisService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- grid registry ---------------------------------------------------
    def register_grid(self, name: str, spec: dict | None) -> dict:
        """Register (or replace) a named grid from a build spec.

        ``spec`` (a :class:`~repro.jobspec.GridSpec`) is either
        ``{"circuit": <benchmark name>}`` or a synthesis spec ``{"side",
        "tiers", "r_tsv", "vdd", "seed"}`` (all optional, CLI defaults
        apply).  Registration builds the stack but not its factors --
        those are built by the first job (and cached for every job after).
        """
        if not name:
            raise ReproError("grid needs a non-empty name")
        stack = parse(GridSpec, {} if spec is None else spec).build(f"serve-{name}")
        with self._grids_lock:
            self._grids[name] = stack
        obs.add("serve.grids_registered")
        return self.describe_grid(name)

    def _stack(self, name: str):
        with self._grids_lock:
            stack = self._grids.get(name)
        if stack is None:
            raise UnknownGridError(f"unknown grid {name!r}; register it first")
        return stack

    def grids(self) -> list[str]:
        with self._grids_lock:
            return sorted(self._grids)

    def describe_grid(self, name: str) -> dict:
        stack = self._stack(name)
        return {
            "name": name,
            "tiers": stack.n_tiers,
            "rows": stack.rows,
            "cols": stack.cols,
            "nodes": stack.n_tiers * stack.rows * stack.cols,
            "pillars": stack.pillars.count,
            "signature": stack_plane_signature(stack).hex()[:16],
        }

    # -- submission ------------------------------------------------------
    def submit(
        self,
        kind: str,
        grid: str,
        params: dict | None = None,
        *,
        timeout: float | None = None,
    ) -> Job:
        """Validate and enqueue a job (raises
        :class:`~repro.serve.jobs.QueueFullError` under backpressure)."""
        if kind not in JOB_KINDS:
            raise ReproError(
                f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
            )
        self._stack(grid)  # validate the reference at submit time
        if params is not None and not isinstance(params, dict):
            raise ReproError(f"'params' must be an object, got {params!r}")
        params = dict(params or {})
        key = _sweep_coalesce_key(grid, params) if kind == "sweep" else None
        if timeout is None:
            timeout = self.config.default_timeout
        return self.queue.submit(
            kind, grid, params, timeout=timeout, coalesce_key=key
        )

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until a job reaches a terminal state (the HTTP layer
        exposes the same via ``GET /jobs/<id>?wait=``)."""
        job = self.queue.wait(job_id, timeout)
        if job.state not in JobState.TERMINAL:
            raise ReproError(
                f"job {job_id} still {job.state} after {timeout:g}s"
            )
        return job

    # -- dispatcher ------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            self.queue.expire()
            job = self.queue.pop(timeout=0.1)
            if job is None:
                continue
            batch = [job]
            window = self.config.batch_window
            if job.coalesce_key is not None and window > 0:
                deadline = time.monotonic() + window
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    extra = self.queue.pop_compatible(
                        job.coalesce_key, remaining
                    )
                    if extra is None:
                        break
                    batch.append(extra)
            if self._executor is None:  # closing
                for j in batch:
                    self.queue.fail(j, "service shut down before execution")
                continue
            self._executor.submit(self._run_batch, batch)
        # Drain: fail anything still queued at shutdown.
        while True:
            job = self.queue.pop(timeout=0)
            if job is None:
                break
            self.queue.fail(job, "service shut down before execution")

    # -- execution -------------------------------------------------------
    def _run_batch(self, batch: list[Job]) -> None:
        for job in batch:
            self.queue.mark_executing(job)
            self.log.job(
                "exec", job.cid, job.id,
                kind=job.kind, grid=job.grid, batch_jobs=len(batch),
            )
        # Per-batch telemetry session: every engine span/counter recorded
        # on this worker attributes to these jobs.  Counters forward into
        # the process registry live (service totals stay monotonic while
        # scraped); spans are collected locally, then fanned out below.
        tel = obs.Telemetry(trace=True)
        tel.registry.forward_to = obs.current_global().registry
        t0 = time.perf_counter()
        results: list[tuple[Job, dict]] = []
        error: str | None = None
        try:
            with obs.scoped(tel):
                if batch[0].kind == "sweep":
                    results = self._run_sweep_batch(batch)
                else:
                    results = [(batch[0], self._run_single(batch[0]))]
        except ReproError as exc:
            error = str(exc)
        except Exception as exc:  # worker threads must never die silent
            error = f"{type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - t0
            # Each job looks each geometry up once, so every cache hit in
            # this batch reuses factors an earlier request built.
            hits = tel.registry.counters.get("cache.hits")
            if hits is not None:
                tel.registry.add("serve.cache_cross_request_hits", hits.value)
            # The shared batch work plus one fan-out span per rider, so a
            # coalesced job's trace shows both "my batch" and "my share".
            for job in batch:
                tel.tracer.add_complete(
                    "serve.job", t0, dt,
                    job=job.id, cid=job.cid, kind=job.kind, grid=job.grid,
                    batch_jobs=len(batch),
                )
            events = list(tel.tracer.events)
            names = dict(tel.tracer.thread_names)
            self.flight.extend(events, names)
            profile_tracer = obs.current_global().tracer
            if profile_tracer.enabled:  # repro serve --profile
                profile_tracer.extend(events, names)
            for job in batch:
                self.queue.attach_spans(job, events, names)
            obs.observe("serve.job_seconds", dt)
        # Jobs turn terminal only now, with their spans in the flight
        # ring and attached: waiters wake on the transition and may read
        # the trace or the failure dump at once.  Coalesced riders are
        # released together.
        if error is None:
            for job, payload in results:
                self.queue.finish(job, payload)
        else:
            for job in batch:
                self.queue.fail(job, error)
        self.queue.expire()

    def _log_terminal(self, job: Job) -> None:
        """Emit a job's terminal log line and, for a failure, its flight
        dump (the queue's ``on_terminal`` hook: once per job, before any
        waiter wakes)."""
        self.log.job(
            job.state, job.cid, job.id,
            kind=job.kind, grid=job.grid, batch_jobs=job.batch_jobs,
            latency=job.latency(), error=job.error,
        )
        if job.state == "failed" and self.config.flight_dump_dir:
            try:
                directory = Path(self.config.flight_dump_dir)
                directory.mkdir(parents=True, exist_ok=True)
                path = directory / f"{job.id}-flight.trace.json"
                self.flight.dump(path, metrics={"job": job.describe()})
                self.log.job("flight_dump", job.cid, job.id, path=str(path))
            except OSError as exc:  # a broken dump dir must not kill workers
                self.log.job("flight_dump_error", job.cid, job.id, error=str(exc))

    def job_trace(self, job_id: str) -> dict:
        """Perfetto-loadable Chrome trace for one job.

        Prefers the spans attached by the job's worker; a job that never
        reached (or never finished) execution falls back to the flight
        ring, i.e. "what the service was doing around that time"."""
        job = self.queue.get(job_id)
        if job.spans:
            return obs.chrome_trace(
                job.spans,
                metrics={"job": job.describe()},
                thread_names=job.span_thread_names,
            )
        trace = self.flight.chrome_trace(metrics={"job": job.describe()})
        return trace

    def _run_sweep_batch(self, batch: list[Job]) -> list[tuple[Job, dict]]:
        grid = batch[0].grid
        stack = self._stack(grid)
        specs = [parse(SweepJob, job.params) for job in batch]

        # Merge: one scenario list per job, names prefixed by job id so
        # the merged set stays duplicate-free; slices remember who owns
        # which columns for fan-out.
        merged: list[Scenario] = []
        slices: list[tuple[Job, int, int]] = []
        for job, spec in zip(batch, specs):
            start = len(merged)
            merged.extend(
                replace(s, name=f"{job.id}/{s.name}")
                for s in spec.scenario_list()
            )
            slices.append((job, start, len(merged)))

        if len(batch) > 1:
            obs.add("serve.coalesced_batches")
            obs.add("serve.coalesced_columns", len(merged))

        with obs.span(
            "serve.solve", grid=grid, jobs=len(batch), columns=len(merged)
        ), self.cache.lease(stack) as planes:
            solver = BatchedVPSolver(
                stack, ScenarioSet(merged), specs[0].config(), planes=planes
            )
            result = solver.solve()

        drops = result.worst_ir_drop()
        payloads = []
        for job, start, stop in slices:
            scenarios_out = []
            for k in range(start, stop):
                name = result.scenario_names[k].split("/", 1)[1]
                scenarios_out.append(
                    {
                        "name": name,
                        "converged": bool(result.converged[k]),
                        "outer_iterations": int(result.outer_iterations[k]),
                        "max_vdiff": float(result.max_vdiff[k]),
                        "worst_ir_drop": float(drops[k]),
                        "min_voltage": float(result.voltages[..., k].min()),
                        "pillar_v0": [
                            float(v) for v in result.pillar_v0[:, k]
                        ],
                    }
                )
            job.batch_jobs = len(batch)
            payloads.append((job, {
                "kind": "sweep",
                "grid": grid,
                "scenarios": scenarios_out,
                "batch_jobs": len(batch),
                "batch_columns": len(merged),
            }))
        return payloads

    def _run_single(self, job: Job) -> dict:
        spec = parse(JOB_SPECS[job.kind], job.params)
        runner = getattr(self, f"_run_{job.kind}")
        stack = self._stack(job.grid)
        with obs.span("serve.solve", grid=job.grid, kind=job.kind, jobs=1):
            result = runner(job, spec, stack)
        job.batch_jobs = 1
        return {"kind": job.kind, "grid": job.grid, **result}

    def _run_mc(self, job: Job, spec, stack) -> dict:
        result = run_monte_carlo(
            stack,
            spec.variation(job.id),
            spec.samples,
            seed=spec.seed,
            config=spec.config(),
            cache=self.cache,
        )
        return {
            "n_samples": result.n_samples,
            "converged": int(result.converged.sum()),
            "mean_worst_drop": result.mean_worst_drop,
            "std_worst_drop": result.std_worst_drop,
            "quantiles": [
                {
                    "q": e.q,
                    "value": e.value,
                    "ci_low": e.ci_low,
                    "ci_high": e.ci_high,
                }
                for e in result.quantiles
            ],
            "refactorizations": result.stats.refactorizations,
        }

    def _run_sensitivity(self, job: Job, spec, stack) -> dict:
        result = adjoint_gradient(
            spec.parameter_space(stack), spec.metric(), cache=self.cache
        )
        return {
            "metric": result.metric_name,
            "metric_value": result.metric_value,
            "n_params": result.n_params,
            "adjoint_converged": result.adjoint_converged,
            "new_factorizations": result.new_factorizations,
            "top": [
                {"parameter": name, "gradient": g}
                for name, g in result.top(spec.top)
            ],
        }

    def _run_optimize(self, job: Job, spec, stack) -> dict:
        result = spec.run(stack, cache=self.cache)
        return {"mode": spec.mode, **result.payload()}

    def _run_eco(self, job: Job, spec, stack) -> dict:
        with EcoSession(
            stack,
            scenarios=spec.scenarios(),
            config=spec.config(),
            cache=self.cache,
        ) as session:
            report = session.rank_candidates(spec.generate_candidates(stack))
        ranked = report.ranked()[: spec.top]
        return {
            "metric": report.metric,
            "baseline_metric": report.baseline_metric,
            "candidates": len(report.rows),
            "eval_factorizations": report.eval_factorizations,
            "rows": [
                {
                    "name": row.name,
                    "metric": row.metric,
                    "improvement": row.improvement,
                    "rank": row.rank,
                    "converged": row.converged,
                }
                for row in ranked
            ],
        }

    # -- introspection ---------------------------------------------------
    def metrics(self) -> dict:
        """One JSON-ready snapshot: obs instruments, cache stats, queue
        state (the ``/metrics`` endpoint)."""
        snap = obs.current_global().registry.snapshot()
        out = {
            "uptime_seconds": time.time() - self.started_at,
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "histograms": snap["histograms"],
            "flight": {
                "capacity": self.flight.capacity,
                "size": len(self.flight),
                "recorded": self.flight.recorded,
                "dropped": self.flight.dropped,
            },
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "factorizations": self.cache.factorizations,
                "evictions": self.cache.evictions,
                "pinned_overflow": self.cache.pinned_overflow,
                "single_flight_waits": self.cache.single_flight_waits,
                "factor_bytes": self.cache.factor_bytes,
                "entries": len(self.cache),
                "max_entries": self.cache.max_entries,
                "max_bytes": self.cache.max_bytes,
            },
            "queue": {
                "depth": self.queue.depth,
                "max_depth": self.queue.max_depth,
            },
            "grids": self.grids(),
        }
        for section in ("labeled_counters", "labeled_gauges", "bucket_histograms"):
            if section in snap:
                out[section] = snap[section]
        return out

    def prometheus(self) -> str:
        """Prometheus text exposition (``/metrics?format=prometheus``).

        Registry instruments render natively; cache/queue/flight scalars
        ride along as derived gauges under the same ``repro_`` prefix.
        """
        snap = obs.current_global().registry.snapshot()
        extra = {
            "serve.uptime_seconds": time.time() - self.started_at,
            "serve.queue_max_depth": self.queue.max_depth,
            "serve.flight_spans": len(self.flight),
            "serve.flight_dropped": self.flight.dropped,
            "cache.entries": len(self.cache),
            "cache.hits": self.cache.hits,
            "cache.misses": self.cache.misses,
            "cache.factorizations": self.cache.factorizations,
            "cache.evictions": self.cache.evictions,
            "cache.factor_bytes": self.cache.factor_bytes,
        }
        return obs.render_prometheus(snap, extra_gauges=extra)


__all__ = [
    "JOB_KINDS",
    "GridAnalysisService",
    "ServiceConfig",
    "UnknownGridError",
]
