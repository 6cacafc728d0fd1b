"""Job lifecycle and the bounded queue the service dispatches from.

A :class:`Job` moves through ``queued -> running -> done | failed |
cancelled``.  The queue is deliberately small machinery with strong
contracts:

* **Bounded depth with backpressure.**  ``submit`` raises
  :class:`QueueFullError` once ``pending + running`` reaches
  ``max_depth`` -- the HTTP layer maps that to 429 so a traffic spike
  degrades into rejected requests instead of unbounded memory growth
  (every queued job pins its parameters, and every running sweep holds
  multi-column solve buffers).
* **Per-job timeouts.**  A deadline starts ticking when the job starts
  *running*; :meth:`JobQueue.expire` (called from the dispatcher's wait
  loop and while anyone waits on a job) fails overdue jobs with a
  ``timeout`` error.  Solver threads cannot be killed
  mid-back-substitution, so a timed-out job's eventual result is
  discarded on completion instead -- the state a client observes never
  flips back from failed.
* **Cancellation.**  Queued jobs cancel immediately (removed from the
  deque); running jobs are marked and their results dropped when the
  worker finishes (best-effort, documented in docs/service.md).
* **Correlation.**  Every job carries a correlation id (``cid``) minted
  at submission; the HTTP layer returns it in ``X-Repro-Cid`` and the
  JSON log streams stamp it on every line, so one grep reconstructs a
  job's full story (docs/observability.md).
* **Latency phases.**  Each job records a ``perf_counter`` timeline --
  submitted, picked up by the dispatcher, execution start on a worker,
  finished -- from which the queue derives **queue-wait** (submit ->
  dispatcher pop), **coalesce-wait** (pop -> worker execution),
  **solve** (execution), and **total**.  Phases land in the
  ``serve.job_phase_seconds{phase,kind}`` bucket histogram (Prometheus
  exposition) and in the job record itself (``GET /jobs/<id>``), so a
  slow job is attributable to queueing vs. batching vs. solving from
  artifacts alone.
* **Observability.**  Queue depth is published as the
  ``serve.queue_depth`` gauge on every transition; terminal states
  count into ``serve.jobs_done`` / ``serve.jobs_failed`` /
  ``serve.jobs_cancelled``.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ReproError

#: Longest a :meth:`JobQueue.wait` caller goes without expiring overdue
#: jobs.
WAIT_TICK = 0.1


#: Lifecycle states a job can report.
class JobState:
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = (DONE, FAILED, CANCELLED)


class QueueFullError(ReproError):
    """Queue depth exhausted -- the backpressure signal (HTTP 429)."""


class UnknownJobError(ReproError):
    """No job with the requested id."""


def _new_cid() -> str:
    return uuid.uuid4().hex[:16]


@dataclass
class Job:
    """One submitted unit of work and its observable lifecycle record.

    Mutable fields are only written under the owning queue's lock.
    Wall-clock stamps (``*_at``) are for humans and logs; the parallel
    ``perf_counter`` stamps (``*_pc``) are for latency math -- they share
    the tracer's clock, so phase durations line up with spans exactly.
    """

    id: str
    kind: str
    grid: str
    #: The parsed params: the job spec of its kind.
    spec: object
    timeout: float | None = None
    #: Correlation id: minted at submission, echoed on HTTP responses
    #: and every log line about this job.
    cid: str = field(default_factory=_new_cid)
    #: Coalescing compatibility key (None = never coalesced).
    coalesce_key: tuple | None = None
    state: str = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    #: When a worker actually began executing (started_at marks the
    #: dispatcher pop; the gap between them is the coalescing window).
    exec_started_at: float | None = None
    finished_at: float | None = None
    submitted_pc: float = field(default_factory=time.perf_counter)
    started_pc: float | None = None
    exec_started_pc: float | None = None
    finished_pc: float | None = None
    error: str | None = None
    result: dict | None = None
    #: Columns this job contributed to a merged multi-RHS solve, and how
    #: many sibling jobs rode in the same batch (1 = solved alone).
    batch_jobs: int = 0
    cancel_requested: bool = False
    #: Spans recorded while executing this job (its scoped telemetry
    #: session), attached by the worker for ``GET /jobs/<id>/trace``.
    spans: list = field(default_factory=list)
    span_thread_names: dict = field(default_factory=dict)

    def latency(self) -> dict:
        """Phase durations (seconds) known so far; None = not reached."""
        def gap(a: float | None, b: float | None) -> float | None:
            if a is None or b is None:
                return None
            return max(0.0, b - a)

        return {
            "queue_wait": gap(self.submitted_pc, self.started_pc),
            "coalesce_wait": gap(self.started_pc, self.exec_started_pc),
            "solve": gap(self.exec_started_pc, self.finished_pc),
            "total": gap(self.submitted_pc, self.finished_pc),
        }

    def describe(self, *, include_result: bool = False) -> dict:
        """JSON-ready status record."""
        record = {
            "id": self.id,
            "cid": self.cid,
            "kind": self.kind,
            "grid": self.grid,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "exec_started_at": self.exec_started_at,
            "finished_at": self.finished_at,
            "timeout": self.timeout,
            "batch_jobs": self.batch_jobs,
            "latency": self.latency(),
        }
        if self.error is not None:
            record["error"] = self.error
        if include_result and self.result is not None:
            record["result"] = self.result
        return record


def _observe_phase(phase: str, kind: str, seconds: float | None) -> None:
    if seconds is None:
        return
    obs.observe_bucket(
        "serve.job_phase_seconds", seconds, {"phase": phase, "kind": kind}
    )


class JobQueue:
    """Bounded FIFO of jobs with coalescing-aware pops.

    The dispatcher thread is the only consumer; submitters and the HTTP
    layer are producers/readers.  All state is guarded by one condition
    variable.

    ``on_terminal`` runs exactly once per job, under the lock, as the
    job turns terminal and before :meth:`wait` callers wake -- so a
    waiter always finds what it records (the service's terminal log
    line and failure flight dump) already written.
    """

    def __init__(
        self,
        max_depth: int = 64,
        *,
        on_terminal: Callable[[Job], object] | None = None,
    ):
        if max_depth < 1:
            raise ReproError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.on_terminal = on_terminal
        self._cond = threading.Condition()
        self._pending: deque[Job] = deque()
        self._jobs: dict[str, Job] = {}
        self._running: set[str] = set()
        self._ids = itertools.count(1)
        self._closed = False

    # -- producer side ---------------------------------------------------
    def submit(
        self,
        kind: str,
        grid: str,
        spec,
        *,
        timeout: float | None = None,
        coalesce_key: tuple | None = None,
    ) -> Job:
        """Enqueue a job or raise :class:`QueueFullError` (backpressure).

        Depth counts pending *and* running jobs: a full worker pool with
        an empty deque is still a loaded service.
        """
        with self._cond:
            if self._closed:
                raise ReproError("service is shutting down")
            if len(self._pending) + len(self._running) >= self.max_depth:
                obs.add("serve.jobs_rejected")
                raise QueueFullError(
                    f"queue full ({self.max_depth} jobs in flight); retry later"
                )
            job = Job(
                id=f"job-{next(self._ids)}",
                kind=kind,
                grid=grid,
                spec=spec,
                timeout=timeout,
                coalesce_key=coalesce_key,
            )
            self._jobs[job.id] = job
            self._pending.append(job)
            obs.add("serve.jobs_submitted")
            self._publish_depth()
            self._cond.notify_all()
            return job

    # -- dispatcher side -------------------------------------------------
    def pop(self, timeout: float | None = None) -> Job | None:
        """Block for the next queued job (None on timeout/shutdown)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._pending:
                if self._closed:
                    return None
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)
            job = self._pending.popleft()
            self._mark_running(job)
            return job

    def pop_compatible(self, key: tuple, timeout: float) -> Job | None:
        """Block up to ``timeout`` for a queued job whose coalesce key
        matches ``key``; other jobs stay queued (the batching window is
        short, see the dispatcher loop)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                for job in self._pending:
                    if job.coalesce_key == key:
                        self._pending.remove(job)
                        self._mark_running(job)
                        return job
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    return None
                self._cond.wait(remaining)

    def _mark_running(self, job: Job) -> None:
        job.state = JobState.RUNNING
        job.started_at = time.time()
        job.started_pc = time.perf_counter()
        self._running.add(job.id)
        self._publish_depth()
        _observe_phase("queue_wait", job.kind, job.latency()["queue_wait"])

    # -- worker side -----------------------------------------------------
    def mark_executing(self, job: Job) -> None:
        """Stamp worker-execution start (the end of the coalescing
        window for batched jobs; immediate for everything else)."""
        with self._cond:
            if job.exec_started_pc is not None:
                return
            job.exec_started_at = time.time()
            job.exec_started_pc = time.perf_counter()
        _observe_phase(
            "coalesce_wait", job.kind, job.latency()["coalesce_wait"]
        )

    def attach_spans(self, job: Job, events: list, thread_names: dict | None = None) -> None:
        """Attach the spans a worker recorded while executing ``job``
        (serves ``GET /jobs/<id>/trace``).  Harmless after a timeout:
        the terminal state stays, the trace just gets richer."""
        with self._cond:
            job.spans = list(events)
            if thread_names:
                job.span_thread_names = dict(thread_names)

    def finish(self, job: Job, result: dict) -> None:
        """Complete a job -- unless it was cancelled or timed out while
        running, in which case the result is dropped (the observed state
        never leaves a terminal value)."""
        with self._cond:
            self._running.discard(job.id)
            if job.state == JobState.RUNNING:
                if job.cancel_requested:
                    self._finalize(job, JobState.CANCELLED)
                else:
                    job.result = result
                    self._finalize(job, JobState.DONE)
            self._publish_depth()

    def fail(self, job: Job, error: str) -> None:
        with self._cond:
            self._running.discard(job.id)
            if job.state == JobState.RUNNING:
                job.error = error
                self._finalize(
                    job,
                    JobState.CANCELLED
                    if job.cancel_requested
                    else JobState.FAILED,
                )
            self._publish_depth()

    def _finalize(self, job: Job, state: str) -> None:
        job.state = state
        job.finished_at = time.time()
        job.finished_pc = time.perf_counter()
        obs.add(
            {
                JobState.DONE: "serve.jobs_done",
                JobState.FAILED: "serve.jobs_failed",
                JobState.CANCELLED: "serve.jobs_cancelled",
            }[state]
        )
        latency = job.latency()
        _observe_phase("solve", job.kind, latency["solve"])
        _observe_phase("total", job.kind, latency["total"])
        if self.on_terminal is not None:
            self.on_terminal(job)
        self._cond.notify_all()  # wake wait() callers

    # -- control plane ---------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Cancel a job: queued jobs immediately, running jobs on their
        next completion (best-effort)."""
        with self._cond:
            job = self._get(job_id)
            if job.state == JobState.QUEUED:
                self._pending.remove(job)
                self._finalize(job, JobState.CANCELLED)
                self._publish_depth()
            elif job.state == JobState.RUNNING:
                job.cancel_requested = True
            return job

    def expire(self, now: float | None = None) -> list[Job]:
        """Fail running jobs past their deadline (returns them)."""
        now = time.time() if now is None else now
        expired = []
        with self._cond:
            for job_id in list(self._running):
                job = self._jobs[job_id]
                if (
                    job.timeout is not None
                    and job.started_at is not None
                    and now - job.started_at > job.timeout
                ):
                    self._running.discard(job_id)
                    job.error = f"timeout after {job.timeout:g}s"
                    self._finalize(job, JobState.FAILED)
                    expired.append(job)
            if expired:
                self._publish_depth()
        return expired

    def wait(self, job_id: str, timeout: float) -> Job:
        """Block until a job reaches a terminal state or ``timeout``
        seconds pass, and return it either way (check ``job.state``).

        Terminal transitions notify the queue's condition, so a waiter
        wakes the moment its job finishes.  While it waits it runs
        :meth:`expire` at least every :data:`WAIT_TICK` seconds, so an
        overdue job still times out while someone waits on it.

        Raises
        ------
        UnknownJobError
            If no job has that id.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                self.expire()
                job = self._get(job_id)
                remaining = deadline - time.monotonic()
                if job.state in JobState.TERMINAL or remaining <= 0:
                    return job
                self._cond.wait_for(
                    lambda: job.state in JobState.TERMINAL,
                    min(remaining, WAIT_TICK),
                )

    def get(self, job_id: str) -> Job:
        with self._cond:
            return self._get(job_id)

    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        with self._cond:
            return list(self._jobs.values())

    @property
    def depth(self) -> int:
        """Jobs in flight (pending + running)."""
        with self._cond:
            return len(self._pending) + len(self._running)

    def _publish_depth(self) -> None:
        obs.set_gauge(
            "serve.queue_depth", len(self._pending) + len(self._running)
        )

    def close(self) -> None:
        """Stop accepting submissions and wake any blocked pops."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
