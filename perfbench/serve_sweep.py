"""serve-sweep-c1: two lockstep HTTP clients against a live ``repro serve``.

The server runs in its own process with CLI defaults (4 workers, 25 ms
coalescing window, 8-entry cache).  Each client thread holds one
persistent HTTP/1.1 connection and loops closed: ``POST /jobs`` with a
4-scenario sweep, then ``GET /jobs/<id>?wait=`` until the result is
decoded, then the next job.  The two clients stay in lockstep, so every
batch the dispatcher forms coalesces exactly their two jobs.

Per-layer numbers come from the client's own timings, each job's public
``latency`` record and ``/metrics`` deltas -- the server is measured,
never modified.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.batch import BatchedVPConfig, BatchedVPSolver
from repro.scenarios.spec import Scenario, ScenarioSet

from library import build_stack
from measure import latency_summary
from spec import (
    CIRCUIT,
    CIRCUIT_SEED,
    SERVE_RSS_REQUESTS,
    SETUP_REPEATS,
    TINY_GRID,
    WARMUP_OPS,
)

CLIENTS = 2
GRID_NAME = "bench"
#: Server start-up and shutdown deadlines (s).
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class BenchError(RuntimeError):
    """The server misbehaved outside any single op (start, stop, setup)."""


def grid_spec(grid: str) -> dict:
    if grid == "c1":
        return {"circuit": CIRCUIT, "seed": CIRCUIT_SEED}
    return dict(TINY_GRID)


class Server:
    """One ``repro serve --port 0`` process; the port comes from its
    start-up banner."""

    def __init__(self, root: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
            banner = self.proc.stdout.readline() if ready else ""
            if "listening on http://" not in banner:
                raise BenchError(f"repro serve did not start: {banner!r}")
            host_port = banner.rsplit("http://", 1)[1].strip()
            self.host, port = host_port.rsplit(":", 1)
            self.port = int(port)
        except BaseException:
            self.kill()
            raise
        # Keep draining stdout so the server never blocks on a full pipe.
        self._drain = threading.Thread(
            target=self.proc.stdout.read, daemon=True
        )
        self._drain.start()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def vm_hwm_mib(self) -> float:
        """Peak RSS of the server process so far (``VmHWM``)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT, then require the clean exit ``repro serve`` promises."""
        self.proc.send_signal(signal.SIGINT)
        try:
            rc = self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("repro serve ignored SIGINT") from None
        self._drain.join(timeout=STOP_TIMEOUT)
        if rc != 0:
            raise BenchError(f"repro serve exited with {rc} on SIGINT")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT)


def call(conn, method: str, path: str, body=None) -> tuple[int, bytes]:
    data = None if body is None else json.dumps(body).encode()
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


# -- output check -------------------------------------------------------
def row_digest(row: dict) -> bytes:
    """Bitwise fingerprint of one result row (JSON floats round-trip
    exactly, so equal digests mean bitwise-equal values)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(
        json.dumps(
            [row["name"], row["converged"], row["outer_iterations"]]
        ).encode()
    )
    h.update(
        np.array(
            [row["max_vdiff"], row["worst_ir_drop"], row["min_voltage"]],
            dtype=np.float64,
        ).tobytes()
    )
    h.update(np.asarray(row["pillar_v0"], dtype=np.float64).tobytes())
    return h.digest()


def reference_rows(stack, job: dict) -> list[dict]:
    """The job's rows from a standalone ``BatchedVPSolver`` solve, built
    the way the service builds them (its coalescing contract: merged
    batches return exactly these bits)."""
    scenarios = []
    for spec in job["scenarios"]:
        kwargs = dict(spec)
        if isinstance(kwargs.get("plane_scale"), list):
            kwargs["plane_scale"] = tuple(kwargs["plane_scale"])
        scenarios.append(Scenario(**kwargs))
    result = BatchedVPSolver(
        stack, ScenarioSet(scenarios), BatchedVPConfig()
    ).solve()
    drops = result.worst_ir_drop()
    return [
        {
            "name": result.scenario_names[k],
            "converged": bool(result.converged[k]),
            "outer_iterations": int(result.outer_iterations[k]),
            "max_vdiff": float(result.max_vdiff[k]),
            "worst_ir_drop": float(drops[k]),
            "min_voltage": float(result.voltages[..., k].min()),
            "pillar_v0": [float(v) for v in result.pillar_v0[:, k]],
        }
        for k in range(result.n_scenarios)
    ]


def rows_match(digests: list[bytes], expected_rows: list[dict]) -> bool:
    return digests == [row_digest(row) for row in expected_rows]


# -- closed loop ----------------------------------------------------------
@dataclass
class Op:
    """One completed (or failed) client op."""

    job: int
    start: float
    submitted: float
    end: float
    ok: bool
    digests: list = field(default_factory=list)
    latency: dict | None = None
    batch_jobs: int = 0
    response_bytes: int = 0
    error: str | None = None


class Client:
    """One closed-loop client on its own persistent connection."""

    def __init__(self, server: Server, jobs: list[dict], first: int):
        self.conn = server.connect()
        self.jobs = jobs
        self.next = first

    def op(self) -> Op:
        index = self.next % len(self.jobs)
        self.next += CLIENTS
        body = {"kind": "sweep", "grid": GRID_NAME, "params": self.jobs[index]}
        start = time.perf_counter()
        status, raw = call(self.conn, "POST", "/jobs", body)
        submitted = time.perf_counter()
        if status != 202:  # 429 backpressure or an error: a failed op
            return Op(index, start, submitted, submitted, False,
                      error=f"POST /jobs -> {status}: {raw[:200]!r}")
        job_id = json.loads(raw)["id"]
        status, raw = call(self.conn, "GET", f"/jobs/{job_id}?wait=120")
        record = json.loads(raw)
        end = time.perf_counter()
        if status != 200 or record.get("state") != "done":
            return Op(index, start, submitted, end, False,
                      error=f"job {job_id}: {status} {record.get('error')}")
        return Op(
            index, start, submitted, end, True,
            digests=[row_digest(r) for r in record["result"]["scenarios"]],
            latency=record["latency"],
            batch_jobs=record["batch_jobs"],
            response_bytes=len(raw),
        )

    def close(self) -> None:
        self.conn.close()


class Session:
    """A started server plus its clients, counting served requests so
    peak RSS is read at a fixed request count."""

    def __init__(self, server: Server, jobs: list[dict], offset: int):
        self.server = server
        self.clients = [Client(server, jobs, offset + c) for c in range(CLIENTS)]
        self.served = 0
        self.rss_mib: float | None = None
        self._lock = threading.Lock()

    def _completed(self) -> None:
        with self._lock:
            self.served += 1
            if self.served == SERVE_RSS_REQUESTS:
                self.rss_mib = self.server.vm_hwm_mib()

    def run(self, *, seconds: float | None = None, ops: int | None = None):
        """All clients in lockstep, closed loop, until ``seconds`` have
        passed or each client completed ``ops`` ops.  Returns the ops
        and the window's wall time."""
        results: list[list[Op]] = [[] for _ in self.clients]
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(self.clients) + 1)
        start = [0.0]

        def loop(c: int) -> None:
            try:
                barrier.wait()
                while True:
                    if ops is not None and len(results[c]) >= ops:
                        break
                    if seconds is not None and (
                        time.perf_counter() - start[0] >= seconds
                    ):
                        break
                    op = self.clients[c].op()
                    results[c].append(op)
                    self._completed()
            except Exception as exc:  # re-raised on the calling thread
                errors.append(exc)

        threads = [
            threading.Thread(target=loop, args=(c,), daemon=True)
            for c in range(len(self.clients))
        ]
        for t in threads:
            t.start()
        start[0] = time.perf_counter()
        barrier.wait()
        for t in threads:
            t.join(timeout=(seconds or 0) + 300)
        if errors:
            raise errors[0]
        if any(t.is_alive() for t in threads):
            raise BenchError("client thread hung")
        window = [op for ops_c in results for op in ops_c]
        end = max((op.end for op in window), default=start[0])
        return window, end - start[0]

    def metrics(self) -> dict:
        conn = self.server.connect()
        try:
            status, raw = call(conn, "GET", "/metrics")
        finally:
            conn.close()
        if status != 200:
            raise BenchError(f"GET /metrics -> {status}")
        return json.loads(raw)

    def close(self) -> None:
        for client in self.clients:
            client.close()


def first_response(root: Path, grid: str, job: dict, expected: list[dict]):
    """Spawn a server, register the grid, run one job: the set-up whose
    time (spawn to checked response) is ``setup_s``."""
    start = time.perf_counter()
    server = Server(root)
    try:
        conn = server.connect()
        try:
            status, raw = call(
                conn, "POST", "/grids",
                {"name": GRID_NAME, "spec": grid_spec(grid)},
            )
            if status != 201:
                raise BenchError(f"POST /grids -> {status}: {raw[:200]!r}")
            client = Client(server, [job], 0)
            op = client.op()
            client.close()
        finally:
            conn.close()
        ok = op.ok and rows_match(op.digests, expected)
        return server, time.perf_counter() - start, ok
    except BaseException:
        server.kill()
        raise


def layer_metrics(window: list[Op], factorizations: int) -> dict:
    done = [op for op in window if op.ok]

    def med(values) -> float:
        return float(statistics.median(values)) if values else 0.0

    return {
        "serve.submit_s": med([op.submitted - op.start for op in done]),
        "serve.http_overhead_s": med(
            [(op.end - op.start) - op.latency["total"] for op in done]
        ),
        "serve.response_kb": med([op.response_bytes / 1000 for op in done]),
        "serve.queue_wait_s": med([op.latency["queue_wait"] for op in done]),
        "serve.coalesce_wait_s": med(
            [op.latency["coalesce_wait"] for op in done]
        ),
        "serve.batch_jobs": (
            statistics.fmean(op.batch_jobs for op in done) if done else 0.0
        ),
        "serve.solve_s": med([op.latency["solve"] for op in done]),
        "serve.job_total_s": med([op.latency["total"] for op in done]),
        "serve.factorizations": float(factorizations),
    }


def run(root: Path, grid: str, inputs: dict, seconds: float, trace: bool) -> dict:
    jobs, offset = inputs["jobs"], inputs["offset"]
    stack = build_stack(grid)
    expected = [reference_rows(stack, job) for job in jobs]
    first_job = offset % len(jobs)

    setups: list[float] = []
    setup_ok = True
    server = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, setup_s, ok = first_response(
                root, grid, jobs[first_job], expected[first_job]
            )
            setups.append(setup_s)
            setup_ok &= ok
        session = Session(server, jobs, offset)
        session.served = 1  # the set-up job
        try:
            session.run(ops=WARMUP_OPS)
            plain, plain_wall = session.run(seconds=seconds)
            windows = [plain]
            out = latency_summary(
                [op.end - op.start for op in plain], plain_wall
            )
            if trace:
                before = session.metrics()["cache"]["factorizations"]
                traced, traced_wall = session.run(seconds=seconds)
                after = session.metrics()["cache"]["factorizations"]
                windows.append(traced)
                layers = layer_metrics(traced, after - before)
                layers["obs.trace_overhead"] = (
                    len(traced) / traced_wall
                ) / out["ops_per_s"] - 1.0
                out["per_layer"] = layers
            # Top up untimed so peak RSS is always read at the same
            # served-request count.
            while session.rss_mib is None:
                session.run(ops=1)
            final = session.metrics()
            print(
                f"serve: VmHWM {server.vm_hwm_mib():.1f} MiB before SIGINT, "
                f"after {session.served} sweep requests"
            )
        finally:
            session.close()
        server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()

    out["setup_s"] = statistics.median(setups)
    out["setup_ok"] = setup_ok and final["counters"].get("serve.jobs_failed", 0) == 0
    out["peak_rss_mb"] = session.rss_mib
    out["attempted"] = out["failed"] = 0
    for window in windows:
        for op in window:
            out["attempted"] += 1
            if not (op.ok and rows_match(op.digests, expected[op.job])):
                out["failed"] += 1
                if op.error:
                    print(op.error, file=sys.stderr)
    return out
