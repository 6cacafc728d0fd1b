"""End-to-end smoke of the live service: real process, real HTTP.

Starts ``repro serve`` on an ephemeral port, registers a grid, runs a
sensitivity job first (a first job that is not a sweep must factor into
the shared cache, not a private one), then fires a burst of compatible
sweep jobs plus a Monte Carlo job, and asserts the two service-level
contracts on ``/metrics``:

* the burst coalesced (``serve.coalesced_columns`` counts merged
  scenario columns) and the whole run paid exactly **one** plane
  factorization for the grid (single-flight shared cache);
* later requests for the same grid were counted as cross-request cache
  hits.

It also times 20 keep-alive ``GET /healthz`` round trips on one
connection (median under 20 ms: no response may wait for the client's
delayed ACK) and checks that malformed numbers (``?wait=abc``, a
``"timeout": "x"`` submission) answer 400 and leave the server up.

Then exercises the observability surfaces: ``/metrics?format=prometheus``
must validate against the in-tree exposition checker, a deliberately
broken job (an mc sweep that varies nothing) must fail AND leave a
flight-recorder dump plus a servable ``/jobs/<id>/trace``, and every
response must carry the job's correlation id.  An mc job with a field
its schema does not have must fail naming that field, and the server
must answer ``/healthz`` after it.

Finishes by checking that SIGINT shuts the server down cleanly.

Run:  PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.promexport import validate_prometheus_text  # noqa: E402
GRID = {"side": 16, "tiers": 2, "seed": 0}
BURST = 6


def call(base: str, method: str, path: str, body: dict | None = None):
    data = None if body is None else json.dumps(body).encode()
    request = Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    with urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def expect_status(base: str, method: str, path: str, body, status: int):
    try:
        call(base, method, path, body)
    except HTTPError as error:
        assert error.code == status, (path, error.code)
        assert "error" in json.loads(error.read()), path
    else:
        raise AssertionError(f"{method} {path} did not answer {status}")


def keep_alive_median(base: str, requests: int = 20) -> float:
    """Median seconds of ``requests`` GET /healthz on one connection."""
    host, port = base.split("//", 1)[1].rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    times = []
    try:
        for _ in range(requests):
            t0 = time.perf_counter()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert json.loads(response.read()) == {"status": "ok"}
            times.append(time.perf_counter() - t0)
    finally:
        conn.close()
    return statistics.median(times)


def call_with_headers(base: str, path: str):
    with urlopen(Request(base + path), timeout=60) as response:
        return json.loads(response.read()), response.headers


def fetch_text(base: str, path: str) -> str:
    with urlopen(Request(base + path), timeout=60) as response:
        return response.read().decode()


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    flight_dir = Path(tempfile.mkdtemp(prefix="repro-flight-"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--workers", "2", "--batch-window", "0.25",
            "--flight-dump", str(flight_dir),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, f"unexpected startup line: {line!r}"
        base = line.rsplit(" ", 1)[-1].strip()
        deadline = time.monotonic() + 30
        while True:
            try:
                assert call(base, "GET", "/healthz") == {"status": "ok"}
                break
            except URLError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)

        info = call(base, "POST", "/grids", {"name": "g1", "spec": GRID})
        assert info["nodes"] == GRID["side"] ** 2 * GRID["tiers"], info

        # The first job is not a sweep: its factors land in the shared
        # cache, where every later job on g1 finds them.
        sens = call(
            base, "POST", "/jobs",
            {"kind": "sensitivity", "grid": "g1", "params": {"top": 3}},
        )
        sens_done = call(base, "GET", f"/jobs/{sens['id']}?wait=120")
        assert sens_done["state"] == "done", sens_done
        cache = call(base, "GET", "/metrics")["cache"]
        assert cache["entries"] == 1, cache
        assert cache["factorizations"] == 1, cache

        # Keep-alive round trips must not stall on a delayed ACK, and
        # malformed numbers answer 400 without dropping the connection.
        median = keep_alive_median(base)
        assert median < 0.020, f"keep-alive /healthz median {median:.4f} s"
        expect_status(base, "GET", f"/jobs/{sens['id']}?wait=abc", None, 400)
        expect_status(
            base, "POST", "/jobs",
            {"kind": "sweep", "grid": "g1", "timeout": "x"}, 400,
        )
        assert call(base, "GET", "/healthz") == {"status": "ok"}

        # A burst of compatible sweeps inside one batching window.
        jobs = [
            call(
                base, "POST", "/jobs",
                {
                    "kind": "sweep", "grid": "g1",
                    "params": {
                        "scenarios": [
                            {"name": "s", "load_scale": 0.8 + 0.05 * k}
                        ]
                    },
                },
            )
            for k in range(BURST)
        ]
        done = [
            call(base, "GET", f"/jobs/{job['id']}?wait=120") for job in jobs
        ]
        assert all(j["state"] == "done" for j in done), done
        for j in done:
            row = j["result"]["scenarios"][0]
            assert row["converged"] and row["worst_ir_drop"] > 0, row

        # A later request on the same grid: cross-request cache hit.
        mc = call(
            base, "POST", "/jobs",
            {
                "kind": "mc", "grid": "g1",
                "params": {"samples": 4, "sigma_width": 0.05, "seed": 1},
            },
        )
        mc_done = call(base, "GET", f"/jobs/{mc['id']}?wait=120")
        assert mc_done["state"] == "done", mc_done

        metrics = call(base, "GET", "/metrics")
        counters = metrics["counters"]
        coalesced = counters.get("serve.coalesced_columns", 0)
        assert coalesced >= 2, f"burst did not coalesce: {counters}"
        assert counters.get("serve.cache_cross_request_hits", 0) >= 1, counters
        # One grid geometry, many requests, exactly one LU.
        assert metrics["cache"]["factorizations"] == 1, metrics["cache"]
        assert counters["serve.jobs_done"] == BURST + 2, counters

        # -- observability surfaces --------------------------------------

        # Prometheus exposition validates and reflects the jobs above.
        prom = fetch_text(base, "/metrics?format=prometheus")
        samples = validate_prometheus_text(prom)
        assert samples["repro_serve_jobs_done_total"] == BURST + 2, samples
        phase_count = sum(
            v for k, v in samples.items()
            if k.startswith("repro_serve_job_phase_seconds_count")
        )
        assert phase_count > 0, "no job-phase histogram samples"
        try:
            call(base, "GET", "/metrics?format=xml")
            raise AssertionError("unknown format was not rejected")
        except HTTPError as error:
            assert error.code == 400, error.code

        # A deliberately broken job: mc that varies nothing fails in the
        # worker and must leave the full failure artifact trail.
        bad = call(
            base, "POST", "/jobs",
            {"kind": "mc", "grid": "g1", "params": {"samples": 2}},
        )
        bad_done, headers = call_with_headers(
            base, f"/jobs/{bad['id']}?wait=60"
        )
        assert bad_done["state"] == "failed", bad_done
        assert "varies nothing" in bad_done["error"], bad_done
        assert headers["X-Repro-Cid"] == bad["cid"], headers
        assert bad_done["latency"]["total"] is not None, bad_done

        trace = call(base, "GET", f"/jobs/{bad['id']}/trace")
        names = {r.get("name") for r in trace["traceEvents"]}
        assert "serve.job" in names, names

        dumps = list(flight_dir.glob(f"{bad['id']}-flight.trace.json"))
        assert len(dumps) == 1, f"no flight dump in {flight_dir}"
        dumped = json.loads(dumps[0].read_text())
        assert dumped["metrics"]["job"]["state"] == "failed", dumped["metrics"]

        # A field the mc schema does not have fails the job, by name.
        unknown = call(
            base, "POST", "/jobs",
            {
                "kind": "mc", "grid": "g1",
                "params": {"samples": 2, "sigma_width": 0.05, "sigma_wdith": 0.1},
            },
        )
        unknown_done = call(base, "GET", f"/jobs/{unknown['id']}?wait=60")
        assert unknown_done["state"] == "failed", unknown_done
        assert "'sigma_wdith'" in unknown_done["error"], unknown_done
        assert call(base, "GET", "/healthz") == {"status": "ok"}

        proc.send_signal(signal.SIGINT)
        rc = proc.wait(timeout=30)
        assert rc == 0, f"serve exited with {rc}"
        print(
            f"service smoke OK: 1 sensitivity + {BURST} sweeps + 1 mc, "
            f"{coalesced} coalesced columns, 1 factorization, "
            f"keep-alive median {median * 1e3:.2f} ms, malformed input 400, "
            f"prometheus valid, flight dump on failure, unknown field named, "
            f"clean shutdown"
        )
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
