"""Service observability: correlation ids, phase latencies, traces,
Prometheus exposition, flight dumps, and structured logs.

The acceptance bar for this layer: a failed or slow job must be fully
explainable from the artifacts alone -- phase latencies in the job
record, labeled histograms in /metrics, and a Perfetto-loadable trace
from /jobs/<id>/trace -- without attaching a debugger to the service.
"""

from __future__ import annotations

import io
import json
import threading
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro import obs
from repro.errors import ReproError
from repro.obs.promexport import validate_prometheus_text
from repro.serve import GridAnalysisService, ServiceConfig, make_http_server

SMALL = {"side": 8, "tiers": 2, "seed": 3}
SWEEP = {"scenarios": [{"name": "a"}, {"name": "b"}]}
#: An mc job that varies nothing fails validation inside the worker --
#: the canonical deliberate failure for exercising the failure artifacts.
BROKEN_MC = {"samples": 2}


@pytest.fixture
def fresh_session():
    """Isolate the process-wide registry so counters start at zero."""
    with obs.session(trace=False, series=False) as tel:
        yield tel


@pytest.fixture
def service(fresh_session, tmp_path):
    svc = GridAnalysisService(
        ServiceConfig(
            workers=2,
            batch_window=0.01,
            queue_depth=16,
            flight_dump_dir=str(tmp_path / "flight"),
        ),
        log_stream=io.StringIO(),
    ).start()
    svc.register_grid("g", SMALL)
    try:
        yield svc
    finally:
        svc.close()


class Client:
    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"

    def call(self, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body).encode()
        request = Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urlopen(request, timeout=120) as response:
                return response.status, json.loads(response.read()), response.headers
        except HTTPError as error:
            return error.code, json.loads(error.read()), error.headers

    def text(self, path: str):
        with urlopen(self.base + path, timeout=120) as response:
            return response.status, response.read().decode(), response.headers


@pytest.fixture
def client(service):
    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield Client(server.server_address[1])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


# -- correlation ids and phase latencies ---------------------------------

def test_job_carries_cid_and_phase_latencies(service):
    job = service.submit("sweep", "g", SWEEP)
    assert len(job.cid) == 16
    done = service.wait(job.id)
    assert done.state == "done"

    info = done.describe()
    assert info["cid"] == job.cid
    latency = info["latency"]
    assert set(latency) == {"queue_wait", "coalesce_wait", "solve", "total"}
    assert all(v is not None and v >= 0 for v in latency.values())
    assert latency["total"] >= latency["solve"]
    assert latency["total"] == pytest.approx(
        latency["queue_wait"] + latency["coalesce_wait"] + latency["solve"],
        abs=1e-6,
    )


def test_queued_job_reports_partial_latency(service):
    job = service.submit("sweep", "g", SWEEP)
    latency = job.latency()
    assert latency["solve"] is None and latency["total"] is None
    service.wait(job.id)


def test_phase_histogram_lands_in_global_registry(service, fresh_session):
    service.wait(service.submit("sweep", "g", SWEEP).id)
    family = fresh_session.registry.bucket_histograms["serve.job_phase_seconds"]
    phases = {key[0] for key in family.children}
    assert phases == {"queue_wait", "coalesce_wait", "solve", "total"}
    assert family.labels(phase="solve", kind="sweep").count >= 1


def test_http_responses_carry_cid_header(client):
    status, job, headers = client.call(
        "POST", "/jobs", {"kind": "sweep", "grid": "g", "params": SWEEP}
    )
    assert status == 202
    assert headers["X-Repro-Cid"] == job["cid"]

    status, done, headers = client.call("GET", f"/jobs/{job['id']}?wait=60")
    assert status == 200 and done["state"] == "done"
    assert headers["X-Repro-Cid"] == job["cid"]
    assert done["latency"]["solve"] is not None


# -- trace endpoint ------------------------------------------------------

def test_job_trace_endpoint_is_perfetto_loadable(client):
    _, job, _ = client.call(
        "POST", "/jobs", {"kind": "sweep", "grid": "g", "params": SWEEP}
    )
    client.call("GET", f"/jobs/{job['id']}?wait=60")
    status, trace, headers = client.call("GET", f"/jobs/{job['id']}/trace")
    assert status == 200
    assert headers["X-Repro-Cid"] == job["cid"]

    events = trace["traceEvents"]
    assert isinstance(events, list) and events
    for record in events:
        assert record["ph"] in ("B", "E", "X", "M")
        if record["ph"] != "M":
            assert isinstance(record["ts"], (int, float))
    # The per-job envelope span is present and labeled with the cid.
    envelopes = [r for r in events if r.get("name") == "serve.job"]
    assert any(r.get("args", {}).get("cid") == job["cid"] for r in envelopes)
    assert trace["metrics"]["job"]["id"] == job["id"]
    json.dumps(trace)  # must round-trip for Perfetto


def test_trace_for_unknown_job_is_404(client):
    status, payload, _ = client.call("GET", "/jobs/nope/trace")
    assert status == 404
    assert "error" in payload


# -- Prometheus endpoint -------------------------------------------------

def test_metrics_prometheus_validates(client):
    _, job, _ = client.call(
        "POST", "/jobs", {"kind": "sweep", "grid": "g", "params": SWEEP}
    )
    client.call("GET", f"/jobs/{job['id']}?wait=60")

    status, text, headers = client.text("/metrics?format=prometheus")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    samples = validate_prometheus_text(text)

    assert samples["repro_serve_jobs_done_total"] >= 1
    assert samples["repro_serve_uptime_seconds"] > 0
    key = (
        "repro_serve_job_phase_seconds_count"
        '{kind="sweep",phase="solve"}'
    )
    assert samples[key] >= 1
    assert any('le="+Inf"' in k for k in samples)


def test_metrics_unknown_format_is_400(client):
    status, payload, _ = client.call("GET", "/metrics?format=xml")
    assert status == 400
    assert "format" in payload["error"]


def test_metrics_json_includes_flight_section(client):
    _, job, _ = client.call(
        "POST", "/jobs", {"kind": "sweep", "grid": "g", "params": SWEEP}
    )
    client.call("GET", f"/jobs/{job['id']}?wait=60")
    status, payload, _ = client.call("GET", "/metrics")
    assert status == 200
    flight = payload["flight"]
    assert flight["capacity"] == 4096
    assert flight["recorded"] >= flight["size"] > 0
    assert "bucket_histograms" in payload


def test_job_seconds_is_a_bucket_histogram(client):
    """``serve.job_seconds`` is a bucket histogram: JSON under
    ``bucket_histograms`` (no scalar ``histograms`` section) and a full
    Prometheus histogram whose +Inf bucket equals its count."""
    _, job, _ = client.call(
        "POST", "/jobs", {"kind": "sweep", "grid": "g", "params": SWEEP}
    )
    client.call("GET", f"/jobs/{job['id']}?wait=60")

    _, payload, _ = client.call("GET", "/metrics")
    assert "histograms" not in payload
    family = payload["bucket_histograms"]["serve.job_seconds"]
    assert family["series"][json.dumps([])]["count"] == 1
    assert payload["cache"]["factorizations"] >= 1

    _, text, _ = client.text("/metrics?format=prometheus")
    samples = validate_prometheus_text(text)
    assert "# TYPE repro_serve_job_seconds histogram" in text
    assert samples['repro_serve_job_seconds_bucket{le="+Inf"}'] == 1
    assert samples["repro_serve_job_seconds_count"] == 1
    assert samples["repro_serve_job_seconds_sum"] > 0


# -- failure artifacts ---------------------------------------------------

def test_failed_job_leaves_full_artifact_trail(service, tmp_path):
    job = service.submit("mc", "g", BROKEN_MC)
    failed = service.wait(job.id)
    assert failed.state == "failed"
    assert "varies nothing" in failed.error

    # 1. Phase latencies survive failure (solve measured up to the raise).
    latency = failed.describe()["latency"]
    assert latency["solve"] is not None and latency["total"] is not None

    # 2. The flight dump was written and is Perfetto-loadable.
    dumps = list((tmp_path / "flight").glob(f"{job.id}-flight.trace.json"))
    assert len(dumps) == 1
    dumped = json.loads(dumps[0].read_text())
    assert dumped["metrics"]["job"]["state"] == "failed"
    assert dumped["metrics"]["job"]["cid"] == job.cid

    # 3. The trace endpoint still serves the job's spans.
    trace = service.job_trace(job.id)
    names = {r.get("name") for r in trace["traceEvents"]}
    assert "serve.job" in names

    # 4. The failure is in the structured log with the same cid.
    lines = [
        json.loads(line)
        for line in service.log.stream.getvalue().splitlines()
    ]
    failures = [r for r in lines if r["event"] == "job.failed"]
    assert any(
        r["cid"] == job.cid and "varies nothing" in r["error"]
        for r in failures
    )


def test_failed_jobs_counted_once(service, fresh_session):
    service.wait(service.submit("mc", "g", BROKEN_MC).id)
    lines = [
        json.loads(line)
        for line in service.log.stream.getvalue().splitlines()
    ]
    terminal = [r for r in lines if r["event"].startswith("job.failed")]
    assert len(terminal) == 1


def test_flight_ring_retains_job_spans(service):
    service.wait(service.submit("sweep", "g", SWEEP).id)
    names = set()
    for event in service.flight.snapshot():
        names.add(event.name)
    assert "serve.job" in names


# -- S3: concurrent scrapes against live traffic -------------------------

def test_concurrent_metrics_scrapes_stay_monotonic(client):
    """N threads hammer /metrics while jobs run: every payload parses,
    and the done-counter never goes backwards across scrapes."""
    n_jobs, n_scrapers, scrapes_each = 6, 3, 8
    stop = threading.Event()
    errors: list[str] = []
    per_thread: list[list[float]] = [[] for _ in range(n_scrapers)]

    def scraper(idx: int) -> None:
        for _ in range(scrapes_each):
            try:
                status, text, _ = client.text("/metrics?format=prometheus")
                if status != 200:
                    errors.append(f"status {status}")
                    continue
                samples = validate_prometheus_text(text)
                per_thread[idx].append(
                    samples.get("repro_serve_jobs_done_total", 0)
                )
            except (ValueError, OSError) as exc:  # noqa: PERF203
                errors.append(str(exc))
            if stop.is_set():
                break

    threads = [
        threading.Thread(target=scraper, args=(i,)) for i in range(n_scrapers)
    ]
    for t in threads:
        t.start()
    jobs = [
        client.call(
            "POST",
            "/jobs",
            {
                "kind": "sweep",
                "grid": "g",
                "params": {"scenarios": [{"name": f"s{k}"}]},
            },
        )[1]
        for k in range(n_jobs)
    ]
    for job in jobs:
        client.call("GET", f"/jobs/{job['id']}?wait=60")
    stop.set()
    for t in threads:
        t.join(timeout=30)

    assert not errors
    for seen in per_thread:
        assert seen == sorted(seen), "done counter went backwards"
    _, text, _ = client.text("/metrics?format=prometheus")
    assert validate_prometheus_text(text)["repro_serve_jobs_done_total"] >= n_jobs


# -- worker-scoped sessions ----------------------------------------------

def test_job_counters_forward_to_global(service, fresh_session):
    """Engine counters recorded under the worker's scoped session must
    reach the process registry (service-wide totals stay monotonic)."""
    service.wait(service.submit("sweep", "g", SWEEP).id)
    counters = fresh_session.registry.snapshot()["counters"]
    assert counters.get("serve.jobs_done", 0) >= 1
    # Engine-level counters recorded inside the scoped job session.
    assert any(name.startswith(("vpm.", "batch.", "cache.")) for name in counters)


def test_broken_mc_raises_repro_error_directly(service):
    """Guard the fixture assumption: the no-sigma mc spec is rejected by
    the engine adapter, not by some earlier validation layer."""
    job = service.submit("mc", "g", BROKEN_MC)
    done = service.wait(job.id)
    assert done.state == "failed"
    with pytest.raises(ReproError):
        raise ReproError(done.error)
