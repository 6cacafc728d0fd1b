"""End-to-end HTTP API tests on an ephemeral port (stdlib client)."""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.serve import GridAnalysisService, ServiceConfig, make_http_server

SMALL = {"side": 10, "tiers": 2, "seed": 5}


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
                return response.status, json.loads(response.read())
        except HTTPError as error:
            return error.code, json.loads(error.read())


@pytest.fixture
def client():
    service = GridAnalysisService(
        ServiceConfig(workers=2, batch_window=0.02, queue_depth=8)
    ).start()
    server = make_http_server(service)  # port=0 -> ephemeral
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield Client(server.server_address[1])
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def test_healthz(client):
    assert client.call("GET", "/healthz") == (200, {"status": "ok"})


def test_register_submit_wait_roundtrip(client):
    status, info = client.call(
        "POST", "/grids", {"name": "g1", "spec": SMALL}
    )
    assert status == 201
    assert info["nodes"] == 200

    status, job = client.call(
        "POST",
        "/jobs",
        {
            "kind": "sweep",
            "grid": "g1",
            "params": {"scenarios": [{"name": "a"}, {"name": "b"}]},
        },
    )
    assert status == 202
    assert job["state"] == "queued"

    status, done = client.call("GET", f"/jobs/{job['id']}?wait=60")
    assert status == 200
    assert done["state"] == "done"
    names = [r["name"] for r in done["result"]["scenarios"]]
    assert names == ["a", "b"]

    status, listing = client.call("GET", "/jobs")
    assert status == 200
    assert listing["jobs"][0]["id"] == job["id"]
    assert "result" not in listing["jobs"][0]  # listing stays light


def test_error_statuses(client):
    assert client.call("GET", "/nope")[0] == 404
    assert client.call("GET", "/jobs/job-999")[0] == 404
    assert client.call("POST", "/grids", {"spec": SMALL})[0] == 400
    assert client.call("POST", "/jobs", {"kind": "sweep"})[0] == 400
    status, body = client.call(
        "POST", "/jobs", {"kind": "sweep", "grid": "missing"}
    )
    assert status == 404
    assert "register" in body["error"]


def test_queue_full_returns_429():
    # A service whose dispatcher is NOT started accepts submissions but
    # never drains them, so the queue fills deterministically.
    service = GridAnalysisService(ServiceConfig(queue_depth=3))
    service.register_grid("g1", SMALL)
    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        http = Client(server.server_address[1])
        statuses = [
            http.call("POST", "/jobs", {"kind": "sweep", "grid": "g1"})[0]
            for _ in range(5)
        ]
        assert statuses == [202, 202, 202, 429, 429]
        # The rejected submission reports a retryable error.
        status, body = http.call(
            "POST", "/jobs", {"kind": "sweep", "grid": "g1"}
        )
        assert status == 429
        assert "retry" in body["error"]
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def test_metrics_endpoint(client):
    client.call("POST", "/grids", {"name": "g1", "spec": SMALL})
    status, job = client.call(
        "POST", "/jobs", {"kind": "sweep", "grid": "g1", "params": {}}
    )
    assert status == 202
    client.call("GET", f"/jobs/{job['id']}?wait=60")
    status, metrics = client.call("GET", "/metrics")
    assert status == 200
    assert metrics["cache"]["factorizations"] >= 1
    assert metrics["counters"]["serve.jobs_submitted"] >= 1
    assert metrics["grids"] == ["g1"]


def test_cancel_job(client):
    client.call("POST", "/grids", {"name": "g1", "spec": SMALL})
    status, job = client.call(
        "POST",
        "/jobs",
        {"kind": "mc", "grid": "g1", "params": {"samples": 32,
                                                "sigma_width": 0.05}},
    )
    assert status == 202
    status, cancelled = client.call("DELETE", f"/jobs/{job['id']}")
    assert status == 200
    # Queued cancels land immediately; a job already picked up by the
    # dispatcher finishes its solve and is then discarded -- either way
    # the terminal state is cancelled (or done if it beat the cancel).
    status, final = client.call("GET", f"/jobs/{job['id']}?wait=120")
    assert final["state"] in ("cancelled", "done")
    if final["state"] == "cancelled":
        assert "result" not in final


def test_keep_alive_round_trips_skip_the_delayed_ack(client):
    # Headers and body leave in two writes; with Nagle's algorithm on,
    # the body waits for the client's delayed ACK (~40 ms per request).
    port = int(client.base.rsplit(":", 1)[1])
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert json.loads(response.read()) == {"status": "ok"}
            times.append(time.perf_counter() - t0)
    finally:
        conn.close()
    assert statistics.median(times) < 0.020, times


@pytest.fixture
def idle_server():
    """A server over a service whose dispatcher never runs: the one
    submitted job stays queued (a ``wait`` on it cannot end early)."""
    service = GridAnalysisService(ServiceConfig(queue_depth=4))
    service.register_grid("g1", SMALL)
    job = service.submit("sweep", "g1")
    server = make_http_server(service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    try:
        yield Client(server.server_address[1]), job.id, service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def call_with_deadline(http: Client, method: str, path: str, body=None):
    """Like ``Client.call`` but gives up after 10 s (a handler blocked
    on a never-ending wait must fail the test, not hang it)."""
    data = None if body is None else json.dumps(body).encode()
    request = Request(http.base + path, data=data, method=method)
    try:
        with urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except HTTPError as error:
        return error.code, json.loads(error.read())


SWEEP = {"kind": "sweep", "grid": "g1"}


@pytest.mark.parametrize(
    "method, path, body, field",
    [
        ("GET", "/jobs/{job}?wait=abc", None, "wait"),
        ("GET", "/jobs/{job}?wait=nan", None, "wait"),
        ("GET", "/jobs/{job}?wait=inf", None, "wait"),
        ("POST", "/jobs", {**SWEEP, "timeout": "x"}, "timeout"),
        ("POST", "/jobs", {**SWEEP, "timeout": "nan"}, "timeout"),
        ("POST", "/jobs", {**SWEEP, "params": [1, 2]}, "params"),
        ("POST", "/jobs", {**SWEEP, "params": {"outer_tol": "x"}}, "outer_tol"),
        ("POST", "/grids", {"name": "g2", "spec": {"side": "x"}}, "side"),
        ("POST", "/jobs", {**SWEEP, "timeout": -1}, "timeout"),
        ("POST", "/jobs", {**SWEEP, "timeout": 0}, "timeout"),
    ],
)
def test_malformed_numbers_answer_400(idle_server, method, path, body, field):
    http, job_id, _ = idle_server
    status, reply = call_with_deadline(
        http, method, path.format(job=job_id), body
    )
    assert status == 400
    assert field in reply["error"]
    assert call_with_deadline(http, "GET", "/healthz") == (
        200, {"status": "ok"}
    )


def test_unexpected_handler_error_answers_500(idle_server):
    http, _, service = idle_server

    def broken():
        raise RuntimeError("boom")

    service.metrics = broken
    status, reply = call_with_deadline(http, "GET", "/metrics")
    assert status == 500
    assert "RuntimeError" in reply["error"]
    assert call_with_deadline(http, "GET", "/healthz") == (
        200, {"status": "ok"}
    )
