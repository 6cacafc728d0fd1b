"""Malformed job params over live HTTP: each kind's unknown field,
wrong type, non-finite number and count below 1 fails the job with an
error naming the field -- or, for a sweep's solver fields and grid
specs, which are parsed at submission, answers 400 -- and the service
keeps serving."""

from __future__ import annotations

import json
import math
import threading
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.serve import GridAnalysisService, ServiceConfig, make_http_server
from repro.stochastic import VariationSpec, WireFieldVariation, run_monte_carlo

GRID = {"side": 8, "tiers": 2, "seed": 3}
NAN, INF = math.nan, math.inf


def call(base: str, method: str, path: str, body=None):
    data = None if body is None else json.dumps(body).encode()
    try:
        with urlopen(Request(base + path, data=data, method=method), timeout=60) as r:
            return r.status, json.loads(r.read())
    except HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def server():
    service = GridAnalysisService(
        ServiceConfig(workers=2, batch_window=0.0, queue_depth=16)
    ).start()
    service.register_grid("g1", GRID)
    httpd = make_http_server(service)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}", service
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


#: (kind, params, the field the error must name, answered at submit).
CASES = [
    ("mc", [], "params", True),
    ("sweep", {"bogus": 1}, "bogus", True),
    ("sweep", {"max_outer": "x"}, "max_outer", True),
    ("sweep", {"eta": INF}, "eta", True),
    ("sweep", {"max_outer": 0}, "max_outer", True),
    ("sweep", {"scenarios": [{"name": "s", "load_scale": "hot"}]}, "load_scale", False),
    ("mc", {"sigma_width": 0.05, "sigmawire": 0.1}, "sigmawire", False),
    ("mc", {"sigma_width": 0.05, "samples": "x"}, "samples", False),
    ("mc", {"sigma_width": NAN}, "sigma_width", False),
    ("mc", {"sigma_width": 0.05, "kl_rank": 0}, "kl_rank", False),
    ("sensitivity", {"prams": ["width"]}, "prams", False),
    ("sensitivity", {"params": "width"}, "params", False),
    ("sensitivity", {"beta": INF}, "beta", False),
    ("sensitivity", {"top": 0}, "top", False),
    ("optimize", {"budget": 3.0}, "budget", False),
    ("optimize", {"iterations": "many"}, "iterations", False),
    ("optimize", {"area_budget": NAN}, "area_budget", False),
    ("optimize", {"mode": "placement", "pins": 0}, "pins", False),
    ("eco", {"sweeps": "strap"}, "sweeps", False),
    ("eco", {"candidates": [4]}, "candidates", False),
    ("eco", {"verify": NAN}, "verify", False),
    ("eco", {"top": -1}, "top", False),
]


@pytest.mark.parametrize(
    "kind, params, field, at_submit", CASES,
    ids=[f"{kind}-{field}-{k}" for k, (kind, _, field, _) in enumerate(CASES)],
)
def test_malformed_params_name_the_field(server, kind, params, field, at_submit):
    base, _ = server
    status, reply = call(
        base, "POST", "/jobs", {"kind": kind, "grid": "g1", "params": params}
    )
    if at_submit:
        assert status == 400, reply
        error = reply["error"]
    else:
        assert status == 202, reply
        status, job = call(base, "GET", f"/jobs/{reply['id']}?wait=60")
        assert job["state"] == "failed", job
        error = job["error"]
    assert repr(field) in error, error
    assert call(base, "GET", "/healthz") == (200, {"status": "ok"})


@pytest.mark.parametrize(
    "spec, field",
    [({"sides": 8}, "sides"), ({"side": 8.5}, "side"),
     ({"r_tsv": NAN}, "r_tsv"), ({"tiers": True}, "tiers"),
     ([], "grid spec")],
)
def test_malformed_grid_specs_answer_400(server, spec, field):
    base, service = server
    status, reply = call(base, "POST", "/grids", {"name": "bad", "spec": spec})
    assert status == 400 and field in reply["error"], reply
    assert service.grids() == ["g1"]


def test_mc_honours_kl_rank(server):
    """A correlated wire field drawn from the requested KL rank, not the
    default 16: the service matches the library run at rank 2."""
    base, service = server
    params = {"samples": 2, "sigma_wire": 0.1, "corr_length": 2.0,
              "kl_rank": 2, "seed": 1}
    status, reply = call(
        base, "POST", "/jobs", {"kind": "mc", "grid": "g1", "params": params}
    )
    assert status == 202, reply
    status, job = call(base, "GET", f"/jobs/{reply['id']}?wait=120")
    assert job["state"] == "done", job
    expected = run_monte_carlo(
        service._stack("g1"),
        VariationSpec(wire=WireFieldVariation(sigma=0.1, corr_length=2.0, kl_rank=2)),
        2,
        seed=1,
    )
    assert job["result"]["mean_worst_drop"] == expected.mean_worst_drop
