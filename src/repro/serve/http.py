"""Stdlib HTTP/JSON transport for :class:`GridAnalysisService`.

A deliberately small REST surface (every body and response is JSON
unless noted; see docs/service.md for examples):

=====================  ======  ==========================================
Path                   Method  Meaning
=====================  ======  ==========================================
``/healthz``           GET     liveness probe
``/grids``             GET     registered grid names
``/grids``             POST    ``{"name": ..., "spec": {...}}`` -> grid
                               info
``/jobs``              GET     all job status records
``/jobs``              POST    ``{"kind", "grid", "params", "timeout"}``
                               -> 202 + job record; **429** when the
                               queue is full (backpressure -- retry
                               later)
``/jobs/<id>``         GET     job record (+ result when done, latency
                               phases always); ``?wait=S`` blocks up to
                               S seconds for a terminal state
``/jobs/<id>/trace``   GET     Perfetto-loadable Chrome trace of the
                               job's execution spans (flight-ring
                               fallback before execution)
``/jobs/<id>``         DELETE  cancel (queued: immediate; running:
                               best-effort)
``/metrics``           GET     service/cache/queue metrics snapshot;
                               ``?format=prometheus`` returns text
                               exposition instead of JSON
=====================  ======  ==========================================

Correlation: every response about a specific job carries its
correlation id in the ``X-Repro-Cid`` header (also in the JSON body as
``cid``), and every request emits one structured JSON access-log line
with the same id -- see docs/observability.md for the lifecycle.

Built on ``http.server.ThreadingHTTPServer`` -- one thread per
connection, which is fine because handlers only enqueue work and read
state; the solver work happens on the service's own worker pool.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.errors import ReproError
from repro.serve.jobs import QueueFullError, UnknownJobError
from repro.serve.service import GridAnalysisService, UnknownGridError

#: Cap on accepted request bodies (a grid spec or job submission is a
#: few hundred bytes; anything bigger is a client bug or abuse).
MAX_BODY_BYTES = 1 << 20


def _seconds(value, field: str) -> float:
    """A finite number of seconds from a request field; anything else is
    a 400 naming the field (``nan`` would make a wait never time out)."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = math.nan
    if not math.isfinite(seconds):
        raise ReproError(
            f"{field!r} must be a finite number of seconds, got {value!r}"
        )
    return seconds


class _Handler(BaseHTTPRequestHandler):
    """One request; routing is a small if-ladder over (method, path)."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    #: Headers and body go out in two writes; with Nagle on, a small body
    #: waits for the client's delayed ACK (~40 ms per keep-alive request).
    disable_nagle_algorithm = True
    #: Injected by :func:`make_http_server`.
    service: GridAnalysisService

    # -- plumbing --------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep stdout clean; observability goes through repro.obs

    def _send(
        self,
        status: int,
        payload: dict,
        *,
        cid: str | None = None,
        extra_headers: dict | None = None,
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if cid:
            self.send_header("X-Repro-Cid", cid)
            self._cid = cid
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)
        self._status = status

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self._status = status

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def _internal_error(self, exc: Exception) -> None:
        """Log an unexpected handler exception with its traceback and
        answer 500, instead of dropping the connection unanswered."""
        self.service.log.log(
            "http.error", path=self.path, error=repr(exc),
            traceback=traceback.format_exc(),
        )
        if not self._status:  # nothing sent yet on this request
            self._error(500, f"internal error: {type(exc).__name__}: {exc}")

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ReproError(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ReproError(f"invalid JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise ReproError("request body must be a JSON object")
        return body

    def _begin(self) -> float:
        obs.add("serve.http_requests")
        self._status = 0
        self._cid: str | None = None
        return time.perf_counter()

    def _access(self, method: str, t0: float) -> None:
        dur = time.perf_counter() - t0
        obs.add_labeled(
            "serve.http_responses",
            {"method": method, "status": str(self._status)},
        )
        obs.observe_bucket(
            "serve.http_seconds", dur, {"method": method}
        )
        self.service.log.access(
            method, self.path, self._status, dur, cid=self._cid
        )

    # -- routes ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        t0 = self._begin()
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._send(200, {"status": "ok"})
            elif parts == ["metrics"]:
                query = parse_qs(url.query)
                fmt = query.get("format", ["json"])[0]
                if fmt == "prometheus":
                    self._send_text(
                        200,
                        self.service.prometheus(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                elif fmt == "json":
                    self._send(200, self.service.metrics())
                else:
                    raise ReproError(
                        f"unknown metrics format {fmt!r}; use json or prometheus"
                    )
            elif parts == ["grids"]:
                self._send(
                    200,
                    {
                        "grids": [
                            self.service.describe_grid(name)
                            for name in self.service.grids()
                        ]
                    },
                )
            elif parts == ["jobs"]:
                self._send(
                    200,
                    {"jobs": [j.describe() for j in self.service.queue.jobs()]},
                )
            elif len(parts) == 2 and parts[0] == "jobs":
                self._get_job(parts[1], parse_qs(url.query))
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
                job = self.service.queue.get(parts[1])
                self._send(200, self.service.job_trace(parts[1]), cid=job.cid)
            else:
                self._error(404, f"no route for GET {url.path}")
        except (UnknownJobError, UnknownGridError) as exc:
            self._error(404, str(exc))
        except ReproError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # a handler bug must not drop the connection
            self._internal_error(exc)
        finally:
            self._access("GET", t0)

    def _get_job(self, job_id: str, query: dict) -> None:
        wait = _seconds(query.get("wait", ["0"])[0], "wait")
        job = self.service.queue.wait(job_id, min(wait, 300.0))
        self._send(200, job.describe(include_result=True), cid=job.cid)

    def do_POST(self) -> None:  # noqa: N802
        t0 = self._begin()
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            body = self._body()
            if parts == ["grids"]:
                name = body.get("name")
                if not name:
                    raise ReproError("grid registration needs a 'name'")
                info = self.service.register_grid(name, body.get("spec"))
                self._send(201, info)
            elif parts == ["jobs"]:
                kind = body.get("kind")
                grid = body.get("grid")
                if not kind or not grid:
                    raise ReproError("job submission needs 'kind' and 'grid'")
                timeout = body.get("timeout")
                job = self.service.submit(
                    kind,
                    grid,
                    body.get("params"),
                    timeout=None if timeout is None else _seconds(
                        timeout, "timeout"
                    ),
                )
                self.service.log.job(
                    "submitted", job.cid, job.id, kind=job.kind, grid=job.grid
                )
                self._send(202, job.describe(), cid=job.cid)
            else:
                self._error(404, f"no route for POST {url.path}")
        except QueueFullError as exc:
            # The backpressure contract: full queue -> 429, client backs
            # off and retries.  Nothing was enqueued.
            self._send(429, {"error": str(exc)}, extra_headers={"Retry-After": "1"})
        except UnknownGridError as exc:
            self._error(404, str(exc))
        except ReproError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # a handler bug must not drop the connection
            self._internal_error(exc)
        finally:
            self._access("POST", t0)

    def do_DELETE(self) -> None:  # noqa: N802
        t0 = self._begin()
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        try:
            if len(parts) == 2 and parts[0] == "jobs":
                job = self.service.queue.cancel(parts[1])
                self._send(200, job.describe(), cid=job.cid)
            else:
                self._error(404, f"no route for DELETE {self.path}")
        except UnknownJobError as exc:
            self._error(404, str(exc))
        except ReproError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # a handler bug must not drop the connection
            self._internal_error(exc)
        finally:
            self._access("DELETE", t0)


def make_http_server(
    service: GridAnalysisService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind a server for ``service`` (``port=0`` picks an ephemeral
    port; read it back from ``server.server_address``).  The caller owns
    both lifecycles: ``service.start()`` before serving,
    ``server.shutdown()`` + ``service.close()`` to stop."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


def serve_http(
    service: GridAnalysisService, host: str = "127.0.0.1", port: int = 8642
) -> None:
    """Run the service behind a blocking HTTP loop (the ``repro serve``
    entry point).  Ctrl-C shuts down cleanly: in-flight jobs finish,
    queued jobs fail with a shutdown error."""
    server = make_http_server(service, host, port)
    actual_host, actual_port = server.server_address[:2]
    service.start()
    print(f"repro serve: listening on http://{actual_host}:{actual_port}")
    print(
        f"  workers={service.config.workers} "
        f"queue_depth={service.config.queue_depth} "
        f"batch_window={service.config.batch_window:g}s "
        f"cache_entries={service.config.cache_entries}"
    )
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        print("\nrepro serve: shutting down")
    finally:
        server.shutdown()
        server.server_close()
        service.close()


__all__ = ["MAX_BODY_BYTES", "make_http_server", "serve_http"]
