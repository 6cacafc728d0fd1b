"""Service-path acceptance benchmark: N concurrent compatible sweep
requests against one registered grid must

* pay **exactly one** plane factorization for the whole burst
  (counter-asserted on the shared cache),
* beat a serial per-request pipeline (fresh factorization + solo solve
  per request) by at least 1.25x, and
* return per-request numbers **bitwise identical** to the standalone
  single-request path (column independence of the batched engine).

The burst is submitted before the dispatcher starts so the coalescing
window finds every job queued -- deterministic batching, no sleeps.
"""

from __future__ import annotations

import time

from repro.core.batch import BatchedVPConfig, BatchedVPSolver
from repro.core.planes import ReducedPlaneSystem
from repro.scenarios.spec import Scenario
from repro.serve import GridAnalysisService, ServiceConfig

N_REQUESTS = 16
#: The lowest ratio seen on a shared 2-core host was x1.39 (20 runs,
#: median x2.3): on this grid the burst's fixed 10 ms coalescing window
#: is over a quarter of its ~36 ms.  x1.25 still fails a burst that
#: loses its lead over the serial loop.
TARGET_SPEEDUP = 1.25
GRID = {"side": 40, "tiers": 3, "seed": 0}
SCALES = [0.6 + 0.05 * k for k in range(N_REQUESTS)]


def run_coalesced_burst():
    """Start a service with N compatible requests already queued; return
    (service stats, per-job rows, wall seconds)."""
    svc = GridAnalysisService(
        ServiceConfig(workers=2, batch_window=0.01, queue_depth=32)
    )
    svc.register_grid("g", GRID)
    jobs = [
        svc.submit(
            "sweep", "g", {"scenarios": [{"name": "s", "load_scale": scale}]}
        )
        for scale in SCALES
    ]
    t0 = time.perf_counter()
    with svc:
        done = [svc.wait(j.id, timeout=300) for j in jobs]
        # Clock stops when every request has its result; service
        # teardown (thread joins) is not part of the request path.
        seconds = time.perf_counter() - t0
    assert all(j.state == "done" for j in done), [j.error for j in done]
    stack = svc._stack("g")
    return {
        "factorizations": svc.cache.factorizations,
        "batch_jobs": [j.batch_jobs for j in done],
        "rows": [j.result["scenarios"][0] for j in done],
        "seconds": seconds,
        "stack": stack,
    }


def run_serial_baseline(stack):
    """The pipeline the service replaces: every request pays its own
    factorization and a solo one-column solve."""
    t0 = time.perf_counter()
    rows = []
    for scale in SCALES:
        planes = ReducedPlaneSystem(stack, factorize=True)
        result = BatchedVPSolver(
            stack,
            [Scenario(name="s", load_scale=scale)],
            BatchedVPConfig(),
            planes=planes,
        ).solve()
        rows.append(result)
    return rows, time.perf_counter() - t0


def test_serve_smoke(bench_once, benchmark):
    burst = bench_once(run_coalesced_burst)

    # One LU for the whole 8-request burst, and every request rode the
    # same merged batch.
    assert burst["factorizations"] == 1
    assert burst["batch_jobs"] == [N_REQUESTS] * N_REQUESTS

    # Bitwise parity: the coalesced fan-out equals the standalone
    # single-request path, scale by scale.
    stack = burst["stack"]
    for row, scale in zip(burst["rows"], SCALES):
        solo = BatchedVPSolver(
            stack, [Scenario(name="s", load_scale=scale)], BatchedVPConfig()
        ).solve()
        assert row["pillar_v0"] == [float(v) for v in solo.pillar_v0[:, 0]]
        assert row["worst_ir_drop"] == float(solo.worst_ir_drop()[0])

    serial_rows, serial_seconds = run_serial_baseline(stack)
    assert all(r.converged.all() for r in serial_rows)
    speedup = serial_seconds / max(burst["seconds"], 1e-12)
    assert speedup >= TARGET_SPEEDUP, (
        f"coalesced burst only x{speedup:.2f} over the serial per-request "
        f"pipeline (target x{TARGET_SPEEDUP})"
    )
    benchmark.extra_info.update(
        {
            "n_requests": N_REQUESTS,
            "coalesced_seconds": burst["seconds"],
            "serial_seconds": serial_seconds,
            "speedup": speedup,
            "factorizations": burst["factorizations"],
        }
    )
