"""Seeded inputs: everything a workload feeds the program comes from here.

The same ``(workload, seed)`` always gives the same inputs; the program
receives only the generated values (scenario corners, sample seeds,
corner sets, strap-set seeds), never the workload seed itself.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Per-op inputs are drawn for this many ops and reused cyclically past
#: it (a 60 s window at the fastest workload stays below it).
N_OPS = 2048

#: serve-sweep-c1: distinct 4-scenario jobs the clients cycle through
#: (the output check re-solves each once).
SERVE_JOBS = 8
SERVE_SCENARIOS = 4

#: transient-droop-c1: load-step corners per op, stepping from BEFORE to
#: a level in [LEVEL_LO, LEVEL_HI] at T_STEP.
TRANSIENT_CORNERS = 8
LEVEL_LO, LEVEL_HI = 0.4, 1.9


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _seeds(rng: np.random.Generator) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=N_OPS)]


def _serve(rng: np.random.Generator) -> dict:
    # Corners stay inside the process window where every C1 column takes
    # the same number of outer iterations (a TSV corner past ~1.35x adds
    # iterations), so every seed asks for the same amount of work.
    jobs = []
    for _ in range(SERVE_JOBS):
        jobs.append(
            {
                "scenarios": [
                    {
                        "name": f"corner-{k}",
                        "load_scale": round(float(rng.uniform(0.8, 1.2)), 4),
                        "r_tsv_scale": round(float(rng.uniform(0.8, 1.2)), 4),
                        "plane_scale": round(float(rng.uniform(0.9, 1.1)), 4),
                    }
                    for k in range(SERVE_SCENARIOS)
                ]
            }
        )
    return {"jobs": jobs, "offset": int(rng.integers(SERVE_JOBS))}


def _transient(rng: np.random.Generator) -> dict:
    levels: set[float] = set()
    while len(levels) < TRANSIENT_CORNERS:
        levels.add(round(float(rng.uniform(LEVEL_LO, LEVEL_HI)), 3))
    return {
        "levels": sorted(levels),
        "rotations": [
            int(r) for r in rng.integers(0, TRANSIENT_CORNERS, size=N_OPS)
        ],
    }


def make_inputs(workload: str, seed: int) -> dict:
    """All inputs of one run of ``workload``."""
    rng = _rng(workload, seed)
    if workload == "serve-sweep-c1":
        return _serve(rng)
    if workload == "transient-droop-c1":
        return _transient(rng)
    if workload in ("mc-wire-c1", "eco-adjoint-c1"):
        return {"seeds": _seeds(rng)}
    raise ValueError(f"unknown workload {workload!r}")
