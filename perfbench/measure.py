"""Shared measurement helpers: latency summaries and output comparisons."""

from __future__ import annotations

import statistics

import numpy as np


def latency_summary(latencies: list[float], wall: float) -> dict:
    """End-to-end timing metrics of one closed-loop window."""
    return {
        "ops_per_s": len(latencies) / wall,
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[
            -1
        ],
    }


def within(observed, reference, *, rtol: float = 0.0, atol: float = 0.0) -> bool:
    """Element-wise ``|observed - reference| <= atol + rtol * |reference|``
    with equal shapes; any non-finite value fails."""
    observed = np.asarray(observed, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if observed.shape != reference.shape:
        return False
    if not (np.all(np.isfinite(observed)) and np.all(np.isfinite(reference))):
        return False
    return bool(
        np.all(np.abs(observed - reference) <= atol + rtol * np.abs(reference))
    )
