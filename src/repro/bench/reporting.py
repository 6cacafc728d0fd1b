"""Table rendering and CSV/JSON writers for benchmark reports."""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.units import ascii_table as ascii_table  # re-exported
from repro.units import format_cell

#: Version of the ``BENCH_<name>.json`` artifact schema emitted by
#: ``benchmarks/conftest.py`` (documented in the README benchmark
#: section).  Bump when fields are added/renamed so downstream perf
#: tooling can dispatch on it.
#:
#: v2: every artifact embeds a ``metrics`` object -- the delta of the
#: :mod:`repro.obs` registry snapshot over the benchmark (counters,
#: gauges, histograms).
BENCH_SCHEMA_VERSION = 2


def markdown_table(headers: list[str], rows: list[list]) -> str:
    """GitHub-flavoured Markdown table."""
    text_rows = [[format_cell(c) for c in row] for row in rows]
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in text_rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _jsonable(value):
    """Coerce numpy scalars/arrays so json.dump accepts report payloads."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_csv(path: str | Path, headers: list[str], rows: list[list]) -> Path:
    """Write a report table as CSV (numpy scalars unwrapped)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_jsonable(cell) for cell in row])
    return path


def write_json(path: str | Path, payload) -> Path:
    """Write a report payload (dict/list, numpy values allowed) as JSON."""
    path = Path(path)
    with path.open("w") as handle:
        json.dump(_jsonable(payload), handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path

