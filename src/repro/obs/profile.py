"""Phase-attributed profile rendering for ``repro profile`` / ``--profile``.

Turns one telemetry session (spans + metrics) into the human-readable
summary the CLI prints: a span table ordered by self time, then the
counter/gauge/histogram tallies.
"""

from __future__ import annotations

from repro.obs.export import span_summary
from repro.obs.session import Telemetry
from repro.units import ascii_table, format_seconds


def render_profile(tel: Telemetry) -> str:
    """Summary text for a finished telemetry session."""
    sections: list[str] = []

    summary = span_summary(tel.tracer.events)
    if summary:
        rows = [
            [
                name,
                row["count"],
                format_seconds(row["total_s"]),
                format_seconds(row["self_s"]),
                format_seconds(row["min_s"]),
                format_seconds(row["max_s"]),
            ]
            for name, row in sorted(
                summary.items(), key=lambda kv: kv[1]["self_s"], reverse=True
            )
        ]
        sections.append(
            "spans (by self time)\n"
            + ascii_table(["span", "count", "total", "self", "min", "max"], rows)
        )

    reg = tel.registry
    if reg.counters:
        rows = [[name, c.value] for name, c in sorted(reg.counters.items())]
        sections.append("counters\n" + ascii_table(["counter", "value"], rows))
    if reg.gauges:
        rows = [[name, g.value] for name, g in sorted(reg.gauges.items())]
        sections.append("gauges\n" + ascii_table(["gauge", "value"], rows))
    if reg.histograms:
        rows = [
            [name, h.count, h.mean, h.min, h.max]
            for name, h in sorted(reg.histograms.items())
            if h.count
        ]
        if rows:
            sections.append(
                "histograms\n"
                + ascii_table(["histogram", "count", "mean", "min", "max"], rows)
            )
    if reg.bucket_histograms:
        rows = []
        for name, family in sorted(reg.bucket_histograms.items()):
            for key, child in sorted(family.children.items()):
                label = name if not key else f"{name}{{{','.join(key)}}}"
                if child.count:
                    rows.append(
                        [label, child.count, child.total / child.count, child.min, child.max]
                    )
        if rows:
            sections.append(
                "latency histograms\n"
                + ascii_table(["histogram", "count", "mean", "min", "max"], rows)
            )
    if reg.series_store:
        rows = [
            [name, len(s), s.values[-1] if s.values else None]
            for name, s in sorted(reg.series_store.items())
        ]
        sections.append(
            "convergence series\n" + ascii_table(["series", "points", "last"], rows)
        )

    if not sections:
        return "no telemetry recorded"
    return "\n\n".join(sections)
