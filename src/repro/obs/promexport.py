"""Prometheus text exposition (format version 0.0.4) for the registry.

:func:`render_prometheus` turns a :meth:`MetricsRegistry.snapshot` dict
into the plain-text format every Prometheus-compatible scraper ingests:

* counters  -> ``repro_<name>_total``          (TYPE counter)
* gauges    -> ``repro_<name>``                (TYPE gauge)
* labeled counters -> one sample per label combination
* bucket histograms -> the full ``_bucket{le=...}`` ladder with the
  ``+Inf`` bucket, ``_sum`` and ``_count``    (TYPE histogram)

Dotted internal names map to underscore names under one ``repro_``
namespace (``serve.jobs_done`` -> ``repro_serve_jobs_done_total``), so
dashboards address the whole tree with one prefix.

:func:`validate_prometheus_text` is a promtool-style line validator
(pure stdlib) used by the tests and the service smoke check: it
enforces the line grammar, TYPE-before-sample ordering, histogram
bucket cumulativity, and the ``+Inf``/``_count`` agreement -- the
properties a real scraper would reject a payload over.
"""

from __future__ import annotations

import json
import math
import re

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def _metric_name(name: str, suffix: str = "") -> str:
    base = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    out = f"repro_{base}{suffix}"
    if not _NAME_OK.match(out):  # pragma: no cover - prefix guarantees validity
        raise ValueError(f"cannot form a valid metric name from {name!r}")
    return out


def _label_name(name: str) -> str:
    out = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not _LABEL_OK.match(out):
        out = "_" + out
    return out


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels_block(names, values) -> str:
    if not names:
        return ""
    # Sorted by label name so the exposition is canonical regardless of
    # the order the first observation supplied its labels in.
    inner = ",".join(
        f'{_label_name(n)}="{_escape_label_value(str(v))}"'
        for n, v in sorted(zip(names, values), key=lambda pair: pair[0])
    )
    return "{" + inner + "}"


def render_prometheus(snapshot: dict, extra_gauges: dict | None = None) -> str:
    """Render a registry snapshot as Prometheus exposition text.

    ``extra_gauges`` lets callers append derived scalars (cache/queue
    stats, uptime) that live outside the registry; values must be
    numeric and names follow the same sanitization.
    """
    lines: list[str] = []

    for name in sorted(snapshot.get("counters", {})):
        metric = _metric_name(name, "_total")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt_value(snapshot['counters'][name])}")

    for name, family in sorted(snapshot.get("labeled_counters", {}).items()):
        metric = _metric_name(name, "_total")
        lines.append(f"# TYPE {metric} counter")
        for key, value in sorted(family["series"].items()):
            block = _labels_block(family["labels"], json.loads(key))
            lines.append(f"{metric}{block} {_fmt_value(value)}")

    gauges = dict(snapshot.get("gauges", {}))
    if extra_gauges:
        gauges.update(extra_gauges)
    for name in sorted(gauges):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt_value(gauges[name])}")

    for name, family in sorted(snapshot.get("bucket_histograms", {}).items()):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} histogram")
        bounds = family["buckets"]
        labelnames = family["labels"]
        for key, child in sorted(family["series"].items()):
            values = json.loads(key)
            cumulative = 0
            for bound, count in zip(bounds, child["counts"]):
                cumulative += count
                block = _labels_block(
                    list(labelnames) + ["le"], list(values) + [_fmt_value(bound)]
                )
                lines.append(f"{metric}_bucket{block} {cumulative}")
            cumulative += child["counts"][-1]
            block = _labels_block(list(labelnames) + ["le"], list(values) + ["+Inf"])
            lines.append(f"{metric}_bucket{block} {cumulative}")
            base = _labels_block(labelnames, values)
            lines.append(f"{metric}_sum{base} {_fmt_value(child['sum'])}")
            lines.append(f"{metric}_count{base} {cumulative}")

    return "\n".join(lines) + "\n"


# -- promtool-style validation (used by tests and the smoke check) -------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<ts>-?[0-9]+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$'
)
_SUFFIXES = ("_bucket", "_sum", "_count", "_total")


def _family_of(name: str, declared: set[str]) -> str | None:
    if name in declared:
        return name
    for suffix in _SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in declared:
            return name[: -len(suffix)]
        if name.endswith(suffix) and name in declared:
            return name
    # counters are declared with their full _total name
    return name if name in declared else None


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)  # raises ValueError on garbage


def validate_prometheus_text(text: str) -> dict[str, float]:
    """Validate exposition text; return ``{sample_key: value}``.

    Checks (raising ``ValueError`` with the offending line):

    * every line is a comment, blank, or a well-formed sample;
    * label blocks parse as ``name="escaped value"`` pairs;
    * every sample belongs to a family declared by a preceding
      ``# TYPE`` line;
    * histogram ``_bucket`` series are cumulative in ``le`` order and
      end with a ``+Inf`` bucket equal to the family ``_count``.

    The returned mapping keys are ``name{labels}`` exactly as printed,
    which makes monotonicity assertions across scrapes one dict lookup.
    """
    declared: set[str] = set()
    samples: dict[str, float] = {}
    buckets: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, float] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
                if parts[3] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise ValueError(f"line {lineno}: unknown TYPE {parts[3]!r}")
                declared.add(parts[2])
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = m.group("name")
        labels_text = m.group("labels")
        label_map: dict[str, str] = {}
        if labels_text:
            for pair in re.split(r",(?=[a-zA-Z_])", labels_text):
                if not _LABEL_PAIR_RE.match(pair):
                    raise ValueError(f"line {lineno}: malformed label pair {pair!r}")
                key, _, raw = pair.partition("=")
                label_map[key] = raw[1:-1]
        try:
            value = _parse_value(m.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed value {m.group('value')!r}"
            ) from None
        if _family_of(name, declared) is None:
            raise ValueError(f"line {lineno}: sample {name!r} has no # TYPE declaration")
        key = name + (("{" + labels_text + "}") if labels_text else "")
        if key in samples:
            raise ValueError(f"line {lineno}: duplicate sample {key!r}")
        samples[key] = value

        if name.endswith("_bucket") and "le" in label_map:
            series = name[: -len("_bucket")] + _labels_block(
                sorted(k for k in label_map if k != "le"),
                [label_map[k] for k in sorted(label_map) if k != "le"],
            )
            buckets.setdefault(series, []).append((_parse_value(label_map["le"]), value))
        elif name.endswith("_count"):
            series = name[: -len("_count")] + (
                ("{" + labels_text + "}") if labels_text else ""
            )
            counts[series] = value

    for series, ladder in buckets.items():
        last = -math.inf
        prev_count = -1.0
        for le, count in ladder:  # emitted in le order
            if le <= last:
                raise ValueError(f"{series}: bucket bounds not increasing at le={le}")
            if count < prev_count:
                raise ValueError(f"{series}: bucket counts not cumulative at le={le}")
            last, prev_count = le, count
        if not math.isinf(ladder[-1][0]):
            raise ValueError(f"{series}: histogram missing +Inf bucket")
        if series in counts and counts[series] != ladder[-1][1]:
            raise ValueError(
                f"{series}: _count {counts[series]} != +Inf bucket {ladder[-1][1]}"
            )
    return samples
