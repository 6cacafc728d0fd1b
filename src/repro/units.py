"""Engineering-unit helpers used across reports and benchmarks.

Only formatting/parsing lives here, down to the one fixed-width table
renderer every report and profile prints with; the rest of the library
works in plain SI floats (volts, amperes, ohms, siemens, seconds, bytes).
"""

from __future__ import annotations

import math

# SI prefixes from femto to tera, keyed by decimal exponent.
_SI_PREFIXES = {
    -15: "f",
    -12: "p",
    -9: "n",
    -6: "u",
    -3: "m",
    0: "",
    3: "k",
    6: "M",
    9: "G",
    12: "T",
}

_PREFIX_EXPONENTS = {v: k for k, v in _SI_PREFIXES.items() if v}


def si_format(value: float, unit: str = "", digits: int = 3) -> str:
    """Format ``value`` with an SI prefix, e.g. ``si_format(0.0021, 'V')``
    returns ``'2.1mV'``.

    Zero, NaN and infinities are passed through without a prefix.
    """
    if value == 0 or not math.isfinite(value):
        return f"{value:g}{unit}"
    exponent = int(math.floor(math.log10(abs(value)) / 3.0) * 3)
    exponent = max(min(exponent, 12), -15)
    scaled = value / (10.0**exponent)
    text = f"{scaled:.{digits}g}"
    # Rounding at a prefix boundary can carry the mantissa to 1000
    # (e.g. 999.9999 -> "1e+03"); roll into the next prefix instead so
    # the result reads "1k", not "1e+03".  At the top prefix there is
    # nowhere to carry to, so the clamped rendering stands.
    if abs(float(text)) >= 1000.0 and exponent < 12:
        exponent += 3
        scaled = value / (10.0**exponent)
        text = f"{scaled:.{digits}g}"
    return f"{text}{_SI_PREFIXES[exponent]}{unit}"


def si_parse(text: str) -> float:
    """Parse a number with an optional SI prefix suffix, e.g. ``'0.05'``,
    ``'50m'``, ``'2.1k'``.  SPICE-style ``meg`` is accepted for 1e6.

    Raises ``ValueError`` on malformed input, including non-finite
    values (``nan``/``inf`` parse as floats but are never legal element
    values).
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty numeric field")
    lowered = stripped.lower()
    if lowered.endswith("meg"):
        value = float(lowered[:-3]) * 1e6
    else:
        suffix = stripped[-1]
        if suffix in _PREFIX_EXPONENTS and not suffix.isdigit():
            value = float(stripped[:-1]) * (10.0 ** _PREFIX_EXPONENTS[suffix])
        # Also accept uppercase variants of the prefixes (K, M means mega in
        # some writers; SPICE tradition says case-insensitive, 'm' = milli).
        elif suffix == "K":
            value = float(stripped[:-1]) * 1e3
        elif suffix == "G":
            value = float(stripped[:-1]) * 1e9
        elif suffix == "T":
            value = float(stripped[:-1]) * 1e12
        else:
            value = float(stripped)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def format_bytes(n_bytes: float) -> str:
    """Human-readable byte count (binary prefixes), e.g. ``'3.2MiB'``."""
    value = float(n_bytes)
    for prefix in ("", "Ki", "Mi", "Gi", "Ti"):
        if abs(value) < 1024.0 or prefix == "Ti":
            return f"{value:.3g}{prefix}B"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(seconds: float) -> str:
    """Human-readable duration, e.g. ``'512.7s'``, ``'3.5min'``."""
    if seconds < 60:
        return f"{seconds:.4g}s"
    if seconds < 3600:
        return f"{seconds / 60:.3g}min"
    return f"{seconds / 3600:.3g}h"


def format_cell(cell) -> str:
    """One report-table cell: ``-`` for None, 4 significant digits for a
    float."""
    if cell is None:
        return "-"
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def ascii_table(headers: list[str], rows: list[list]) -> str:
    """Fixed-width aligned table (right-aligned numeric feel)."""
    text_rows = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = [
        "  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)),
        "  ".join("-" * widths[k] for k in range(len(headers))),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.rjust(widths[k]) for k, cell in enumerate(row)))
    return "\n".join(lines)
