"""One timing source, one histogram.

An interval an engine reports is timed by ``obs.Stopwatch``, which
records the span itself; the only other ``add_complete`` caller is the
service's fan-out of one batch measurement into one span per coalesced
job.  The registry keeps one histogram kind (bucket histograms) and no
instrument that nothing in the tree records into.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro import obs
from repro.obs import MetricsRegistry

SRC = Path(repro.__file__).resolve().parent


def test_only_obs_and_the_service_fan_out_call_add_complete():
    callers = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("obs/"):
            continue
        count = path.read_text().count("add_complete(")
        if count:
            callers[rel] = count
    assert callers == {"serve/service.py": 1}


def test_obs_exports_no_unfed_instruments():
    for name in ("Histogram", "LabeledGauge", "observe", "record_series"):
        assert not hasattr(obs, name), name
        assert name not in obs.__all__


def test_registry_has_one_histogram_and_no_series_record_path():
    for name in ("observe", "set_gauge_labeled", "record"):
        assert not hasattr(MetricsRegistry, name), name
    assert "histograms" not in MetricsRegistry().snapshot()
