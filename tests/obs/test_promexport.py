"""Prometheus exposition renderer + the in-tree line validator."""

from __future__ import annotations

import math

import pytest

from repro.obs.promexport import render_prometheus, validate_prometheus_text
from repro.obs.registry import MetricsRegistry


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.add("serve.jobs_done", 7)
    reg.set_gauge("serve.queue_depth", 3)
    reg.observe_bucket("serve.job_seconds", 0.5)
    reg.observe_bucket("serve.job_seconds", 1.5)
    reg.add_labeled("serve.http_responses", {"method": "GET", "status": "200"}, 4)
    reg.add_labeled("serve.http_responses", {"method": "POST", "status": "429"})
    for v in (0.004, 0.02, 0.02, 3.0, 120.0):
        reg.observe_bucket(
            "serve.job_phase_seconds", v, {"phase": "solve", "kind": "sweep"}
        )
    return reg


def test_render_is_valid_and_carries_values():
    text = render_prometheus(_populated_registry().snapshot())
    samples = validate_prometheus_text(text)

    assert samples["repro_serve_jobs_done_total"] == 7
    assert samples["repro_serve_queue_depth"] == 3
    assert samples["repro_serve_job_seconds_count"] == 2
    assert samples["repro_serve_job_seconds_sum"] == pytest.approx(2.0)
    assert samples['repro_serve_job_seconds_bucket{le="+Inf"}'] == 2
    assert "# TYPE repro_serve_job_seconds histogram" in text
    assert samples['repro_serve_http_responses_total{method="GET",status="200"}'] == 4
    assert samples['repro_serve_http_responses_total{method="POST",status="429"}'] == 1


def test_bucket_histogram_ladder_is_cumulative_with_inf():
    text = render_prometheus(_populated_registry().snapshot())
    samples = validate_prometheus_text(text)

    bucket_values = [
        v for k, v in samples.items()
        if k.startswith("repro_serve_job_phase_seconds_bucket")
    ]
    assert bucket_values == sorted(bucket_values)
    inf_key = (
        'repro_serve_job_phase_seconds_bucket{kind="sweep",le="+Inf",phase="solve"}'
    )
    assert samples[inf_key] == 5
    # 120s overflows the default 60s top bound: only +Inf catches it.
    le60 = next(
        v for k, v in samples.items() if 'le="60"' in k and "_bucket" in k
    )
    assert le60 == 4
    assert samples[
        'repro_serve_job_phase_seconds_count{kind="sweep",phase="solve"}'
    ] == 5


def test_extra_gauges_ride_along():
    text = render_prometheus(
        MetricsRegistry().snapshot(),
        extra_gauges={"cache.entries": 2, "serve.uptime_seconds": 12.5},
    )
    samples = validate_prometheus_text(text)
    assert samples["repro_cache_entries"] == 2
    assert samples["repro_serve_uptime_seconds"] == 12.5


def test_label_values_are_escaped():
    reg = MetricsRegistry()
    reg.add_labeled("weird", {"grid": 'a"b\\c\nd'}, 1)
    text = render_prometheus(reg.snapshot())
    samples = validate_prometheus_text(text)
    (key,) = [k for k in samples if k.startswith("repro_weird_total{")]
    assert '\\"' in key and "\\\\" in key and "\\n" in key


def test_validator_rejects_garbage():
    with pytest.raises(ValueError, match="malformed sample"):
        validate_prometheus_text("this is not { prometheus\n")
    with pytest.raises(ValueError, match="no # TYPE"):
        validate_prometheus_text("undeclared_metric 1\n")
    with pytest.raises(ValueError, match="malformed value"):
        validate_prometheus_text("# TYPE m gauge\nm not-a-number\n")
    with pytest.raises(ValueError, match="duplicate"):
        validate_prometheus_text("# TYPE m gauge\nm 1\nm 2\n")


def test_validator_rejects_broken_histograms():
    broken = (
        "# TYPE h histogram\n"
        'h_bucket{le="0.1"} 5\n'
        'h_bucket{le="1"} 3\n'   # not cumulative
        'h_bucket{le="+Inf"} 5\n'
        "h_count 5\n"
    )
    with pytest.raises(ValueError, match="not cumulative"):
        validate_prometheus_text(broken)

    no_inf = "# TYPE h histogram\n" 'h_bucket{le="1"} 3\n' "h_count 3\n"
    with pytest.raises(ValueError, match=r"\+Inf"):
        validate_prometheus_text(no_inf)

    mismatch = (
        "# TYPE h histogram\n"
        'h_bucket{le="+Inf"} 3\n'
        "h_count 4\n"
    )
    with pytest.raises(ValueError, match="_count"):
        validate_prometheus_text(mismatch)


def test_special_float_values_round_trip():
    reg = MetricsRegistry()
    reg.set_gauge("weird.inf", math.inf)
    samples = validate_prometheus_text(render_prometheus(reg.snapshot()))
    assert samples["repro_weird_inf"] == math.inf
