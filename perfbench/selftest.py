"""Self-test of the benchmark itself, on a tiny grid (about a minute).

    python3 perfbench/selftest.py    (or python3 -m pytest perfbench/selftest.py)

* every workload runs a few ops through ``run.py --grid tiny`` with and
  without tracing, and emits exactly the metrics ``BENCHMARK.json``
  names, each with its unit;
* every time-valued per-layer metric is non-zero on some workload, so
  each wrapper sits where the program really calls it;
* each output check accepts the true reference and rejects a
  deliberately perturbed one;
* ``BENCHMARK.json`` and ``spec.py`` describe the same benchmark;
* without the program's sources the benchmark fails without a result.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import library  # noqa: E402
import serve_sweep  # noqa: E402
from inputs import make_inputs  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SEED = 7


def run_tiny(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace),
         "--grid", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_metrics(metrics: dict, expected: dict) -> None:
    assert list(metrics) == list(expected)
    for name, record in metrics.items():
        assert record["unit"] == expected[name][0], name
        assert isinstance(record["value"], float), name
        assert math.isfinite(record["value"]), name


def test_every_workload_emits_every_metric():
    moved: dict[str, float] = {}
    for workload in WORKLOADS:
        plain = result_of(run_tiny(workload, 0))
        check_metrics(plain["metrics"], END_TO_END)
        assert all(m["value"] > 0 for m in plain["metrics"].values()), workload
        traced = result_of(run_tiny(workload, 1))
        check_metrics(traced["metrics"], PER_LAYER)
        for name, record in traced["metrics"].items():
            moved[name] = max(moved.get(name, 0.0), record["value"])
    silent = [
        name for name, (unit, *_rest) in PER_LAYER.items()
        if unit == "s" and moved[name] <= 0.0
    ]
    assert not silent, f"layers never entered: {silent}"


def test_checks_reject_perturbed_references():
    stack = library.build_stack("tiny")
    perturb = {
        # Past the 2e-4 V agreement window of the naive loop.
        "mc-wire-c1": lambda ref: np.asarray(ref) + 3e-4,
        # Past the 1e-10 column-parity tolerance.
        "transient-droop-c1": lambda ref: np.asarray(ref) * (1 + 1e-8),
        "eco-adjoint-c1": lambda ref: [r * (1 + 1e-8) for r in ref],
    }
    # Counter checks: a record showing the wrong count is rejected.
    broken = {
        "mc-wire-c1": {"refactorizations": 2},
        "transient-droop-c1": {"factorizations": 1},
        "eco-adjoint-c1": {"eval_factorizations": 1},
    }
    for name, cls in library.WORKLOADS.items():
        workload = cls(stack, make_inputs(name, SEED))
        workload.op(0, keep=False)  # warms the shared caches
        rec = workload.op(1, keep=True)
        assert workload.check(rec, 1), name
        assert not workload.check({**rec, **broken[name]}, 1), name
        expected = workload.expected(rec)
        assert workload.matches(rec, expected), name
        assert not workload.matches(rec, perturb[name](expected)), name

    job = make_inputs("serve-sweep-c1", SEED)["jobs"][0]
    rows = serve_sweep.reference_rows(stack, job)
    digests = [serve_sweep.row_digest(row) for row in rows]
    assert serve_sweep.rows_match(digests, rows)
    off_by_one_ulp = copy.deepcopy(rows)
    value = off_by_one_ulp[-1]["pillar_v0"][0]
    off_by_one_ulp[-1]["pillar_v0"][0] = float(np.nextafter(value, np.inf))
    assert not serve_sweep.rows_match(digests, off_by_one_ulp)


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert {w["name"]: w["why"] for w in bench["workloads"]} == WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in bench["end_to_end"]
    } == {name: tuple(v[:3]) for name, v in END_TO_END.items()}
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert (m["unit"], m["better"]) == PER_LAYER[m["name"]][:2], m


def test_fails_without_program_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = run_tiny("mc-wire-c1", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok  {name}")
