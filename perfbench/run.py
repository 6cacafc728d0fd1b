"""Benchmark entry point: one seeded, closed-loop run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program under test is that
checkout's ``src/`` tree.  ``--trace 0`` measures the end-to-end
metrics with nothing traced; ``--trace 1`` runs an untraced window and
then a traced one and reports the per-layer metrics (see ``spec.py``).
The last stdout line is the JSON result; a summary line precedes it.
``--grid tiny`` swaps C1 for a small synthesized grid (self-test only).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from inputs import make_inputs
from spec import END_TO_END, PER_LAYER, SETUP_REPEATS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A worker that outlives this is hung (set-up + a 60 s window + checks
#: take well under it).
WORKER_TIMEOUT = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", choices=("c1", "tiny"), default="c1")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return args


def worker(job: dict) -> dict:
    """Run one library set-up or run in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "library.py")],
        input=json.dumps(job),
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_library(args, inputs: dict) -> dict:
    job = {
        "root": str(ROOT),
        "workload": args.workload,
        "grid": args.grid,
        "inputs": inputs,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "trace_path": str(
            HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
        ),
    }
    setups = []
    if not args.trace:
        setups = [
            worker({**job, "mode": "setup"}) for _ in range(SETUP_REPEATS - 1)
        ]
    out = worker({**job, "mode": "run"})
    setups.append(out)
    out["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    out["setup_ok"] = all(s["setup_ok"] for s in setups)
    return out


def result_line(args, out: dict) -> dict:
    if args.trace:
        # A layer the workload never enters reads 0.
        metrics = {
            name: {"value": out["per_layer"].get(name, 0.0), "unit": unit}
            for name, (unit, *_rest) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": out[name], "unit": unit}
            for name, (unit, *_rest) in END_TO_END.items()
        }
    return {
        "correct": bool(out["setup_ok"] and out["failed"] == 0),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The driver stops a run with SIGTERM: unwind so every child process
    # is stopped by the finally blocks below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    inputs = make_inputs(args.workload, args.seed)
    if args.workload == "serve-sweep-c1":
        sys.path.insert(0, str(ROOT / "src"))
        import serve_sweep

        out = serve_sweep.run(ROOT, args.grid, inputs, args.seconds, args.trace)
    else:
        out = run_library(args, inputs)
    result = result_line(args, out)
    summary = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{out['attempted']} ops, {out['failed']} failed, "
        f"setup_ok={out['setup_ok']}; {summary}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
