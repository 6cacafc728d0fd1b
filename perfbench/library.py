"""The three library workloads, each run in a fresh worker process.

``run.py`` starts ``python3 perfbench/library.py`` once per set-up or
run with a JSON job on stdin; the worker prints one JSON result line.
A fresh process per run keeps peak RSS (``ru_maxrss``) independent of
allocator history, and makes ``setup_s`` the cost a new user pays.

Every op calls the engines' public entry points through their modules
(``stochastic.run_monte_carlo``, ...), so the traced window's wrappers
(:mod:`ledger`) see the same calls the untraced window makes.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
import repro.core.transient_batch as transient_batch
import repro.eco as eco
import repro.sensitivity as sensitivity
import repro.stochastic as stochastic
from repro.bench.circuits import build_circuit
from repro.bench.transient import run_sequential_transient
from repro.core.planes import PlaneFactorCache
from repro.grid.generators import synthesize_stack
from repro.scenarios import ScenarioSet, load_step_sweep

import ledger
from measure import latency_summary, within
from spec import CHECK_STRIDE, CIRCUIT, CIRCUIT_SEED, TINY_GRID, WARMUP_OPS

#: Worst-drop agreement with the naive Monte Carlo loop (both solve to
#: the default outer_tol of 1e-4 V).
MC_ATOL = 2e-4
#: Column parity of the batched engines against their sequential or
#: direct references (bitwise op order; 1e-10 leaves room for round-off).
PARITY_RTOL = 1e-10

#: transient-droop-c1: node decap (F), backward-Euler step and window
#: (4 steps), and the load step (activity BEFORE -> level at T_STEP).
CAPACITANCE = 2e-9
DT = 0.5e-9
T_END = 2e-9
T_STEP = 0.5e-9
BEFORE = 0.2

#: eco-adjoint-c1: strap candidates ranked per op (2 keep the op near
#: 0.2 s, so a 25 s window holds >= 100 ops even when the host runs slow).
ECO_CANDIDATES = 2
ECO_SPAN = 4


def build_stack(grid: str):
    """The benchmark grid (``c1``) or the self-test's tiny grid, built
    exactly as ``repro serve`` builds a registered grid spec."""
    if grid == "c1":
        return build_circuit(CIRCUIT, seed=CIRCUIT_SEED)
    side = TINY_GRID["side"]
    return synthesize_stack(
        side, side, TINY_GRID["tiers"], r_tsv=0.05, v_pin=1.8,
        rng=TINY_GRID["seed"], name="serve-bench",
    )


class McWire:
    """mc-wire-c1: one wire-field sample per op with no shared cache --
    every op builds its own factor cache, as ``repro mc`` does."""

    def __init__(self, stack, inputs: dict):
        self.stack = stack
        self.seeds = inputs["seeds"]
        self.spec = stochastic.VariationSpec(
            wire=stochastic.WireFieldVariation(sigma=0.05)
        )
        self.caches: list = []

    def op(self, n: int, keep: bool) -> dict:
        seed = self.seeds[n % len(self.seeds)]
        result = stochastic.run_monte_carlo(self.stack, self.spec, 1, seed=seed)
        return {
            "seed": seed,
            "worst": float(result.worst_drops[0]),
            "converged": bool(result.converged.all()),
            "refactorizations": result.stats.refactorizations,
        }

    def quick_ok(self, rec: dict) -> bool:
        # Every tier of a wire-field draw differs: one LU per tier.
        return rec["converged"] and rec["refactorizations"] == self.stack.n_tiers

    def expected(self, rec: dict):
        """Worst drop of the naive loop on the same draw."""
        draws = self.spec.sample(self.stack, 1, np.random.default_rng(rec["seed"]))
        return stochastic.naive_monte_carlo(self.stack, draws)

    def matches(self, rec: dict, expected) -> bool:
        return within([rec["worst"]], expected, atol=MC_ATOL)

    def check(self, rec: dict, k: int) -> bool:
        if not self.quick_ok(rec):
            return False
        return k % CHECK_STRIDE != 0 or self.matches(rec, self.expected(rec))


class TransientDroop:
    """transient-droop-c1: an 8-corner load-step sweep per op on a warm
    shared factor cache; the corner order rotates per op."""

    def __init__(self, stack, inputs: dict):
        self.stack = stack
        self.levels = inputs["levels"]
        self.rotations = inputs["rotations"]
        self.cache = PlaneFactorCache()
        self.caches = [self.cache]
        self._reference: dict | None = None

    def op(self, n: int, keep: bool) -> dict:
        r = self.rotations[n % len(self.rotations)]
        levels = self.levels[r:] + self.levels[:r]
        solver = transient_batch.BatchedTransientSolver(
            self.stack,
            load_step_sweep(levels, t_step=T_STEP, before=BEFORE),
            CAPACITANCE,
            DT,
            factor_cache=self.cache,
        )
        result = solver.run(T_END)
        return {
            "names": result.scenario_names,
            "droop": result.worst_droop.tolist(),
            "factorizations": solver.n_factorizations,
        }

    def quick_ok(self, rec: dict) -> bool:
        droop = np.asarray(rec["droop"])
        return bool(np.all(np.isfinite(droop)) and np.all(droop > 0))

    def expected(self, rec: dict) -> list[float]:
        """Worst droop per corner from the sequential TransientVPSolver
        (solved once per corner, in the order this op ran them)."""
        if self._reference is None:
            scenarios = ScenarioSet(
                load_step_sweep(self.levels, t_step=T_STEP, before=BEFORE)
            )
            results = run_sequential_transient(
                self.stack, scenarios, CAPACITANCE, DT, T_END
            )
            self._reference = {
                s.name: r.worst_droop for s, r in zip(scenarios, results)
            }
        return [self._reference[name] for name in rec["names"]]

    def matches(self, rec: dict, expected) -> bool:
        return within(rec["droop"], expected, rtol=PARITY_RTOL)

    def check(self, rec: dict, k: int) -> bool:
        # Past set-up every op runs on the warm cache: no factorization.
        return (
            self.quick_ok(rec)
            and rec["factorizations"] == 0
            and self.matches(rec, self.expected(rec))
        )


class EcoAdjoint:
    """eco-adjoint-c1: an adjoint gradient over 22,713 parameters, then
    an incremental ranking of a seeded strap set, on one warm cache."""

    def __init__(self, stack, inputs: dict):
        self.stack = stack
        self.seeds = inputs["seeds"]
        self.cache = PlaneFactorCache()
        self.caches = [self.cache]
        self.space = sensitivity.ParameterSpace(
            stack,
            [sensitivity.MetalWidthParam(), sensitivity.TSVConductanceParam()]
            + [sensitivity.LoadCurrentParam(t) for t in range(stack.n_tiers)],
        )
        self.metric = sensitivity.SmoothWorstDrop()
        self.session = eco.EcoSession(stack, cache=self.cache)

    def op(self, n: int, keep: bool) -> dict:
        grad = sensitivity.adjoint_gradient(
            self.space, self.metric, cache=self.cache
        )
        candidates = eco.strap_sweep(
            self.stack, ECO_CANDIDATES, span_length=ECO_SPAN,
            seed=self.seeds[n % len(self.seeds)],
        )
        report = self.session.rank_candidates(candidates)
        return {
            "new_factorizations": grad.new_factorizations,
            "adjoint_converged": bool(grad.adjoint_converged),
            "eval_factorizations": report.eval_factorizations,
            # Candidates and drops for the direct re-solve check.
            "rows": (
                [(row.candidate, row.scenario_drops) for row in report.rows]
                if keep else None
            ),
            "counts": {"eco.eval_factorizations": report.eval_factorizations},
        }

    def quick_ok(self, rec: dict) -> bool:
        return (
            rec["new_factorizations"] == 0
            and rec["eval_factorizations"] == 0
            and rec["adjoint_converged"]
        )

    def expected(self, rec: dict) -> list:
        """Worst drops of a direct re-solve of each kept candidate."""
        return [self.session.solve_reference(c) for c, _ in rec["rows"]]

    def matches(self, rec: dict, expected) -> bool:
        return all(
            within(drops, ref, rtol=PARITY_RTOL)
            for (_, drops), ref in zip(rec["rows"], expected)
        )

    def check(self, rec: dict, k: int) -> bool:
        if not self.quick_ok(rec):
            return False
        return rec["rows"] is None or self.matches(rec, self.expected(rec))


WORKLOADS = {
    "mc-wire-c1": McWire,
    "transient-droop-c1": TransientDroop,
    "eco-adjoint-c1": EcoAdjoint,
}


@dataclass
class Window:
    """One closed-loop timed window: ``records`` holds
    ``(position, record or None, traceback or None)`` per op."""

    latencies: list
    records: list
    wall: float
    next_op: int


def run_window(workload, first_op: int, seconds: float, led=None) -> Window:
    """Closed loop: the next op starts only when the previous returned;
    no op starts after ``seconds``."""
    latencies, records = [], []
    n = first_op
    start = end = time.perf_counter()
    while end - start < seconds:
        k = len(latencies)
        if led is not None:
            led.begin_op(k)
        t0 = time.perf_counter()
        try:
            rec, error = workload.op(n, keep=k % CHECK_STRIDE == 0), None
        except Exception:  # a raising op counts as failed; the loop goes on
            rec, error = None, traceback.format_exc()
        end = time.perf_counter()
        if led is not None:
            for name, value in (rec or {}).get("counts", {}).items():
                led.count(name, value)
            led.end_op()
        latencies.append(end - t0)
        records.append((k, rec, error))
        n += 1
    return Window(latencies, records, end - start, n)


def check_windows(workload, windows: list[Window]) -> tuple[int, int]:
    """Output checks, run after the timed windows: ``(attempted, failed)``."""
    attempted = failed = 0
    for window in windows:
        for k, rec, error in window.records:
            attempted += 1
            if rec is None:
                print(error, file=sys.stderr)
                failed += 1
            elif not workload.check(rec, k):
                failed += 1
    return attempted, failed


def _check_source(root: Path) -> None:
    src = (root / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")


def run(job: dict) -> dict:
    _check_source(Path(job["root"]))
    t0 = time.perf_counter()
    stack = build_stack(job["grid"])
    workload = WORKLOADS[job["workload"]](stack, job["inputs"])
    setup_ok = workload.quick_ok(workload.op(0, keep=False))
    out = {"setup_s": time.perf_counter() - t0, "setup_ok": setup_ok}
    if job["mode"] == "setup":
        return out

    for n in range(1, 1 + WARMUP_OPS):
        workload.op(n, keep=False)
    plain = run_window(workload, 1 + WARMUP_OPS, job["seconds"])
    out.update(latency_summary(plain.latencies, plain.wall))
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    windows = [plain]
    if job["trace"]:
        led = ledger.Ledger()
        for cache in workload.caches:
            led.watch_cache(cache)
        ledger.install(led)
        traced = run_window(workload, plain.next_op, job["seconds"], led)
        windows.append(traced)
        layers = led.layer_metrics()
        layers["obs.trace_overhead"] = (
            len(traced.latencies) / traced.wall
        ) / out["ops_per_s"] - 1.0
        out["per_layer"] = layers
        led.write_trace(Path(job["trace_path"]))
    out["attempted"], out["failed"] = check_windows(workload, windows)
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.stdin.read()))))
