"""What the benchmark measures: workloads, metrics, and the layer map.

``BENCHMARK.json`` carries the fields the benchmark contract fixes
(name, unit, direction, bound); this module is the full self-description
the contract leaves no room for there -- every metric's definition and,
for each per-layer metric, the end-to-end metric and workload it should
move.  ``selftest.py`` checks that both files name the same metrics.
"""

from __future__ import annotations

#: Benchmark circuit: the paper's Table-I C1 (3 x 173^2 = 89,787 nodes).
CIRCUIT = "C1"
CIRCUIT_SEED = 0

#: The tiny-grid mode of ``run.py --grid tiny`` (self-test only): a
#: synthesized 3-tier stack, small enough for every workload to finish
#: a few ops in well under a second.
TINY_GRID = {"side": 20, "tiers": 3, "seed": 0}

WORKLOADS = {
    "serve-sweep-c1": (
        "the only path through serve/http.py, serve/jobs.py and the "
        "coalescing dispatcher: two lockstep HTTP clients, 4-scenario "
        "sweeps, every batch coalesces 2 jobs"
    ),
    "mc-wire-c1": (
        "the factorization workload: each wire-field Monte Carlo sample "
        "pays 4 LU factorizations (cache miss-and-insert path)"
    ),
    "transient-droop-c1": (
        "batched backward-Euler droop sweep on warm factors: wide "
        "(8-column) back-substitutions plus per-step bookkeeping"
    ),
    "eco-adjoint-c1": (
        "adjoint gradient plus incremental ECO ranking on warm factors: "
        "the narrow-solve regime (~110 back-substitutions of ~1.3 columns)"
    ),
}

#: name -> (unit, better, bound, definition).  The time bounds are wide
#: because the solver kernels themselves run +-8% faster or slower from
#: minute to minute on a shared 2-core host (a fixed 1-column C1
#: back-substitution loop, timed in 1 s blocks); run-to-run spreads of
#: 5-10% follow from that, not from the benchmark.
END_TO_END = {
    "ops_per_s": (
        "1/s", "higher", 0.25,
        "ops completed / wall time of the timed window (closed loop)",
    ),
    "op_p50_s": (
        "s", "lower", 0.25,
        "median op latency; serve: from POST sent to result decoded",
    ),
    "op_p90_s": (
        "s", "lower", 0.25,
        "90th-percentile op latency (a run holds >= 100 ops, so >= 10 "
        "lie beyond it; the op count is the result's 'attempted')",
    ),
    "setup_s": (
        "s", "lower", 0.25,
        "time to the first checked result, median of 3 fresh set-ups; "
        "serve: spawning 'repro serve' to the first checked response; "
        "library: C1 build, first factorizations and first op, after "
        "imports",
    ),
    "peak_rss_mb": (
        "MiB", "lower", 0.1,
        "peak RSS of the process doing the work; library: ru_maxrss of "
        "the fresh worker process after the window; serve: the server's "
        "VmHWM once it has completed SERVE_RSS_REQUESTS sweep requests",
    ),
}

#: name -> (unit, better, definition, [(end-to-end metric it should
#: move, on which workload), ...]).
#: Times are the median over ops of the layer's per-op self time (span
#: time minus child spans); counts are the median over ops of per-op
#: counts.  A workload that never enters a layer reports 0 for it.
PER_LAYER = {
    # serve/http.py
    "serve.submit_s": (
        "s", "lower",
        "POST /jobs round trip seen by the client",
        [("op_p50_s", "serve-sweep-c1"), ("op_p90_s", "serve-sweep-c1")],
    ),
    "serve.http_overhead_s": (
        "s", "lower",
        "op latency minus the job's own latency.total",
        [("op_p50_s", "serve-sweep-c1"), ("op_p90_s", "serve-sweep-c1")],
    ),
    "serve.response_kb": (
        "kB", "lower",
        "size of the GET /jobs/<id> body carrying the result",
        [("op_p50_s", "serve-sweep-c1")],
    ),
    # serve/jobs.py + dispatcher
    "serve.queue_wait_s": (
        "s", "lower",
        "job latency.queue_wait: submit to dispatcher pop",
        [("op_p50_s", "serve-sweep-c1")],
    ),
    "serve.coalesce_wait_s": (
        "s", "lower",
        "job latency.coalesce_wait: pop to worker start (the window)",
        [("op_p50_s", "serve-sweep-c1")],
    ),
    "serve.batch_jobs": (
        "count", "higher",
        "mean jobs per coalesced batch (job batch_jobs)",
        [("ops_per_s", "serve-sweep-c1")],
    ),
    # serve/service.py worker
    "serve.solve_s": (
        "s", "lower",
        "job latency.solve: batched solve plus fan-out",
        [("ops_per_s", "serve-sweep-c1")],
    ),
    "serve.job_total_s": (
        "s", "lower",
        "job latency.total: submit to finish inside the server",
        [("ops_per_s", "serve-sweep-c1")],
    ),
    "serve.factorizations": (
        "count", "lower",
        "/metrics cache.factorizations delta over the window",
        [("ops_per_s", "serve-sweep-c1")],
    ),
    # linalg/direct.py factorization
    "direct.factorize_s": (
        "s", "lower",
        "DirectSolver construction (sparse LU)",
        [
            ("ops_per_s", "mc-wire-c1"),
            ("op_p50_s", "mc-wire-c1"),
            ("setup_s", "all"),
            ("peak_rss_mb", "all"),
        ],
    ),
    "direct.factorizations": (
        "count", "lower",
        "DirectSolver constructions per op",
        [("ops_per_s", "mc-wire-c1")],
    ),
    "direct.factor_nnz": (
        "count", "lower",
        "mean DirectSolver.factor_nnz of the factors an op solves against",
        [("ops_per_s", "mc-wire-c1"), ("peak_rss_mb", "all")],
    ),
    "planes.factor_mb": (
        "MiB", "lower",
        "mean ReducedPlaneSystem.memory_bytes of the plane systems an op "
        "solves against",
        [("peak_rss_mb", "all")],
    ),
    # linalg/direct.py back-substitution
    "direct.solve_s": (
        "s", "lower",
        "DirectSolver.solve, trans='N'",
        [("ops_per_s", "eco-adjoint-c1"), ("ops_per_s", "transient-droop-c1")],
    ),
    "direct.solve_transpose_s": (
        "s", "lower",
        "DirectSolver.solve, trans='T' (adjoint solves)",
        [("ops_per_s", "eco-adjoint-c1")],
    ),
    "direct.solve_calls": (
        "count", "lower",
        "DirectSolver.solve calls per op (both directions)",
        [("ops_per_s", "eco-adjoint-c1"), ("ops_per_s", "transient-droop-c1")],
    ),
    "direct.solve_columns": (
        "count", "lower",
        "right-hand-side columns back-substituted per op",
        [("ops_per_s", "eco-adjoint-c1"), ("ops_per_s", "transient-droop-c1")],
    ),
    # core/planes.py (+ core/tsv.py assembly)
    "planes.signature_s": (
        "s", "lower",
        "stack_plane_signature (factor-cache key hashing)",
        [("ops_per_s", "mc-wire-c1"), ("ops_per_s", "transient-droop-c1")],
    ),
    "planes.assemble_s": (
        "s", "lower",
        "plane_matrices: per-tier nodal matrix assembly",
        [("ops_per_s", "mc-wire-c1")],
    ),
    "planes.slice_s": (
        "s", "lower",
        "ReducedPlaneSystem construction self time (free/pillar slicing)",
        [("ops_per_s", "mc-wire-c1")],
    ),
    "planes.solve_free_s": (
        "s", "lower",
        "ReducedPlaneSystem.solve_free self time (reduced RHS)",
        [("ops_per_s", "transient-droop-c1")],
    ),
    "planes.scatter_s": (
        "s", "lower",
        "ReducedPlaneSystem.assemble (free/pillar scatter)",
        [("ops_per_s", "transient-droop-c1")],
    ),
    "planes.drawn_s": (
        "s", "lower",
        "ReducedPlaneSystem.drawn_currents (pillar KCL residual)",
        [("ops_per_s", "transient-droop-c1")],
    ),
    "planes.cache_hits": (
        "count", "higher",
        "PlaneFactorCache.hits delta per op",
        [("ops_per_s", "mc-wire-c1"), ("ops_per_s", "transient-droop-c1")],
    ),
    "planes.cache_misses": (
        "count", "lower",
        "PlaneFactorCache.misses delta per op",
        [("ops_per_s", "mc-wire-c1")],
    ),
    "planes.cache_evictions": (
        "count", "lower",
        "PlaneFactorCache.evictions delta per op",
        [("ops_per_s", "mc-wire-c1")],
    ),
    # core/batch.py, core/vda.py
    "batch.init_s": (
        "s", "lower",
        "BatchedVPSolver construction (RHS batches, gain bounds)",
        [("ops_per_s", "transient-droop-c1")],
    ),
    "batch.set_rhs_s": (
        "s", "lower",
        "BatchedVPSolver.set_rhs (per-step RHS slicing)",
        [("ops_per_s", "transient-droop-c1")],
    ),
    "batch.loop_s": (
        "s", "lower",
        "BatchedVPSolver.solve self time (outer loop, propagation)",
        [("ops_per_s", "transient-droop-c1")],
    ),
    "batch.outer_iterations": (
        "count", "lower",
        "BatchedVPStats.outer_iterations summed per op",
        [("ops_per_s", "transient-droop-c1")],
    ),
    "batch.column_solves": (
        "count", "lower",
        "BatchedVPStats.column_solves summed per op",
        [("ops_per_s", "transient-droop-c1")],
    ),
    "vda.update_s": (
        "s", "lower",
        "VDAPolicy.update (voltage-drop acceleration)",
        [("ops_per_s", "transient-droop-c1")],
    ),
    # core/transient_batch.py
    "transient.init_s": (
        "s", "lower",
        "BatchedTransientSolver construction self time",
        [("op_p50_s", "transient-droop-c1")],
    ),
    "transient.run_s": (
        "s", "lower",
        "BatchedTransientSolver.run self time (step bookkeeping)",
        [("op_p50_s", "transient-droop-c1")],
    ),
    "transient.column_steps": (
        "count", "lower",
        "BatchedTransientStats.column_steps per op",
        [("op_p50_s", "transient-droop-c1")],
    ),
    # stochastic/
    "stochastic.sample_s": (
        "s", "lower",
        "VariationSpec.sample (wire-field draws)",
        [("ops_per_s", "mc-wire-c1")],
    ),
    "stochastic.perturb_s": (
        "s", "lower",
        "VariationDraw.wire_stack (perturbed stack copy)",
        [("ops_per_s", "mc-wire-c1")],
    ),
    "stochastic.stats_s": (
        "s", "lower",
        "quantile_table, RunningFieldStats.update_batch, "
        "convergence_trace, violation_probability",
        [("ops_per_s", "mc-wire-c1")],
    ),
    "stochastic.run_s": (
        "s", "lower",
        "run_monte_carlo self time",
        [("ops_per_s", "mc-wire-c1")],
    ),
    # sensitivity/
    "sensitivity.gradient_s": (
        "s", "lower",
        "adjoint_gradient self time",
        [("ops_per_s", "eco-adjoint-c1")],
    ),
    "sensitivity.adjoint_s": (
        "s", "lower",
        "AdjointVPSolver.solve self time (reverse outer loop)",
        [("ops_per_s", "eco-adjoint-c1")],
    ),
    "sensitivity.param_grad_s": (
        "s", "lower",
        "ParameterSpace.gradient (dm/dp contraction)",
        [("ops_per_s", "eco-adjoint-c1")],
    ),
    "sensitivity.adjoint_outer_iterations": (
        "count", "lower",
        "GradientResult.adjoint_outer_iterations per op",
        [("ops_per_s", "eco-adjoint-c1")],
    ),
    # eco/
    "eco.compile_s": (
        "s", "lower",
        "compile_candidate (edit -> low-rank update)",
        [("ops_per_s", "eco-adjoint-c1")],
    ),
    "eco.engine_init_s": (
        "s", "lower",
        "EcoBatchSolver construction self time",
        [("ops_per_s", "eco-adjoint-c1")],
    ),
    "eco.engine_solve_s": (
        "s", "lower",
        "EcoBatchSolver.solve self time",
        [("ops_per_s", "eco-adjoint-c1")],
    ),
    "eco.eval_factorizations": (
        "count", "lower",
        "EcoReport.eval_factorizations per op (0 expected)",
        [("ops_per_s", "eco-adjoint-c1")],
    ),
    # obs/ -- the tracing itself
    "obs.trace_overhead": (
        "ratio", "higher",
        "traced / untraced ops_per_s - 1 in one run; must stay inside "
        "run-to-run noise",
        [],
    ),
}

#: Sweep requests a server has completed when serve-sweep-c1 reads its
#: VmHWM: the server keeps every finished result, so its peak RSS is
#: comparable only at a fixed request count.
SERVE_RSS_REQUESTS = 200

#: Fresh set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3

#: Untimed ops between set-up and the timed window.
WARMUP_OPS = 2

#: Every CHECK_STRIDE-th window op (from op 0) also gets the expensive
#: reference re-solve (naive Monte Carlo, direct ECO re-solve).
CHECK_STRIDE = 32
