"""Command-line interface.

Subcommands (all offline, deterministic with ``--seed``):

* ``repro generate`` -- synthesize a benchmark stack and write its netlist;
* ``repro solve`` -- solve a netlist (or synthetic circuit) with VP, PCG,
  or SPICE and write a ``.solution`` file;
* ``repro compare`` -- contest-style diff of two solution files;
* ``repro table1`` -- regenerate Table I of the paper;
* ``repro sweep`` -- batched multi-scenario sweep (load corners, rail
  current, TSV design points, metal-width corners) with a CSV/JSON report;
* ``repro mc`` -- Monte Carlo variation analysis (correlated conductance
  fields, metal-width and TSV spreads) with quantile/violation reports;
* ``repro sensitivity`` -- adjoint gradients of an IR-drop metric over
  wire-width/TSV/load design parameters (one reverse VP pass);
* ``repro optimize`` -- gradient-based design optimization: wire-width
  budget allocation or pin-placement refinement, before/after reports;
* ``repro eco`` -- incremental ECO re-analysis: rank what-if edit
  candidates (straps, wire widths, TSVs, pins) via Sherman-Morrison-
  Woodbury updates on the cached plane factors, zero re-factorizations;
* ``repro serve`` -- long-running grid-analysis service: clients register
  named grids and submit sweep/mc/sensitivity/optimize/eco jobs over an
  HTTP JSON API; all jobs share one concurrency-safe factor cache and
  compatible sweep jobs coalesce into merged multi-RHS solves;
* ``repro sweep-tsv`` -- experiment E6 (GS degradation vs TSV resistance);
* ``repro rw-trap`` -- experiment E7 (random-walk trap);
* ``repro transient`` -- experiment E14 (RC transient droop); with
  ``--sweep``, a batched multi-scenario droop sweep (load-step corners,
  ramp/pulse shapes, decap placements) sharing companion factors;
* ``repro phases`` -- experiment E10 (VP phase breakdown);
* ``repro profile`` -- run any subcommand inside a telemetry session and
  print a phase-attributed summary (the engine subcommands also accept
  ``--profile PATH`` to write a Chrome trace-event JSON directly).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from repro import __version__, obs
from repro.analysis.irdrop import ascii_heatmap, ir_drop_report
from repro.bench.ablations import random_walk_trap, tsv_resistance_sweep
from repro.bench.circuits import CIRCUITS
from repro.bench.figures import phase_breakdown
from repro.bench.reporting import ascii_table
from repro.bench.table1 import run_table1
from repro.core.vp import VPConfig, VoltagePropagationSolver
from repro.errors import ReproError
from repro.io.solution import (
    compare_solution_files,
    stack_solution_dict,
    write_solution,
)
from repro.jobspec import (
    EcoJob,
    GridSpec,
    McJob,
    OptimizeJob,
    SensitivityJob,
    SweepJob,
    parse,
)
from repro.netlist.parser import read_netlist
from repro.netlist.writer import stack_to_netlist, write_netlist
from repro.spice.dc import dc_operating_point
from repro.units import si_format


def _add_stack_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--circuit", choices=sorted(CIRCUITS), default=None,
        help="benchmark circuit name (overrides --side/--tiers)",
    )
    parser.add_argument("--side", type=int, default=40, help="tier lattice side")
    parser.add_argument("--tiers", type=int, default=3, help="number of tiers")
    parser.add_argument("--r-tsv", type=float, default=0.05, help="TSV resistance (ohm)")
    parser.add_argument("--vdd", type=float, default=1.8, help="pin voltage (V)")
    parser.add_argument("--seed", type=int, default=0, help="synthesis seed")


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", metavar="PATH", default=None,
        help="run inside a telemetry session, write a Chrome trace-event "
        "JSON (loadable in Perfetto / chrome://tracing) to PATH, and "
        "print a phase-attributed summary",
    )


def _spec(cls, args: argparse.Namespace, **values):
    """The ``cls`` spec parsed from every argparse value whose dest names
    one of its fields; ``values`` replaces the ones the CLI pre-splits
    from comma-separated text."""
    names = {field.name for field in dataclasses.fields(cls)}
    flags = {k: v for k, v in vars(args).items() if k in names}
    return parse(cls, {**flags, **values})


def _build_stack(args: argparse.Namespace):
    grid = _spec(GridSpec, args)
    return grid.build(f"cli-{grid.side}x{grid.side}x{grid.tiers}")


# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    stack = _build_stack(args)
    netlist = stack_to_netlist(stack)
    write_netlist(netlist, args.output)
    stats = netlist.stats()
    print(
        f"wrote {args.output}: {stats['nodes']} nodes, "
        f"{stats['resistors']}R {stats['current_sources']}I "
        f"{stats['voltage_sources']}V"
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    if args.netlist:
        netlist = read_netlist(args.netlist)
        if args.method != "spice":
            print(
                "note: netlist input is solved with the SPICE engine "
                "(VP needs the structured stack; use --circuit/--side)",
                file=sys.stderr,
            )
        solution = dc_operating_point(netlist)
        if args.output:
            write_solution(solution.voltages, args.output)
            print(f"wrote {args.output} ({len(solution.voltages)} nodes)")
        drops = [v for v in solution.voltages.values()]
        print(
            f"solved {solution.n_nodes} nodes in "
            f"{solution.solve_seconds:.3f}s; "
            f"voltage range [{min(drops):.6f}, {max(drops):.6f}] V"
        )
        return 0

    stack = _build_stack(args)
    if args.method == "vp":
        solver = VoltagePropagationSolver(
            stack, VPConfig(inner=args.inner, vda=args.vda)
        )
        result = solver.solve()
        voltages = result.voltages
        print(
            f"VP converged={result.converged} in {result.outer_iterations} "
            f"outer iterations, max |Vdiff| = "
            f"{si_format(result.max_vdiff, 'V')}"
        )
    elif args.method == "pcg":
        from repro.bench.methods import run_pcg

        voltages, method_result = run_pcg(stack, preconditioner=args.preconditioner)
        print(
            f"PCG[{args.preconditioner}] converged={method_result.converged} "
            f"in {method_result.iterations} iterations, "
            f"{method_result.total_seconds:.3f}s"
        )
    else:  # spice
        from repro.bench.methods import run_spice

        voltages, method_result = run_spice(stack)
        print(f"SPICE solved in {method_result.total_seconds:.3f}s")

    report = ir_drop_report(voltages, stack.v_pin)
    print(f"IR drop: {report}")
    if args.heatmap:
        tier = int(np.argmax(report.per_tier_worst))
        print(f"tier {tier} IR-drop map:")
        print(ascii_heatmap(np.abs(stack.v_pin - voltages[tier])))
    if args.output:
        write_solution(stack_solution_dict(stack, voltages), args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    metrics = compare_solution_files(args.candidate, args.reference)
    print(
        f"common nodes: {int(metrics['common_nodes'])}, "
        f"missing: {int(metrics['missing'])}"
    )
    print(
        f"max error: {si_format(metrics['max_error'], 'V')}, "
        f"mean error: {si_format(metrics['mean_error'], 'V')}"
    )
    budget = args.budget
    ok = metrics["max_error"] <= budget
    print(f"budget {si_format(budget, 'V')}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_table1(args: argparse.Namespace) -> int:
    circuits = args.circuits.split(",") if args.circuits else None
    result = run_table1(
        circuits,
        pcg_preconditioner=args.preconditioner,
        seed=args.seed,
        verify=not args.no_verify,
    )
    print(result.render())
    if args.markdown:
        print()
        print(result.to_markdown())
    return 0


def _parse_floats(text: str | None, option: str) -> list[float]:
    """Comma-separated numbers; an unset option is no numbers."""
    if text is None:
        return []
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ReproError(f"{option} expects comma-separated numbers, got {text!r}")
    if not values:
        raise ReproError(f"{option} needs at least one value")
    return values


def _write_reports(report, args: argparse.Namespace) -> None:
    """The report as CSV and JSON, to the paths ``--csv``/``--json`` name."""
    for path, write in ((args.csv, report.to_csv), (args.json, report.to_json)):
        if path:
            write(path)
            print(f"wrote {path}")


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.sweeps import run_sweep
    from repro.scenarios import (
        cartesian_sweep,
        load_corner_sweep,
        metal_width_sweep,
        pad_current_sweep,
        tsv_design_sweep,
    )

    if args.corner_levels and args.load_scales is not None:
        raise ReproError(
            "--corner-levels and --load-scales are mutually exclusive "
            "(per-tier corners replace global scales)"
        )
    config = _spec(SweepJob, args).config()
    stack = _build_stack(args)
    families = []
    if args.corner_levels:
        levels = _parse_floats(args.corner_levels, "--corner-levels")
        families.append(load_corner_sweep(stack.n_tiers, levels))
    else:
        scales = _parse_floats(
            args.load_scales or "0.8,1.0,1.2", "--load-scales"
        )
        families.append(pad_current_sweep(scales))
    r_scales = _parse_floats(args.r_tsv_scales, "--r-tsv-scales")
    if r_scales != [1.0]:
        families.append(tsv_design_sweep(r_scales))
    width_scales = _parse_floats(args.width_scales, "--width-scales")
    if width_scales != [1.0]:
        families.append(metal_width_sweep(width_scales))
    scenarios = cartesian_sweep(*families)

    report = run_sweep(
        stack, scenarios, config, compare_sequential=args.compare_sequential
    )
    print(report.table())
    print(report.summary())
    _write_reports(report, args)
    return 0 if all(o.converged for o in report.outcomes) else 1


def cmd_mc(args: argparse.Namespace) -> int:
    from repro.bench.montecarlo import run_mc_benchmark

    job = _spec(
        McJob, args, quantiles=_parse_floats(args.quantiles, "--quantiles")
    )
    spec = job.variation("cli-mc")
    stack = _build_stack(args)
    report = run_mc_benchmark(
        stack,
        spec,
        job.samples,
        seed=job.seed,
        config=job.config(),
        compare_naive=args.compare_naive,
    )
    print(report.table())
    print(report.summary())
    _write_reports(report, args)
    return 0 if report.result.converged.all() else 1


def cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.bench.reporting import write_csv, write_json
    from repro.sensitivity import (
        adjoint_gradient,
        compare_gradients,
        finite_difference_gradient,
    )

    job = _spec(
        SensitivityJob,
        args,
        params=[f.strip() for f in args.params.split(",") if f.strip()],
        node=args.node.split(",") if args.node else None,
    )
    stack = _build_stack(args)
    params = job.parameter_space(stack)
    metric = job.metric()

    result = adjoint_gradient(params, metric)
    print(
        f"{metric.name} = {si_format(result.metric_value, 'V')} over "
        f"{result.n_params} parameters "
        f"({result.adjoint_outer_iterations} adjoint outer iterations, "
        f"{result.new_factorizations} new factorizations)"
    )
    rows = [
        [name, f"{g:.6e}", si_format(g, "V")]
        for name, g in result.top(job.top)
    ]
    print(ascii_table(["parameter", "dm/dp", "per unit"], rows))

    if args.fd_check > 0:
        rng = np.random.default_rng(args.seed)
        indices = np.sort(
            rng.choice(
                result.n_params,
                size=min(args.fd_check, result.n_params),
                replace=False,
            )
        )
        fd = finite_difference_gradient(params, metric, indices=indices)
        parity = compare_gradients(
            result.gradient, fd, indices=indices, atol=1e-9
        )
        print(
            f"FD cross-check on {parity['n_compared']} parameters: "
            f"max rel error {parity['max_rel_error']:.2e}"
        )

    if args.csv:
        write_csv(
            args.csv,
            ["parameter", "gradient_v_per_unit"],
            [[n, g] for n, g in zip(result.param_names, result.gradient)],
        )
        print(f"wrote {args.csv}")
    if args.json:
        write_json(
            args.json,
            {
                "metric": result.metric_name,
                "metric_value_v": result.metric_value,
                "n_params": result.n_params,
                "adjoint_outer_iterations": result.adjoint_outer_iterations,
                "new_factorizations": result.new_factorizations,
                "gradients": result.records(),
            },
        )
        print(f"wrote {args.json}")
    return 0 if result.adjoint_converged else 1


def cmd_optimize(args: argparse.Namespace) -> int:
    from repro.bench.reporting import write_json

    job = _spec(
        OptimizeJob,
        args,
        load_scales=_parse_floats(args.load_scales, "--load-scales"),
        bounds=_parse_floats(args.bounds, "--bounds"),
    )
    result = job.run(_build_stack(args))
    if job.mode == "budget":
        rows = [
            [f"tier {t}", f"{w0:.4f}", f"{w:.4f}"]
            for t, (w0, w) in enumerate(
                zip(result.widths_initial, result.widths)
            )
        ]
        print(ascii_table(["tier width", "before", "after"], rows))
    else:
        print(
            f"{result.n_pins} pins, {len(result.swaps)} accepted swaps in "
            f"{result.rounds} rounds"
        )
    print(
        f"worst-case IR drop: {si_format(result.drop_initial, 'V')} -> "
        f"{si_format(result.drop_final, 'V')} "
        f"(improvement {si_format(result.improvement, 'V')}, "
        f"{result.new_factorizations} new factorizations)"
    )
    if args.json:
        write_json(args.json, result.payload())
        print(f"wrote {args.json}")
    return 0


def cmd_eco(args: argparse.Namespace) -> int:
    import time as _time

    from repro.core.planes import PlaneFactorCache
    from repro.eco import EcoSession, load_candidates

    job = _spec(
        EcoJob,
        args,
        load_scales=_parse_floats(args.load_scales, "--load-scales"),
    )
    stack = _build_stack(args)
    if args.edits:
        candidates = load_candidates(args.edits)
    else:
        candidates = job.generate_candidates(stack)
    cache = PlaneFactorCache(max_entries=args.cache_entries)
    config = job.config()
    with EcoSession(
        stack, scenarios=job.scenarios(), config=config, cache=cache
    ) as session:
        report = session.rank_candidates(candidates)
        print(report.table(top=job.top))
        print()
        print(report.summary())
        if args.compare_refactorize:
            # Direct re-solve (fresh factors on the edited stack) of a
            # small sample, extrapolated to the full candidate list.
            # Construction (assembly + factorization + setup) is timed
            # apart from the solve: the solve iterations are identical
            # lockstep work in both paths, so the construction is what
            # the incremental update actually replaces.
            from repro.core.batch import BatchedVPSolver

            sample = min(4, len(report.rows))
            solver_config = config.solver_config()
            factor_s = solve_s = 0.0
            for row in report.ranked()[:sample]:
                t0 = _time.perf_counter()
                solver = BatchedVPSolver(
                    row.candidate.apply(stack),
                    session.scenarios,
                    solver_config,
                )
                t1 = _time.perf_counter()
                solver.solve()
                factor_s += t1 - t0
                solve_s += _time.perf_counter() - t1
            per_candidate = (factor_s + solve_s) / sample
            estimated = per_candidate * len(report.rows)
            speedup = estimated / max(report.eval_seconds, 1e-12)
            update_per_cand = report.result.stats.setup_seconds / max(
                len(report.rows), 1
            )
            refactor_x = (factor_s / sample) / max(update_per_cand, 1e-12)
            print(
                f"re-factorization baseline: {per_candidate:.3f} s/candidate "
                f"({sample} sampled), estimated {estimated:.2f} s total "
                f"-> incremental speedup {speedup:.1f}x end-to-end, "
                f"{refactor_x:.1f}x on the factorization pipeline "
                f"({factor_s / sample * 1e3:.0f} ms -> "
                f"{update_per_cand * 1e3:.1f} ms/candidate)"
            )
    _write_reports(report, args)
    return 0 if all(row.converged for row in report.rows) else 1


def cmd_sweep_tsv(args: argparse.Namespace) -> int:
    r_values = tuple(float(r) for r in args.r_values.split(","))
    points = tsv_resistance_sweep(args.side, r_values, seed=args.seed)
    rows = [
        [
            p.r_tsv, p.gs_iterations,
            "yes" if p.gs_converged else "NO",
            p.vp_outer_iterations,
            f"{p.vp_max_error * 1e3:.4f}",
        ]
        for p in points
    ]
    print(
        ascii_table(
            ["r_tsv (ohm)", "GS iters", "GS conv", "VP outers", "VP err (mV)"],
            rows,
        )
    )
    return 0


def cmd_rw_trap(args: argparse.Namespace) -> int:
    r_values = tuple(float(r) for r in args.r_values.split(","))
    points = random_walk_trap(
        args.side, r_values, n_walks=args.walks, seed=args.seed
    )
    rows = [
        [p.r_tsv, f"{p.mean_walk_length:.1f}", p.max_walk_length,
         f"{p.absorbed_fraction:.3f}"]
        for p in points
    ]
    print(
        ascii_table(
            ["r_tsv (ohm)", "mean walk len", "max walk len", "absorbed"],
            rows,
        )
    )
    return 0


def _transient_sweep_scenarios(args: argparse.Namespace, n_tiers: int):
    from repro.scenarios import (
        cartesian_sweep,
        decap_placement_sweep,
        load_step_sweep,
        pulse_shape_sweep,
        ramp_shape_sweep,
    )

    stimulus_options = [
        opt
        for opt, value in (
            ("--step-corners", args.step_corners),
            ("--ramp-rises", args.ramp_rises),
            ("--pulse-duties", args.pulse_duties),
        )
        if value is not None
    ]
    if len(stimulus_options) > 1:
        raise ReproError(
            f"{' and '.join(stimulus_options)} are mutually exclusive "
            "(one stimulus family per sweep)"
        )
    if args.ramp_rises is not None:
        rises = _parse_floats(args.ramp_rises, "--ramp-rises")
        stimuli = ramp_shape_sweep(
            rises, t_start=args.t_step, before=args.before, after=args.after
        )
    elif args.pulse_duties is not None:
        duties = _parse_floats(args.pulse_duties, "--pulse-duties")
        stimuli = pulse_shape_sweep(
            duties, period=args.period, low=args.before, high=args.after
        )
    else:
        corners = _parse_floats(
            args.step_corners or "0.4,0.7,1.0,1.3", "--step-corners"
        )
        stimuli = load_step_sweep(
            corners, t_step=args.t_step, before=args.before
        )
    families = [stimuli]
    if args.decap_boosts is not None:
        boosts = _parse_floats(args.decap_boosts, "--decap-boosts")
        families.append(decap_placement_sweep(n_tiers, boosts))
    return cartesian_sweep(*families)


def cmd_transient(args: argparse.Namespace) -> int:
    from repro.core.transient import TransientVPSolver, step_stimulus

    stack = _build_stack(args)
    if args.sweep:
        from repro.bench.transient import run_transient_sweep
        from repro.core.transient_batch import BatchedTransientConfig

        scenarios = _transient_sweep_scenarios(args, stack.n_tiers)
        config = BatchedTransientConfig(
            outer_tol=args.outer_tol, settle_tol=args.settle_tol
        )
        report = run_transient_sweep(
            stack,
            scenarios,
            args.cap,
            args.dt,
            args.t_end,
            config,
            compare_sequential=args.compare_sequential,
        )
        print(report.table())
        print(report.summary())
        _write_reports(report, args)
        return 0
    base_loads = [tier.loads.copy() for tier in stack.tiers]
    stimulus = step_stimulus(
        base_loads, t_step=args.t_step, before=args.before, after=args.after
    )
    solver = TransientVPSolver(stack, capacitance=args.cap, dt=args.dt)
    result = solver.run(args.t_end, stimulus)
    steps = len(result.outer_iterations)
    print(
        f"{steps} backward-Euler steps of {si_format(args.dt, 's')}; "
        f"{sum(result.outer_iterations) / max(steps, 1):.1f} VP outer "
        "iterations per step"
    )
    print(f"worst droop: {si_format(result.worst_droop, 'V')}")
    print(
        f"minimum voltage: {si_format(float(result.worst_voltage.min()), 'V')} "
        f"(nominal {si_format(stack.v_pin, 'V')})"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import GridAnalysisService, ServiceConfig, serve_http

    config = ServiceConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        batch_window=args.batch_window,
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_bytes,
        default_timeout=args.job_timeout,
        flight_dump_dir=args.flight_dump,
    )
    service = GridAnalysisService(
        config, log_stream=sys.stdout if args.log_json else None
    )
    # Under --profile the generic session wrapper in main() is active:
    # worker batches detect the enabled process tracer and merge their
    # spans into it, so the flushed trace covers the service lifetime.
    serve_http(service, host=args.host, port=args.port)
    return 0


def cmd_phases(args: argparse.Namespace) -> int:
    stack = _build_stack(args)
    breakdown = phase_breakdown(stack)
    rows = [[k, f"{v:.4f}"] for k, v in breakdown.items()]
    print(ascii_table(["phase", "seconds"], rows))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    workload = list(args.workload)
    if workload and workload[0] == "--":
        workload = workload[1:]
    if not workload:
        raise ReproError(
            "usage: repro profile [--trace PATH] <subcommand> [args...]"
        )
    if workload[0] == "profile":
        raise ReproError("cannot nest 'repro profile'")
    inner = build_parser().parse_args(workload)
    try:
        with obs.session(trace=True, series=not args.no_series) as tel:
            rc = inner.func(inner)
    finally:
        # Same contract as --profile: a failing workload still flushes
        # whatever spans it recorded before the error surfaces.
        print()
        if args.trace:
            obs.write_chrome_trace(
                args.trace, tel.tracer.events, tel.registry.snapshot()
            )
            print(f"profile: trace written to {args.trace}")
        if args.trace_csv:
            obs.write_csv_trace(args.trace_csv, tel.tracer.events)
            print(f"profile: span CSV written to {args.trace_csv}")
    print(obs.render_profile(tel))
    return rc


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="3-D power grid IR-drop analysis (DATE 2012 VP method)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a stack and write a netlist")
    _add_stack_arguments(p)
    p.add_argument("--output", "-o", required=True, help="netlist path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve a circuit and report IR drop")
    _add_stack_arguments(p)
    p.add_argument("--netlist", help="solve this netlist file (SPICE engine)")
    p.add_argument(
        "--method", choices=("vp", "pcg", "spice"), default="vp"
    )
    p.add_argument("--inner", choices=("rb", "direct", "cg"), default="rb")
    p.add_argument(
        "--vda",
        choices=("auto", "fixed", "adaptive", "secant", "anderson"),
        default="auto",
    )
    p.add_argument(
        "--preconditioner", default="jacobi",
        choices=("none", "jacobi", "ssor", "ic0", "ilu", "multigrid"),
    )
    p.add_argument("--heatmap", action="store_true", help="print IR-drop map")
    p.add_argument("--output", "-o", help="write .solution file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="diff two .solution files")
    p.add_argument("candidate")
    p.add_argument("reference")
    p.add_argument("--budget", type=float, default=0.5e-3, help="volts")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("table1", help="regenerate the paper's Table I")
    p.add_argument("--circuits", help="comma-separated subset, e.g. C0,C1")
    p.add_argument(
        "--preconditioner", default="jacobi",
        choices=("none", "jacobi", "ssor", "ic0", "ilu", "multigrid"),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--markdown", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser(
        "sweep",
        help="batched multi-scenario sweep (shared-factorization engine)",
    )
    _add_stack_arguments(p)
    p.add_argument(
        "--load-scales", default=None,
        help="comma-separated global current corners (default 0.8,1.0,1.2; "
        "mutually exclusive with --corner-levels)",
    )
    p.add_argument(
        "--corner-levels", default=None,
        help="per-tier activity levels, swept as the cartesian product "
        "across tiers (levels^tiers scenarios)",
    )
    p.add_argument(
        "--r-tsv-scales", default="1.0",
        help="comma-separated TSV-resistance multipliers (crossed with "
        "the load corners)",
    )
    p.add_argument(
        "--width-scales", default="1.0",
        help="comma-separated metal-width (conductance) multipliers, "
        "crossed with the other families (scaled-factor fast path)",
    )
    p.add_argument("--outer-tol", type=float, default=1e-4, help="volts")
    p.add_argument(
        "--vda",
        choices=("auto", "fixed", "adaptive", "secant", "anderson"),
        default="auto",
    )
    p.add_argument(
        "--v0-init", choices=("pin", "loadshare"), default="loadshare",
        help="layer-0 seed (loadshare pre-drops pillars by their load share)",
    )
    p.add_argument(
        "--compare-sequential", action="store_true",
        help="also run the per-scenario solve_vp loop and report speedup",
    )
    p.add_argument("--csv", help="write the per-scenario report as CSV")
    p.add_argument("--json", help="write the full report as JSON")
    _add_profile_argument(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "mc",
        help="Monte Carlo variation analysis (factor-reuse engine)",
    )
    _add_stack_arguments(p)
    p.add_argument(
        "--samples", type=int, default=128, help="Monte Carlo sample count"
    )
    p.add_argument(
        "--sigma-wire", type=float, default=0.0,
        help="lognormal sigma of per-segment wire-conductance variation "
        "(changes plane matrices; costs one factorization per sample)",
    )
    p.add_argument(
        "--corr-length", type=float, default=0.0,
        help="correlation length (nodes) of the wire field; 0 = iid, "
        ">0 = truncated-KL correlated field",
    )
    p.add_argument(
        "--kl-rank", type=int, default=16,
        help="modes kept in the truncated KL expansion",
    )
    p.add_argument(
        "--sigma-pad", type=float, default=0.0,
        help="lognormal sigma on pad conductances",
    )
    p.add_argument(
        "--sigma-width", type=float, default=0.0,
        help="per-tier metal-width scaling sigma (factor-reuse fast path)",
    )
    p.add_argument(
        "--sigma-tsv", type=float, default=0.0,
        help="per-via TSV resistance spread sigma (zero refactorizations)",
    )
    p.add_argument(
        "--budget", type=float, default=None,
        help="IR-drop budget (V) for the violation probability",
    )
    p.add_argument(
        "--quantiles", default="0.5,0.9,0.95,0.99",
        help="comma-separated worst-drop quantiles to estimate",
    )
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--outer-tol", type=float, default=1e-4, help="volts")
    p.add_argument(
        "--compare-naive", action="store_true",
        help="also time the per-sample solve_vp loop and report speedup",
    )
    p.add_argument("--csv", help="write the quantile table as CSV")
    p.add_argument("--json", help="write the full report as JSON")
    _add_profile_argument(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser(
        "sensitivity",
        help="adjoint gradients of an IR-drop metric over design parameters",
    )
    _add_stack_arguments(p)
    p.add_argument(
        "--params", default="width,tsv,load",
        help="comma-separated parameter families: width (per-tier metal), "
        "tsv (per-segment conductance), load (per-tier current)",
    )
    p.add_argument(
        "--node", default=None,
        help="probe-node metric 'tier,row,col' instead of the smooth "
        "worst drop",
    )
    p.add_argument(
        "--beta", type=float, default=2000.0,
        help="smooth-max sharpness (1/V) of the worst-drop metric",
    )
    p.add_argument(
        "--top", type=int, default=10,
        help="how many largest-|gradient| parameters to print",
    )
    p.add_argument(
        "--fd-check", type=int, default=0,
        help="cross-check this many sampled gradients against central "
        "finite differences (2 solves each)",
    )
    p.add_argument("--csv", help="write all gradients as CSV")
    p.add_argument("--json", help="write the full report as JSON")
    _add_profile_argument(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser(
        "optimize",
        help="gradient-based design optimization (adjoint-driven)",
    )
    _add_stack_arguments(p)
    p.add_argument(
        "--mode", choices=("budget", "placement"), default="budget",
        help="budget: per-tier wire-width allocation under a fixed area; "
        "placement: greedy pin refinement at a fixed pin count",
    )
    p.add_argument(
        "--load-scales", default=None,
        help="comma-separated current corners to optimize the worst "
        "case over (default: nominal only)",
    )
    p.add_argument(
        "--area-budget", type=float, default=None,
        help="total area sum(w_l) the widths must meet (default: the "
        "base design's area -- pure reallocation)",
    )
    p.add_argument(
        "--bounds", default="0.5,2.5",
        help="per-tier width bounds 'lo,hi'",
    )
    p.add_argument(
        "--pins", type=int, default=None,
        help="placement mode: target pin count (default: keep current)",
    )
    p.add_argument(
        "--iterations", type=int, default=12,
        help="gradient iterations (budget) / swap rounds (placement)",
    )
    p.add_argument("--json", help="write the before/after report as JSON")
    _add_profile_argument(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser(
        "eco",
        help="incremental ECO re-analysis: rank edit candidates on "
        "cached factors (SMW low-rank updates, zero re-factorizations)",
    )
    _add_stack_arguments(p)
    p.add_argument(
        "--edits", metavar="FILE", default=None,
        help="JSON candidate file ({'candidates': [{'name', 'edits'}]}); "
        "overrides --sweep",
    )
    p.add_argument(
        "--sweep", choices=("strap", "width", "tsv", "pin"), default="strap",
        help="generated candidate family when no --edits file is given",
    )
    p.add_argument(
        "--candidates", type=int, default=32,
        help="how many candidates the sweep generates",
    )
    p.add_argument(
        "--metric", choices=("worst_drop", "mean_drop"),
        default="worst_drop", help="ranking figure of merit (lower wins)",
    )
    p.add_argument(
        "--load-scales", default=None,
        help="comma-separated current corners to evaluate each candidate "
        "over (default: nominal only)",
    )
    p.add_argument(
        "--verify", type=float, default=0.0, metavar="FRACTION",
        help="re-solve this fraction of candidates directly (fresh "
        "factors) and check parity; 0 keeps the run factorization-free",
    )
    p.add_argument(
        "--compare-refactorize", action="store_true",
        help="time a sampled per-candidate re-factorization baseline and "
        "report the incremental speedup",
    )
    p.add_argument(
        "--cache-entries", type=int, default=8,
        help="plane-factor cache capacity (LRU beyond this; evictions "
        "surface as the cache.evictions counter)",
    )
    p.add_argument("--top", type=int, default=10, help="rows to print")
    p.add_argument("--outer-tol", type=float, default=1e-6, help="volts")
    p.add_argument("--csv", help="write the ranked report as CSV")
    p.add_argument("--json", help="write the full report as JSON")
    _add_profile_argument(p)
    p.set_defaults(func=cmd_eco)

    p = sub.add_parser("sweep-tsv", help="E6: GS vs TSV resistance")
    p.add_argument("--side", type=int, default=24)
    p.add_argument("--r-values", default="0.5,0.05,0.005,0.0005")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep_tsv)

    p = sub.add_parser("rw-trap", help="E7: random-walk trap")
    p.add_argument("--side", type=int, default=16)
    p.add_argument("--r-values", default="5,0.5,0.05")
    p.add_argument("--walks", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rw_trap)

    p = sub.add_parser(
        "transient", help="E14: transient droop (RC backward Euler)"
    )
    _add_stack_arguments(p)
    p.add_argument("--cap", type=float, default=2e-9, help="decap per node (F)")
    p.add_argument("--dt", type=float, default=1e-10, help="time step (s)")
    p.add_argument("--t-end", type=float, default=2e-8, help="end time (s)")
    p.add_argument("--t-step", type=float, default=1e-9,
                   help="activity-step time (s)")
    p.add_argument("--before", type=float, default=0.1,
                   help="activity before the step")
    p.add_argument("--after", type=float, default=1.0,
                   help="activity after the step")
    p.add_argument(
        "--sweep", action="store_true",
        help="batched multi-scenario droop sweep (shared companion factors)",
    )
    p.add_argument(
        "--step-corners", default=None,
        help="sweep mode: comma-separated post-step activity levels "
        "(default 0.4,0.7,1.0,1.3; one load-step scenario each)",
    )
    p.add_argument(
        "--ramp-rises", default=None,
        help="sweep mode: comma-separated activity rise times (s); "
        "0 degenerates to a step (exclusive with --step-corners)",
    )
    p.add_argument(
        "--pulse-duties", default=None,
        help="sweep mode: comma-separated pulse duty cycles in (0,1) "
        "(exclusive with --step-corners/--ramp-rises)",
    )
    p.add_argument(
        "--period", type=float, default=4e-9,
        help="pulse period (s) for --pulse-duties",
    )
    p.add_argument(
        "--decap-boosts", default=None,
        help="sweep mode: comma-separated per-tier decap boost factors, "
        "crossed with the stimulus family as a placement grid",
    )
    p.add_argument("--outer-tol", type=float, default=1e-4, help="volts")
    p.add_argument(
        "--settle-tol", type=float, default=0.0,
        help="sweep mode: retire scenarios whose waveform moves less than "
        "this (V) per step after their stimulus settles (0 = never)",
    )
    p.add_argument(
        "--compare-sequential", action="store_true",
        help="sweep mode: also run the per-scenario transient loop and "
        "report speedup",
    )
    p.add_argument("--csv", help="sweep mode: write the report as CSV")
    p.add_argument("--json", help="sweep mode: write the report as JSON")
    _add_profile_argument(p)
    p.set_defaults(func=cmd_transient)

    p = sub.add_parser(
        "serve",
        help="long-running grid-analysis service over one shared factor "
        "cache (HTTP JSON API)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8642,
        help="bind port (0 picks an ephemeral port, printed on startup)",
    )
    p.add_argument(
        "--workers", type=int, default=4, help="solver worker threads"
    )
    p.add_argument(
        "--queue-depth", type=int, default=64,
        help="max jobs in flight before submissions get HTTP 429",
    )
    p.add_argument(
        "--batch-window", type=float, default=0.025,
        help="request-coalescing window (s); compatible sweep jobs "
        "arriving within it merge into one multi-RHS solve (0 disables)",
    )
    p.add_argument(
        "--cache-entries", type=int, default=8,
        help="shared factor-cache capacity (plane systems)",
    )
    p.add_argument(
        "--cache-bytes", type=int, default=None,
        help="optional byte bound on cached factors (evicts LRU past it)",
    )
    p.add_argument(
        "--job-timeout", type=float, default=None,
        help="default per-job execution timeout (s)",
    )
    p.add_argument(
        "--flight-dump", metavar="DIR", default=None,
        help="write a flight-recorder Chrome trace to DIR for every "
        "failed or timed-out job",
    )
    p.add_argument(
        "--log-json", action="store_true",
        help="stream structured JSON access/job logs (one object per "
        "line, correlation id on each) to stdout",
    )
    _add_profile_argument(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("phases", help="E10: VP phase breakdown")
    _add_stack_arguments(p)
    p.set_defaults(func=cmd_phases)

    p = sub.add_parser(
        "profile",
        help="run any repro subcommand under telemetry and print a "
        "phase-attributed summary",
    )
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the span tree as Chrome trace-event JSON (Perfetto)",
    )
    p.add_argument(
        "--trace-csv", metavar="PATH", default=None,
        help="write the flat span list as CSV",
    )
    p.add_argument(
        "--no-series", action="store_true",
        help="skip per-iteration convergence series (lowest overhead)",
    )
    p.add_argument(
        "workload", nargs=argparse.REMAINDER,
        help="the subcommand to profile, e.g. 'transient --sweep'",
    )
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        profile_path = getattr(args, "profile", None)
        if profile_path:
            # The session wraps the whole command so setup-time spans
            # (plane factorizations) land in the trace too.
            try:
                with obs.session(trace=True, series=True) as tel:
                    rc = args.func(args)
            finally:
                # A failing command is exactly the run a trace is wanted
                # for: flush the partial trace before the error surfaces.
                # Lane labels only when several threads recorded (a
                # profiled `repro serve` run); single-threaded traces
                # stay in the classic one-lane shape.
                names = (
                    tel.tracer.thread_names
                    if len(tel.tracer.thread_names) > 1
                    else None
                )
                obs.write_chrome_trace(
                    profile_path,
                    tel.tracer.events,
                    tel.registry.snapshot(),
                    thread_names=names,
                )
                print(f"\nprofile: trace written to {profile_path}")
            print(obs.render_profile(tel))
            return rc
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
