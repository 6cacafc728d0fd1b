"""The request schema: one parse for every job kind, shared by the CLI
and the service, with no option added or default moved on either."""

from __future__ import annotations

import dataclasses
import math
import typing
from pathlib import Path

import pytest

from repro import cli, jobspec
from repro.errors import ReproError
from repro.jobspec import (
    JOB_SPECS,
    NOTHING_VARIES,
    EcoJob,
    GridSpec,
    McJob,
    OptimizeJob,
    ScenarioSpec,
    SensitivityJob,
    SweepJob,
    parse,
)

MISSING = dataclasses.MISSING

#: Every spec field and its default: the service's defaults.
SPEC_DEFAULTS = {
    GridSpec: {
        "circuit": None, "side": 40, "tiers": 3, "r_tsv": 0.05,
        "vdd": 1.8, "seed": 0,
    },
    ScenarioSpec: {
        "name": MISSING, "load_scale": 1.0, "r_tsv_scale": 1.0,
        "plane_scale": 1.0,
    },
    SweepJob: {
        "scenarios": (), "outer_tol": 1e-4, "max_outer": 200, "vda": "auto",
        "eta": None, "v0_init": "pin",
    },
    McJob: {
        "samples": 16, "seed": 0, "sigma_wire": 0.0, "sigma_pad": 0.0,
        "corr_length": 0.0, "kl_rank": 16, "sigma_width": 0.0,
        "sigma_tsv": 0.0, "batch_size": 32, "outer_tol": 1e-4,
        "quantiles": (0.5, 0.9, 0.95, 0.99), "budget": None,
    },
    SensitivityJob: {
        "params": ("width",), "node": None, "beta": 2000.0, "top": 10,
    },
    OptimizeJob: {
        "mode": "budget", "iterations": None, "area_budget": None,
        "bounds": (0.5, 2.5), "pins": None, "load_scales": (),
    },
    EcoJob: {
        "sweep": "strap", "candidates": 8, "seed": 0, "top": 10,
        "load_scales": (), "metric": "worst_drop", "outer_tol": 1e-6,
        "verify": 0.0,
    },
}

GRID_FLAG_DEFAULTS = {
    "circuit": None, "side": 40, "tiers": 3, "r_tsv": 0.05, "vdd": 1.8,
    "seed": 0,
}

#: Every flag of the five engine subcommands and its default.
CLI_DEFAULTS = {
    "sweep": {
        "load_scales": None, "corner_levels": None, "r_tsv_scales": "1.0",
        "width_scales": "1.0", "outer_tol": 1e-4, "vda": "auto",
        "v0_init": "loadshare", "compare_sequential": False, "csv": None,
        "json": None, "profile": None,
    },
    "mc": {
        "samples": 128, "sigma_wire": 0.0, "corr_length": 0.0,
        "kl_rank": 16, "sigma_pad": 0.0, "sigma_width": 0.0,
        "sigma_tsv": 0.0, "budget": None, "quantiles": "0.5,0.9,0.95,0.99",
        "batch_size": 32, "outer_tol": 1e-4, "compare_naive": False,
        "csv": None, "json": None, "profile": None,
    },
    "sensitivity": {
        "params": "width,tsv,load", "node": None, "beta": 2000.0, "top": 10,
        "fd_check": 0, "csv": None, "json": None, "profile": None,
    },
    "optimize": {
        "mode": "budget", "load_scales": None, "area_budget": None,
        "bounds": "0.5,2.5", "pins": None, "iterations": 12, "json": None,
        "profile": None,
    },
    "eco": {
        "edits": None, "sweep": "strap", "candidates": 32,
        "metric": "worst_drop", "load_scales": None, "verify": 0.0,
        "compare_refactorize": False, "cache_entries": 8, "top": 10,
        "outer_tol": 1e-6, "csv": None, "json": None, "profile": None,
    },
}

#: The flags that stay CLI-only: report output and profiling, harness
#: comparisons against slower reference paths, local inputs (an edit
#: file, a private cache size), and the sweep's scenario generators,
#: which build what a service sweep sends as ``scenarios``.
CLI_ONLY = {
    "sweep": {
        "csv", "json", "profile", "compare_sequential",
        "load_scales", "corner_levels", "r_tsv_scales", "width_scales",
    },
    "mc": {"csv", "json", "profile", "compare_naive"},
    "sensitivity": {"csv", "json", "profile", "fd_check"},
    "optimize": {"json", "profile"},
    "eco": {"csv", "json", "profile", "compare_refactorize", "edits", "cache_entries"},
}

#: Spec fields no CLI flag sets (the CLI's sweep builds its scenarios
#: from the generators and keeps the engine's max_outer and eta).
SERVICE_ONLY = {"sweep": {"scenarios", "max_outer", "eta"}}


def subcommand(name: str):
    parser = cli.build_parser()
    return parser._subparsers._group_actions[0].choices[name]


def dests(name: str) -> dict:
    return {
        action.dest: action.default
        for action in subcommand(name)._actions
        if action.dest != "help"
    }


def field_names(cls) -> set[str]:
    return {field.name for field in dataclasses.fields(cls)}


class TestParse:
    def test_casts_each_value_to_its_field_type(self):
        job = parse(
            McJob,
            {"samples": "12", "kl_rank": 4.0, "quantiles": [0.5, "0.9"],
             "budget": 1},
        )
        assert (job.samples, job.kl_rank) == (12, 4)
        assert job.quantiles == (0.5, 0.9)
        assert job.budget == 1.0 and isinstance(job.budget, float)

    def test_scales_take_a_number_or_a_per_tier_list(self):
        job = parse(
            SweepJob,
            {"scenarios": [
                {"name": "a", "load_scale": [0.9, 1], "plane_scale": 1.1},
                {"name": "b", "load_scale": 2},
            ]},
        )
        first, second = job.scenario_list()
        assert first.load_scale == (0.9, 1.0) and first.plane_scale == 1.1
        assert second.load_scale == 2.0
        assert [s.name for s in parse(SweepJob, {}).scenario_list()] == [
            "nominal"
        ]

    def test_unknown_fields_are_named_with_the_accepted_ones(self):
        with pytest.raises(ReproError) as info:
            parse(OptimizeJob, {"budget": 3.0, "mode": "budget"})
        message = str(info.value)
        assert "['budget']" in message
        assert all(name in message for name in field_names(OptimizeJob))

    @pytest.mark.parametrize(
        "cls, params, words",
        [
            (McJob, {"samples": "x"}, ["'samples'", "integer", "'x'"]),
            (McJob, {"samples": 2.5}, ["'samples'", "integer"]),
            (McJob, {"samples": True}, ["'samples'", "integer"]),
            (McJob, {"sigma_width": math.nan}, ["'sigma_width'", "finite"]),
            (McJob, {"outer_tol": "inf"}, ["'outer_tol'", "finite"]),
            (McJob, {"budget": [1.0]}, ["'budget'", "number"]),
            (SweepJob, {"vda": 3}, ["'vda'", "string"]),
            (SweepJob, {"scenarios": [{"load_scale": 1}]}, ["name"]),
            (SensitivityJob, {"params": "width"}, ["'params'", "list"]),
            (SensitivityJob, {"node": "0,2,2"}, ["'node'", "list"]),
            (GridSpec, {"side": "x"}, ["'side'"]),
        ],
    )
    def test_bad_values_name_the_field(self, cls, params, words):
        with pytest.raises(ReproError) as info:
            parse(cls, params)
        assert all(word in str(info.value) for word in words), info.value

    @pytest.mark.parametrize(
        "count", ["samples", "batch_size", "kl_rank", "max_outer",
                  "candidates", "top", "iterations", "pins"],
    )
    def test_counts_must_be_positive(self, count):
        cls = next(c for c in JOB_SPECS.values() if count in field_names(c))
        with pytest.raises(ReproError, match=f"'{count}' must be >= 1"):
            parse(cls, {count: 0})
        assert getattr(parse(cls, {count: 1}), count) == 1

    def test_non_object_is_rejected(self):
        with pytest.raises(ReproError, match="must be an object"):
            parse(McJob, [1, 2])

    def test_one_message_for_an_mc_job_that_varies_nothing(self):
        assert "varies nothing" in NOTHING_VARIES
        assert "nothing varies" in NOTHING_VARIES
        with pytest.raises(ReproError, match=NOTHING_VARIES):
            McJob().variation("x")

    def test_node_needs_three_coordinates(self):
        with pytest.raises(ReproError, match="'node'"):
            parse(SensitivityJob, {"node": [0, 1]}).metric()


class TestNoOptionMoved:
    @pytest.mark.parametrize("cls", list(SPEC_DEFAULTS), ids=lambda c: c.__name__)
    def test_spec_defaults(self, cls):
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        assert defaults == SPEC_DEFAULTS[cls]

    @pytest.mark.parametrize("name", list(CLI_DEFAULTS))
    def test_cli_flag_defaults(self, name):
        assert dests(name) == {**GRID_FLAG_DEFAULTS, **CLI_DEFAULTS[name]}

    @pytest.mark.parametrize("name", list(JOB_SPECS))
    def test_every_flag_is_a_spec_field_or_cli_only(self, name):
        spec = field_names(JOB_SPECS[name])
        flags = set(dests(name))
        assert flags <= spec | field_names(GridSpec) | CLI_ONLY[name]
        assert not CLI_ONLY[name] & spec
        assert spec - flags == SERVICE_ONLY.get(name, set())

    def test_cli_defaults_reach_the_spec(self):
        parser = cli.build_parser()
        mc = cli._spec(McJob, parser.parse_args(["mc"]))
        assert (mc.samples, mc.kl_rank) == (128, 16)
        sweep = cli._spec(SweepJob, parser.parse_args(["sweep"]))
        assert sweep.config().v0_init == "loadshare"
        optimize = cli._spec(OptimizeJob, parser.parse_args(["optimize"]))
        assert optimize.iterations == 12
        eco = parser.parse_args(["eco", "--seed", "7"])
        assert cli._spec(GridSpec, eco).seed == 7
        assert cli._spec(EcoJob, eco).seed == 7


class TestFlagsComeFromTheSpec:
    @pytest.mark.parametrize("name", list(JOB_SPECS))
    def test_each_flag_has_the_help_declared_beside_its_field(self, name):
        """Spec flags are generated: the help is the field's, and the
        value reaches :func:`parse` as raw text, with no argparse type
        or choices of its own."""
        specs = (GridSpec, JOB_SPECS[name])
        for action in subcommand(name)._actions:
            owner = next((c for c in specs if action.dest in field_names(c)), None)
            if owner is None:
                continue
            hint = typing.get_type_hints(owner, include_extras=True)[action.dest]
            assert action.help == hint.__metadata__[0], action.dest
            assert (action.type, action.choices) == (None, None), action.dest

    @pytest.mark.parametrize(
        "argv, service",
        [
            (["mc", "--samples", "x"], lambda: parse(McJob, {"samples": "x"})),
            (["sweep", "--vda", "bogus"],
             lambda: parse(SweepJob, {"vda": "bogus"}).config()),
            (["eco", "--metric", "nope"],
             lambda: parse(EcoJob, {"metric": "nope"}).config()),
            (["sweep", "--circuit", "C9"],
             lambda: parse(GridSpec, {"circuit": "C9"}).build("x")),
        ],
        ids=["samples", "vda", "metric", "circuit"],
    )
    def test_a_bad_value_gets_one_error_from_both_surfaces(
        self, argv, service, capsys, monkeypatch
    ):
        with pytest.raises(ReproError) as info:
            service()
        # Rejected before any work: no stack is synthesized.
        monkeypatch.setattr(jobspec, "synthesize_stack", None)
        assert cli.main([*argv, "--side", "8"]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["optimize", "--load-scales", ""], "--load-scales"),
            (["mc", "--sigma-tsv", "0.1", "--quantiles", " , "], "--quantiles"),
            (["sensitivity", "--node", ""], "--node"),
        ],
    )
    def test_an_empty_list_flag_is_an_error_naming_it(self, argv, flag, capsys):
        assert cli.main([*argv, "--side", "8"]) == 2
        assert capsys.readouterr().err == f"error: {flag} needs at least one value\n"


def test_only_the_front_ends_import_the_schema():
    """The engines never depend on the schema, and it never on the
    service (every CLI engine subcommand imports it)."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    importers = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if "repro.jobspec" in path.read_text()
    }
    assert importers == {"cli.py", "serve/service.py"}
    assert "repro.serve" not in (src / "jobspec.py").read_text()
