"""One request schema for both front ends, ``repro <cmd>`` and ``repro serve``.

Each job kind is one frozen dataclass (a *spec*) whose fields are its
parameters, declared, typed and defaulted once, and whose methods build
the engine inputs.  :func:`parse` turns a JSON object into any spec:
the service parses request dicts, the CLI its argparse values, so the
two cannot drift apart.  Defaults are the service's; the CLI passes its
own argparse defaults explicitly (``repro mc`` draws 128 samples, a
service mc job 16).  Checks that need the grid or an engine (an unknown
family, mode or sweep name, a probe node outside the grid, the quantile
range) stay with the code that has the grid or the engine.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from dataclasses import dataclass

from repro import eco, optimize, sensitivity, stochastic
from repro.bench.circuits import build_circuit
from repro.core.batch import BatchedVPConfig
from repro.errors import ReproError
from repro.grid.generators import synthesize_stack
from repro.scenarios import Scenario, pad_current_sweep

#: Integer fields that count something; each must be >= 1.
COUNTS = frozenset(
    ("samples", "batch_size", "kl_rank", "candidates", "top", "iterations",
     "pins", "max_outer")
)

#: The error of an mc job with no variation source, in both front ends.
NOTHING_VARIES = (
    "mc job varies nothing: nothing varies until one of sigma_wire, "
    "sigma_pad, sigma_width or sigma_tsv is above 0"
)


def parse(cls, params):
    """``cls(**params)`` for the JSON object ``params``: unknown fields
    are rejected, each value is cast to its field's annotated type,
    floats must be finite and :data:`COUNTS` at least 1.  Every failure
    is a :class:`ReproError` naming the field."""
    if not isinstance(params, dict):
        raise ReproError(f"{cls.label} must be an object, got {params!r}")
    fields = dataclasses.fields(cls)
    names = sorted(f.name for f in fields)
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ReproError(
            f"unknown {cls.label} fields {unknown}; expected a subset of {names}"
        )
    missing = [
        f.name for f in fields
        if f.default is dataclasses.MISSING and f.name not in params
    ]
    if missing:
        raise ReproError(f"{cls.label} needs the fields {missing}")
    hints = _type_hints(cls)
    return cls(**{k: _cast(k, hints[k], v) for k, v in params.items()})


#: Evaluating the string annotations is most of a parse; specs never change.
_type_hints = functools.cache(typing.get_type_hints)


def _cast(name: str, hint, value):
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]: a JSON list
        if not isinstance(value, (list, tuple)):
            raise ReproError(f"{name!r} must be a list, got {value!r}")
        return tuple(_cast(name, args[0], item) for item in value)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        # X | None, or a number | per-tier list: a list picks the list.
        if value is None and type(None) in args:
            return None
        first, *per_tier = [a for a in args if a is not type(None)]
        listed = per_tier and isinstance(value, (list, tuple))
        return _cast(name, per_tier[0] if listed else first, value)
    if dataclasses.is_dataclass(hint):
        return parse(hint, value)
    if hint is str:
        if not isinstance(value, str):
            raise ReproError(f"{name!r} must be a string, got {value!r}")
        return value
    # int or float.  A bool is never a number in a request, and an
    # integer field takes a float only when it is whole.
    number = None
    if not isinstance(value, bool) and not (
        hint is int and isinstance(value, float) and not value.is_integer()
    ):
        try:
            number = hint(value)
        except (TypeError, ValueError):
            pass
    if number is None:
        kind = "an integer" if hint is int else "a number"
        raise ReproError(f"{name!r} must be {kind}, got {value!r}")
    if not math.isfinite(number):
        raise ReproError(f"{name!r} must be finite, got {value!r}")
    if name in COUNTS and number < 1:
        raise ReproError(f"{name!r} must be >= 1, got {value!r}")
    return number


def _corners(load_scales: tuple[float, ...]):
    """Global current corners, or ``None`` (nominal only) when empty."""
    return pad_current_sweep(list(load_scales)) if load_scales else None


@dataclass(frozen=True)
class GridSpec:
    """A benchmark circuit by name, or a synthesized ``side x side x
    tiers`` stack (the CLI's common stack flags)."""

    label = "grid spec"

    circuit: str | None = None
    side: int = 40
    tiers: int = 3
    r_tsv: float = 0.05
    vdd: float = 1.8
    seed: int = 0

    def build(self, name: str):
        """The stack; ``name`` labels a synthesized one."""
        if self.circuit:
            return build_circuit(self.circuit, seed=self.seed)
        return synthesize_stack(
            self.side, self.side, self.tiers,
            r_tsv=self.r_tsv, v_pin=self.vdd, rng=self.seed, name=name,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One sweep scenario; a load or plane scale is one number or a
    per-tier list."""

    label = "scenario"

    name: str
    load_scale: float | tuple[float, ...] = 1.0
    r_tsv_scale: float = 1.0
    plane_scale: float | tuple[float, ...] = 1.0


@dataclass(frozen=True)
class SweepJob:
    """A batched multi-scenario sweep.  Every field but ``scenarios`` is
    a solver knob: sweeps that agree on all of them share one batched
    solve bit for bit (the service's coalescing key)."""

    label = "sweep job"

    scenarios: tuple[ScenarioSpec, ...] = ()
    outer_tol: float = 1e-4
    max_outer: int = 200
    vda: str = "auto"
    eta: float | None = None
    v0_init: str = "pin"

    def config(self) -> BatchedVPConfig:
        return BatchedVPConfig(
            outer_tol=self.outer_tol, max_outer=self.max_outer, vda=self.vda,
            eta=self.eta, v0_init=self.v0_init,
        )

    def scenario_list(self) -> list[Scenario]:
        """The scenarios; none given means one nominal scenario."""
        specs = self.scenarios or (ScenarioSpec("nominal"),)
        return [Scenario(**vars(spec)) for spec in specs]


@dataclass(frozen=True)
class McJob:
    """A Monte Carlo variation analysis; some sigma must be above 0."""

    label = "mc job"

    samples: int = 16
    seed: int = 0
    sigma_wire: float = 0.0
    sigma_pad: float = 0.0
    corr_length: float = 0.0
    kl_rank: int = 16
    sigma_width: float = 0.0
    sigma_tsv: float = 0.0
    batch_size: int = 32
    outer_tol: float = 1e-4
    quantiles: tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)
    budget: float | None = None

    def variation(self, name: str) -> stochastic.VariationSpec:
        """The sources whose sigma is set (a negative one raises in its
        model)."""
        wire = width = tsv = None
        if self.sigma_wire or self.sigma_pad:
            wire = stochastic.WireFieldVariation(
                sigma=self.sigma_wire, corr_length=self.corr_length,
                kl_rank=self.kl_rank, sigma_pad=self.sigma_pad,
            )
        if self.sigma_width:
            width = stochastic.MetalWidthVariation(sigma=self.sigma_width)
        if self.sigma_tsv:
            tsv = stochastic.TSVVariation(sigma=self.sigma_tsv)
        if wire is None and width is None and tsv is None:
            raise ReproError(NOTHING_VARIES)
        return stochastic.VariationSpec(wire=wire, width=width, tsv=tsv, name=name)

    def config(self) -> stochastic.MonteCarloConfig:
        return stochastic.MonteCarloConfig(
            batch_size=self.batch_size, outer_tol=self.outer_tol,
            quantiles=self.quantiles, budget=self.budget,
        )


@dataclass(frozen=True)
class SensitivityJob:
    """Adjoint gradients of the smooth worst drop (sharpness ``beta``),
    or of the drop at the probe ``node`` ``[tier, row, col]``."""

    label = "sensitivity job"

    params: tuple[str, ...] = ("width",)
    node: tuple[int, ...] | None = None
    beta: float = 2000.0
    top: int = 10

    def parameter_space(self, stack) -> sensitivity.ParameterSpace:
        blocks = []
        for family in self.params:
            if family == "width":
                blocks.append(sensitivity.MetalWidthParam())
            elif family == "tsv":
                blocks.append(sensitivity.TSVConductanceParam())
            elif family == "load":
                blocks.extend(
                    sensitivity.LoadCurrentParam(t) for t in range(stack.n_tiers)
                )
            else:
                raise ReproError(
                    f"unknown parameter family {family!r}; use width, tsv, load"
                )
        return sensitivity.ParameterSpace(stack, blocks)

    def metric(self):
        if self.node is None:
            return sensitivity.SmoothWorstDrop(beta=self.beta)
        if len(self.node) != 3:
            raise ReproError(f"'node' expects [tier, row, col], got {list(self.node)}")
        return sensitivity.NodeDrop(*self.node)


@dataclass(frozen=True)
class OptimizeJob:
    """Per-tier wire-width allocation under an area budget (``budget``
    mode) or pin-placement refinement (``placement``).  Unset,
    ``iterations`` keeps the optimizer's default and ``area_budget`` the
    base design's area."""

    label = "optimize job"

    mode: str = "budget"
    iterations: int | None = None
    area_budget: float | None = None
    bounds: tuple[float, ...] = (0.5, 2.5)
    pins: int | None = None
    load_scales: tuple[float, ...] = ()

    def run(self, stack, cache=None):
        """The optimizer's result over the load corners."""
        scenarios, n = _corners(self.load_scales), self.iterations
        if self.mode == "budget":
            if len(self.bounds) != 2:
                raise ReproError("bounds expects [lo, hi]")
            return optimize.allocate_wire_width(
                stack, budget=self.area_budget, bounds=self.bounds,
                scenarios=scenarios, cache=cache,
                config=None if n is None else optimize.BudgetConfig(max_iterations=n),
            )
        if self.mode == "placement":
            return optimize.refine_pin_placement(
                stack, n_pins=self.pins, scenarios=scenarios, cache=cache,
                config=None if n is None else optimize.PlacementConfig(max_rounds=n),
            )
        raise ReproError(
            f"unknown optimize mode {self.mode!r}; use budget or placement"
        )


@dataclass(frozen=True)
class EcoJob:
    """Incremental ECO ranking of ``candidates`` generated edits of one
    ``sweep`` family over the load corners."""

    label = "eco job"

    sweep: str = "strap"
    candidates: int = 8
    seed: int = 0
    top: int = 10
    load_scales: tuple[float, ...] = ()
    metric: str = "worst_drop"
    outer_tol: float = 1e-6
    verify: float = 0.0

    def generate_candidates(self, stack) -> list:
        return eco.generate_candidates(
            stack, self.sweep, self.candidates, seed=self.seed
        )

    def scenarios(self):
        return _corners(self.load_scales)

    def config(self) -> eco.EcoConfig:
        return eco.EcoConfig(
            outer_tol=self.outer_tol, metric=self.metric,
            verify_fraction=self.verify,
        )


#: The spec of each job kind, in the service's kind order.
JOB_SPECS = {
    "sweep": SweepJob, "mc": McJob, "sensitivity": SensitivityJob,
    "optimize": OptimizeJob, "eco": EcoJob,
}
