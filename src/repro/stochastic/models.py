"""Variation models: how process variation perturbs a 3-D power grid.

A :class:`VariationSpec` composes up to three independent variation
sources, chosen for how they interact with the VP factor-reuse machinery
(Ghanta et al., "Stochastic Power Grid Analysis Considering Process
Variations" motivates the correlated-field model; the batched engine's
contract decides the partition):

* :class:`WireFieldVariation` -- per-segment wire (and optionally pad)
  conductance fields, i.i.d. lognormal or spatially correlated through a
  truncated Karhunen-Loeve expansion.  These change the plane matrices,
  so each distinct draw costs a fresh factorization (the Monte Carlo
  driver's fallback path).
* :class:`MetalWidthVariation` -- per-tier scalar conductance scalings
  ``G -> alpha G`` (global linewidth/thickness shift of a die's metal
  stack).  Served by the scaled-factor fast path: factors are reused and
  the solve is rescaled.
* :class:`TSVVariation` -- per-via (or global) resistance spreads.  TSV
  resistances never enter the plane solves, so these samples share the
  baseline factorization outright.

Sampling a spec yields :class:`VariationDraw` records that know (a) the
:class:`~repro.scenarios.spec.Scenario` expressing their factor-reusable
knobs, (b) the wire-perturbed stack they need when they do change the
matrices, and (c) a geometry key the driver groups batches by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.grid.perturb import kl_gaussian_field, _edge_factors
from repro.grid.stack3d import PowerGridStack
from repro.scenarios.spec import Scenario


def _check_sigma(sigma: float, label: str) -> None:
    # NaN fails both ``< 0`` and ``> 0``: it would switch the source off.
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ReproError(f"{label} must be finite and non-negative, got {sigma}")


@dataclass(frozen=True)
class WireFieldVariation:
    """Per-segment wire-conductance variation (matrix-changing).

    ``corr_length == 0`` draws i.i.d. lognormal factors per segment;
    ``corr_length > 0`` draws a rank-``kl_rank`` truncated-KL Gaussian
    field with separable exponential correlation and maps it onto the
    wire segments (see :func:`repro.grid.perturb.kl_gaussian_field`).
    ``sigma_pad`` optionally jitters pad conductances the same way
    (i.i.d.; pads are discrete structures).
    """

    sigma: float
    corr_length: float = 0.0
    kl_rank: int = 16
    sigma_pad: float = 0.0

    def __post_init__(self) -> None:
        _check_sigma(self.sigma, "wire sigma")
        _check_sigma(self.sigma_pad, "pad sigma")
        _check_sigma(self.corr_length, "corr_length")
        if self.kl_rank < 1:
            raise ReproError("KL rank must be >= 1")

    @property
    def active(self) -> bool:
        return self.sigma > 0 or self.sigma_pad > 0

    def sample_tier_factors(
        self, rows: int, cols: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One tier's multiplicative factors ``(f_h, f_v, f_pad)``."""
        if self.sigma > 0 and self.corr_length > 0:
            node_field = kl_gaussian_field(
                rows, cols, self.corr_length, self.kl_rank, rng
            )
            f_h, f_v = _edge_factors(node_field, self.sigma)
        elif self.sigma > 0:
            f_h = rng.lognormal(0.0, self.sigma, size=(rows, max(cols - 1, 0)))
            f_v = rng.lognormal(0.0, self.sigma, size=(max(rows - 1, 0), cols))
        else:
            f_h = np.ones((rows, max(cols - 1, 0)))
            f_v = np.ones((max(rows - 1, 0), cols))
        f_pad = (
            rng.lognormal(0.0, self.sigma_pad, size=(rows, cols))
            if self.sigma_pad > 0
            else None
        )
        return f_h, f_v, f_pad


@dataclass(frozen=True)
class MetalWidthVariation:
    """Per-tier scalar conductance scaling (factor-reuse fast path).

    Each tier's entire metal stack scales by one lognormal factor
    ``alpha = exp(N(0, sigma))`` -- independent per tier when
    ``per_tier`` (stacked dies come from different wafers), otherwise one
    shared factor for the whole stack.
    """

    sigma: float
    per_tier: bool = True

    def __post_init__(self) -> None:
        _check_sigma(self.sigma, "width sigma")

    @property
    def active(self) -> bool:
        return self.sigma > 0

    def sample(self, n_tiers: int, rng: np.random.Generator) -> np.ndarray:
        if self.per_tier:
            return rng.lognormal(0.0, self.sigma, size=n_tiers)
        return np.full(n_tiers, rng.lognormal(0.0, self.sigma))


@dataclass(frozen=True)
class TSVVariation:
    """TSV (via) resistance spread (shared-factorization path).

    ``per_segment`` draws an independent lognormal factor for every
    segment of every pillar; otherwise one scalar factor scales the whole
    table (a global via-process corner).
    """

    sigma: float
    per_segment: bool = True

    def __post_init__(self) -> None:
        _check_sigma(self.sigma, "TSV sigma")

    @property
    def active(self) -> bool:
        return self.sigma > 0

    def sample(
        self, shape: tuple[int, int], rng: np.random.Generator
    ) -> tuple[float, np.ndarray | None]:
        """Returns ``(scalar_factor, per_segment_table_or_None)``."""
        if self.per_segment:
            return 1.0, rng.lognormal(0.0, self.sigma, size=shape)
        return float(rng.lognormal(0.0, self.sigma)), None


@dataclass
class VariationDraw:
    """One Monte Carlo sample of a :class:`VariationSpec`.

    ``wire`` is ``None`` for draws that leave the plane matrices
    bit-identical to the baseline -- the driver batches those against the
    shared factorization.  ``plane_scale``/``r_tsv_scale``/``r_seg_scale``
    are the factor-reusable knobs, expressed through a
    :class:`~repro.scenarios.spec.Scenario`.
    """

    index: int
    plane_scale: np.ndarray | None = None      # (T,) per-tier alpha
    r_tsv_scale: float = 1.0                   # scalar via-process factor
    r_seg_scale: np.ndarray | None = None      # (T, P) per-segment factors
    wire: list[tuple] | None = None            # per-tier (f_h, f_v, f_pad)

    @property
    def name(self) -> str:
        return f"mc-{self.index:05d}"

    @property
    def shares_baseline_planes(self) -> bool:
        """True when this draw reuses the baseline plane factorization."""
        return self.wire is None

    def scenario(self) -> Scenario:
        """The factor-reusable knobs of this draw as a Scenario."""
        return Scenario(
            name=self.name,
            plane_scale=(
                1.0 if self.plane_scale is None else tuple(self.plane_scale)
            ),
            r_tsv_scale=self.r_tsv_scale,
            r_seg_scale=self.r_seg_scale,
        )

    def wire_stack(self, stack: PowerGridStack) -> PowerGridStack:
        """The stack whose plane geometry this draw solves against: the
        baseline itself, or a copy with the wire factors applied."""
        if self.wire is None:
            return stack
        tiers = []
        for tier, (f_h, f_v, f_pad) in zip(stack.tiers, self.wire):
            out = tier.copy()
            out.g_h = out.g_h * f_h
            out.g_v = out.g_v * f_v
            if f_pad is not None:
                out.g_pad = out.g_pad * f_pad
            tiers.append(out)
        return PowerGridStack(
            tiers=tiers,
            pillars=stack.pillars,
            name=f"{stack.name}/{self.name}" if stack.name else self.name,
            net=stack.net,
        )

    def materialize(self, stack: PowerGridStack) -> PowerGridStack:
        """Standalone perturbed stack (the naive/reference path: wire
        factors plus all scenario knobs applied to a fresh copy)."""
        return self.scenario().apply(self.wire_stack(stack))


@dataclass(frozen=True)
class VariationSpec:
    """Composable description of what varies, sampled as a unit.

    Any subset of the three sources may be active; ``sample`` draws them
    in a fixed order from one generator, so a seed fully determines the
    population (the naive reference loop and the factor-reuse driver
    consume the *same* draws).
    """

    wire: WireFieldVariation | None = None
    width: MetalWidthVariation | None = None
    tsv: TSVVariation | None = None
    name: str = "variation"

    def __post_init__(self) -> None:
        if self.wire is None and self.width is None and self.tsv is None:
            raise ReproError(
                "a VariationSpec needs at least one variation source"
            )

    def describe(self) -> dict:
        """Flat record for reports."""
        record: dict = {"spec": self.name}
        if self.wire is not None and self.wire.active:
            record["sigma_wire"] = self.wire.sigma
            record["corr_length"] = self.wire.corr_length
            record["kl_rank"] = self.wire.kl_rank
            if self.wire.sigma_pad > 0:
                record["sigma_pad"] = self.wire.sigma_pad
        if self.width is not None and self.width.active:
            record["sigma_width"] = self.width.sigma
        if self.tsv is not None and self.tsv.active:
            record["sigma_tsv"] = self.tsv.sigma
            record["tsv_per_segment"] = self.tsv.per_segment
        return record

    def sample_one(
        self, stack: PowerGridStack, index: int, rng: np.random.Generator
    ) -> VariationDraw:
        """Draw one sample (consumes ``rng`` in a fixed order)."""
        draw = VariationDraw(index=index)
        if self.wire is not None and self.wire.active:
            wire = [
                self.wire.sample_tier_factors(stack.rows, stack.cols, rng)
                for _ in stack.tiers
            ]
            # A pad spread alone leaves a stack without pads as it was:
            # such a draw keeps sharing the baseline planes.
            if self.wire.sigma > 0 or any(t.g_pad.any() for t in stack.tiers):
                draw.wire = wire
        if self.width is not None and self.width.active:
            draw.plane_scale = self.width.sample(stack.n_tiers, rng)
        if self.tsv is not None and self.tsv.active:
            draw.r_tsv_scale, draw.r_seg_scale = self.tsv.sample(
                stack.pillars.r_seg.shape, rng
            )
        return draw

    def sample(
        self,
        stack: PowerGridStack,
        n_samples: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[VariationDraw]:
        """Draw ``n_samples`` independent samples."""
        if n_samples < 1:
            raise ReproError("n_samples must be >= 1")
        gen = np.random.default_rng(rng)
        return [self.sample_one(stack, k, gen) for k in range(n_samples)]
