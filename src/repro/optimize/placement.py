"""Greedy + gradient pin/TSV placement refinement.

Sparse bump maps pin only a subset of the TSV pillars (peripheral
packages, C4 keep-outs).  Which pillars *should* get the pins?  The
adjoint field prices exactly that: the gradient of the worst-drop
metric with respect to the topmost-segment conductance of pillar ``p``,

    dm/dg_top(p) = lambda_top(p) * (v_pin - v_top(p)),

is the first-order value of strengthening (or adding) a pin at ``p`` --
available for **every** pillar, pinned or not, from one reverse VP pass.
The refinement loop is classic greedy steered by those prices:

1. solve the current pin set over all operating corners (batched,
   shared factors) and take the worst corner;
2. one adjoint pass prices all pillars; rank pinned pillars by how
   little their pin buys (``|dm/dg| * g_top`` small) and un-pinned ones
   by how much a new pin would buy;
3. propose swaps (drop the cheapest pin, add the most valuable
   candidate), accept a swap only if the *true* re-solved worst drop
   improves, and stop when no proposed swap helps.

Pin masks never enter the plane matrices (only the propagation phase
reads ``has_pin``), so every candidate evaluation is a cache-hit solve
-- the whole refinement performs zero new factorizations.  The inner
loop runs through an :class:`~repro.eco.EcoSession`: each trial pin set
is a rank-0 :class:`~repro.eco.PinMaskEdit` candidate against the one
leased base, and a greedy round evaluates *all* its swap proposals in a
single batched sweep instead of one solve per proposal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import BatchedVPConfig
from repro.core.planes import PlaneFactorCache
from repro.eco.edits import PinMaskEdit
from repro.eco.session import EcoConfig, EcoSession
from repro.errors import ReproError
from repro.grid.stack3d import PowerGridStack
from repro.scenarios.spec import Scenario, ScenarioSet
from repro.sensitivity.adjoint import (
    AdjointVPSolver,
    SmoothWorstDrop,
    net_sign,
    scenario_rhs_overlay,
)

__all__ = ["PlacementConfig", "PlacementResult", "refine_pin_placement"]


@dataclass
class PlacementConfig:
    """Tuning knobs of the refinement loop."""

    max_rounds: int = 8
    #: Swap proposals tried per round (cheapest-pin x best-candidate
    #: pairs, in price order) before declaring the round fruitless.
    candidates: int = 4
    beta: float = 2000.0
    forward_tol: float = 1e-6
    adjoint_tol: float = 1e-8
    max_outer: int = 300

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ReproError("max_rounds must be >= 1")
        if self.candidates < 1:
            raise ReproError("candidates must be >= 1")


@dataclass
class PlacementResult:
    """Before/after of one pin-placement refinement.

    Two "before" snapshots exist because retargeting the pin count
    changes what a fair comparison is: ``has_pin_input``/``drop_input``
    describe the design as the user handed it in, while
    ``has_pin_initial``/``drop_initial`` describe the refinement
    baseline *at the target pin count* (identical to the input when the
    count is unchanged).  ``improvement`` compares like with like --
    swap refinement at a fixed count -- and the payload carries both.
    """

    has_pin_input: np.ndarray
    drop_input: float
    has_pin_initial: np.ndarray
    has_pin: np.ndarray
    drop_initial: float
    drop_final: float
    scenario_names: list[str]
    swaps: list[dict] = field(default_factory=list)
    rounds: int = 0
    new_factorizations: int = 0
    seconds: float = 0.0

    @property
    def improvement(self) -> float:
        """Worst-drop reduction of the swap refinement, at the target
        pin count (positive = better)."""
        return self.drop_initial - self.drop_final

    @property
    def n_pins(self) -> int:
        return int(self.has_pin.sum())

    def payload(self) -> dict:
        return {
            "n_pins": self.n_pins,
            "n_pins_input": int(self.has_pin_input.sum()),
            "worst_drop_input_v": float(self.drop_input),
            "worst_drop_before_v": float(self.drop_initial),
            "worst_drop_after_v": float(self.drop_final),
            "improvement_v": float(self.improvement),
            "pins_input": np.flatnonzero(self.has_pin_input).tolist(),
            "pins_initial": np.flatnonzero(self.has_pin_initial).tolist(),
            "pins_final": np.flatnonzero(self.has_pin).tolist(),
            "swaps": self.swaps,
            "rounds": int(self.rounds),
            "scenarios": self.scenario_names,
            "new_factorizations": int(self.new_factorizations),
            "seconds": float(self.seconds),
        }


def refine_pin_placement(
    stack: PowerGridStack,
    *,
    n_pins: int | None = None,
    scenarios=None,
    config: PlacementConfig | None = None,
    cache: PlaneFactorCache | None = None,
) -> PlacementResult:
    """Refine which pillars carry package pins, at a fixed pin count.

    ``n_pins`` defaults to the stack's current pin count; a smaller
    value first prunes the least valuable pins (greedy, by adjoint
    price), a larger one first adds the most valuable candidates.
    ``scenarios`` optionally makes the objective the worst case over an
    operating :class:`~repro.scenarios.spec.ScenarioSet`.
    """
    t_start = time.perf_counter()
    config = config or PlacementConfig()
    n_pillars = stack.pillars.count
    mask = stack.pillars.has_pin.copy()
    target = int(mask.sum()) if n_pins is None else int(n_pins)
    if not 1 <= target <= n_pillars:
        raise ReproError(
            f"n_pins must be in [1, {n_pillars}], got {target}"
        )

    scenario_set = (
        ScenarioSet([Scenario.nominal()])
        if scenarios is None
        else ScenarioSet.ensure(scenarios)
    )
    if cache is None:
        cache = PlaneFactorCache()
    session = EcoSession(
        stack,
        scenarios=scenario_set,
        config=EcoConfig(
            outer_tol=config.forward_tol,
            max_outer=config.max_outer,
            v0_init="loadshare",
        ),
        cache=cache,
    )
    planes = session.planes
    # Opening the session is the only factorization a refinement may
    # perform; pin masks never change the factor-cache key.
    factorizations0 = cache.factorizations
    metric = SmoothWorstDrop(beta=config.beta)
    sign = net_sign(stack.net)
    pillar_flat = stack.pillar_flat_indices()
    top = stack.n_tiers - 1

    def evaluate_masks(masks: list[np.ndarray]):
        """One incremental sweep over trial pin sets (rank-0 columns)."""
        return session.evaluate(
            [
                PinMaskEdit(tuple(bool(b) for b in pin_mask))
                for pin_mask in masks
            ]
        ).result

    def solve(pin_mask: np.ndarray):
        """(worst drop, binding corner, (T, R, C) corner voltages) for
        one pin set."""
        result = evaluate_masks([pin_mask])
        if not result.converged.all():
            return np.inf, 0, None
        drops = result.worst_ir_drop()[0]
        corner = int(np.argmax(drops))
        return float(drops[corner]), corner, result.candidate_voltages(0, corner)

    def pin_prices(pin_mask: np.ndarray, corner: int, voltages) -> np.ndarray:
        """First-order metric change per unit of top-segment conductance
        at every pillar (negative = a pin there helps)."""
        candidate, alpha = scenario_rhs_overlay(
            stack.with_pin_mask(pin_mask), scenario_set[corner]
        )
        injection = metric.dv(voltages, stack.v_pin, sign)
        adjoint = AdjointVPSolver(
            candidate,
            planes,
            plane_scale=alpha,
            r_seg=candidate.pillars.r_seg,
            config=BatchedVPConfig(
                outer_tol=config.adjoint_tol,
                max_outer=config.max_outer,
                # Garbage prices would steer the greedy loop blind.
                raise_on_divergence=True,
            ),
        ).solve(injection)
        lam_top = adjoint.lam.reshape(stack.n_tiers, -1)[top, pillar_flat]
        v_top = voltages.reshape(stack.n_tiers, -1)[top, pillar_flat]
        return lam_top * (stack.v_pin - v_top)

    try:
        drop, corner, voltages = solve(mask)
        if not np.isfinite(drop):
            raise ReproError("initial pin set did not converge")
        mask_input = mask.copy()
        drop_input = drop

        # Adjust the pin count toward the target, greedily by adjoint
        # price.
        while int(mask.sum()) != target:
            prices = pin_prices(mask, corner, voltages)
            g_top = 1.0 / stack.pillars.r_seg[top]
            if int(mask.sum()) > target:
                # Drop the pin whose removal costs least (|price| * g
                # small).
                pinned = np.flatnonzero(mask)
                weakest = pinned[
                    np.argmin(np.abs(prices[pinned]) * g_top[pinned])
                ]
                mask[weakest] = False
            else:
                unpinned = np.flatnonzero(~mask)
                best = unpinned[np.argmin(prices[unpinned] * g_top[unpinned])]
                mask[best] = True
            drop, corner, voltages = solve(mask)
            if not np.isfinite(drop):
                raise ReproError(
                    f"pin set of {int(mask.sum())} pins did not converge "
                    f"while retargeting toward {target}"
                )

        mask_initial = mask.copy()
        drop_initial = drop
        swaps: list[dict] = []

        rounds = 0
        for rounds in range(1, config.max_rounds + 1):
            pinned = np.flatnonzero(mask)
            unpinned = np.flatnonzero(~mask)
            if pinned.size <= 1 or unpinned.size == 0:
                break
            prices = pin_prices(mask, corner, voltages)
            g_top = 1.0 / stack.pillars.r_seg[top]
            # Cheapest pins first (low marginal value of keeping), most
            # valuable candidates first (most negative price of adding).
            drop_order = pinned[
                np.argsort(np.abs(prices[pinned]) * g_top[pinned])
            ]
            add_order = unpinned[np.argsort(prices[unpinned] * g_top[unpinned])]
            k = min(config.candidates, drop_order.size, add_order.size)

            # All k swap proposals solve as one incremental batch; the
            # best truly-improving proposal wins the round.
            proposals = list(zip(drop_order[:k], add_order[:k]))
            trials = []
            for out_pin, in_pin in proposals:
                trial = mask.copy()
                trial[out_pin] = False
                trial[in_pin] = True
                trials.append(trial)
            result = evaluate_masks(trials)
            trial_converged = result.candidate_converged()
            trial_drops = result.worst_ir_drop()  # (k, S)
            best_t = None
            best_drop = drop
            for t in range(len(proposals)):
                if not trial_converged[t]:
                    continue
                t_drop = float(trial_drops[t].max())
                if t_drop < best_drop:
                    best_t, best_drop = t, t_drop
            if best_t is None:
                break
            out_pin, in_pin = proposals[best_t]
            corner = int(np.argmax(trial_drops[best_t]))
            mask, drop = trials[best_t], best_drop
            voltages = result.candidate_voltages(best_t, corner)
            swaps.append(
                {
                    "round": rounds,
                    "removed": int(out_pin),
                    "added": int(in_pin),
                    "worst_drop_v": drop,
                }
            )
    finally:
        session.close()

    return PlacementResult(
        has_pin_input=mask_input,
        drop_input=drop_input,
        has_pin_initial=mask_initial,
        has_pin=mask,
        drop_initial=drop_initial,
        drop_final=drop,
        scenario_names=scenario_set.names,
        swaps=swaps,
        rounds=rounds,
        new_factorizations=cache.factorizations - factorizations0,
        seconds=time.perf_counter() - t_start,
    )
