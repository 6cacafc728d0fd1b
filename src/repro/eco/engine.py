"""Batched incremental VP engine: SMW candidate solves on shared factors.

Evaluating ``C`` edit candidates under ``S`` operating scenarios is one
``C x S``-column batched VP solve where **no column ever factorizes**:
every column back-substitutes against the session's leased base plane
factors, and columns whose candidate perturbs a plane matrix get a
Sherman-Morrison-Woodbury correction per tier solve:

* setup forms each candidate's capacitance matrix from one fused
  multi-column :meth:`~repro.core.planes.ReducedPlaneSystem.solve_free`
  per tier (all candidates' update columns concatenated -- the ``Z``
  blocks are sliced out, consumed, and dropped);
* each outer iteration then costs *two* multi-column back-substitutions
  per edited tier (the base solve, plus one solve of all candidates'
  correction columns) instead of one -- still orders of magnitude below
  a per-candidate re-factorization;
* right-hand-side deltas (pad moves, load edits), per-candidate segment
  resistances (TSV resizes), and per-candidate pin masks flow through
  the same per-column arrays the plain batched engine already uses.

The loop is the one VP outer-iteration kernel
(:func:`repro.core.kernel.run_outer_loop`) with this module's
SMW-corrected plane operator plugged in, so column ``(c, s)`` follows
exactly the iteration sequence a standalone
``BatchedVPSolver(candidate.apply(stack), scenario_s)`` takes -- same
seeds, same per-column gain-bound damping, same VDA policy selection,
same retirement rule -- and the incremental result matches the direct
re-solve to solver round-off (the ``rtol <= 1e-10`` parity contract).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro import obs
from repro.core.batch import BatchedVPConfig
from repro.core.kernel import (
    FactoredPlanes,
    narrow_columns,
    pillar_gain,
    run_outer_loop,
    seed_v0,
)
from repro.core.planes import ReducedPlaneSystem
from repro.eco.edits import CompiledCandidate
from repro.errors import ReproError
from repro.grid.stack3d import PowerGridStack
from repro.scenarios.spec import ScenarioSet

#: Column cap of one fused setup solve -- wide enough to amortize the
#: factor traversal, narrow enough that the transient dense ``Z`` block
#: stays cache-resident (wider chunks measure *slower* per column).
_Z_CHUNK = 256


@dataclass
class _UpdateBlock:
    """One candidate's rows inside a tier's concatenated update."""

    cand: int
    sl: slice                 # row block inside the tier concatenation
    cols: np.ndarray          # global column ids (all scenarios of cand)
    lru: object               # LowRankUpdate (capacitance factors only)


@dataclass
class _TierUpdates:
    """All candidates' low-rank updates on one tier, concatenated so the
    hot loop runs whole-tier sparse products instead of one tiny matmul
    per candidate.  ``mask[k, col]`` marks which global columns row
    block ``k`` acts on -- each column sees only its own candidate."""

    w: object                 # (n, K) CSC, full node order
    w_f: object               # (n_free, K) CSC
    w_p: object               # (P, K) CSC
    d: np.ndarray             # (K,)
    mask: np.ndarray          # (K, n_cols) bool
    blocks: list = field(default_factory=list)


@dataclass
class EcoBatchStats:
    """Cost accounting of one incremental batch solve."""

    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    outer_iterations: int = 0
    column_solves: int = 0
    correction_solves: int = 0


@dataclass
class EcoBatchResult:
    """Per-column solutions, candidate-major: column ``c * S + s``."""

    voltages: np.ndarray          # (T, R, C, n_cand * S)
    converged: np.ndarray         # (n_cand * S,)
    outer_iterations: np.ndarray  # (n_cand * S,)
    max_vdiff: np.ndarray
    pillar_v0: np.ndarray
    pillar_currents: np.ndarray
    candidate_names: list[str]
    scenario_names: list[str]
    stats: EcoBatchStats = field(default_factory=EcoBatchStats)
    info_v_pin: float = 0.0

    @property
    def n_candidates(self) -> int:
        return len(self.candidate_names)

    @property
    def n_scenarios(self) -> int:
        return len(self.scenario_names)

    def column(self, cand: int, scenario: int = 0) -> int:
        return cand * self.n_scenarios + scenario

    def candidate_voltages(self, cand: int, scenario: int = 0) -> np.ndarray:
        """One column's ``(T, R, C)`` voltage field."""
        return self.voltages[..., self.column(cand, scenario)]

    def candidate_converged(self) -> np.ndarray:
        """``(n_cand,)`` all-scenarios-converged flags."""
        return self.converged.reshape(
            self.n_candidates, self.n_scenarios
        ).all(axis=1)

    def worst_ir_drop(self, v_nominal: float | None = None) -> np.ndarray:
        """``(n_cand, S)`` worst IR drop per candidate and scenario."""
        from repro.analysis.irdrop import batch_worst_ir_drop

        reference = self.info_v_pin if v_nominal is None else v_nominal
        drops = batch_worst_ir_drop(self.voltages, reference)
        return drops.reshape(self.n_candidates, self.n_scenarios)


class EcoBatchSolver:
    """Batched VP solver over compiled ECO candidates x scenarios.

    Parameters
    ----------
    stack:
        The *base* (unedited) stack the session leased factors for.
    planes:
        The leased base :class:`ReducedPlaneSystem` (factorized, pillar
        rows).  Never re-factorized here -- that is the contract.
    scenarios:
        Operating scenarios each candidate is evaluated under.  Must not
        carry ``plane_scale`` (a global conductance scaling composes
        with the low-rank correction ambiguously; fold it into the base
        stack before opening the session).
    compiled:
        The :func:`repro.eco.edits.compile_candidate` outputs.
    config:
        The outer loop's knobs, as for the plain batched engine (an
        :class:`~repro.eco.session.EcoConfig` passes straight through).
    """

    def __init__(
        self,
        stack: PowerGridStack,
        planes: ReducedPlaneSystem,
        scenarios,
        compiled: list[CompiledCandidate],
        config: BatchedVPConfig | None = None,
    ):
        t_start = time.perf_counter()
        self.stack = stack
        self.scenarios = ScenarioSet.ensure(scenarios)
        self.config = config or BatchedVPConfig()
        self.compiled = list(compiled)
        if not self.compiled:
            raise ReproError("no candidates to evaluate")
        if not planes.factorized:
            raise ReproError(
                "the ECO engine needs factorized planes with pillar rows"
            )
        if np.any(self.scenarios.plane_scale_matrix(stack.n_tiers) != 1.0):
            raise ReproError(
                "ECO sessions do not support plane_scale scenarios; "
                "apply the scaling to the base stack instead"
            )
        self.planes = planes
        self.rows, self.cols = stack.rows, stack.cols
        self.n_tiers = stack.n_tiers
        self.n_cand = len(self.compiled)
        self.n_scen = len(self.scenarios)
        self.n_cols = self.n_cand * self.n_scen
        self.v_pin = stack.v_pin
        self.pillar_flat = planes.pillar_flat
        n_pillars = self.pillar_flat.size
        n = self.rows * self.cols
        tr = obs.tracer()
        obs.add("eco.candidates", self.n_cand)

        # -- per-column RHS batches ------------------------------------
        # All columns share the base RHS; only candidates carrying a pad
        # or load delta overwrite their scenario block.
        load_scales = self.scenarios.load_scale_matrix(self.n_tiers)  # (T, S)
        self._b_free: list[np.ndarray] = []
        self._b_pillar: list[np.ndarray] = []
        for l, tier in enumerate(stack.tiers):
            pad_term = (tier.g_pad * tier.v_pad).ravel()
            loads = tier.loads.ravel()
            base_block = (
                pad_term[:, None] - loads[:, None] * load_scales[l][None, :]
            )
            rhs = np.tile(base_block, (1, self.n_cand))
            for c, cand in enumerate(self.compiled):
                if l not in cand.pad_rhs_delta and l not in cand.loads_delta:
                    continue
                pad_c = pad_term + cand.pad_rhs_delta.get(l, 0.0)
                loads_c = loads + cand.loads_delta.get(l, 0.0)
                rhs[:, c * self.n_scen : (c + 1) * self.n_scen] = (
                    pad_c[:, None]
                    - loads_c[:, None] * load_scales[l][None, :]
                )
            self._b_free.append(np.ascontiguousarray(rhs[planes.free]))
            self._b_pillar.append(np.ascontiguousarray(rhs[self.pillar_flat]))

        # -- per-column propagation-phase data -------------------------
        # Same sharing scheme: tile the base tables, overwrite only the
        # candidates that deviate from them.
        r_seg = np.tile(
            self.scenarios.r_seg_table(stack.pillars.r_seg), (1, 1, self.n_cand)
        )
        has_pin = np.tile(stack.pillars.has_pin[:, None], (1, self.n_cols))
        degree0 = stack.tiers[0].degree_conductance().ravel()
        base_totals = np.array([tier.total_load() for tier in stack.tiers])
        self._tier_totals = np.tile(
            base_totals[:, None] * load_scales, (1, self.n_cand)
        )
        degree_cols = np.tile(
            degree0[self.pillar_flat, None], (1, self.n_cols)
        )
        for c, cand in enumerate(self.compiled):
            sl = slice(c * self.n_scen, (c + 1) * self.n_scen)
            if cand.r_seg is not None:
                r_seg[:, :, sl] = self.scenarios.r_seg_table(cand.r_seg)
            if cand.has_pin is not None:
                has_pin[:, sl] = cand.has_pin[:, None]
            delta0 = cand.degree_delta(0, n)
            if delta0 is not None:
                degree_cols[:, sl] += delta0[self.pillar_flat, None]
            if cand.loads_delta:
                totals_c = base_totals + cand.tier_load_deltas(self.n_tiers)
                self._tier_totals[:, sl] = totals_c[:, None] * load_scales

        # Per-column gain bound and damping, mirroring the plain batched
        # engine (which reads the *edited* tier-0 degree off the applied
        # stack).
        self.pillars = pillar_gain(degree_cols, r_seg, has_pin)

        # -- low-rank updates: fused Z solves, per-candidate factors ---
        # Each edited tier concatenates every candidate's update columns
        # into one sparse block so row slicing, densification, and the
        # Z back-substitutions happen once per tier, not per candidate.
        self._updates: dict[int, _TierUpdates] = {}
        z_cats: dict[int, np.ndarray] = {}
        row_slices: dict[tuple[int, int], slice] = {}
        per_tier: dict[int, list[tuple[int, object, np.ndarray]]] = {}
        for c, cand in enumerate(self.compiled):
            for l, (w, d) in cand.tier_updates.items():
                per_tier.setdefault(l, []).append((c, w, d))
        for l, entries in per_tier.items():
            w_cat = sparse.hstack(
                [w for _, w, _ in entries], format="csc"
            )
            w_f_cat = w_cat[planes.free].tocsc()
            w_p_cat = w_cat[self.pillar_flat].tocsc()
            d_cat = np.concatenate([d for _, _, d in entries])
            k_total = int(w_cat.shape[1])
            dense_w_f = w_f_cat.toarray()
            z_cat = np.empty_like(dense_w_f)
            for k0 in range(0, k_total, _Z_CHUNK):
                chunk = dense_w_f[:, k0 : k0 + _Z_CHUNK]
                z_cat[:, k0 : k0 + chunk.shape[1]] = planes.solve_free(
                    l, np.zeros((n_pillars, chunk.shape[1])), b_free=chunk
                )
            z_cats[l] = z_cat
            mask = np.zeros((k_total, self.n_cols), dtype=bool)
            offset = 0
            for c, w, _ in entries:
                k = int(w.shape[1])
                sl = slice(offset, offset + k)
                row_slices[(l, c)] = sl
                mask[sl, c * self.n_scen : (c + 1) * self.n_scen] = True
                offset += k
            self._updates[l] = _TierUpdates(
                w=w_cat, w_f=w_f_cat, w_p=w_p_cat, d=d_cat, mask=mask
            )
        for c, cand in enumerate(self.compiled):
            with tr.span(
                "eco.candidate",
                candidate=cand.name,
                rank=cand.rank,
                tiers=len(cand.tier_updates),
            ):
                cols = np.arange(c * self.n_scen, (c + 1) * self.n_scen)
                for l in cand.tier_updates:
                    tu = self._updates[l]
                    sl = row_slices[(l, c)]
                    lru = planes.low_rank_update(
                        l,
                        tu.w_f[:, sl],
                        tu.d[sl],
                        z=z_cats[l][:, sl],
                        keep_z=False,
                    )
                    tu.blocks.append(
                        _UpdateBlock(cand=c, sl=sl, cols=cols, lru=lru)
                    )
        self._setup_seconds = time.perf_counter() - t_start

    # ------------------------------------------------------------------
    def solve(self, v0: np.ndarray | None = None) -> EcoBatchResult:
        """Run the incremental lockstep outer iteration.

        The loop is the plain batched engine's -- the shared kernel
        (:func:`repro.core.kernel.run_outer_loop`): CVN solve, drawn
        currents, propagation, VDA, early retirement -- with the SMW
        coupling/correction passes spliced around each tier solve by
        the plane operator.  Zero factorizations by construction.
        ``v0`` seeds the layer-0 TSV voltages as in
        :meth:`repro.core.batch.BatchedVPSolver.solve`.
        """
        config = self.config
        op = _SmwPlanes(self.planes, self._b_free, self._b_pillar, self._updates)
        loop = run_outer_loop(
            op,
            self.pillars,
            seed_v0(v0, self.pillars, self.v_pin, config.v0_init, self._tier_totals),
            config,
            target=self.v_pin,
            engine="eco",
        )
        stats = EcoBatchStats(
            setup_seconds=self._setup_seconds,
            solve_seconds=loop.seconds,
            outer_iterations=loop.outer_iterations,
            column_solves=loop.column_solves,
            correction_solves=op.correction_solves,
        )
        return EcoBatchResult(
            voltages=loop.voltages.reshape(
                self.n_tiers, self.rows, self.cols, self.n_cols
            ),
            converged=loop.converged,
            outer_iterations=loop.outer_counts,
            max_vdiff=loop.max_vdiff,
            pillar_v0=loop.pillar_v0,
            pillar_currents=loop.pillar_currents,
            candidate_names=[c.name for c in self.compiled],
            scenario_names=self.scenarios.names,
            stats=stats,
            info_v_pin=self.v_pin,
        )


class _SmwPlanes(FactoredPlanes):
    """Plane operator of the ECO engine: base-factor solves with a
    Sherman-Morrison-Woodbury correction on edited tiers.

    Around each base solve of a tier some live column edits, it
    pre-subtracts the edited coupling, runs one multi-column Woodbury
    correction solve for every edited column, and adds the edited
    matrix's pillar-row delta to the drawn currents.
    """

    def __init__(self, planes, b_free, b_pillar, updates: dict[int, _TierUpdates]):
        super().__init__(planes, b_free, b_pillar)
        self.updates = updates
        self.correction_solves = 0

    def _edited(self, l: int, idx: np.ndarray):
        """Tier ``l``'s updates, their ``(K, k)`` mask over the live
        columns, and the live positions some update edits -- None when
        no live column is edited on this tier."""
        tu = self.updates.get(l)
        if tu is None:
            return None
        mask_idx = tu.mask[:, idx]
        if not mask_idx.any():
            return None
        return tu, mask_idx, np.flatnonzero(mask_idx.any(axis=0))

    @staticmethod
    def _positions(idx: np.ndarray, cols: np.ndarray):
        """Positions of ``cols`` inside the active index vector ``idx``
        (both sorted); None when no column is live."""
        pos = np.searchsorted(idx, cols)
        valid = (pos < idx.size) & (idx[np.minimum(pos, idx.size - 1)] == cols)
        if not valid.any():
            return None
        return pos[valid]

    def solve(self, l, pillar_v, idx, out):
        planes = self.planes
        b_l = narrow_columns(self.b_free[l], idx)
        edited = self._edited(l, idx)
        if edited is not None:
            tu, mask_idx, ed = edited
            # ΔA_fp coupling: the edited tier's reduced RHS is
            # b_f - (A_fp + W_f D W_p^T) v_p; pre-subtract the delta so
            # the shared solve_free handles the rest.  The mask zeroes
            # every (row block, column) pair outside the block's own
            # candidate, so one whole-tier product covers all live
            # updates.
            coup = np.where(
                mask_idx, tu.d[:, None] * (tu.w_p.T @ pillar_v), 0.0
            )
            b_l = np.array(b_l, copy=True)
            b_l[:, ed] -= tu.w_f @ coup[:, ed]
        y = planes.solve_free(l, pillar_v, b_free=b_l)
        if edited is not None:
            # Woodbury correction for every edited live column, batched
            # into ONE extra multi-column solve.
            local = np.full(idx.size, -1, dtype=int)
            local[ed] = np.arange(ed.size)
            g = np.asarray(tu.w_f.T @ y)
            t_cap = np.zeros((tu.d.size, ed.size))
            for blk in tu.blocks:
                pos = self._positions(idx, blk.cols)
                if pos is None:
                    continue
                t_cap[blk.sl, local[pos]] = blk.lru.capacitance_solve(
                    np.ascontiguousarray(g[blk.sl][:, pos])
                )
            corr_rhs = np.asarray(tu.w_f @ t_cap)
            corr = planes.solve_free(
                l, np.zeros((pillar_v.shape[0], ed.size)), b_free=corr_rhs
            )
            y[:, ed] -= corr
            self.correction_solves += 1
            obs.add("eco.correction_solves")
        return planes.assemble(y, pillar_v, out=out)

    def drawn(self, l, v_full, idx):
        drawn = super().drawn(l, v_full, idx)
        edited = self._edited(l, idx)
        if edited is not None:
            # Pillar-row delta of the edited matrix: (W D W^T v)|pillars,
            # accumulated into the drawn currents the propagation phase
            # integrates.
            tu, mask_idx, ed = edited
            delta = np.where(mask_idx, tu.d[:, None] * (tu.w.T @ v_full), 0.0)
            drawn[:, ed] += tu.w_p @ delta[:, ed]
        return drawn


__all__ = ["EcoBatchResult", "EcoBatchSolver", "EcoBatchStats"]
