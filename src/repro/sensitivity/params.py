"""Design-parameter spaces for sensitivity analysis and optimization.

A *parameter block* maps a handful of named scalar multipliers onto a
structured perturbation of a :class:`~repro.grid.stack3d.PowerGridStack`:

* :class:`MetalWidthParam` -- one multiplier per tier on every wire and
  pad conductance (``G -> s G``, the metal-width knob);
* :class:`EdgeConductanceParam` -- per-edge multipliers on individual
  wire-segment conductances of one tier;
* :class:`TSVConductanceParam` -- per-segment multipliers on TSV
  conductance (``r_seg -> r_seg / s``, a via sizing knob);
* :class:`PadResistanceParam` -- per-node multipliers on pad *resistance*
  (``g_pad -> g_pad / s``, decap/pad strength for padded tiers);
* :class:`LoadCurrentParam` -- multipliers on device currents (one per
  tier, or per selected node).

A :class:`ParameterSpace` concatenates blocks into one flat design
vector ``x`` with three jobs:

* ``apply(stack, x)`` materializes the perturbed stack (the reference
  path for finite differences and standalone cross-checks);
* ``plane_scales``/``apply_rhs``/``factor_reusable`` decompose a design
  point into *factor-reusable* pieces -- per-tier conductance scalings,
  TSV tables, and right-hand sides -- so the adjoint engine can solve it
  against the **base** plane factorization (the scaled-factor fast path
  of :class:`~repro.core.planes.ReducedPlaneSystem`);
* ``gradient(...)`` turns one forward field ``v`` and one adjoint field
  ``lambda`` into the gradient of the metric over *every* parameter at
  once, via the bilinear identity ``dm/dp = lambda^T (db/dp - dG/dp v)``.

All multipliers default to 1 and must stay positive, so design vectors
are dimensionless and optimizers can share step sizes across blocks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GridError, ReproError
from repro.grid.conductance import tier_edges
from repro.grid.stack3d import PillarSet, PowerGridStack


def _edge_endpoints(stack: PowerGridStack, tier: int):
    """Flat endpoint indices and current conductances of one tier's
    wire segments, in :func:`repro.grid.conductance.tier_edges` order."""
    return tier_edges(stack.tiers[tier])


def _flat_tier_fields(array: np.ndarray, stack: PowerGridStack) -> np.ndarray:
    """Coerce a ``(T, R, C)`` or ``(T, n)`` field to ``(T, n)``."""
    n = stack.rows * stack.cols
    out = np.asarray(array, dtype=float).reshape(stack.n_tiers, n)
    return out


class Parameter:
    """One block of named design multipliers.

    Subclasses declare ``kind`` (``"width"``, ``"edge"``, ``"tsv"``,
    ``"pad"``, ``"load"``) and implement :meth:`size_for`,
    :meth:`labels`, :meth:`apply` and :meth:`gradient`.  ``kind`` is
    what the engine uses to decide factor reuse: ``"edge"`` and
    ``"pad"`` blocks change plane matrices non-uniformly (a fresh
    factorization when off their defaults); everything else rides the
    shared factors.  Blocks of kind ``"width"`` must additionally
    implement ``plane_scale_contrib(stack, values) -> (T,)`` -- the
    per-tier uniform conductance factor the engine feeds to the
    scaled-factor solves.
    """

    kind = "base"
    name = "param"

    def size_for(self, stack: PowerGridStack) -> int:
        raise NotImplementedError

    def labels(self, stack: PowerGridStack) -> list[str]:
        raise NotImplementedError

    def apply(
        self, stack: PowerGridStack, values: np.ndarray, *, planes: bool = True
    ) -> None:
        """Apply this block's multipliers to ``stack`` **in place**.

        ``planes=False`` skips perturbations of the plane matrices
        (wire/pad conductances) -- the engine's RHS-side materialization,
        where those live in the per-tier ``plane_scale`` instead.
        """
        raise NotImplementedError

    def gradient(
        self,
        stack: PowerGridStack,
        values: np.ndarray,
        v: np.ndarray,
        lam: np.ndarray,
        *,
        v_pin: float,
        plane_scale: np.ndarray,
    ) -> np.ndarray:
        """Gradient of the metric over this block's multipliers.

        ``stack`` is the RHS-materialized stack of the design point
        (loads, pads and ``r_seg`` current; wire conductances at base
        values with the uniform per-tier factor in ``plane_scale``);
        ``v``/``lam`` are the forward and adjoint fields as ``(T, n)``
        arrays.  Implementations evaluate
        ``dm/ds = lambda^T (db/ds - dG/ds v)`` with the chain rule
        ``dg/ds = g_current / s`` (all blocks scale linearly in their
        own multiplier).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _check_values(self, values: np.ndarray, size: int) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (size,):
            raise ReproError(
                f"{self.name}: expected {size} values, got shape {values.shape}"
            )
        if np.any(values <= 0):
            raise ReproError(f"{self.name}: multipliers must be positive")
        return values


class MetalWidthParam(Parameter):
    """Per-tier metal-width multipliers: every wire *and* pad
    conductance of tier ``l`` scales by ``s_l`` (``G -> s G``)."""

    kind = "width"

    def __init__(self, tiers: list[int] | None = None, name: str = "width"):
        self.tiers = None if tiers is None else [int(t) for t in tiers]
        self.name = name

    def _tier_list(self, stack: PowerGridStack) -> list[int]:
        tiers = list(range(stack.n_tiers)) if self.tiers is None else self.tiers
        for t in tiers:
            if not 0 <= t < stack.n_tiers:
                raise GridError(f"{self.name}: tier {t} outside stack")
        return tiers

    def size_for(self, stack: PowerGridStack) -> int:
        return len(self._tier_list(stack))

    def labels(self, stack: PowerGridStack) -> list[str]:
        return [f"{self.name}[tier{t}]" for t in self._tier_list(stack)]

    def apply(self, stack, values, *, planes=True):
        tiers = self._tier_list(stack)
        values = self._check_values(values, len(tiers))
        if not planes:
            return
        for t, s in zip(tiers, values):
            tier = stack.tiers[t]
            tier.g_h = tier.g_h * s
            tier.g_v = tier.g_v * s
            tier.g_pad = tier.g_pad * s

    def plane_scale_contrib(
        self, stack: PowerGridStack, values: np.ndarray
    ) -> np.ndarray:
        """Per-tier conductance factor ``(T,)`` this block contributes."""
        tiers = self._tier_list(stack)
        values = self._check_values(values, len(tiers))
        alpha = np.ones(stack.n_tiers)
        for t, s in zip(tiers, values):
            alpha[t] *= s
        return alpha

    def gradient(self, stack, values, v, lam, *, v_pin, plane_scale):
        tiers = self._tier_list(stack)
        values = self._check_values(values, len(tiers))
        out = np.empty(len(tiers))
        for k, (t, s) in enumerate(zip(tiers, values)):
            tier = stack.tiers[t]
            u, w, g = _edge_endpoints(stack, t)
            g_cur = g * plane_scale[t]
            wire = -np.sum(g_cur * (lam[t, u] - lam[t, w]) * (v[t, u] - v[t, w]))
            g_pad_cur = tier.g_pad.ravel() * plane_scale[t]
            pad = np.sum(g_pad_cur * lam[t] * (tier.v_pad - v[t]))
            out[k] = (wire + pad) / s
        return out


class EdgeConductanceParam(Parameter):
    """Per-edge multipliers on individual wire-segment conductances of
    one tier (edge indices follow
    :func:`repro.grid.conductance.tier_edges`: horizontal segments
    row-major, then vertical).  Off-unit values change the plane matrix
    non-uniformly, so they are not factor-reusable."""

    kind = "edge"

    def __init__(
        self,
        tier: int,
        edges: np.ndarray | list[int] | None = None,
        name: str | None = None,
    ):
        self.tier = int(tier)
        self.edges = None if edges is None else np.asarray(edges, dtype=np.int64)
        self.name = name or f"edge-t{self.tier}"

    def _edge_indices(self, stack: PowerGridStack) -> np.ndarray:
        if not 0 <= self.tier < stack.n_tiers:
            raise GridError(f"{self.name}: tier {self.tier} outside stack")
        tier = stack.tiers[self.tier]
        n_edges = tier.g_h.size + tier.g_v.size
        if self.edges is None:
            return np.arange(n_edges, dtype=np.int64)
        if self.edges.size and (
            self.edges.min() < 0 or self.edges.max() >= n_edges
        ):
            raise GridError(
                f"{self.name}: edge index outside [0, {n_edges})"
            )
        return self.edges

    def size_for(self, stack: PowerGridStack) -> int:
        return self._edge_indices(stack).size

    def labels(self, stack: PowerGridStack) -> list[str]:
        return [f"{self.name}[e{e}]" for e in self._edge_indices(stack)]

    def apply(self, stack, values, *, planes=True):
        edges = self._edge_indices(stack)
        values = self._check_values(values, edges.size)
        if not planes:
            if np.any(values != 1.0):
                raise ReproError(
                    f"{self.name}: per-edge factors are not factor-reusable "
                    "(cannot be expressed as a uniform plane scaling)"
                )
            return
        tier = stack.tiers[self.tier]
        n_h = tier.g_h.size
        flat_h = tier.g_h.ravel()
        flat_v = tier.g_v.ravel()
        for e, s in zip(edges, values):
            if e < n_h:
                flat_h[e] *= s
            else:
                flat_v[e - n_h] *= s
        tier.g_h = flat_h.reshape(tier.g_h.shape)
        tier.g_v = flat_v.reshape(tier.g_v.shape)

    def gradient(self, stack, values, v, lam, *, v_pin, plane_scale):
        edges = self._edge_indices(stack)
        values = self._check_values(values, edges.size)
        u, w, g = _edge_endpoints(stack, self.tier)
        g_cur = g[edges] * plane_scale[self.tier]
        t = self.tier
        dv = v[t, u[edges]] - v[t, w[edges]]
        dl = lam[t, u[edges]] - lam[t, w[edges]]
        return -(g_cur / values) * dl * dv


class TSVConductanceParam(Parameter):
    """Per-segment multipliers on TSV conductance: segment ``(l, p)``
    becomes ``r_seg[l, p] / s`` (``s > 1`` means a fatter via).  TSV
    resistances never enter the plane solves, so this block is always
    factor-reusable."""

    kind = "tsv"

    def __init__(
        self,
        segments: list[tuple[int, int]] | None = None,
        name: str = "gtsv",
    ):
        self.segments = (
            None
            if segments is None
            else [(int(l), int(p)) for l, p in segments]
        )
        self.name = name

    def _segment_index(self, stack: PowerGridStack) -> tuple[np.ndarray, np.ndarray]:
        """``(layers, pillars)`` index arrays of the block's segments, in
        block order (every segment, layer-major, when none were given)."""
        n_tiers, n_pillars = stack.pillars.r_seg.shape
        if self.segments is None:
            return (
                np.repeat(np.arange(n_tiers), n_pillars),
                np.tile(np.arange(n_pillars), n_tiers),
            )
        layers, pillars = np.array(self.segments, dtype=np.intp).reshape(-1, 2).T
        outside = (
            (layers < 0) | (layers >= n_tiers) | (pillars < 0) | (pillars >= n_pillars)
        )
        if outside.any():
            k = int(np.argmax(outside))
            raise GridError(
                f"{self.name}: segment ({layers[k]}, {pillars[k]}) outside "
                f"({n_tiers}, {n_pillars}) table"
            )
        return layers, pillars

    def size_for(self, stack: PowerGridStack) -> int:
        return self._segment_index(stack)[0].size

    def labels(self, stack: PowerGridStack) -> list[str]:
        return [
            f"{self.name}[l{l},p{p}]" for l, p in zip(*self._segment_index(stack))
        ]

    def apply(self, stack, values, *, planes=True):
        layers, pillars = self._segment_index(stack)
        values = self._check_values(values, layers.size)
        r_seg = stack.pillars.r_seg.copy()
        # Unbuffered: a segment listed twice is divided by each value in
        # turn, as a loop over the list would.
        np.divide.at(r_seg, (layers, pillars), values)
        stack.pillars = PillarSet(
            positions=stack.pillars.positions,
            r_seg=r_seg,
            v_pin=stack.pillars.v_pin,
            has_pin=stack.pillars.has_pin,
        )

    def gradient(self, stack, values, v, lam, *, v_pin, plane_scale):
        layers, pillars = self._segment_index(stack)
        values = self._check_values(values, layers.size)
        node = stack.pillar_flat_indices()[pillars]
        g_cur = 1.0 / stack.pillars.r_seg[layers, pillars]
        top = stack.n_tiers - 1
        # A segment below the top couples its tier's pillar node to the
        # next tier's; the topmost one couples the top-tier node to the
        # pin rail (diagonal + RHS term) and is unused without a pin.
        upper = np.minimum(layers + 1, top)
        dm_dg = -(
            (lam[layers, node] - lam[upper, node])
            * (v[layers, node] - v[upper, node])
        )
        at_top = layers == top
        pinned = at_top & stack.pillars.has_pin[pillars]
        dm_dg[at_top] = 0.0
        dm_dg[pinned] = lam[top, node[pinned]] * (v_pin - v[top, node[pinned]])
        return dm_dg * g_cur / values


class PadResistanceParam(Parameter):
    """Per-node multipliers on pad *resistance* of one tier:
    ``g_pad -> g_pad / s`` (``s > 1`` weakens the pad).  Only meaningful
    on tiers that carry in-plane pads; changes the plane matrix
    diagonal, so off-unit values are not factor-reusable."""

    kind = "pad"

    def __init__(
        self,
        tier: int,
        nodes: np.ndarray | list[int] | None = None,
        name: str | None = None,
    ):
        self.tier = int(tier)
        self.nodes = None if nodes is None else np.asarray(nodes, dtype=np.int64)
        self.name = name or f"rpad-t{self.tier}"

    def _node_indices(self, stack: PowerGridStack) -> np.ndarray:
        if not 0 <= self.tier < stack.n_tiers:
            raise GridError(f"{self.name}: tier {self.tier} outside stack")
        tier = stack.tiers[self.tier]
        if self.nodes is None:
            nodes = np.flatnonzero(tier.g_pad.ravel() > 0)
            if nodes.size == 0:
                raise GridError(
                    f"{self.name}: tier {self.tier} has no pads to size"
                )
            return nodes
        if self.nodes.size and (
            self.nodes.min() < 0 or self.nodes.max() >= tier.n_nodes
        ):
            raise GridError(f"{self.name}: node index outside tier")
        return self.nodes

    def size_for(self, stack: PowerGridStack) -> int:
        return self._node_indices(stack).size

    def labels(self, stack: PowerGridStack) -> list[str]:
        return [f"{self.name}[n{u}]" for u in self._node_indices(stack)]

    def apply(self, stack, values, *, planes=True):
        nodes = self._node_indices(stack)
        values = self._check_values(values, nodes.size)
        if not planes:
            if np.any(values != 1.0):
                raise ReproError(
                    f"{self.name}: pad-resistance factors change the plane "
                    "diagonal and are not factor-reusable"
                )
            return
        tier = stack.tiers[self.tier]
        flat = tier.g_pad.ravel()
        flat[nodes] = flat[nodes] / values
        tier.g_pad = flat.reshape(tier.g_pad.shape)

    def gradient(self, stack, values, v, lam, *, v_pin, plane_scale):
        nodes = self._node_indices(stack)
        values = self._check_values(values, nodes.size)
        tier = stack.tiers[self.tier]
        g_cur = tier.g_pad.ravel()[nodes] * plane_scale[self.tier]
        t = self.tier
        dm_dg = lam[t, nodes] * (tier.v_pad - v[t, nodes])
        # g = g0 / s  =>  dg/ds = -g_cur / s.
        return -(g_cur / values) * dm_dg


class LoadCurrentParam(Parameter):
    """Multipliers on device (load) currents.

    ``nodes=None`` gives *one* multiplier scaling the whole tier's loads
    (an activity knob); an explicit node list gives per-node multipliers
    (block/macro currents).  Loads only enter the right-hand side, so
    this block is always factor-reusable.
    """

    kind = "load"

    def __init__(
        self,
        tier: int,
        nodes: np.ndarray | list[int] | None = None,
        name: str | None = None,
    ):
        self.tier = int(tier)
        self.nodes = None if nodes is None else np.asarray(nodes, dtype=np.int64)
        self.name = name or f"iload-t{self.tier}"

    def _check_tier(self, stack: PowerGridStack) -> None:
        if not 0 <= self.tier < stack.n_tiers:
            raise GridError(f"{self.name}: tier {self.tier} outside stack")
        if self.nodes is not None and self.nodes.size:
            if (
                self.nodes.min() < 0
                or self.nodes.max() >= stack.tiers[self.tier].n_nodes
            ):
                raise GridError(f"{self.name}: node index outside tier")

    def size_for(self, stack: PowerGridStack) -> int:
        self._check_tier(stack)
        return 1 if self.nodes is None else self.nodes.size

    def labels(self, stack: PowerGridStack) -> list[str]:
        self._check_tier(stack)
        if self.nodes is None:
            return [f"{self.name}[tier{self.tier}]"]
        return [f"{self.name}[n{u}]" for u in self.nodes]

    def apply(self, stack, values, *, planes=True):
        self._check_tier(stack)
        size = 1 if self.nodes is None else self.nodes.size
        values = self._check_values(values, size)
        tier = stack.tiers[self.tier]
        if self.nodes is None:
            tier.loads = tier.loads * values[0]
        else:
            flat = tier.loads.ravel()
            flat[self.nodes] = flat[self.nodes] * values
            tier.loads = flat.reshape(tier.loads.shape)

    def gradient(self, stack, values, v, lam, *, v_pin, plane_scale):
        self._check_tier(stack)
        size = 1 if self.nodes is None else self.nodes.size
        values = self._check_values(values, size)
        loads_cur = stack.tiers[self.tier].loads.ravel()
        t = self.tier
        if self.nodes is None:
            return np.array([-np.sum(lam[t] * loads_cur) / values[0]])
        return -(lam[t, self.nodes] * loads_cur[self.nodes]) / values


class ParameterSpace:
    """An ordered collection of parameter blocks over one stack.

    Binding the space to a stack at construction freezes sizes and
    labels, so design vectors, gradients, and reports all share one
    indexing.
    """

    def __init__(self, stack: PowerGridStack, blocks: list[Parameter]):
        if not blocks:
            raise ReproError("a parameter space needs at least one block")
        self.stack = stack
        self.blocks = list(blocks)
        self.sizes = [b.size_for(stack) for b in self.blocks]
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.names: list[str] = []
        for block in self.blocks:
            self.names.extend(block.labels(stack))
        if len(set(self.names)) != len(self.names):
            raise ReproError("parameter labels must be unique across blocks")

    @property
    def size(self) -> int:
        return int(self.offsets[-1])

    def defaults(self) -> np.ndarray:
        """The unit design vector (every multiplier at 1)."""
        return np.ones(self.size)

    def check(self, values: np.ndarray | None) -> np.ndarray:
        if values is None:
            return self.defaults()
        values = np.asarray(values, dtype=float)
        if values.shape != (self.size,):
            raise ReproError(
                f"design vector has shape {values.shape}, expected "
                f"({self.size},)"
            )
        if np.any(values <= 0):
            raise ReproError("design multipliers must be positive")
        return values

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        values = self.check(values)
        return [
            values[self.offsets[k] : self.offsets[k + 1]]
            for k in range(len(self.blocks))
        ]

    # ------------------------------------------------------------------
    def apply(self, values: np.ndarray | None = None) -> PowerGridStack:
        """Materialize the design point as a standalone stack copy (the
        finite-difference / parity reference path)."""
        out = self.stack.copy()
        for block, vals in zip(self.blocks, self.split(values)):
            block.apply(out, vals, planes=True)
        return out

    def apply_rhs(self, values: np.ndarray | None = None) -> PowerGridStack:
        """Materialize only the right-hand-side/propagation-side pieces
        (loads, TSV tables); wire/pad conductances stay at base values.

        Together with :meth:`plane_scales` this is the factor-reusable
        decomposition: the returned stack has the *base* plane geometry
        (same :func:`~repro.core.planes.stack_plane_signature`), so the
        cached factors apply.  Raises when a non-reusable block (edge or
        pad) sits off its defaults.
        """
        out = self.stack.copy()
        for block, vals in zip(self.blocks, self.split(values)):
            block.apply(out, vals, planes=False)
        return out

    def plane_scales(self, values: np.ndarray | None = None) -> np.ndarray:
        """Per-tier uniform conductance factors ``(T,)`` of the design
        point (the ``plane_scale`` fed to the scaled-factor solves)."""
        alpha = np.ones(self.stack.n_tiers)
        for block, vals in zip(self.blocks, self.split(values)):
            if block.kind == "width":
                alpha *= block.plane_scale_contrib(self.stack, vals)
        return alpha

    def factor_reusable(self, values: np.ndarray | None = None) -> bool:
        """True when the design point solves against the base factors:
        every edge/pad block (the ones that reshape plane matrices
        non-uniformly) sits at its default multipliers."""
        for block, vals in zip(self.blocks, self.split(values)):
            if block.kind in ("edge", "pad") and np.any(vals != 1.0):
                return False
        return True

    # ------------------------------------------------------------------
    def gradient(
        self,
        rhs_stack: PowerGridStack,
        values: np.ndarray | None,
        v: np.ndarray,
        lam: np.ndarray,
        *,
        v_pin: float,
        plane_scale: np.ndarray | None = None,
    ) -> np.ndarray:
        """Assemble the full flat gradient from one (v, lambda) pair.

        ``rhs_stack`` is the stack the fields were solved on, in the
        engine's decomposition: loads/``r_seg``/pads materialized, wire
        conductances base with the uniform factors in ``plane_scale``
        (all ones for a fully materialized stack).
        """
        if plane_scale is None:
            plane_scale = np.ones(rhs_stack.n_tiers)
        v = _flat_tier_fields(v, rhs_stack)
        lam = _flat_tier_fields(lam, rhs_stack)
        parts = [
            block.gradient(
                rhs_stack, vals, v, lam, v_pin=v_pin, plane_scale=plane_scale
            )
            for block, vals in zip(self.blocks, self.split(values))
        ]
        return np.concatenate(parts)
