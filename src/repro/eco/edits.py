"""ECO edit algebra: local grid edits compiled to low-rank plane updates.

An engineering change order (ECO) is a *local* edit of an already-signed
grid: add or remove a power strap, widen a set of wires, resize a via or
TSV, move a pad, rebudget decap.  Locality is the whole point -- each
edit touches O(1) nodes of one tier, so its effect on that tier's nodal
conductance matrix is a rank-``k`` perturbation

    A  ->  A + W diag(d) W^T

where column ``j`` of ``W`` is ``e_u - e_v`` for an edited wire between
nodes ``u`` and ``v`` (weight ``d_j`` = conductance delta) or ``e_u``
for a pad/diagonal term.  TSV resizes and pin moves never enter the
plane matrices at all (the propagation phase owns them), and decap
changes are invisible to DC -- both compile to *rank-0* candidates that
the incremental engine evaluates by changing only propagation-phase
data.

:func:`compile_candidate` lowers a candidate (one or more edits) to a
:class:`CompiledCandidate`: per-tier ``(W, d)`` low-rank blocks in full
node order plus the right-hand-side deltas, segment-resistance table,
and pin mask the batched SMW engine consumes.  Every edit also knows how
to :meth:`~EcoEdit.apply` itself to a stack copy -- the reference path
that direct re-solve verification and the unit-test oracles run against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.errors import GridError, ReproError
from repro.grid.stack3d import PowerGridStack

__all__ = [
    "CompiledCandidate",
    "DecapEdit",
    "EcoCandidate",
    "EcoEdit",
    "LoadEdit",
    "PadMoveEdit",
    "PinMaskEdit",
    "PinMoveEdit",
    "StrapEdit",
    "TsvResizeEdit",
    "WireWidthEdit",
    "compile_candidate",
    "edit_from_dict",
    "load_candidates",
    "dump_candidates",
]


class _Accumulator:
    """Mutable merge target the edits of one candidate compile into."""

    def __init__(self, stack: PowerGridStack):
        self.stack = stack
        self.n = stack.rows * stack.cols
        # Per-tier W columns: parallel lists of (node_rows, signs) pairs
        # and conductance-delta weights.
        self.cols: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self.weights: dict[int, list[float]] = {}
        self.pad_rhs: dict[int, np.ndarray] = {}
        self.loads_delta: dict[int, np.ndarray] = {}
        self.r_seg: np.ndarray | None = None
        self.has_pin: np.ndarray | None = None
        self.cap_scale: dict[int, float] = {}

    def check_tier(self, tier: int, edit: "EcoEdit") -> None:
        if not 0 <= tier < self.stack.n_tiers:
            raise GridError(
                f"{edit.kind} edit targets tier {tier} of a "
                f"{self.stack.n_tiers}-tier stack"
            )

    def add_column(
        self, tier: int, rows: np.ndarray, signs: np.ndarray, weight: float
    ) -> None:
        self.cols.setdefault(tier, []).append((rows, signs))
        self.weights.setdefault(tier, []).append(float(weight))

    def pad_rhs_tier(self, tier: int) -> np.ndarray:
        return self.pad_rhs.setdefault(tier, np.zeros(self.n))

    def loads_delta_tier(self, tier: int) -> np.ndarray:
        return self.loads_delta.setdefault(tier, np.zeros(self.n))

    def r_seg_table(self) -> np.ndarray:
        if self.r_seg is None:
            self.r_seg = self.stack.pillars.r_seg.copy()
        return self.r_seg

    def pin_mask(self) -> np.ndarray:
        if self.has_pin is None:
            self.has_pin = self.stack.pillars.has_pin.copy()
        return self.has_pin


@dataclass(frozen=True)
class EcoEdit:
    """One local grid edit.  Subclasses implement the compile
    (:meth:`_accumulate`) and reference (:meth:`apply`) paths."""

    kind = "edit"

    def apply(self, stack: PowerGridStack) -> PowerGridStack:
        """The edited stack, as a standalone copy (the reference path a
        direct re-solve runs against)."""
        raise NotImplementedError

    def _accumulate(self, acc: _Accumulator) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        parts = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )
        return f"{self.kind}({parts})"

    def to_dict(self) -> dict:
        record: dict = {"type": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(
                    list(v) if isinstance(v, tuple) else v for v in value
                )
            elif isinstance(value, np.ndarray):
                value = value.tolist()
            record[f.name] = value
        return record


def _flat(stack: PowerGridStack, node: tuple[int, int], edit: EcoEdit) -> int:
    i, j = int(node[0]), int(node[1])
    if not (0 <= i < stack.rows and 0 <= j < stack.cols):
        raise GridError(
            f"{edit.kind} edit node ({i}, {j}) outside the "
            f"{stack.rows}x{stack.cols} lattice"
        )
    return i * stack.cols + j


def _edge_nodes(
    stack: PowerGridStack, orientation: str, i: int, j: int, edit: EcoEdit
) -> tuple[int, int]:
    """Flat endpoints of edge ``(orientation, i, j)``: ``g_h[i, j]``
    joins ``(i, j)-(i, j+1)``, ``g_v[i, j]`` joins ``(i, j)-(i+1, j)``."""
    if orientation == "h":
        if not (0 <= i < stack.rows and 0 <= j < stack.cols - 1):
            raise GridError(f"{edit.kind} edit: h-edge ({i}, {j}) out of range")
        return i * stack.cols + j, i * stack.cols + j + 1
    if orientation == "v":
        if not (0 <= i < stack.rows - 1 and 0 <= j < stack.cols):
            raise GridError(f"{edit.kind} edit: v-edge ({i}, {j}) out of range")
        return i * stack.cols + j, (i + 1) * stack.cols + j
    raise GridError(
        f"{edit.kind} edit: orientation must be 'h' or 'v', got {orientation!r}"
    )


def _edge_conductance(tier, orientation: str, i: int, j: int) -> float:
    table = tier.g_h if orientation == "h" else tier.g_v
    return float(table[i, j])


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StrapEdit(EcoEdit):
    """Insert (or remove) a power strap: a run of extra conductance
    ``g_strap`` on consecutive segments along row ``index`` (``"h"``) or
    column ``index`` (``"v"``) of one tier.  Negative ``g_strap``
    removes metal; the result must keep every segment's conductance
    non-negative."""

    tier: int
    orientation: str
    index: int
    g_strap: float
    span: tuple[int, int] | None = None

    kind = "strap"

    def _segments(self, stack: PowerGridStack) -> tuple[int, int]:
        limit = stack.cols - 1 if self.orientation == "h" else stack.rows - 1
        start, stop = (0, limit) if self.span is None else self.span
        start, stop = int(start), int(stop)
        if not (0 <= start < stop <= limit):
            raise GridError(
                f"strap span ({start}, {stop}) outside [0, {limit}]"
            )
        return start, stop

    def _check(self, stack: PowerGridStack) -> None:
        if self.orientation not in ("h", "v"):
            raise GridError(
                f"strap orientation must be 'h' or 'v', got {self.orientation!r}"
            )
        limit = stack.rows if self.orientation == "h" else stack.cols
        if not 0 <= self.index < limit:
            raise GridError(f"strap index {self.index} outside [0, {limit})")
        if self.g_strap == 0.0:
            raise GridError("strap conductance delta must be nonzero")
        start, stop = self._segments(stack)
        tier = stack.tiers[self.tier]
        table = tier.g_h if self.orientation == "h" else tier.g_v
        existing = (
            table[self.index, start:stop]
            if self.orientation == "h"
            else table[start:stop, self.index]
        )
        if np.any(existing + self.g_strap < 0.0):
            raise GridError(
                "strap removal drives a segment conductance negative"
            )

    def _accumulate(self, acc: _Accumulator) -> None:
        acc.check_tier(self.tier, self)
        self._check(acc.stack)
        start, stop = self._segments(acc.stack)
        for s in range(start, stop):
            i, j = (
                (self.index, s) if self.orientation == "h" else (s, self.index)
            )
            u, v = _edge_nodes(acc.stack, self.orientation, i, j, self)
            acc.add_column(
                self.tier,
                np.array([u, v]),
                np.array([1.0, -1.0]),
                self.g_strap,
            )

    def apply(self, stack: PowerGridStack) -> PowerGridStack:
        self._check(stack)
        start, stop = self._segments(stack)
        edited = stack.copy()
        tier = edited.tiers[self.tier]
        if self.orientation == "h":
            tier.g_h[self.index, start:stop] += self.g_strap
        else:
            tier.g_v[start:stop, self.index] += self.g_strap
        return edited


@dataclass(frozen=True)
class WireWidthEdit(EcoEdit):
    """Resize an explicit edge set: multiply each listed segment's
    conductance by ``scale`` (width up: ``scale > 1``; width down:
    ``scale < 1``; ``scale = 0`` cuts the wires)."""

    tier: int
    edges: tuple[tuple[str, int, int], ...]
    scale: float

    kind = "width"

    def _check(self, stack: PowerGridStack) -> None:
        if self.scale < 0.0:
            raise GridError("wire-width scale must be >= 0")
        if self.scale == 1.0:
            raise GridError("wire-width scale of 1 is a no-op edit")
        if not self.edges:
            raise GridError("wire-width edit needs at least one edge")

    def _accumulate(self, acc: _Accumulator) -> None:
        acc.check_tier(self.tier, self)
        self._check(acc.stack)
        tier = acc.stack.tiers[self.tier]
        for orientation, i, j in self.edges:
            u, v = _edge_nodes(acc.stack, orientation, int(i), int(j), self)
            g = _edge_conductance(tier, orientation, int(i), int(j))
            delta = (self.scale - 1.0) * g
            if delta != 0.0:
                acc.add_column(
                    self.tier, np.array([u, v]), np.array([1.0, -1.0]), delta
                )

    def apply(self, stack: PowerGridStack) -> PowerGridStack:
        self._check(stack)
        edited = stack.copy()
        tier = edited.tiers[self.tier]
        for orientation, i, j in self.edges:
            _edge_nodes(stack, orientation, int(i), int(j), self)
            table = tier.g_h if orientation == "h" else tier.g_v
            table[int(i), int(j)] *= self.scale
        return edited


@dataclass(frozen=True)
class TsvResizeEdit(EcoEdit):
    """Resize TSV/via segments: multiply ``r_seg`` of the listed pillars
    (all tiers, or ``tiers`` only) by ``scale``.  Rank-0 for the plane
    matrices -- segment resistances live purely in the propagation
    phase, so the incremental solve reuses every factor untouched."""

    pillars: tuple[int, ...]
    scale: float
    tiers: tuple[int, ...] | None = None

    kind = "tsv"

    def _check(self, stack: PowerGridStack) -> None:
        if self.scale <= 0.0:
            raise GridError("TSV resize scale must be > 0")
        if not self.pillars:
            raise GridError("TSV resize needs at least one pillar")
        count = stack.pillars.count
        for p in self.pillars:
            if not 0 <= int(p) < count:
                raise GridError(f"TSV resize pillar {p} outside [0, {count})")
        if self.tiers is not None:
            for l in self.tiers:
                if not 0 <= int(l) < stack.n_tiers:
                    raise GridError(
                        f"TSV resize tier {l} outside [0, {stack.n_tiers})"
                    )

    def _scale_table(self, table: np.ndarray) -> None:
        cols = np.array([int(p) for p in self.pillars])
        if self.tiers is None:
            table[:, cols] *= self.scale
        else:
            rows = np.array([int(l) for l in self.tiers])
            table[rows[:, None], cols[None, :]] *= self.scale

    def _accumulate(self, acc: _Accumulator) -> None:
        self._check(acc.stack)
        self._scale_table(acc.r_seg_table())

    def apply(self, stack: PowerGridStack) -> PowerGridStack:
        self._check(stack)
        edited = stack.copy()
        self._scale_table(edited.pillars.r_seg)
        return edited


@dataclass(frozen=True)
class PadMoveEdit(EcoEdit):
    """Move the pad conductance at node ``src`` of one tier to node
    ``dst``: a rank-2 *diagonal* perturbation (``e_src`` with weight
    ``-g_pad``, ``e_dst`` with ``+g_pad``) plus the matching
    ``g_pad * v_pad`` right-hand-side delta."""

    tier: int
    src: tuple[int, int]
    dst: tuple[int, int]

    kind = "pad_move"

    def _pad(self, stack: PowerGridStack) -> float:
        tier = stack.tiers[self.tier]
        g = float(tier.g_pad[int(self.src[0]), int(self.src[1])])
        if g <= 0.0:
            raise GridError(f"no pad to move at {tuple(self.src)}")
        if tuple(self.src) == tuple(self.dst):
            raise GridError("pad move src == dst")
        return g

    def _accumulate(self, acc: _Accumulator) -> None:
        acc.check_tier(self.tier, self)
        src = _flat(acc.stack, self.src, self)
        dst = _flat(acc.stack, self.dst, self)
        g = self._pad(acc.stack)
        acc.add_column(self.tier, np.array([src]), np.array([1.0]), -g)
        acc.add_column(self.tier, np.array([dst]), np.array([1.0]), g)
        v_pad = float(acc.stack.tiers[self.tier].v_pad)
        rhs = acc.pad_rhs_tier(self.tier)
        rhs[src] -= g * v_pad
        rhs[dst] += g * v_pad

    def apply(self, stack: PowerGridStack) -> PowerGridStack:
        if not 0 <= self.tier < stack.n_tiers:
            raise GridError(f"pad move targets tier {self.tier}")
        _flat(stack, self.src, self)
        _flat(stack, self.dst, self)
        g = self._pad(stack)
        edited = stack.copy()
        tier = edited.tiers[self.tier]
        tier.g_pad[int(self.src[0]), int(self.src[1])] -= g
        tier.g_pad[int(self.dst[0]), int(self.dst[1])] += g
        return edited


@dataclass(frozen=True)
class PinMoveEdit(EcoEdit):
    """Move one package pin between pillars.  Rank-0: pin masks only
    steer the propagation phase, never the plane matrices."""

    src: int
    dst: int

    kind = "pin_move"

    def _check(self, stack: PowerGridStack, mask: np.ndarray) -> np.ndarray:
        count = stack.pillars.count
        src, dst = int(self.src), int(self.dst)
        if not (0 <= src < count and 0 <= dst < count):
            raise GridError(f"pin move ({src}->{dst}) outside [0, {count})")
        if not mask[src]:
            raise GridError(f"pin move: pillar {src} carries no pin")
        if mask[dst]:
            raise GridError(f"pin move: pillar {dst} already pinned")
        out = mask.copy()
        out[src] = False
        out[dst] = True
        return out

    def _accumulate(self, acc: _Accumulator) -> None:
        acc.has_pin = self._check(acc.stack, acc.pin_mask())

    def apply(self, stack: PowerGridStack) -> PowerGridStack:
        return stack.with_pin_mask(
            self._check(stack, stack.pillars.has_pin)
        )


@dataclass(frozen=True)
class PinMaskEdit(EcoEdit):
    """Replace the whole package bump map (rank-0).  The placement
    optimizer's native candidate: each greedy trial is an absolute pin
    mask against one fixed session base."""

    has_pin: tuple[bool, ...]

    kind = "pin_mask"

    def _mask(self, stack: PowerGridStack) -> np.ndarray:
        mask = np.asarray(self.has_pin, dtype=bool)
        if mask.shape != (stack.pillars.count,):
            raise GridError(
                f"pin mask has {mask.size} entries for "
                f"{stack.pillars.count} pillars"
            )
        if not mask.any():
            raise GridError("pin mask must keep at least one pin")
        return mask

    def _accumulate(self, acc: _Accumulator) -> None:
        acc.has_pin = self._mask(acc.stack)

    def apply(self, stack: PowerGridStack) -> PowerGridStack:
        return stack.with_pin_mask(self._mask(stack))


@dataclass(frozen=True)
class DecapEdit(EcoEdit):
    """Scale one tier's decap budget.  DC-invariant (capacitors are open
    at DC), so the candidate is rank-0 *and* RHS-neutral here; the scale
    is recorded for transient re-analysis to pick up."""

    tier: int
    scale: float

    kind = "decap"

    def _accumulate(self, acc: _Accumulator) -> None:
        acc.check_tier(self.tier, self)
        if self.scale <= 0.0:
            raise GridError("decap scale must be > 0")
        acc.cap_scale[self.tier] = (
            acc.cap_scale.get(self.tier, 1.0) * self.scale
        )

    def apply(self, stack: PowerGridStack) -> PowerGridStack:
        if not 0 <= self.tier < stack.n_tiers:
            raise GridError(f"decap edit targets tier {self.tier}")
        if self.scale <= 0.0:
            raise GridError("decap scale must be > 0")
        return stack.copy()  # DC view: decap never enters G or b


@dataclass(frozen=True)
class LoadEdit(EcoEdit):
    """Add ``delta`` amps of device current at one node (block re-place,
    clock-gating change).  Pure right-hand-side move."""

    tier: int
    node: tuple[int, int]
    delta: float

    kind = "load"

    def _accumulate(self, acc: _Accumulator) -> None:
        acc.check_tier(self.tier, self)
        if self.delta == 0.0:
            raise GridError("load delta must be nonzero")
        flat = _flat(acc.stack, self.node, self)
        acc.loads_delta_tier(self.tier)[flat] += self.delta

    def apply(self, stack: PowerGridStack) -> PowerGridStack:
        if not 0 <= self.tier < stack.n_tiers:
            raise GridError(f"load edit targets tier {self.tier}")
        if self.delta == 0.0:
            raise GridError("load delta must be nonzero")
        flat = _flat(stack, self.node, self)
        edited = stack.copy()
        tier = edited.tiers[self.tier]
        tier.loads[flat // stack.cols, flat % stack.cols] += self.delta
        return edited


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EcoCandidate:
    """One named ECO candidate: a bundle of edits evaluated as a unit."""

    name: str
    edits: tuple[EcoEdit, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("candidate needs a non-empty name")
        if not self.edits:
            raise ReproError(f"candidate {self.name!r} has no edits")
        object.__setattr__(self, "edits", tuple(self.edits))

    def apply(self, stack: PowerGridStack) -> PowerGridStack:
        """The fully edited stack (reference path)."""
        for edit in self.edits:
            stack = edit.apply(stack)
        return stack

    def describe(self) -> str:
        return "; ".join(edit.describe() for edit in self.edits)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "edits": [edit.to_dict() for edit in self.edits],
        }


@dataclass
class CompiledCandidate:
    """One candidate lowered to what the incremental engine consumes."""

    name: str
    candidate: EcoCandidate
    #: tier -> (``(n, k)`` CSC update columns in full node order,
    #: ``(k,)`` conductance-delta weights)
    tier_updates: dict[int, tuple[sp.csc_matrix, np.ndarray]]
    #: tier -> ``(n,)`` delta of the ``g_pad * v_pad`` RHS term (scales
    #: with the plane factor, i.e. not with scenario load scales)
    pad_rhs_delta: dict[int, np.ndarray]
    #: tier -> ``(n,)`` delta of the device loads (amps; scales with
    #: scenario load scales, exactly like the base loads)
    loads_delta: dict[int, np.ndarray]
    #: ``(T, P)`` replacement segment-resistance table, or None
    r_seg: np.ndarray | None
    #: ``(P,)`` replacement pin mask, or None
    has_pin: np.ndarray | None
    #: tier -> decap multiplier (DC-invariant; recorded for transient)
    cap_scale: dict[int, float] = field(default_factory=dict)

    @property
    def rank(self) -> int:
        """Total low-rank width across tiers."""
        return sum(int(w.shape[1]) for w, _ in self.tier_updates.values())

    def degree_delta(self, tier: int, n: int) -> np.ndarray | None:
        """``(n,)`` change of the matrix diagonal (degree conductance)
        on one tier: ``diag(W diag(d) W^T) = sum_k d_k W[:, k]**2``."""
        update = self.tier_updates.get(tier)
        if update is None:
            return None
        w, d = update
        squared = w.multiply(w) @ d
        return np.asarray(squared).reshape(n)

    def tier_load_deltas(self, n_tiers: int) -> np.ndarray:
        """``(T,)`` total added amps per tier (the loadshare seed's
        input)."""
        totals = np.zeros(n_tiers)
        for tier, delta in self.loads_delta.items():
            totals[tier] = float(delta.sum())
        return totals


def compile_candidate(
    stack: PowerGridStack, candidate: EcoCandidate
) -> CompiledCandidate:
    """Lower one candidate to its low-rank plane perturbations.

    Edits merge additively: columns from every edit of the candidate
    concatenate per tier (SMW handles overlapping edits through the
    capacitance matrix), RHS deltas sum, TSV scalings compose
    multiplicatively, and pin edits chain on the evolving mask.
    """
    acc = _Accumulator(stack)
    for edit in candidate.edits:
        edit._accumulate(acc)
    tier_updates: dict[int, tuple[sp.csc_matrix, np.ndarray]] = {}
    for tier, columns in acc.cols.items():
        indptr = np.zeros(len(columns) + 1, dtype=np.int64)
        indices = []
        data = []
        for k, (rows, signs) in enumerate(columns):
            indptr[k + 1] = indptr[k] + rows.size
            indices.append(rows)
            data.append(signs)
        w = sp.csc_matrix(
            (
                np.concatenate(data),
                np.concatenate(indices),
                indptr,
            ),
            shape=(acc.n, len(columns)),
        )
        tier_updates[tier] = (w, np.array(acc.weights[tier]))
    return CompiledCandidate(
        name=candidate.name,
        candidate=candidate,
        tier_updates=tier_updates,
        pad_rhs_delta=acc.pad_rhs,
        loads_delta=acc.loads_delta,
        r_seg=acc.r_seg,
        has_pin=acc.has_pin,
        cap_scale=acc.cap_scale,
    )


# ----------------------------------------------------------------------
_EDIT_TYPES: dict[str, type[EcoEdit]] = {
    cls.kind: cls
    for cls in (
        StrapEdit,
        WireWidthEdit,
        TsvResizeEdit,
        PadMoveEdit,
        PinMoveEdit,
        PinMaskEdit,
        DecapEdit,
        LoadEdit,
    )
}

_TUPLE_FIELDS = {
    "span",
    "src",
    "dst",
    "node",
    "pillars",
    "tiers",
    "has_pin",
    "edges",
}


def edit_from_dict(record: dict) -> EcoEdit:
    """Inverse of :meth:`EcoEdit.to_dict` (the candidate-file format)."""
    record = dict(record)
    kind = record.pop("type", None)
    cls = _EDIT_TYPES.get(kind)
    if cls is None:
        raise ReproError(
            f"unknown edit type {kind!r}; expected one of "
            f"{sorted(_EDIT_TYPES)}"
        )
    known = {f.name for f in fields(cls)}
    unknown = set(record) - known
    if unknown:
        raise ReproError(
            f"{kind} edit has unknown field(s) {sorted(unknown)}"
        )
    for key in list(record):
        # isinstance(list) rather than a None check: "src"/"dst" name a
        # node pair on pad_move but a plain pillar int on pin_move.
        if key in _TUPLE_FIELDS and isinstance(record[key], list):
            record[key] = tuple(
                tuple(v) if isinstance(v, list) else v for v in record[key]
            )
    return cls(**record)


def load_candidates(path) -> list[EcoCandidate]:
    """Read a candidate file: ``{"candidates": [{"name", "edits"}]}``."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read candidate file {path}: {exc}") from exc
    records = payload.get("candidates")
    if not isinstance(records, list) or not records:
        raise ReproError(
            f"candidate file {path} needs a non-empty 'candidates' list"
        )
    candidates = []
    for k, record in enumerate(records):
        name = record.get("name") or f"candidate-{k}"
        edits = record.get("edits")
        if not isinstance(edits, list) or not edits:
            raise ReproError(
                f"candidate {name!r} needs a non-empty 'edits' list"
            )
        candidates.append(
            EcoCandidate(
                name=name, edits=tuple(edit_from_dict(e) for e in edits)
            )
        )
    return candidates


def dump_candidates(path, candidates) -> None:
    """Write candidates back in the :func:`load_candidates` format."""
    payload = {"candidates": [c.to_dict() for c in candidates]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
