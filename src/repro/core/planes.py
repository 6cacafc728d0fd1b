"""Free/pillar-partitioned plane systems -- the shared CVN kernel.

The CVN phase of the VP method solves, per tier, the reduced system

    A_ff x_f = b_f - A_fp v_p

with the pillar (TSV) nodes held at Dirichlet values ``v_p``.  Every
factored VP engine runs exactly this solve through the VP outer-iteration
kernel's plane operators (:mod:`repro.core.kernel`); this module owns the
partitioned structure so they share one code path:

* tiers with identical wire geometry share one matrix *and* one
  factorization (the paper replicates a single tier, so a 3-tier stack
  factorizes once);
* the factorized solve accepts a multi-column right-hand side -- ``v_p``
  of shape ``(P,)`` is simply the batch-size-1 special case of ``(P, S)``;
* pillar drawn currents come from the stored pillar rows of the full
  plane matrix (``A_p v - b_p``), again single- or multi-column.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core.tsv import plane_matrices
from repro.grid.stack3d import PowerGridStack
from repro.linalg.direct import CONDENSE_MIN_SHARE, DirectSolver
from repro.obs.registry import Counter


def tier_signature(tier) -> bytes:
    """Geometry signature of one tier's plane matrix: the wire and pad
    conductances plus the pad rail voltage (loads excluded -- they only
    enter the right-hand side)."""
    return (
        tier.g_h.tobytes()
        + tier.g_v.tobytes()
        + tier.g_pad.tobytes()
        + np.float64(tier.v_pad).tobytes()
    )


def stack_plane_signature(stack: PowerGridStack) -> bytes:
    """Signature of everything the partitioned plane systems depend on:
    per-tier matrix geometry plus the pillar (Dirichlet) positions.

    Two stacks with equal signatures produce identical
    :class:`ReducedPlaneSystem` structure and factors, so the systems may
    be shared -- the key of :class:`PlaneFactorCache`."""
    digest = hashlib.sha256()
    digest.update(np.int64([stack.rows, stack.cols, stack.n_tiers]).tobytes())
    digest.update(stack.pillars.positions.tobytes())
    for tier in stack.tiers:
        digest.update(tier_signature(tier))
    return digest.digest()


def _same_geometry(a, b) -> bool:
    """``tier_signature(a) == tier_signature(b)``, compared in place:
    bitwise equality of the conductance arrays and the pad rail."""
    pairs = (
        (a.g_h, b.g_h),
        (a.g_v, b.g_v),
        (a.g_pad, b.g_pad),
        (np.float64(a.v_pad), np.float64(b.v_pad)),
    )
    return all(
        np.array_equal(x.view(np.int64), y.view(np.int64)) for x, y in pairs
    )


def group_tiers(stack: PowerGridStack) -> list[int]:
    """Map each tier to the index of the first tier sharing its wire
    geometry (conductances and pads; loads excluded)."""
    leaders: list[int] = []
    groups: list[int] = []
    for l, tier in enumerate(stack.tiers):
        group = next(
            (g for g in leaders if _same_geometry(stack.tiers[g], tier)), None
        )
        if group is None:
            leaders.append(l)
            group = l
        groups.append(group)
    return groups


def condensable_nodes(rows: int, cols: int, free_mask: np.ndarray) -> np.ndarray:
    """Free lattice nodes a plane factorization can eliminate exactly
    ahead of the LU, as a flat boolean mask.

    These are the free nodes with at most two free lattice neighbours,
    thinned so that no two are adjacent: ordered first, they form a
    diagonal leading block of ``A_ff`` whose elimination couples at most
    one new pair of remaining nodes each.  At TSV pitch 2 they are the
    nodes between two adjacent pillars.  The set depends only on the
    lattice and the pillar positions, so one order serves every tier.
    """
    free = free_mask.reshape(rows, cols)
    degree = np.zeros((rows, cols), dtype=np.int8)
    degree[1:] += free[:-1]
    degree[:-1] += free[1:]
    degree[:, 1:] += free[:, :-1]
    degree[:, :-1] += free[:, 1:]
    candidate = free & (degree <= 2)
    clash = np.zeros_like(candidate)
    clash[1:] |= candidate[:-1]
    clash[:-1] |= candidate[1:]
    clash[:, 1:] |= candidate[:, :-1]
    clash[:, :-1] |= candidate[:, 1:]
    # The lattice is bipartite: dropping every odd-parity candidate with
    # a candidate neighbour leaves no adjacent pair.
    odd = (np.arange(rows)[:, None] + np.arange(cols)) % 2 == 1
    return (candidate & ~(clash & odd)).ravel()


def _match_columns(vector: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Broadcast a per-tier base vector against a (n, S) batch array."""
    if reference.ndim == 2 and vector.ndim == 1:
        return vector[:, None]
    return vector


class ReducedPlaneSystem:
    """Per-tier reduced (free-node) systems of one stack.

    Parameters
    ----------
    stack:
        The 3-D grid whose tiers are partitioned.
    groups:
        Tier-sharing map as produced by :func:`group_tiers` (computed when
        omitted).  Tiers in one group share ``A_ff``/``A_fp``/``A_p`` and,
        when ``factorize`` is set, one LU factorization.
    planes:
        Pre-built per-tier ``(matrix, rhs)`` pairs from
        :func:`repro.core.tsv.plane_matrices`; rebuilt when omitted.
    factorize:
        Factorize each group's ``A_ff`` once (the ``direct`` inner
        solver).  When False the raw CSR blocks and Jacobi inverse
        diagonals are kept instead (the ``cg`` inner solver).
    pillar_rows:
        Also slice and keep the pillar rows ``A_p`` of the full plane
        matrices (enables :meth:`drawn_currents`).  Every factored engine
        needs them; the single-scenario ``cg`` solver extracts drawn
        currents from the full matrices and skips the extra
        slicing/storage.

    Attributes
    ----------
    free:
        Flat lattice indices of the free nodes, in the row order of
        ``A_ff``, ``A_fp`` and ``b_free``; every consumer indexes through
        it.  With ``factorize`` the :func:`condensable_nodes` come first
        when they hold at least
        :data:`~repro.linalg.direct.CONDENSE_MIN_SHARE` of the free
        nodes, so :class:`~repro.linalg.direct.DirectSolver` eliminates
        them ahead of the LU (at TSV pitch 2 the LU then only sees the
        pillar-cell centres).  Otherwise, and for ``cg``, the order is
        the natural one.
    """

    def __init__(
        self,
        stack: PowerGridStack,
        *,
        groups: list[int] | None = None,
        planes: list[tuple[sp.csr_matrix, np.ndarray]] | None = None,
        factorize: bool = True,
        pillar_rows: bool = False,
    ):
        self.n = stack.rows * stack.cols
        self.pillar_flat = stack.pillar_flat_indices()
        self.groups = group_tiers(stack) if groups is None else groups
        self.planes = (
            plane_matrices(stack, groups=self.groups) if planes is None else planes
        )
        self.factorized = factorize
        self.has_pillar_rows = pillar_rows

        free_mask = np.ones(self.n, dtype=bool)
        free_mask[self.pillar_flat] = False
        self.free = np.flatnonzero(free_mask)
        if factorize:
            # Eliminable nodes first when they are enough for DirectSolver
            # to condense them out of the LU; otherwise the natural order
            # keeps the fill-reducing ordering as it was.
            lead = condensable_nodes(stack.rows, stack.cols, free_mask)
            if np.count_nonzero(lead) >= CONDENSE_MIN_SHARE * self.free.size:
                self.free = np.concatenate(
                    (np.flatnonzero(lead), np.flatnonzero(free_mask & ~lead))
                )

        self.a_ff: list = []          # DirectSolver (factorized) or CSR
        self.a_fp: list[sp.csr_matrix] = []
        self.a_pillar: list[sp.csr_matrix] = []
        self.jacobi_inv: list[np.ndarray] = []
        self.b_free: list[np.ndarray] = []
        self.b_pillar: list[np.ndarray] = []
        # Distinct LU factorizations this system performed (0 when
        # ``factorize=False``) -- the unit the Monte Carlo driver's
        # refactorization accounting is expressed in.  Kept in a local
        # instrument read through the ``n_factorizations`` property and
        # mirrored into the active obs registry.
        self._factorizations = Counter("planes.factorizations")
        tr = obs.tracer()
        cache: dict[int, tuple] = {}
        for l, (matrix, rhs) in enumerate(self.planes):
            group = self.groups[l]
            if group not in cache:
                a_ff = matrix[self.free][:, self.free].tocsr()
                a_fp = matrix[self.free][:, self.pillar_flat].tocsr()
                a_p = (
                    matrix[self.pillar_flat, :].tocsr() if pillar_rows else None
                )
                if factorize:
                    with tr.span("factorize", tier=l, n_free=self.free.size):
                        solver = DirectSolver(a_ff, spd=True)
                    cache[group] = (solver, a_fp, a_p, None)
                    self._factorizations.add()
                    obs.add("planes.factorizations")
                else:
                    cache[group] = (a_ff, a_fp, a_p, 1.0 / a_ff.diagonal())
            a_ff, a_fp, a_p, inv_diag = cache[group]
            self.a_ff.append(a_ff)
            self.a_fp.append(a_fp)
            if a_p is not None:
                self.a_pillar.append(a_p)
            if inv_diag is not None:
                self.jacobi_inv.append(inv_diag)
            self.b_free.append(rhs[self.free])
            if pillar_rows:
                self.b_pillar.append(rhs[self.pillar_flat])

    # ------------------------------------------------------------------
    @property
    def n_factorizations(self) -> int:
        """Distinct LU factorizations performed (read-through to the
        local instrument so counter-asserting callers see plain ints)."""
        return self._factorizations.value

    @property
    def n_free(self) -> int:
        return self.free.size

    @property
    def n_pillars(self) -> int:
        return self.pillar_flat.size

    def reduced_rhs(
        self,
        tier_index: int,
        pillar_v: np.ndarray,
        b_free: np.ndarray | None = None,
        scale=None,
    ) -> np.ndarray:
        """``b_f - scale * A_fp v_p`` for one tier; ``pillar_v`` is ``(P,)``
        or ``(P, S)`` and an explicit per-scenario ``b_free`` ``(n_free, S)``
        overrides the tier's base RHS.

        ``scale`` is the conductance multiplier of the scaled-factor fast
        path (see :meth:`solve_free`): a scalar, or an ``(S,)`` vector
        applying per column.
        """
        base = self.b_free[tier_index] if b_free is None else b_free
        if b_free is not None and pillar_v.ndim == 2 and not pillar_v.any():
            # Pure back-substitution (low-rank Z and correction solves
            # pass zero pillar voltages): skip the coupling product.
            return np.asfortranarray(base)
        coupling = self.a_fp[tier_index] @ pillar_v
        if scale is not None:
            coupling = coupling * scale
        if coupling.ndim == 2:
            # Subtract straight into a Fortran-ordered buffer: SuperLU
            # consumes multi-column RHS column-contiguous, so building it
            # in that layout here saves a full copy in solve_free.
            out = np.empty(coupling.shape, order="F")
            np.subtract(_match_columns(base, coupling), coupling, out=out)
            return out
        return base - coupling

    def solve_free(
        self,
        tier_index: int,
        pillar_v: np.ndarray,
        b_free: np.ndarray | None = None,
        scale=None,
        trans: str = "N",
    ) -> np.ndarray:
        """Solve one tier's reduced system for the free-node voltages.

        Single- and multi-column ``pillar_v`` run through the same cached
        factorization; the multi-column case back-substitutes all
        scenarios in one call.

        ``scale`` enables the **scaled-factor fast path**: when a
        scenario multiplies every conductance of this tier by ``alpha``
        (a metal-width / global process scaling), the scaled system is
        ``alpha A_ff x = b_f - alpha A_fp v_p``, so the *unscaled*
        factorization is reused -- scale the coupling, back-substitute,
        divide by ``alpha``.  Scalar, or ``(S,)`` applying per column.

        ``trans="T"`` back-substitutes on the transposed factors (see
        :meth:`solve_free_transpose`).
        """
        if not self.factorized:
            raise RuntimeError(
                "solve_free needs factorize=True (use reduced_rhs with an "
                "iterative solver otherwise)"
            )
        rhs = self.reduced_rhs(tier_index, pillar_v, b_free, scale=scale)
        if rhs.ndim == 2 and not rhs.flags.f_contiguous:
            rhs = np.asfortranarray(rhs)
        x = self.a_ff[tier_index].solve(rhs, trans=trans)
        if scale is not None:
            x = x / scale
        return x

    def solve_free_transpose(
        self,
        tier_index: int,
        pillar_v: np.ndarray,
        b_free: np.ndarray | None = None,
        scale=None,
    ) -> np.ndarray:
        """Adjoint (transpose) solve of one tier's reduced system.

        The adjoint of the 3-D grid system runs on ``G^T``; per tier
        that is ``A_ff^T x = g_f - A_pf^T v_p``.  The plane matrices are
        symmetric nodal Laplacians, so the coupling block ``A_pf^T``
        coincides with the stored ``A_fp`` -- what distinguishes this
        entry is the back-substitution on the *transposed* LU factors
        (``U^T L^T``), which makes the adjoint exact down to round-off
        without a single new factorization.  The sensitivity engine
        (:mod:`repro.sensitivity.adjoint`) runs this back-substitution
        through the kernel's factored operator (``trans="T"``); its
        zero-refactorization contract is counter-asserted through
        :class:`PlaneFactorCache` exactly like the Monte Carlo driver's.
        """
        return self.solve_free(
            tier_index, pillar_v, b_free=b_free, scale=scale, trans="T"
        )

    def assemble(
        self,
        x_free: np.ndarray,
        pillar_v: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Scatter free-node and pillar values into a full flat field
        (``(n,)`` or ``(n, S)``, matching the inputs).  ``out`` supplies
        the destination buffer -- the batched solvers scatter straight
        into their result arrays to skip a per-iteration copy."""
        if out is not None:
            field = out
        elif x_free.ndim == 2:
            field = np.empty((self.n, x_free.shape[1]))
        else:
            field = np.empty(self.n)
        field[self.free] = x_free
        field[self.pillar_flat] = pillar_v
        return field

    def drawn_currents(
        self,
        tier_index: int,
        v_full: np.ndarray,
        b_pillar: np.ndarray | None = None,
        scale=None,
    ) -> np.ndarray:
        """Current each pillar delivers into this plane: the KCL residual
        ``scale * A_p v - b_p`` at the pillar rows (``(P,)`` or ``(P, S)``).

        ``scale`` is the same conductance multiplier as in
        :meth:`solve_free` (the pillar rows of a scaled plane are
        ``alpha A_p``)."""
        if not self.has_pillar_rows:
            raise RuntimeError("drawn_currents needs pillar_rows=True")
        base = self.b_pillar[tier_index] if b_pillar is None else b_pillar
        product = self.a_pillar[tier_index] @ v_full
        if scale is not None:
            product = product * scale
        return product - _match_columns(base, product)

    def update_rhs(self, tier_index: int, rhs_full: np.ndarray) -> None:
        """Refresh one tier's base RHS after a load change (matrices and
        factors survive)."""
        self.planes[tier_index] = (self.planes[tier_index][0], rhs_full)
        self.b_free[tier_index] = rhs_full[self.free]
        if self.has_pillar_rows:
            self.b_pillar[tier_index] = rhs_full[self.pillar_flat]

    def low_rank_update(
        self,
        tier_index: int,
        u,
        c,
        v=None,
        *,
        z: np.ndarray | None = None,
        keep_z: bool = True,
    ):
        """Bind a Sherman-Morrison-Woodbury update ``A_ff -> A_ff + U C V^T``
        to this tier's cached factors.

        The returned :class:`repro.linalg.lowrank.LowRankUpdate` solves
        the *edited* reduced system for the cost of back-substitutions
        against the existing LU -- the ECO engine's primitive.  ``u``/``v``
        are ``(n_free, k)`` columns in the free-node partition; ``z``
        optionally supplies a precomputed ``A_ff^{-1} U`` (batched
        callers form all updates' ``Z`` blocks in one multi-column
        :meth:`solve_free` call).
        """
        from repro.linalg.lowrank import LowRankUpdate

        if not self.factorized:
            raise RuntimeError("low_rank_update needs factorize=True")
        zero_p = np.zeros(self.n_pillars)

        def base(rhs: np.ndarray) -> np.ndarray:
            pillar_v = zero_p if rhs.ndim == 1 else np.zeros(
                (self.n_pillars, rhs.shape[1])
            )
            return self.solve_free(tier_index, pillar_v, b_free=rhs)

        def base_t(rhs: np.ndarray) -> np.ndarray:
            pillar_v = zero_p if rhs.ndim == 1 else np.zeros(
                (self.n_pillars, rhs.shape[1])
            )
            return self.solve_free_transpose(tier_index, pillar_v, b_free=rhs)

        return LowRankUpdate(
            base, u, c, v, z=z, keep_z=keep_z, base_solve_transpose=base_t
        )

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Bytes held by the system: the full plane matrices and RHS it
        keeps, the partitioned blocks, the factors, and the partition
        index vectors (shared objects counted once)."""
        total = self.free.nbytes + self.pillar_flat.nbytes
        seen: set[int] = set()

        def once(obj, n_bytes: int) -> int:
            if id(obj) in seen:
                return 0
            seen.add(id(obj))
            return n_bytes

        def csr_bytes(matrix) -> int:
            return once(
                matrix,
                matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes,
            )

        for l, (matrix, rhs) in enumerate(self.planes):
            total += csr_bytes(matrix) + once(rhs, rhs.nbytes)
            total += csr_bytes(self.a_fp[l]) + self.b_free[l].nbytes
            if self.has_pillar_rows:
                total += csr_bytes(self.a_pillar[l]) + self.b_pillar[l].nbytes
            block = self.a_ff[l]
            if self.factorized:
                total += once(block, block.memory_bytes)
            else:
                total += csr_bytes(block)
        for inv in self.jacobi_inv:
            total += once(inv, inv.nbytes)
        return int(total)


class PlaneFactorCache:
    """LU factor reuse across stacks keyed by plane-geometry signature.

    The Monte Carlo variation driver (:mod:`repro.stochastic`) solves
    hundreds of sampled grids.  Samples that only perturb TSV
    resistances, loads, or apply global conductance scalings leave the
    per-tier plane matrices bit-identical, so their
    :class:`ReducedPlaneSystem` (and its factors) can be shared; only
    samples that actually change wire conductance *fields* pay a fresh
    factorization.  The cache makes that policy explicit and countable:

    * ``factorizations`` -- total LU factorizations performed through the
      cache (the quantity benchmarks assert on: a TSV-only sweep must
      stay at the baseline count, i.e. zero *re*-factorizations);
    * ``hits`` / ``misses`` -- lookup accounting;
    * ``evictions`` -- entries LRU-evicted at capacity (an ECO session
      sweeping many geometry variants thrashes a too-small cache, and
      this counter is how that shows up in telemetry).

    The counters are read-through properties over local instruments,
    mirrored into the active :mod:`repro.obs` registry as
    ``cache.factorizations`` / ``cache.hits`` / ``cache.misses`` /
    ``cache.evictions`` / ``cache.pinned_overflow`` /
    ``cache.single_flight_waits``; the resident factor footprint is
    published as the ``cache.factor_bytes`` gauge.

    **Concurrency.**  The cache is thread-safe: lookup, insertion,
    eviction, and lease bookkeeping run under one lock, and factorization
    is *single-flight* -- when N threads miss on the same signature at
    once, exactly one builds the system (outside the lock, so unrelated
    geometries factorize in parallel) while the others block on a
    per-key event and then pick the shared entry up as a hit (counted
    in ``single_flight_waits``).  This is what lets a long-running
    service promote one cache to a cross-request shared resource: N
    concurrent requests for a popular grid pay exactly one LU.

    **Leases and capacity.**  ``max_entries`` bounds the entry count and
    the optional ``max_bytes`` the resident factor footprint.  A caller
    holds an entry with ``with cache.lease(stack) as planes:``; holds are
    counted per entry and LRU eviction skips held entries, so
    ``factor_bytes`` counts every system in use.  When every eviction
    candidate is leased the cache *does* exceed its bounds (holders need
    their systems regardless) but counts the event in
    ``pinned_overflow`` instead of growing silently; the last release on
    an entry runs the deferred eviction.

    Cached systems are built with ``pillar_rows=True`` (the batched
    engine needs the pillar rows).  NOTE: a cached system's *base*
    right-hand sides belong to the stack it was first built from;
    callers reusing a system for a same-geometry stack with different
    loads must pass explicit ``b_free``/``b_pillar`` (the batched solver
    always does).
    """

    def __init__(self, max_entries: int = 8, *, max_bytes: int | None = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None)")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        #: LRU order, oldest first; a hit moves its key to the end in
        #: place, so a held entry never leaves the mapping.
        self._entries: OrderedDict[bytes, ReducedPlaneSystem] = OrderedDict()
        #: Footprint recorded at insert time -- eviction bookkeeping must
        #: subtract exactly what was added, even under concurrent churn.
        self._entry_bytes: dict[bytes, int] = {}
        #: Live holds per key (see :meth:`lease`); held keys never evict.
        self._leases: dict[bytes, int] = {}
        #: In-flight factorizations: key -> event the builder sets once
        #: the entry is resident (or the build failed).
        self._building: dict[bytes, threading.Event] = {}
        self._factorizations = Counter("cache.factorizations")
        self._hits = Counter("cache.hits")
        self._misses = Counter("cache.misses")
        self._evictions = Counter("cache.evictions")
        self._pinned_overflow = Counter("cache.pinned_overflow")
        self._single_flight_waits = Counter("cache.single_flight_waits")
        self._factor_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def factorizations(self) -> int:
        return self._factorizations.value

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def pinned_overflow(self) -> int:
        """Times the cache went (or stayed) over capacity because every
        eviction candidate was leased."""
        return self._pinned_overflow.value

    @property
    def single_flight_waits(self) -> int:
        """Lookups that blocked on another thread's in-flight
        factorization of the same signature instead of building."""
        return self._single_flight_waits.value

    @property
    def factor_bytes(self) -> int:
        """Bytes held by currently resident cached systems."""
        return self._factor_bytes

    def get(self, stack: PowerGridStack) -> ReducedPlaneSystem:
        """Return the shared plane system for ``stack``'s geometry,
        factorizing (and counting) only on a signature miss.

        Thread-safe and single-flight: concurrent misses on one
        signature factorize once; the waiters count as hits (plus a
        ``single_flight_waits`` tally).  Holds nothing (see :meth:`lease`).
        """
        return self._lookup(stack_plane_signature(stack), stack, hold=False)

    @contextmanager
    def lease(self, stack: PowerGridStack):
        """``with cache.lease(stack) as planes:`` -- :meth:`get`, then
        hold the entry until the block exits, exceptions included.  Each
        holder counts: a held entry is never evicted, and the last
        release runs any eviction the holds deferred."""
        key = stack_plane_signature(stack)
        system = self._lookup(key, stack, hold=True)
        try:
            yield system
        finally:
            self._release(key)

    def _lookup(
        self, key: bytes, stack: PowerGridStack, hold: bool
    ) -> ReducedPlaneSystem:
        while True:
            with self._lock:
                system = self._entries.get(key)
                if system is not None:
                    self._hits.add()
                    obs.add("cache.hits")
                    self._entries.move_to_end(key)
                    if hold:
                        self._leases[key] = self._leases.get(key, 0) + 1
                    return system
                in_flight = self._building.get(key)
                if in_flight is None:
                    # This thread builds; peers landing on the same key
                    # block on the event until the entry is resident.
                    self._building[key] = threading.Event()
                    self._misses.add()
                    obs.add("cache.misses")
                    break
            self._single_flight_waits.add()
            obs.add("cache.single_flight_waits")
            in_flight.wait()
            # Loop: normally a hit now; if the entry was already evicted
            # (or the peer's build failed) this thread becomes the builder.
        try:
            system = ReducedPlaneSystem(
                stack, factorize=True, pillar_rows=True
            )
        except BaseException:
            with self._lock:
                self._building.pop(key).set()  # release waiters to retry
            raise
        with self._lock:
            self._factorizations.add(system.n_factorizations)
            obs.add("cache.factorizations", system.n_factorizations)
            nbytes = system.memory_bytes
            self._entries[key] = system
            self._entry_bytes[key] = nbytes
            self._factor_bytes += nbytes
            if hold:
                self._leases[key] = self._leases.get(key, 0) + 1
            self._evict_over_capacity(protect=key)
            obs.set_gauge("cache.factor_bytes", self._factor_bytes)
            self._building.pop(key).set()
        return system

    def _over_capacity(self) -> bool:
        return len(self._entries) > self.max_entries or (
            self.max_bytes is not None
            and self._factor_bytes > self.max_bytes
        )

    def _evict_over_capacity(self, protect: bytes | None = None) -> None:
        """LRU-evict unleased entries until within bounds (caller holds
        the lock).  ``protect`` shields the entry being inserted.  When
        no candidate remains the overflow is counted, not hidden -- the
        deferred eviction happens when a last lease is released."""
        while self._over_capacity():
            victim = next(
                (
                    k
                    for k in self._entries
                    if k not in self._leases and k != protect
                ),
                None,
            )
            if victim is None:
                # Every evictable entry is leased: one-off geometries
                # (fresh wire-field draws) churning a fully-held cache
                # used to grow it silently past max_entries.
                self._pinned_overflow.add()
                obs.add("cache.pinned_overflow")
                break
            self._factor_bytes -= self._entry_bytes.pop(victim)
            del self._entries[victim]
            self._evictions.add()
            obs.add("cache.evictions")

    def _release(self, key: bytes) -> None:
        """Drop one hold on ``key``; the last one makes the entry
        evictable again and runs the eviction it deferred."""
        with self._lock:
            holds = self._leases.pop(key) - 1
            if holds:
                self._leases[key] = holds
            elif self._over_capacity():
                self._evict_over_capacity()
                obs.set_gauge("cache.factor_bytes", self._factor_bytes)
