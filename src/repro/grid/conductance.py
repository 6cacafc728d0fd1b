"""Sparse conductance-matrix assembly for tiers and stacks.

All functions return ``scipy.sparse`` CSR matrices and dense RHS vectors for
the nodal system ``G x = b`` under the sign conventions documented in
:mod:`repro.grid.grid2d`.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from repro.errors import GridError
from repro.grid.grid2d import Grid2D
from repro.grid.stack3d import PowerGridStack


def tier_edges(grid: Grid2D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All wire segments of one tier as flat node-index pairs.

    Returns ``(u, v, g)`` arrays where segment ``k`` connects local nodes
    ``u[k]`` and ``v[k]`` with conductance ``g[k]``.
    """
    rows, cols = grid.rows, grid.cols
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    parts_u, parts_v, parts_g = [], [], []
    if cols > 1:
        parts_u.append(idx[:, :-1].ravel())
        parts_v.append(idx[:, 1:].ravel())
        parts_g.append(grid.g_h.ravel())
    if rows > 1:
        parts_u.append(idx[:-1, :].ravel())
        parts_v.append(idx[1:, :].ravel())
        parts_g.append(grid.g_v.ravel())
    if not parts_u:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0)
    return (
        np.concatenate(parts_u),
        np.concatenate(parts_v),
        np.concatenate(parts_g),
    )


def _laplacian_from_edges(
    n: int, u: np.ndarray, v: np.ndarray, g: np.ndarray, diag_extra: np.ndarray
) -> sp.csr_matrix:
    """Weighted graph Laplacian plus an extra diagonal term, as CSR."""
    rows = np.concatenate([u, v, u, v])
    cols = np.concatenate([v, u, u, v])
    data = np.concatenate([-g, -g, g, g])
    lap = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    if np.any(diag_extra):
        lap = lap + sp.diags(diag_extra, format="csr")
    lap.sum_duplicates()
    return lap


@functools.lru_cache(maxsize=8)
def stencil_pattern(rows: int, cols: int) -> tuple[np.ndarray, ...]:
    """CSR pattern of the 5-point stencil on a ``rows x cols`` lattice.

    Each node's row stores its north ``(i-1, j)``, west ``(i, j-1)``,
    own, east ``(i, j+1)`` and south ``(i+1, j)`` slots, in that
    (column) order, for the neighbours that exist.  Returns read-only
    ``(present, indices, indptr)``, where ``present`` is the ``(rows,
    cols, 5)`` mask of existing slots: ``values[present]`` lists a slot
    array's stored entries in CSR order.
    """
    n = rows * cols
    present = np.ones((rows, cols, 5), dtype=bool)
    present[0, :, 0] = present[:, 0, 1] = False
    present[:, -1, 3] = present[-1, :, 4] = False
    node = np.arange(n).reshape(rows, cols, 1)
    index_dtype = np.int32 if 5 * n < 2**31 else np.int64
    indices = (node + np.array([-cols, -1, 0, 1, cols]))[present].astype(index_dtype)
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.cumsum(np.count_nonzero(present, axis=2).ravel(), out=indptr[1:])
    for array in (present, indices, indptr):
        array.flags.writeable = False
    return present, indices, indptr


def grid2d_matrix(grid: Grid2D) -> tuple[sp.csr_matrix, np.ndarray]:
    """Full nodal system ``(G, b)`` of a stand-alone tier.

    ``G`` includes pad conductances on the diagonal; ``b`` carries the pad
    rail injection minus the device loads.  ``G`` is singular when the tier
    has no pads (no DC path to a rail) -- callers that need a solvable
    system should check :func:`repro.grid.validate.validate_grid2d`.

    ``G`` is written straight into the :func:`stencil_pattern` and is
    bitwise the Laplacian of the tier's edge list (``tier_edges``): the
    diagonal sums ``((E + S) + W) + N`` and then the pad, and only a
    tier with pads drops its zero entries (open wires).
    """
    rows, cols, n = grid.rows, grid.cols, grid.n_nodes
    # Edge conductance per slot; -0.0 marks a missing neighbour, which
    # leaves the diagonal sum unchanged bit for bit.
    slots = np.full((rows, cols, 5), -0.0)
    slots[1:, :, 0] = grid.g_v
    slots[:, 1:, 1] = grid.g_h
    slots[:, :-1, 3] = grid.g_h
    slots[:-1, :, 4] = grid.g_v
    diag = ((slots[..., 3] + slots[..., 4]) + slots[..., 1]) + slots[..., 0]
    pads = bool(np.any(grid.g_pad))
    if pads:
        diag += grid.g_pad
    np.negative(slots, out=slots)
    slots[..., 2] = diag
    present, indices, indptr = stencil_pattern(rows, cols)
    lap = sp.csr_matrix(
        (slots[present], indices.copy(), indptr.copy()), shape=(n, n)
    )
    if pads or n == 1:
        # `lap + diags` stored no zeros; a lone node has no edge at all.
        lap.eliminate_zeros()
    b = grid.g_pad.ravel() * grid.v_pad - grid.loads.ravel()
    return lap, b


def grid2d_system(
    grid: Grid2D,
    dirichlet_mask: np.ndarray | None = None,
    dirichlet_values: np.ndarray | None = None,
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Reduced system for the free nodes of a tier.

    Parameters
    ----------
    dirichlet_mask:
        Boolean ``(rows, cols)`` mask of nodes held at fixed voltages (e.g.
        TSV nodes during the VP intra-plane phase).  ``None`` means no
        constrained nodes.
    dirichlet_values:
        ``(rows, cols)`` voltages; only entries under the mask are read.

    Returns
    -------
    (A, b, free_index):
        ``A`` is the ``(F, F)`` system over free nodes, ``b`` the matching
        RHS with Dirichlet couplings folded in, and ``free_index`` the flat
        node indices of the free nodes (so ``x_full[free_index] = x``).
    """
    full, b_full = grid2d_matrix(grid)
    n = grid.n_nodes
    if dirichlet_mask is None:
        return full, b_full, np.arange(n, dtype=np.int64)
    mask = np.asarray(dirichlet_mask, dtype=bool).ravel()
    if mask.shape != (n,):
        raise GridError(
            f"dirichlet mask has {mask.size} entries, expected {n}"
        )
    if dirichlet_values is None:
        raise GridError("dirichlet_values required when dirichlet_mask is given")
    values = np.asarray(dirichlet_values, dtype=float).ravel()
    free = np.flatnonzero(~mask)
    fixed = np.flatnonzero(mask)
    a_ff = full[free][:, free].tocsr()
    coupling = full[free][:, fixed]
    b = b_full[free] - coupling @ values[fixed]
    return a_ff, b, free


def stack_node_index(
    stack: PowerGridStack, tier: int, i: int, j: int
) -> int:
    """Global node index of lattice position ``(i, j)`` on ``tier``."""
    if not (0 <= tier < stack.n_tiers):
        raise GridError(f"tier {tier} outside stack of {stack.n_tiers} tiers")
    return tier * stack.rows * stack.cols + stack.tiers[tier].node_index(i, j)


def stack_system(stack: PowerGridStack) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble the full 3-D nodal system ``(G, b)`` of a stack.

    Global node ordering is tier-major (tier 0 = bottommost first), row-major
    within a tier.  Package pins are ideal sources: the topmost TSV segment
    of every pillar is folded into the diagonal and RHS, so pins do not
    appear as unknowns.
    """
    per_tier = stack.rows * stack.cols
    n = stack.n_nodes
    flat_pillars = stack.pillar_flat_indices()
    r_seg = stack.pillars.r_seg

    parts_u, parts_v, parts_g = [], [], []
    diag_extra = np.zeros(n)
    b = np.zeros(n)

    for l, tier in enumerate(stack.tiers):
        offset = l * per_tier
        u, v, g = tier_edges(tier)
        parts_u.append(u + offset)
        parts_v.append(v + offset)
        parts_g.append(g)
        local_diag = tier.g_pad.ravel()
        diag_extra[offset : offset + per_tier] += local_diag
        b[offset : offset + per_tier] += (
            local_diag * tier.v_pad - tier.loads.ravel()
        )

    # Inter-tier TSV segments.
    for l in range(stack.n_tiers - 1):
        g_seg = 1.0 / r_seg[l]
        parts_u.append(l * per_tier + flat_pillars)
        parts_v.append((l + 1) * per_tier + flat_pillars)
        parts_g.append(g_seg)

    # Topmost segment to the pins (ideal v_pin rail); only pillars that
    # actually reach a pin contribute.
    pinned = stack.pillars.has_pin
    top = (stack.n_tiers - 1) * per_tier + flat_pillars[pinned]
    g_top = 1.0 / r_seg[stack.n_tiers - 1][pinned]
    diag_extra[top] += g_top
    b[top] += g_top * stack.v_pin

    u = np.concatenate(parts_u) if parts_u else np.empty(0, dtype=np.int64)
    v = np.concatenate(parts_v) if parts_v else np.empty(0, dtype=np.int64)
    g = np.concatenate(parts_g) if parts_g else np.empty(0)
    lap = _laplacian_from_edges(n, u, v, g, diag_extra)
    return lap, b


def stack_voltage_array(stack: PowerGridStack, x: np.ndarray) -> np.ndarray:
    """Reshape a flat global solution vector to ``(T, rows, cols)``."""
    expected = stack.n_nodes
    x = np.asarray(x, dtype=float)
    if x.shape != (expected,):
        raise GridError(f"solution has shape {x.shape}, expected ({expected},)")
    return x.reshape(stack.n_tiers, stack.rows, stack.cols)
