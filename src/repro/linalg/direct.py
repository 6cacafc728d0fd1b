"""Direct sparse solver (LU) used as the gold reference.

Also the computational core of the SPICE DC engine: SPICE's ``.op`` on a
resistive network is exactly one sparse LU factorization + solve of the
MNA system.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SingularSystemError


#: Smallest share of the rows a leading diagonal block must hold before
#: ``DirectSolver(spd=True)`` eliminates it ahead of the LU.  On 173 x 173
#: tiers mixing TSV pitch 2 and 3, condensing a 30% share made 8-column
#: solves 8-25% slower than the whole LU and a 40% share 2-13% slower;
#: at 48% every factorization and solve was faster.
CONDENSE_MIN_SHARE = 0.45


class DirectSolver:
    """Sparse LU with an explicit factorization step.

    Keeping the factorization makes repeated solves with new right-hand
    sides cheap and lets callers account for factor fill-in (the memory
    story behind the paper's SPICE out-of-memory column).

    The default is SuperLU's general path (COLAMD column ordering plus
    partial pivoting), which the MNA systems of :mod:`repro.spice` need:
    their voltage-source rows have zero diagonals.  ``spd=True`` declares
    the matrix symmetric positive definite -- the reduced plane systems
    ``A_ff`` of the VP method -- and factors it with a symmetric
    minimum-degree ordering and diagonal pivots instead.

    **Condensed factorization** (``spd=True`` only).  When the matrix
    opens with a diagonal block ``D`` -- no off-diagonal entry among its
    first ``k`` rows and columns -- of at least
    :data:`CONDENSE_MIN_SHARE` of the rows, ``D`` is eliminated exactly
    before the LU.  With ``A = [[D, B], [C, E]]`` only the Schur
    complement ``S = E - C D^-1 B`` is factored (SPD again, so it takes
    the same symmetric path), and a solve runs two block steps::

        x_o = S^-1 (b_o - C D^-1 b_e)
        x_e = D^-1 (b_e - B x_o)

    ``trans="T"`` uses the transposed coupling blocks and ``S^-T``.
    :class:`repro.core.planes.ReducedPlaneSystem` orders the nodes
    between two adjacent pillars first.  At the paper's TSV pitch 2 that
    is 67% of a plane's free nodes, and a C1 tier's LU shrinks from
    22,360 to 7,396 unknowns.  At pitches 3 and 4 only ~1% of the rows
    qualify, too few to pay for the extra solve steps; below the cut-off
    the matrix is factored whole.
    """

    def __init__(self, matrix: sp.spmatrix, *, spd: bool = False):
        csc = sp.csc_matrix(matrix)
        if csc.shape[0] != csc.shape[1]:
            raise SingularSystemError(
                f"matrix must be square, got {csc.shape}"
            )
        self.n = csc.shape[0]
        self.matrix_nnz = int(csc.nnz)
        #: Leading rows eliminated ahead of the LU (0: none).
        self.n_eliminated = 0
        if spd:
            if not csc.has_canonical_format:
                csc = csc.copy()
                csc.sum_duplicates()
            k = _diagonal_lead(csc)
            if k and k >= CONDENSE_MIN_SHARE * self.n:
                csc = self._condense(csc, k)
        if self.n and self.n_eliminated == self.n:
            self._lu = None  # a diagonal matrix leaves nothing to factor
            return
        try:
            if spd:
                # Symmetric positive definite: order A + A^T with minimum
                # degree and keep the diagonal pivots.  Every leading
                # block of an SPD matrix is nonsingular, so no row swap
                # is ever needed and the symmetric ordering survives
                # intact (~3.7x less fill than COLAMD on a plane system).
                self._lu = spla.splu(
                    csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            else:
                self._lu = spla.splu(csc)
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SingularSystemError(f"LU factorization failed: {exc}") from exc

    def _condense(self, csc: sp.csc_matrix, k: int) -> sp.csc_matrix:
        """Keep ``D^-1`` and the scaled coupling blocks ``C D^-1`` and
        ``D^-1 B``; return ``S``."""
        d = csc.diagonal()[:k]
        if not (np.all(np.isfinite(d)) and np.all(d != 0.0)):
            raise SingularSystemError(
                "zero or non-finite pivot in the eliminated diagonal block"
            )
        d_inv = 1.0 / d
        m = self.n - k
        # With sorted indices and every pivot stored, each of the first
        # k columns holds its pivot first and then only rows >= k.
        indptr, indices, data = csc.indptr, csc.indices, csc.data
        # C: the first k columns without their pivots.
        split = indptr[k]
        below = np.ones(split, dtype=bool)
        below[indptr[:k]] = False
        c_ptr = indptr[: k + 1] - np.arange(k + 1)
        c_scaled = sp.csc_matrix(
            (
                data[:split][below] * np.repeat(d_inv, np.diff(c_ptr)),
                indices[:split][below] - k,
                c_ptr,
            ),
            shape=(m, k),
        )
        # B and E: the rows < k and >= k of the last m columns.
        rows, vals = indices[split:], data[split:]
        upper = rows < k
        b_ptr = np.concatenate(([0], np.cumsum(upper)))[indptr[k:] - split]
        b_rows = rows[upper]
        b_block = sp.csc_matrix((vals[upper], b_rows, b_ptr), shape=(k, m))
        b_scaled = sp.csc_matrix(
            (b_block.data * d_inv[b_rows], b_rows, b_ptr), shape=(k, m)
        )
        e_block = sp.csc_matrix(
            (vals[~upper], rows[~upper] - k, indptr[k:] - split - b_ptr),
            shape=(m, m),
        )
        self.n_eliminated = k
        self._d_inv = d_inv
        #: trans -> (block applied to b_e, block applied to x_o).
        self._coupling = {
            "N": (c_scaled, b_scaled),
            "T": (b_scaled.T, c_scaled.T),
        }
        return e_block - c_scaled @ b_block

    @property
    def factor_nnz(self) -> int:
        """Non-zeros in the L and U factors (fill-in included), plus the
        pivots and coupling blocks of an eliminated leading block."""
        nnz = 0 if self._lu is None else int(self._lu.nnz)
        if self.n_eliminated:
            nnz += self.n_eliminated
            nnz += sum(block.nnz for block in self._coupling["N"])
        return nnz

    @property
    def memory_bytes(self) -> int:
        """Approximate bytes held by the factors (values + indices)."""
        # Each stored factor entry carries an 8-byte value and roughly a
        # 4-byte index; permutation vectors add 2 * 4 * n.
        total = 0
        if self._lu is not None:
            total += self._lu.nnz * 12 + 8 * (self.n - self.n_eliminated)
        if self.n_eliminated:
            total += self._d_inv.nbytes + sum(
                block.data.nbytes + block.indices.nbytes + block.indptr.nbytes
                for block in self._coupling["N"]
            )
        return int(total)

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """Back-substitute one or many right-hand sides.

        ``b`` may be ``(n,)`` or ``(n, k)``; the multi-column form solves
        all ``k`` systems against the cached factorization in one call
        (the batched scenario engine's CVN hot path).

        ``trans="T"`` solves the transposed system ``A^T x = b`` against
        the *same* factors (``U^T L^T`` back-substitution) -- the adjoint
        solve of the sensitivity engine, at zero extra factorization
        cost.
        """
        if trans not in ("N", "T"):
            raise SingularSystemError(
                f"trans must be 'N' or 'T', got {trans!r}"
            )
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2):
            raise SingularSystemError(
                f"rhs must be a vector or a column matrix, got ndim={b.ndim}"
            )
        if b.shape[0] != self.n:
            raise SingularSystemError(
                f"rhs has {b.shape[0]} entries, system has {self.n}"
            )
        if b.ndim == 2 and b.shape[1] == 0:
            return np.empty_like(b)
        if self.n_eliminated:
            x = self._solve_condensed(b, trans)
        else:
            x = self._lu.solve(b, trans=trans)
        if not np.all(np.isfinite(x)):
            raise SingularSystemError(
                "direct solve produced non-finite values (singular system?)"
            )
        return x

    def _solve_condensed(self, b: np.ndarray, trans: str) -> np.ndarray:
        """The two block steps of the class docstring, written straight
        into a row-major result.  Row blocks of C-ordered arrays are
        contiguous, so both coupling products read ``b[:k]`` and ``x_o``
        without a copy; only the Schur block goes to SuperLU, which
        takes it in Fortran order.  ``b`` is only read."""
        k = self.n_eliminated
        to_rest, to_lead = self._coupling[trans]
        d_inv = self._d_inv if b.ndim == 1 else self._d_inv[:, None]
        x = np.empty(b.shape)
        x_e, x_o = x[:k], x[k:]
        np.multiply(b[:k], d_inv, out=x_e)
        if self._lu is not None:
            r = to_rest @ b[:k]
            x_o[...] = self._lu.solve(np.subtract(b[k:], r, out=r), trans=trans)
            del r  # before the second product's temporaries
            x_e -= to_lead @ x_o
        return x


def _diagonal_lead(csc: sp.csc_matrix) -> int:
    """Size of the leading diagonal block of a canonical CSC matrix: the
    smallest ``max(i, j)`` over its off-diagonal entries (``n`` when
    there are none).  Per column that is ``max(j, lowest off-diagonal
    row)``; sorted indices put that row first, or right after the
    diagonal."""
    n = csc.shape[0]
    start, end = csc.indptr[:-1], csc.indptr[1:]
    cols = np.arange(n)
    rows = np.append(csc.indices, n)  # sentinel for empty columns
    first = np.where(end > start, rows[start], n)
    pos = start + (first == cols)
    lowest = np.where(pos < end, rows[pos], n)
    return int(np.maximum(lowest, cols).min(initial=n))


def solve_direct(matrix: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """One-shot factorize-and-solve."""
    return DirectSolver(matrix).solve(b)


class TriangularOperator:
    """Fast repeated solves with one fixed triangular sparse matrix.

    ``scipy.sparse.linalg.spsolve_triangular`` re-validates its input on
    every call (milliseconds of overhead even for tiny systems); wrapping
    the matrix in a natural-order SuperLU factorization once makes each
    subsequent solve a plain C back-substitution (~30x faster on the
    benchmark grids).  Used by the Gauss-Seidel/SOR splittings and the
    SSOR/IC(0) preconditioners, where the same triangular factor is
    applied thousands of times.
    """

    def __init__(self, matrix: sp.spmatrix):
        csc = sp.csc_matrix(matrix)
        if csc.shape[0] != csc.shape[1]:
            raise SingularSystemError(
                f"matrix must be square, got {csc.shape}"
            )
        try:
            self._lu = spla.splu(
                csc, permc_spec="NATURAL",
                options={"ColPerm": "NATURAL", "DiagPivotThresh": 0.0},
            )
        except RuntimeError as exc:
            raise SingularSystemError(
                f"triangular factorization failed: {exc}"
            ) from exc
        self.n = csc.shape[0]
        self.nnz = int(csc.nnz)

    @property
    def memory_bytes(self) -> int:
        return int(self._lu.nnz * 12 + 8 * self.n)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=float))
