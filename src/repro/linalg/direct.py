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
    """

    def __init__(self, matrix: sp.spmatrix, *, spd: bool = False):
        csc = sp.csc_matrix(matrix)
        if csc.shape[0] != csc.shape[1]:
            raise SingularSystemError(
                f"matrix must be square, got {csc.shape}"
            )
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
        self.n = csc.shape[0]
        self.matrix_nnz = int(csc.nnz)

    @property
    def factor_nnz(self) -> int:
        """Non-zeros in the L and U factors (fill-in included)."""
        return int(self._lu.nnz)

    @property
    def memory_bytes(self) -> int:
        """Approximate bytes held by the factors (values + indices)."""
        # Each stored factor entry carries an 8-byte value and roughly a
        # 4-byte index; permutation vectors add 2 * 4 * n.
        return int(self._lu.nnz * 12 + 8 * self.n)

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
        x = self._lu.solve(b, trans=trans)
        if not np.all(np.isfinite(x)):
            raise SingularSystemError(
                "direct solve produced non-finite values (singular system?)"
            )
        return x


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
