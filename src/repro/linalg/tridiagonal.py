"""Tridiagonal solvers for row systems.

The row-based method reduces each grid row to a tridiagonal solve; the
paper quotes the classic Thomas-algorithm cost of ``5N-4`` multiplications
and ``3(N-1)`` additions per row of ``N`` nodes.  :func:`thomas_solve` is
the reference implementation with exactly that operation count;
:class:`TridiagonalCholesky` is the production path -- a banded Cholesky
factorization computed once per distinct row matrix and reused across
sweeps with (multi-RHS) LAPACK banded solves.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.errors import ReproError, SingularSystemError


def thomas_operation_count(n: int) -> tuple[int, int]:
    """(multiplications, additions) of the Thomas algorithm on ``n``
    unknowns, as quoted by the paper for the CVN sub-function."""
    if n < 1:
        raise ReproError("row must have at least one node")
    if n == 1:
        return (1, 0)
    return (5 * n - 4, 3 * (n - 1))


def thomas_solve(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve a tridiagonal system by the Thomas algorithm (reference).

    Parameters
    ----------
    lower:
        Sub-diagonal, length ``n-1`` (``lower[i]`` couples row ``i+1`` to
        column ``i``).
    diag:
        Main diagonal, length ``n``.
    upper:
        Super-diagonal, length ``n-1``.
    rhs:
        Right-hand side, length ``n``.

    This sequential implementation exists as the executable specification
    (and for operation counting); hot paths use
    :class:`TridiagonalCholesky` or :func:`solve_tridiagonal`.
    """
    diag = np.asarray(diag, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.shape[0]
    if lower.shape[0] != n - 1 or upper.shape[0] != n - 1 or rhs.shape[0] != n:
        raise ReproError("inconsistent tridiagonal system shapes")
    c_prime = np.empty(n - 1) if n > 1 else np.empty(0)
    d_prime = np.empty(n)
    if diag[0] == 0:
        raise SingularSystemError("zero pivot in tridiagonal solve")
    if n == 1:
        return np.array([rhs[0] / diag[0]])
    c_prime[0] = upper[0] / diag[0]
    d_prime[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i - 1] * c_prime[i - 1]
        if denom == 0:
            raise SingularSystemError("zero pivot in tridiagonal solve")
        if i < n - 1:
            c_prime[i] = upper[i] / denom
        d_prime[i] = (rhs[i] - lower[i - 1] * d_prime[i - 1]) / denom
    x = np.empty(n)
    x[-1] = d_prime[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d_prime[i] - c_prime[i] * x[i + 1]
    return x


def solve_tridiagonal(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """LAPACK-backed tridiagonal solve (supports matrix RHS).

    Same system definition as :func:`thomas_solve`; ``rhs`` may be
    ``(n,)`` or ``(n, k)``.
    """
    n = np.asarray(diag).shape[0]
    if n == 1:
        return np.asarray(rhs, dtype=float) / float(np.asarray(diag)[0])
    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return sla.solve_banded((1, 1), ab, rhs)


class TridiagonalCholesky:
    """Cached Cholesky factorization of an SPD tridiagonal matrix.

    Row matrices in the row-based method are SPD (they are principal
    submatrices of the grid conductance matrix plus positive diagonal
    shifts), so a banded Cholesky factor computed once can serve every
    sweep.  ``solve`` accepts single or multi-column right-hand sides --
    the batched red-black sweep solves all same-structure rows in one call.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        """``diag`` has length ``n``; ``off`` (the symmetric off-diagonal)
        has length ``n-1``."""
        diag = np.asarray(diag, dtype=float)
        off = np.asarray(off, dtype=float)
        n = diag.shape[0]
        if off.shape[0] != max(n - 1, 0):
            raise ReproError(
                f"off-diagonal has length {off.shape[0]}, expected {n - 1}"
            )
        ab = np.zeros((2, n))
        ab[0, 1:] = off
        ab[1, :] = diag
        try:
            self._factor = sla.cholesky_banded(ab, lower=False)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"row matrix is not positive definite: {exc}"
            ) from exc
        self.n = n
        self._signature = (diag.tobytes(), off.tobytes())

    @property
    def memory_bytes(self) -> int:
        """Bytes held by the cached factor."""
        return int(self._factor.nbytes)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one RHS vector ``(n,)`` or a batch ``(n, k)``."""
        return sla.cho_solve_banded((self._factor, False), rhs)

    def matches(self, diag: np.ndarray, off: np.ndarray) -> bool:
        """True when this factor was built from exactly these coefficients
        (used to share factors between identical rows)."""
        return self._signature == (
            np.asarray(diag, dtype=float).tobytes(),
            np.asarray(off, dtype=float).tobytes(),
        )
