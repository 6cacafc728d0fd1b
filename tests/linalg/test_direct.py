"""DirectSolver: input validation, the symmetric (``spd=True``) path
against the general one, and the fill the plane systems pay."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core.planes import ReducedPlaneSystem
from repro.errors import SingularSystemError
from repro.grid.conductance import grid2d_matrix
from repro.grid.generators import synthesize_stack, synthesize_tier
from repro.grid.pads import place_pads
from repro.linalg.direct import DirectSolver

RTOL = 1e-12


def laplacian(n: int = 6) -> sp.csr_matrix:
    """1-D chain Laplacian grounded at one end (SPD)."""
    main = np.full(n, 2.0)
    main[-1] = 1.0
    off = -np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


class TestValidation:
    def test_non_square_matrix_raises(self):
        with pytest.raises(SingularSystemError, match="square"):
            DirectSolver(sp.csr_matrix(np.ones((3, 4))))

    def test_bad_trans_raises(self):
        with pytest.raises(SingularSystemError, match="trans"):
            DirectSolver(laplacian()).solve(np.ones(6), trans="H")

    def test_rhs_ndim_raises(self):
        with pytest.raises(SingularSystemError, match="ndim"):
            DirectSolver(laplacian()).solve(np.ones((6, 2, 1)))

    def test_rhs_length_raises(self):
        with pytest.raises(SingularSystemError, match="entries"):
            DirectSolver(laplacian()).solve(np.ones(5))

    @pytest.mark.parametrize("spd", [False, True])
    def test_empty_column_batch(self, spd):
        x = DirectSolver(laplacian(), spd=spd).solve(np.empty((6, 0)))
        assert x.shape == (6, 0)


def padded_grid_laplacian(rows, cols, jitter, scheme, seed) -> sp.csr_matrix:
    tier = synthesize_tier(rows, cols, jitter_sigma=jitter, rng=seed)
    return grid2d_matrix(place_pads(tier, scheme))[0]


def assert_close(actual, expected):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= RTOL * scale


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(2, 14),
    cols=st.integers(2, 14),
    jitter=st.floats(0.0, 0.3),
    scheme=st.sampled_from(["corners", "center", "ring"]),
    k=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_spd_path_matches_default(rows, cols, jitter, scheme, k, seed):
    matrix = padded_grid_laplacian(rows, cols, jitter, scheme, seed)
    general = DirectSolver(matrix)
    symmetric = DirectSolver(matrix, spd=True)
    rng = np.random.default_rng(seed)
    for b in (rng.normal(size=matrix.shape[0]),
              rng.normal(size=(matrix.shape[0], k))):
        for trans in ("N", "T"):
            assert_close(
                symmetric.solve(b, trans=trans), general.solve(b, trans=trans)
            )


def test_plane_factor_has_at_most_half_the_default_fill():
    stack = synthesize_stack(40, 40, 3, rng=0)
    system = ReducedPlaneSystem(stack)
    matrix = system.planes[0][0]
    a_ff = matrix[system.free][:, system.free]
    assert system.a_ff[0].factor_nnz <= DirectSolver(a_ff).factor_nnz / 2
