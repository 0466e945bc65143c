"""Jacobi eigenvalue solver against known spectra and numpy's LAPACK route."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncert.linalg import (
    JacobiConvergenceError,
    jacobi_eigenvalues,
)

# agreement with the independent LAPACK route, relative to the spectral scale
CROSS_CHECK_RTOL = 1e-9


def _spread(values: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(values))))


def test_diagonal_matrix_is_sorted_passthrough():
    vals = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert vals.tolist() == [-1.0, 2.0, 3.0]


def test_two_by_two_known_spectrum():
    vals = jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [1.0, 3.0], rtol=0.0, atol=1e-12)


def test_one_by_one_shortcut():
    assert jacobi_eigenvalues(np.array([[4.5]])).tolist() == [4.5]


def test_eigenvalues_sum_to_trace():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6))
    a = a + a.T
    vals = jacobi_eigenvalues(a)
    assert vals[0] <= vals[-1]
    assert np.all(np.diff(vals) >= 0.0)
    assert np.isclose(vals.sum(), np.trace(a), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_matches_lapack_on_random_symmetric(n):
    rng = np.random.default_rng(100 + n)
    a = rng.normal(size=(n, n))
    a = 0.5 * (a + a.T)
    ours = jacobi_eigenvalues(a)
    ref = np.linalg.eigvalsh(a)
    assert np.max(np.abs(ours - ref)) <= CROSS_CHECK_RTOL * _spread(ref)


@given(n=st.integers(min_value=2, max_value=7),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_property_matches_lapack(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5.0, 5.0, size=(n, n))
    a = 0.5 * (a + a.T)
    ours = jacobi_eigenvalues(a)
    ref = np.linalg.eigvalsh(a)
    assert np.max(np.abs(ours - ref)) <= CROSS_CHECK_RTOL * _spread(ref)


def test_positive_definite_gram_matrix_stays_positive():
    rng = np.random.default_rng(11)
    b = rng.normal(size=(5, 5))
    gram = b @ b.T + 0.5 * np.eye(5)
    eigs = jacobi_eigenvalues(gram)
    assert eigs[0] > 0.0
    assert eigs[-1] >= eigs[0]


def test_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        jacobi_eigenvalues(np.zeros((2, 3)))


def test_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_convergence_failure_reports_residual():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(JacobiConvergenceError, match="sweep"):
        jacobi_eigenvalues(a, max_sweeps=0)
