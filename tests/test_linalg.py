"""The Jacobi test oracle against known spectra and numpy's LAPACK route,
and the LAPACK-backed certificate solver against the Jacobi oracle; both
share the package's one input check."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import JacobiConvergenceError, complete_graph, jacobi_eigenvalues
from syncert.graphs import assemble_pd_matrix
from syncert.linalg import symmetric_eigenvalues

# agreement with the independent LAPACK route, relative to the spectral scale
CROSS_CHECK_RTOL = 1e-9


def _spread(values: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(values))))


def _assert_matches_oracle(a: np.ndarray) -> None:
    ours = symmetric_eigenvalues(a)
    ref = jacobi_eigenvalues(a)
    assert np.all(np.diff(ours) >= 0.0)
    assert np.max(np.abs(ours - ref)) <= CROSS_CHECK_RTOL * _spread(ref)


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


@given(n=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_property_matches_lapack(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5.0, 5.0, size=(n, n))
    _assert_matches_oracle(0.5 * (a + a.T))


def test_positive_definite_gram_matrix_stays_positive():
    rng = np.random.default_rng(11)
    b = rng.normal(size=(5, 5))
    gram = b @ b.T + 0.5 * np.eye(5)
    eigs = jacobi_eigenvalues(gram)
    assert eigs[0] > 0.0
    assert eigs[-1] >= eigs[0]


def test_symmetric_eigenvalues_match_jacobi_on_k15_form():
    rng = np.random.default_rng(15)
    g = complete_graph(15)
    a = assemble_pd_matrix(g, rng.uniform(-0.2, 0.0, size=g.n),
                           rng.uniform(0.5, 5.0, size=g.edge_count))
    assert a.shape == (105, 105)
    _assert_matches_oracle(a)


def _rejected_alike(matrix, match: str) -> None:
    """Both solvers raise ``ValueError`` with one and the same message."""
    messages = []
    for solve in (jacobi_eigenvalues, symmetric_eigenvalues):
        with pytest.raises(ValueError, match=match) as info:
            solve(matrix)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_rejects_nonsquare():
    _rejected_alike(np.zeros((2, 3)), "square")


def test_rejects_asymmetric():
    _rejected_alike(np.array([[0.0, 1.0], [2.0, 0.0]]), "symmetric")


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_symmetry_tolerance_is_relative_to_the_largest_entry(scale):
    def pair(skew):
        return scale * np.array([[1.0, 0.5], [0.5 + skew, 0.25]])

    symmetric_eigenvalues(pair(0.5e-12))  # folded, not rejected
    _rejected_alike(pair(2e-12), "symmetric")


def test_rejects_empty():
    _rejected_alike(np.zeros((0, 0)), "empty")


@pytest.mark.parametrize("matrix", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, np.inf], [np.inf, 1.0]],
], ids=["nan", "inf_diagonal", "inf_offdiagonal_pair"])
def test_rejects_nonfinite(matrix):
    _rejected_alike(np.array(matrix), "non-finite")


def test_convergence_failure_reports_residual():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(JacobiConvergenceError, match="sweep"):
        jacobi_eigenvalues(a, max_sweeps=0)
