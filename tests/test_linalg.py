"""The Jacobi test oracle against known spectra and numpy's LAPACK route,
and the LAPACK-backed certificate solver against the Jacobi oracle; both
share the package's one input check.  The exact positive-definiteness
oracle brackets the solver's eigenvalues within its rounding allowance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import JacobiConvergenceError, complete_graph, exact_pd, jacobi_eigenvalues
from syncert.config import config_from_dict
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


def _allowance(a: np.ndarray) -> float:
    """``4 p eps ||a||_2``, the rounding allowance of a computed eigenvalue."""
    return 4 * len(a) * np.finfo(float).eps * float(np.max(np.abs(np.linalg.eigvalsh(a))))


# an affine-sinusoid K4 whose sectors are intervals, not points
_K4_SINUSOID = {
    "graph": {"n": 4, "edges": [[i, j] for i in range(1, 5) for j in range(i + 1, 5)]},
    "agents": {"a1": 0.5, "a2": 1.0, "a3": 1.0, "b2": 1.5, "b3": 1.5, "hill": 14,
               "input_gains": [0.95, 1.0, 1.02, 1.05],
               "initial_outputs": [1.0, -0.5, 0.3, 0.0]},
    "couplings": {"kind": "affine_sinusoid", "gain": 5.0, "amplitude": 0.3,
                  "sector": {"alpha_lo": 4.7, "alpha_hi": 5.3}},
    "certification": {"theta": 2.0, "theta3": 1.5},
}


def test_exact_pd_decides_the_last_bit():
    # a zero pivot is not positive, one ulp of shift decides
    assert not exact_pd(np.ones((2, 2)))
    assert not exact_pd(np.eye(3), 1.0)
    assert exact_pd(np.eye(3), 1.0 - 2.0**-53)
    assert exact_pd([[2.0, -1.0], [-1.0, 2.0]], 1.0 - 2.0**-53)
    assert not exact_pd([[2.0, -1.0], [-1.0, 2.0]], 1.0)
    with pytest.raises(ValueError, match="symmetric bit for bit"):
        exact_pd([[1.0, 0.5], [0.5 + 2.0**-53, 1.0]])


@pytest.mark.parametrize("case", ["bundled_k5", "sinusoid_k4"])
def test_exact_pd_brackets_the_margin_eigenvalue(case, paper_certification):
    cert = (paper_certification if case == "bundled_k5"
            else config_from_dict(_K4_SINUSOID).certificate())
    a, lam = cert.forms.margin_form, cert.forms.margin_min_eig
    assert exact_pd(a, lam - _allowance(a))
    assert not exact_pd(a, lam + _allowance(a))


@st.composite
def _known_spectrum(draw):
    """A symmetric ``Q diag(values) Q^T`` with p <= 8, a seeded orthogonal
    ``Q`` and values that may repeat or crowd a shift, and a shift ``c``."""
    p = draw(st.integers(1, 8))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=p, max_size=p))
    q = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32))).normal(size=(p, p)))[0]
    a = (q * values) @ q.T
    c = draw(st.just(min(values)) | st.sampled_from(values) | st.floats(-11.0, 11.0))
    return (a + a.T) / 2, c + draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-6, -1e-6]))


@given(case=_known_spectrum())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_exact_pd_is_the_eigenvalue_verdict_away_from_the_shift(case):
    a, c = case
    least = float(np.linalg.eigvalsh(a)[0])
    # only the least eigenvalue decides whether a - c I is positive definite
    assume(abs(least - c) > _allowance(a))
    assert exact_pd(a, c) == (least > c)
