"""Independent reference routes and graph fixtures for the test suite.

The package solves every certificate spectrum with LAPACK's ``eigvalsh``
(:func:`syncert.linalg.symmetric_eigenvalues`).  The cyclic Jacobi solver
here shares its input check but nothing else, so the tests can cross-check
the spectra, and :func:`pd_oracle` the per-edge slack verdict, along a
second route.  The graph builders make seeded fixtures.
"""

from __future__ import annotations

import math

import numpy as np

from syncert.graphs import Graph, assemble_pd_matrix, build_graph
from syncert.linalg import _checked_symmetric


class JacobiConvergenceError(RuntimeError):
    """Rotation sweeps hit the cap before the off-diagonal mass vanished."""


def _offdiagonal_norm(a: np.ndarray) -> float:
    lower = np.tril(a, -1)
    return math.sqrt(2.0 * float(np.sum(lower * lower)))


def jacobi_eigenvalues(matrix, tol: float = 1e-10, max_sweeps: int = 50) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted ascending.

    Cyclic-by-row Jacobi iteration: each sweep annihilates every off-diagonal
    entry once and converges quadratically.  ``tol`` bounds the remaining
    off-diagonal Frobenius mass relative to the input scale, so each returned
    eigenvalue is within roughly ``tol * scale`` of the exact one.

    Raises
    ------
    ValueError
        If the input is not a finite, non-empty, square symmetric matrix.
    JacobiConvergenceError
        If ``max_sweeps`` sweeps do not reach the tolerance; the message
        carries the residual off-diagonal norm for diagnosis.
    """
    a = _checked_symmetric(matrix)
    n = a.shape[0]
    if n == 1:
        return a[0].copy()

    scale = max(1.0, float(np.linalg.norm(a)))
    off = _offdiagonal_norm(a)
    for _ in range(max_sweeps):
        if off <= tol * scale:
            return np.sort(np.diagonal(a).copy())
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
        off = _offdiagonal_norm(a)
    raise JacobiConvergenceError(
        f"off-diagonal norm {off:.3e} still above {tol * scale:.3e} "
        f"after {max_sweeps} sweeps"
    )


def pd_oracle(g: Graph, node_weights, edge_weights, tol: float = 1e-10) -> float:
    """Smallest eigenvalue of ``D.T @ diag(mu) @ D + diag(sigma)``.

    Independent spectral route against which the
    :func:`~syncert.graphs.edge_slacks` verdict is validated; uses the Jacobi
    solver above, never LAPACK.
    """
    if g.edge_count == 0:
        raise ValueError("graph has no edges, the edge-space matrix is empty")
    return float(jacobi_eigenvalues(assemble_pd_matrix(g, node_weights, edge_weights),
                                    tol=tol)[0])


def complete_graph(n: int) -> Graph:
    """Complete graph on ``n`` nodes."""
    return build_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def erdos_renyi_graph(n: int, edge_prob: float, rng: np.random.Generator,
                      require_connected: bool = False, max_tries: int = 1000) -> Graph:
    """Seeded Erdos-Renyi sample, optionally resampled until connected; the
    ``rng`` argument keeps draws reproducible."""
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError(f"edge probability must lie in [0, 1], got {edge_prob}")
    for _ in range(max_tries):
        edges = [(i, j)
                 for i in range(1, n + 1)
                 for j in range(i + 1, n + 1)
                 if rng.random() < edge_prob]
        g = build_graph(n, edges)
        if not require_connected or g.is_connected:
            return g
    raise RuntimeError(
        f"no connected sample in {max_tries} tries (n={n}, edge_prob={edge_prob})"
    )
