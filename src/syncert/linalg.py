"""Symmetric-matrix eigenvalue routines built on cyclic Jacobi rotations.

Every spectral quantity in the certificate pipeline funnels through
``jacobi_eigenvalues`` so that results are reproducible and the failure mode
(a sweep cap) is explicit rather than an opaque LAPACK error code.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "JacobiConvergenceError",
    "jacobi_eigenvalues",
]


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
        If the input is not a square symmetric matrix.
    JacobiConvergenceError
        If ``max_sweeps`` sweeps do not reach the tolerance; the message
        carries the residual off-diagonal norm for diagnosis.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise ValueError("matrix is empty")
    span = max(1.0, float(np.abs(a).max()))
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * span):
        raise ValueError("matrix is not symmetric")
    a = 0.5 * (a + a.T)  # fold roundoff asymmetry before rotating
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
