"""Symmetric-matrix eigenvalues behind one validated input check.

Every certificate spectrum is solved by ``symmetric_eigenvalues``, LAPACK's
``eigvalsh`` on a matrix that has passed ``_checked_symmetric``.
``jacobi_eigenvalues``, a cyclic Jacobi iteration with an explicit sweep
cap, shares that check and is kept as the independent reference that
``graphs.pd_oracle`` and the tests compare against.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "JacobiConvergenceError",
    "jacobi_eigenvalues",
    "symmetric_eigenvalues",
]


class JacobiConvergenceError(RuntimeError):
    """Rotation sweeps hit the cap before the off-diagonal mass vanished."""


def _offdiagonal_norm(a: np.ndarray) -> float:
    lower = np.tril(a, -1)
    return math.sqrt(2.0 * float(np.sum(lower * lower)))


def _checked_symmetric(matrix) -> np.ndarray:
    """``matrix`` as a float array, checked to be finite, non-empty, square
    and symmetric to ``1e-12`` of its largest entry, then folded to exact
    symmetry with ``0.5 * (a + a.T)``."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrix is empty")
    # before the symmetry test, whose tolerance is infinite on an inf entry
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    span = max(1.0, float(np.abs(a).max()))
    # np.allclose(a, a.T, rtol=0, atol=...) on finite entries, at a third
    # of its cost on the small forms of a slope scan
    if float(np.abs(a - a.T).max()) > 1e-12 * span:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (a + a.T)


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted ascending.

    LAPACK's ``eigvalsh`` (backward stable, so each eigenvalue is within
    O(machine epsilon * ||matrix||) of the exact one) after the same input
    checks as :func:`jacobi_eigenvalues`.

    Raises
    ------
    ValueError
        If the input is not a finite, non-empty, square symmetric matrix.
    numpy.linalg.LinAlgError
        If LAPACK does not converge (a ``ValueError`` subclass).
    """
    return np.linalg.eigvalsh(_checked_symmetric(matrix))


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
