"""Symmetric-matrix eigenvalues behind one validated input check.

Every certificate spectrum is solved by ``symmetric_eigenvalues``, LAPACK's
``eigvalsh`` on a matrix that has passed ``_checked_symmetric``.  The
independent solvers that the tests compare against share that check and
live with the tests.
"""

from __future__ import annotations

import numpy as np

__all__ = ["symmetric_eigenvalues"]


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
    # of its cost on small forms
    if float(np.abs(a - a.T).max()) > 1e-12 * span:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (a + a.T)


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted ascending.

    LAPACK's ``eigvalsh`` (backward stable, so each eigenvalue is within
    O(machine epsilon * ||matrix||) of the exact one) after the input
    checks of ``_checked_symmetric``.

    Raises
    ------
    ValueError
        If the input is not a finite, non-empty, square symmetric matrix.
    numpy.linalg.LinAlgError
        If LAPACK does not converge (a ``ValueError`` subclass).
    """
    return np.linalg.eigvalsh(_checked_symmetric(matrix))
