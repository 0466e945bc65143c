"""Independent reference routes and graph fixtures for the test suite.

The package solves every certificate spectrum with LAPACK's ``eigvalsh``
(:func:`syncert.linalg.symmetric_eigenvalues`).  The cyclic Jacobi solver
here shares its input check but nothing else, so the tests can cross-check
the spectra, and :func:`pd_oracle` the per-edge slack verdict, along a
second route; :func:`exact_pd` decides positive definiteness in exact
arithmetic, with no rounding to share.  The textbook :func:`rk4_step` and :func:`goodwin_field` are
the references that the in-place integration loop of
:func:`syncert.simulation.run_batch` and its stage must match bit for bit,
:func:`edge_order_sums` the loop that every edge->node sum
(:func:`syncert.graphs.node_sums`, the stage's bincount) must match bit for
bit, and :func:`four_corner_gain_bound` the slope-box bound that
:func:`syncert.certificates.gain_bound_from_forms` must match bit for bit.
:func:`incidence` is the node-by-edge matrix ``D`` that the package never
builds, the mathematical reference of every endpoint construction.
The graph builders make seeded fixtures, and :func:`linear_network` the
network description of a certifier test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from syncert.certificates import GainBound, SectorBound
from syncert.config import NetworkConfig
from syncert.graphs import Graph, assemble_pd_matrix, build_graph
from syncert.linalg import _checked_symmetric, symmetric_eigenvalues
from syncert.simulation import CouplingSpec


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


def exact_pd(a, c: float = 0.0) -> bool:
    """Whether ``a - c I`` is positive definite, decided in exact rational
    arithmetic: an LDL^T of the float entries as :class:`fractions.Fraction`
    values, with no pivoting, whose pivots are all positive exactly when
    every leading principal minor is (Sylvester's criterion).  ``a`` must
    be symmetric bit for bit; ``c`` is taken as the float it is."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
        raise ValueError("exact_pd needs a square matrix, symmetric bit for bit")
    m = [[Fraction(x) for x in row] for row in a.tolist()]
    for i, row in enumerate(m):
        row[i] -= Fraction(c)
    for k, row in enumerate(m):
        if row[k] <= 0:
            return False
        # the Schur complement's lower triangle; column k is read, not written
        for i in range(k + 1, len(m)):
            ratio = m[i][k] / row[k]
            for j in range(k + 1, i + 1):
                m[i][j] -= ratio * m[j][k]
    return True


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


def rk4_step(field, t: float, state, dt: float):
    """One classical fourth-order Runge-Kutta step of ``state' = field(t,
    state)``."""
    k1 = field(t, state)
    k2 = field(t + 0.5 * dt, state + (0.5 * dt) * k1)
    k3 = field(t + 0.5 * dt, state + (0.5 * dt) * k2)
    k4 = field(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def edge_order_sums(g: Graph, edge_values, signed: bool = False) -> np.ndarray:
    """Per-node sums of the edge values on the last axis by a plain loop over
    the edges in edge order: ``acc[i] + v[k]`` at each edge's lower endpoint
    and ``acc[j] + v[k]``, or ``acc[j] - v[k]`` when ``signed``, at its upper
    one."""
    values = np.asarray(edge_values, dtype=float)
    out = np.zeros(values.shape[:-1] + (g.n,))
    for index in np.ndindex(values.shape[:-1]):
        row, acc = values[index].tolist(), [0.0] * g.n
        for k, (i, j) in enumerate(g.edges):
            acc[i - 1] += row[k]
            acc[j - 1] = acc[j - 1] - row[k] if signed else acc[j - 1] + row[k]
        out[index] = acc
    return out


def goodwin_field(config: NetworkConfig, x, w) -> np.ndarray:
    """The right-hand side of the network ``config`` at the node-major
    ``(n, 3)`` state ``x`` under the edge disturbances ``w``, each agent as
    :mod:`syncert.goodwin` writes it::

        x1' = -a1 x1 - f(x3) + b1 u        f(x) = -1 / (x**hill + 1)
        x2' = -a2 x2 + b2 x1
        x3' = -a3 x3 + b3 x2

    with ``u = -D v`` for ``v_k = theta_k(y_i - y_j + w_k)`` on edge ``k =
    (i, j)``, each coupling called on its own argument and ``D v`` summed by
    :func:`edge_order_sums`."""
    g, agents = config.graph, config.agents
    x1, x2, x3 = np.asarray(x, dtype=float).T
    v = np.array([coupling(x1[i - 1] - x1[j - 1] + w_k)
                  for coupling, (i, j), w_k in zip(config.couplings, g.edges, w)])
    u = -edge_order_sums(g, v, signed=True)
    f = -1.0 / (x3 ** agents.hill + 1.0)
    return np.column_stack([-agents.a1 * x1 - f + agents.input_gains * u,
                            -agents.a2 * x2 + agents.b2 * x1,
                            -agents.a3 * x3 + agents.b3 * x2])


def four_corner_gain_bound(coupling_form, output_shift, lo, hi, weight_max: float,
                           slope_max: float, bias_total: float) -> GainBound:
    """The gain bound of :func:`~syncert.certificates.gain_bound_from_forms`
    with each response-form entry bounded by the least and the greatest of
    all four corner products ``C_kl * a_k * b_l``, ``a, b`` in ``{lo, hi}``:
    the midpoint and radius of that box, then the same three solves,
    widening and gain formula."""
    c, lo, hi = (np.asarray(a, dtype=float) for a in (coupling_form, lo, hi))
    point = bool(np.array_equal(lo, hi))
    with np.errstate(over="ignore", invalid="ignore"):
        corners = [c * np.outer(a, b) for a in (lo, hi) for b in (lo, hi)]
        lower, upper = np.minimum.reduce(corners), np.maximum.reduce(corners)
        centre = corners[0] if point else 0.5 * (lower + upper)
        radius = 0.5 * (upper - lower)
        response = centre + output_shift
    estimate = "exact" if point else "interval"
    if not all(np.isfinite(form).all() for form in (centre, radius, response)):
        return GainBound(math.nan, math.nan, math.nan, math.nan, estimate)
    n_eigs, m_eigs = symmetric_eigenvalues(response), symmetric_eigenvalues(centre)
    n_min, m_max = float(n_eigs[0]), float(m_eigs[-1])
    if not point:
        spread = float(symmetric_eigenvalues(radius)[-1])
        scale = max(-n_eigs[0], n_eigs[-1], -m_eigs[0], m_eigs[-1]) + spread
        widen = float(spread + 4.0 * len(lo) * np.finfo(float).eps * scale)
        n_min, m_max = n_min - widen, m_max + widen
    gain = offset = math.nan
    if n_min > 0.0:
        gain = math.sqrt(0.5 + (4.0 * slope_max * slope_max * weight_max * weight_max
                                + 8.0 * m_max * m_max) / (n_min * n_min))
        offset = math.sqrt(2.0 * abs(bias_total) / n_min)
    return GainBound(gain, offset, n_min, m_max, estimate)


def incidence(g: Graph) -> np.ndarray:
    """The float64 node-by-edge incidence matrix ``D`` of ``g``: ``+1`` at
    each edge's lower endpoint, ``-1`` at its upper one."""
    d = np.zeros((g.n, g.edge_count))
    for k, (i, j) in enumerate(g.edges):
        d[i - 1, k], d[j - 1, k] = 1.0, -1.0
    return d


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


def linear_network(agents, g: Graph, alpha_lo, alpha_hi, cp=None,
                   initial_states=None) -> NetworkConfig:
    """The description of ``agents`` on ``g`` with a linear coupling of gain
    ``alpha_lo`` on each edge that declares the sector ``[alpha_lo,
    alpha_hi]`` (scalars or per-edge arrays), zero disturbances, the
    certification block ``cp`` (its mode included) and zero initial states
    by default."""
    lo, hi = (np.broadcast_to(np.asarray(a, dtype=float), (g.edge_count,)).tolist()
              for a in (alpha_lo, alpha_hi))
    couplings = tuple(CouplingSpec(kind="linear", gain=a, sector=SectorBound(a, b))
                      for a, b in zip(lo, hi))
    return NetworkConfig(graph=g, agents=agents, initial_states=initial_states,
                         couplings=couplings, disturbances=None, certification=cp)
