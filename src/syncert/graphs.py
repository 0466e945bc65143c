"""Undirected simple graphs with a canonical edge orientation, the one
edge->node sum (:func:`node_sums`), and the per-edge neighbour statistics
consumed by the synchronisation certificates.

Degrees and neighbour counts are integer exact.  The incidence matrix is
float64, since the edge-space matrix of :func:`assemble_pd_matrix` is built
from it; its entries are 0 and +-1, so it is exact too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .values import ConfigError, integer, read_only

__all__ = [
    "Graph",
    "build_graph",
    "node_sums",
    "edge_slacks",
    "assemble_pd_matrix",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes ``1..n`` with lexicographically
    indexed edges.

    Each edge is stored as ``(i, j)`` with ``i < j``; the lower endpoint is
    the positive end of the canonical orientation used by :attr:`incidence`.
    Per-edge quantities throughout the package follow this edge indexing.
    The endpoint index arrays, the incidence matrix, the degree vector and
    the per-edge neighbour counts are derived once per graph and shared by
    every consumer.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbours(self) -> tuple[frozenset[int], ...]:
        """Neighbour set per node; index 0 holds node 1."""
        sets: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            sets[i - 1].add(j)
            sets[j - 1].add(i)
        return tuple(frozenset(s) for s in sets)

    @cached_property
    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {1}
        stack = [1]
        while stack:
            i = stack.pop()
            for j in self.neighbours[i - 1]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.n

    @cached_property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-based lower and upper endpoint index per edge."""
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2) - 1
        return read_only(ends[:, 0].copy()), read_only(ends[:, 1].copy())

    @cached_property
    def incidence(self) -> np.ndarray:
        """Read-only float64 node-by-edge incidence matrix ``D``, ``+1`` at
        each edge's lower endpoint and ``-1`` at its upper one.

        ``D @ D.T`` equals the graph Laplacian, and flipping the sign of any
        column leaves every quadratic form built from it unchanged.
        """
        d = np.zeros((self.n, self.edge_count))
        lower, upper = self.endpoints
        columns = np.arange(self.edge_count)
        d[lower, columns] = 1.0
        d[upper, columns] = -1.0
        return read_only(d)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Node degrees; index 0 holds node 1."""
        return read_only(np.array([len(s) for s in self.neighbours], dtype=np.int64))

    @cached_property
    def common(self) -> np.ndarray:
        """Per-edge count of the nodes adjacent to both endpoints."""
        nbrs = self.neighbours
        return read_only(np.array([len(nbrs[i - 1] & nbrs[j - 1]) for i, j in self.edges],
                                  dtype=np.int64))

    @cached_property
    def exclusive(self) -> np.ndarray:
        """Per-edge count of the nodes adjacent to exactly one endpoint, the
        endpoints themselves excluded: the closed form ``r_i + r_j -
        2*common - 2``, which holds on simple graphs."""
        lower, upper = self.endpoints
        return read_only(self.degrees[lower] + self.degrees[upper] - 2 * self.common - 2)

    def edge_label(self, k: int) -> str:
        i, j = self.edges[k]
        return f"{i}-{j}"

    def edge_labels(self) -> list[str]:
        return [self.edge_label(k) for k in range(self.edge_count)]


def build_graph(n: int, edge_list) -> Graph:
    """Validate and canonicalise an edge list into a :class:`Graph`.

    Edges may arrive in any order and orientation; they are stored as
    ``(min, max)`` pairs sorted lexicographically, which pins down the edge
    indexing used by every per-edge quantity downstream.  Self-loops,
    duplicates and out-of-range nodes are rejected with the offending pair in
    the message, as a :class:`~syncert.values.ConfigError` at ``/n``,
    ``/edges/<k>`` or ``/edges``.
    """
    integer(n, "/n")
    if n < 1:
        raise ConfigError("/n", f"node count must be a positive integer, got {n!r}")
    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for k, pair in enumerate(edge_list):
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise ConfigError(f"/edges/{k}", f"edge {pair!r} is not a node pair") from None
        i, j = int(integer(i, f"/edges/{k}")), int(integer(j, f"/edges/{k}"))
        if not (1 <= i <= n and 1 <= j <= n):
            raise ConfigError("/edges", f"edge ({i}, {j}): node out of range 1..{n}")
        if i == j:
            raise ConfigError("/edges", f"edge ({i}, {j}) is a self-loop")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ConfigError("/edges", f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        canon.append(key)
    canon.sort()
    return Graph(n=n, edges=tuple(canon))


def node_sums(g: Graph, edge_values, signed: bool = False) -> np.ndarray:
    """Per-node sums of the edge values on the last axis, the one edge->node
    reduction (``D @ values`` when ``signed`` negates upper-endpoint terms).
    Each node's terms are added one at a time from 0: the edges where it is
    the upper endpoint, then the lower, each group in edge order (plain edge
    order in the lexicographic indexing), with no BLAS call."""
    values = np.asarray(edge_values, dtype=float)
    acc = np.zeros(values.shape[:-1] + (g.n,))
    lower, upper = g.endpoints
    (np.subtract if signed else np.add).at(acc.T, upper, values.T)
    np.add.at(acc.T, lower, values.T)
    return acc


def _pd_weights(g: Graph, node_weights, edge_weights) -> tuple[np.ndarray, np.ndarray]:
    mu = np.asarray(node_weights, dtype=float)
    sigma = np.asarray(edge_weights, dtype=float)
    if mu.shape[-1:] != (g.n,):
        raise ValueError(f"node weights have shape {mu.shape}, expected ({g.n},)")
    if sigma.shape[-1:] != (g.edge_count,):
        raise ValueError(
            f"edge weights have shape {sigma.shape}, expected ({g.edge_count},)"
        )
    return mu, sigma


def edge_slacks(g: Graph, node_weights, edge_weights) -> np.ndarray:
    """Per-edge Gershgorin margins of ``D.T @ diag(mu) @ D + diag(sigma)``.

    The slack of edge ``(i, j)`` is::

        sigma_k + mu_i + mu_j - (r_i - 1)|mu_i| - (r_j - 1)|mu_j|

    the diagonal entry of row ``k`` minus its off-diagonal mass: every other
    edge at ``i`` contributes ``|mu_i|`` off the diagonal and likewise for
    ``j``.  The smallest eigenvalue is bounded below by the smallest slack.
    Leading axes of the weights broadcast against each other.
    """
    mu, sigma = _pd_weights(g, node_weights, edge_weights)
    i, j = g.endpoints
    return (sigma + mu[..., i] + mu[..., j]
            - (g.degrees[i] - 1.0) * np.abs(mu[..., i])
            - (g.degrees[j] - 1.0) * np.abs(mu[..., j]))


def assemble_pd_matrix(g: Graph, node_weights, edge_weights) -> np.ndarray:
    """The edge-space matrix ``D.T @ diag(mu) @ D + diag(sigma)``."""
    mu, sigma = _pd_weights(g, node_weights, edge_weights)
    if mu.ndim != 1 or sigma.ndim != 1:
        raise ValueError("one weighting only: node and edge weights must be 1-D")
    d = g.incidence
    return d.T @ (mu[:, None] * d) + np.diag(sigma)
