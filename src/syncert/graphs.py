"""Undirected simple graphs with a canonical edge orientation, their incidence
matrices, and the per-edge neighbour statistics consumed by the
synchronisation certificates.

Graph arithmetic is integer exact; floating point enters only through the
node/edge weights of the positive-definiteness check and of the edge-space
matrix it bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "EdgeStats",
    "build_graph",
    "incidence",
    "edge_stats",
    "edge_slacks",
    "assemble_pd_matrix",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes ``1..n`` with lexicographically
    indexed edges.

    Each edge is stored as ``(i, j)`` with ``i < j``; the lower endpoint is
    the positive end of the canonical orientation used by :func:`incidence`.
    Per-edge quantities throughout the package follow this edge indexing.
    The endpoint index arrays, the degree vector and the neighbour
    statistics are derived once per graph and shared by every consumer.
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
        lower, upper = ends[:, 0].copy(), ends[:, 1].copy()
        lower.flags.writeable = False
        upper.flags.writeable = False
        return lower, upper

    @cached_property
    def degrees(self) -> np.ndarray:
        """Node degrees; index 0 holds node 1."""
        deg = np.array([len(s) for s in self.neighbours], dtype=np.int64)
        deg.flags.writeable = False
        return deg

    @cached_property
    def stats(self) -> EdgeStats:
        return edge_stats(self)

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
    the message.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"node count must be a positive integer, got {n!r}")
    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in edge_list:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise ValueError(f"edge {pair!r} is not a node pair") from None
        if isinstance(i, bool) or isinstance(j, bool) \
                or not isinstance(i, (int, np.integer)) \
                or not isinstance(j, (int, np.integer)):
            raise ValueError(f"edge ({i!r}, {j!r}) must contain integer node indices")
        i, j = int(i), int(j)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i}, {j}): node out of range 1..{n}")
        if i == j:
            raise ValueError(f"edge ({i}, {j}) is a self-loop")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        canon.append(key)
    canon.sort()
    return Graph(n=n, edges=tuple(canon))


def incidence(g: Graph) -> np.ndarray:
    """Node-by-edge incidence matrix, ``+1`` at each edge's lower endpoint.

    Integer valued; ``D @ D.T`` equals the graph Laplacian, and flipping the
    sign of any column leaves every quadratic form built from it unchanged.
    """
    d = np.zeros((g.n, g.edge_count), dtype=np.int64)
    lower, upper = g.endpoints
    columns = np.arange(g.edge_count)
    d[lower, columns] = 1
    d[upper, columns] = -1
    return d


@dataclass(frozen=True, eq=False)
class EdgeStats:
    """Common/exclusive neighbour counts per edge, as read-only integer
    arrays in edge order.

    For edge ``(i, j)``: ``common`` counts the nodes adjacent to both
    endpoints, ``exclusive`` the nodes adjacent to exactly one endpoint
    (excluding the endpoints themselves).
    """

    graph: Graph
    common: np.ndarray
    exclusive: np.ndarray

    def __eq__(self, other) -> bool:
        return (isinstance(other, EdgeStats) and self.graph == other.graph
                and np.array_equal(self.common, other.common)
                and np.array_equal(self.exclusive, other.exclusive))

    def endpoint_degrees(self, k: int) -> tuple[int, int]:
        i, j = self.graph.edges[k]
        return int(self.graph.degrees[i - 1]), int(self.graph.degrees[j - 1])


def edge_stats(g: Graph) -> EdgeStats:
    """Compute :class:`EdgeStats`; the exclusive count is the closed form
    ``r_i + r_j - 2*common - 2``, which holds on simple graphs.  Read
    :attr:`Graph.stats` to share one computation per graph."""
    nbrs = g.neighbours
    common = np.array([len(nbrs[i - 1] & nbrs[j - 1]) for i, j in g.edges],
                      dtype=np.int64)
    lower, upper = g.endpoints
    exclusive = g.degrees[lower] + g.degrees[upper] - 2 * common - 2
    common.flags.writeable = False
    exclusive.flags.writeable = False
    return EdgeStats(graph=g, common=common, exclusive=exclusive)


def _pd_weights(g: Graph, node_weights, edge_weights) -> tuple[np.ndarray, np.ndarray]:
    mu = np.asarray(node_weights, dtype=float)
    sigma = np.asarray(edge_weights, dtype=float)
    if mu.shape != (g.n,):
        raise ValueError(f"node weights have shape {mu.shape}, expected ({g.n},)")
    if sigma.shape != (g.edge_count,):
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
    """
    mu, sigma = _pd_weights(g, node_weights, edge_weights)
    i, j = g.endpoints
    return (sigma + mu[i] + mu[j]
            - (g.degrees[i] - 1.0) * np.abs(mu[i])
            - (g.degrees[j] - 1.0) * np.abs(mu[j]))


def assemble_pd_matrix(g: Graph, node_weights, edge_weights) -> np.ndarray:
    """The edge-space matrix ``D.T @ diag(mu) @ D + diag(sigma)``."""
    mu, sigma = _pd_weights(g, node_weights, edge_weights)
    d = incidence(g).astype(float)
    return d.T @ (mu[:, None] * d) + np.diag(sigma)
