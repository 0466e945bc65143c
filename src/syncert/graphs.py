"""Undirected simple graphs with a canonical edge orientation, the one
edge->node sum (:func:`node_sums`), and the per-edge neighbour statistics
consumed by the synchronisation certificates.

A graph is its edge list.  Every sum and edge-space matrix here is built
from its endpoint arrays, with no BLAS call; the degrees, the common
neighbour counts and connectivity come from its neighbour sets, and the
exclusive counts from both.  ``D`` in the docstrings is the oriented
node-by-edge matrix (+1 at each lower endpoint, -1 at each upper one),
which nothing builds.  Degrees and neighbour counts are integer exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .values import ConfigError, integer, read_only

__all__ = [
    "Graph",
    "build_graph",
    "copy_endpoints",
    "node_sums",
    "edge_slacks",
    "assemble_pd_matrix",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes ``1..n`` with lexicographically
    indexed edges.

    Each edge is stored as ``(i, j)`` with ``i < j``; the lower endpoint is
    the positive end of the canonical orientation.  Per-edge quantities
    throughout the package follow this edge indexing.  The endpoint index
    arrays, the degree vector and the per-edge neighbour counts are derived
    once per graph and shared by every consumer.
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
    duplicates, out-of-range nodes and a non-list are rejected with the
    offending value in the message, as a :class:`~syncert.values.ConfigError`
    at ``/n``, ``/edges/<k>`` or ``/edges``.
    """
    integer(n, "/n")
    if n < 1:
        raise ConfigError("/n", f"node count must be a positive integer, got {n!r}")
    if not isinstance(edge_list, (list, tuple)):
        raise ConfigError("/edges", f"expected a list, got {type(edge_list).__name__}")
    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for k, pair in enumerate(edge_list):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"/edges/{k}", f"edge {pair!r} is not a node pair")
        i, j = int(integer(pair[0], f"/edges/{k}")), int(integer(pair[1], f"/edges/{k}"))
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


def copy_endpoints(g: Graph, copies: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower and upper endpoints of ``copies`` disjoint copies of ``g`` (copy
    ``s`` owns nodes ``s*n + i``, edges ``s*p + k``) and the edge->node bins
    ``[upper | lower]``, weighted ``[+-v | v]``, which add in edge order."""
    lower, upper = (ends + g.n * np.arange(copies)[:, None] for ends in g.endpoints)
    return lower.ravel(), upper.ravel(), np.concatenate([upper, lower], axis=None)


_SUM_BLOCK = 1 << 13  # edge values per bincount of node_sums


def node_sums(g: Graph, edge_values, signed: bool = False) -> np.ndarray:
    """Per-node sums of the edge values on the last axis, the one edge->node
    reduction (``D v`` when ``signed`` negates the upper-endpoint terms):
    the rows of a block are disjoint copies of ``g``, whose terms are added
    from 0 one at a time over the :func:`copy_endpoints` bins, with no BLAS."""
    values = np.asarray(edge_values, dtype=float)
    rows = values.reshape(int(np.prod(values.shape[:-1])), g.edge_count)
    sums = np.empty((len(rows), g.n))
    block = max(1, _SUM_BLOCK // max(g.edge_count, 1))
    for start in range(0, len(rows), block):
        chunk = rows[start:start + block]
        weights = np.concatenate([-chunk if signed else chunk, chunk], axis=None)
        sums[start:start + block] = np.bincount(
            copy_endpoints(g, len(chunk))[2], weights, len(chunk) * g.n).reshape(-1, g.n)
    return sums.reshape(values.shape[:-1] + (g.n,))


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
    """``D.T diag(mu) D + diag(sigma)`` from the endpoints: ``(mu_i +
    mu_j) + sigma_k`` at ``(k, k)`` for edge ``k = (i, j)``, ``s_k s_l mu_i``
    where edges ``k != l`` meet at ``i`` (``s`` is +1 at a lower endpoint, -1
    at an upper), so each entry equals the product summed from +0.0.

    Leading axes of the edge weights give one form per row, each equal bit
    for bit to its 1-D build: the per-node blocks are built once and every
    row gets its own diagonal.  The node weights are one vector."""
    mu, sigma = _pd_weights(g, node_weights, edge_weights)
    if mu.ndim != 1:
        raise ValueError("one weighting only: node weights must be 1-D")
    p, (lower, upper) = g.edge_count, g.endpoints
    # per node, its positions in [lower | upper]; adding 0.0 makes each zero +0.0
    order = np.argsort(np.concatenate([lower, upper]), kind="stable")
    forms = np.zeros(sigma.shape[:-1] + (p, p))
    for i, at in enumerate(np.split(order, np.cumsum(g.degrees)[:-1])):
        edges, signs = at % max(p, 1), np.where(at < p, 1.0, -1.0)
        rows, cols = np.ix_(edges, edges)
        forms[..., rows, cols] = np.outer(signs, signs * mu[i]) + 0.0
    diagonal = np.arange(p)
    forms[..., diagonal, diagonal] = (mu[lower] + mu[upper]) + sigma + 0.0
    return forms
