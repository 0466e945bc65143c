"""Per-edge dissipativity certificates, the distributed synchronisation
margin, and the certified disagreement gain bound.

Three ingredients meet here: a slope :class:`SectorBound` for each coupling
nonlinearity, an :class:`EdgeCertificate` ``(nu, gamma, beta)`` for each agent
pair joined by an edge, and the graph statistics.  From them the module
assembles the per-edge margin check, the network quadratic forms, and the
``gain * ||disturbance||_T + offset`` bound on the relative outputs; a
:class:`NetworkCertificate` computes each of them once, on first use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, assemble_pd_matrix, build_graph, edge_slacks
# bench/workloads.py reads and rebinds this name; kept so that lookup resolves.
from .linalg import jacobi_eigenvalues  # noqa: F401
from .linalg import symmetric_eigenvalues

__all__ = [
    "POSITIVITY_TOL",
    "SectorBound",
    "EdgeCertificate",
    "NetworkCertificate",
    "MarginReport",
    "CertificateForms",
    "GainBound",
    "UncertifiedBoundError",
    "quadratic_forms",
    "gain_bound",
    "gain_bound_from_forms",
    "certificate_to_dict",
    "certificate_from_dict",
]

# Margins are declared satisfied only beyond this slack; exact zeros fail.
POSITIVITY_TOL = 1e-12


class UncertifiedBoundError(ValueError):
    """A gain bound with nonpositive ``n_min`` cannot be evaluated."""


@dataclass(frozen=True)
class SectorBound:
    """Slope sector ``[alpha_lo, alpha_hi]`` of a scalar coupling
    nonlinearity, with ``0 < alpha_lo <= alpha_hi < inf``."""

    alpha_lo: float
    alpha_hi: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha_lo <= self.alpha_hi < math.inf):
            raise ValueError(
                "sector must satisfy 0 < alpha_lo <= alpha_hi < inf, "
                f"got ({self.alpha_lo}, {self.alpha_hi})"
            )

    @property
    def is_point(self) -> bool:
        return self.alpha_lo == self.alpha_hi

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.alpha_lo + self.alpha_hi)


@dataclass(frozen=True)
class EdgeCertificate:
    """Relative-dissipativity parameters of one agent pair.

    A finite ``nu <= 0`` weights the pair's input energy, ``gamma`` the
    relative-output energy, and ``beta`` is the trajectory-independent bias
    (typically built from initial conditions).  ``gamma`` may be positive
    here; every consumer clamps it to ``min(gamma, 0)`` first, which only
    weakens the certified inequality, and keeps the raw value for reporting.
    """

    nu: float
    gamma: float
    beta: float

    def __post_init__(self) -> None:
        if not (-math.inf < self.nu <= 0.0):  # also rejects nan
            raise ValueError(f"nu must be finite and <= 0, got {self.nu}")
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError(
                f"gamma and beta must be finite, got ({self.gamma}, {self.beta})"
            )


@dataclass(frozen=True, eq=False)
class NetworkCertificate:
    """Edge certificates and sectors stacked over a graph, plus the derived
    per-node and network aggregates."""

    graph: Graph
    sectors: tuple[SectorBound, ...]
    certificates: tuple[EdgeCertificate, ...]

    def __post_init__(self) -> None:
        p = self.graph.edge_count
        if len(self.sectors) != p:
            raise ValueError(f"{len(self.sectors)} sectors for {p} edges")
        if len(self.certificates) != p:
            raise ValueError(f"{len(self.certificates)} certificates for {p} edges")

    @cached_property
    def nu(self) -> np.ndarray:
        return np.array([c.nu for c in self.certificates])

    @cached_property
    def gamma_raw(self) -> np.ndarray:
        return np.array([c.gamma for c in self.certificates])

    @cached_property
    def gamma(self) -> np.ndarray:
        """Clamped to zero from above; the inequality survives the clamp."""
        return np.minimum(self.gamma_raw, 0.0)

    @cached_property
    def beta(self) -> np.ndarray:
        return np.array([c.beta for c in self.certificates])

    @cached_property
    def bias_total(self) -> float:
        return float(np.sum(self.beta))

    @cached_property
    def nu_node(self) -> np.ndarray:
        """Per-node sum of ``nu`` over incident edges, in edge order: in the
        lexicographic indexing every edge where a node is the upper endpoint
        comes before every edge where it is the lower one."""
        acc = np.zeros(self.graph.n)
        lower, upper = self.graph.endpoints
        np.add.at(acc, upper, self.nu)
        np.add.at(acc, lower, self.nu)
        return acc

    @cached_property
    def alpha_lo(self) -> np.ndarray:
        return np.array([s.alpha_lo for s in self.sectors])

    @cached_property
    def alpha_hi(self) -> np.ndarray:
        return np.array([s.alpha_hi for s in self.sectors])

    # The certification pass: every quantity below is derived once, on first
    # use, and the later ones reuse the earlier ones through this object.

    @cached_property
    def common(self) -> np.ndarray:
        """Common-neighbour count per edge, from :attr:`Graph.stats`."""
        return np.asarray(self.graph.stats.common, dtype=float)

    @cached_property
    def exclusive(self) -> np.ndarray:
        """Exclusive-neighbour count per edge, from :attr:`Graph.stats`."""
        return np.asarray(self.graph.stats.exclusive, dtype=float)

    @cached_property
    def pair_weight(self) -> np.ndarray:
        """Per-edge weight ``2 + common`` between coupling outputs and
        relative outputs in the network dissipation inequality."""
        return 2.0 + self.common

    @cached_property
    def output_quadratic(self) -> np.ndarray:
        """Per-edge weight ``gamma - exclusive/2`` on the squared relative
        outputs in the network dissipation inequality."""
        return self.gamma - 0.5 * self.exclusive

    @cached_property
    def sigma(self) -> np.ndarray:
        """Per-edge weight of the margin form ``D.T @ diag(nu_node) @ D +
        diag(sigma)``::

            sigma = (2 + c)/alpha_hi
                    - (1 + alpha_lo**2) * e / (2 * alpha_lo**2)
                    + min(gamma, 0) / alpha_lo**2

        with ``c`` and ``e`` the edge's common and exclusive neighbour
        counts.
        """
        lo = self.alpha_lo
        return (self.pair_weight / self.alpha_hi
                - (1.0 + lo * lo) * self.exclusive / (2.0 * lo * lo)
                + self.gamma / (lo * lo))

    @cached_property
    def margins(self) -> MarginReport:
        """Distributed per-edge synchronisation margin.

        The slack of edge ``(i, j)`` with degrees ``r`` is the
        :func:`~syncert.graphs.edge_slacks` margin of the margin form::

            sigma_k - r_i * |nu_node_i| - r_j * |nu_node_j|

        (``nu_node <= 0``), where ``nu_node_i`` sums ``nu`` over the edges
        incident to node ``i``.  Every quantity is local to the edge and its
        endpoints, so each agent pair can evaluate its own slack.
        """
        return MarginReport.from_weights(self.graph, self.nu_node, self.sigma)

    @cached_property
    def forms(self) -> CertificateForms:
        return quadratic_forms(self.graph, self)

    @cached_property
    def bound(self) -> GainBound:
        """Gain bound over the default slope samples of :func:`gain_bound`."""
        return gain_bound(self.graph, self)


@dataclass(frozen=True, eq=False)
class MarginReport:
    """Per-edge synchronisation slacks and the aggregate verdict."""

    graph: Graph
    slacks: np.ndarray
    edge_ok: np.ndarray
    satisfied: bool

    @classmethod
    def from_weights(cls, g: Graph, node_weights, edge_weights) -> MarginReport:
        """Verdict on ``D.T @ diag(node_weights) @ D + diag(edge_weights)``
        from its per-edge :func:`~syncert.graphs.edge_slacks`.

        Satisfied when the graph is connected and every slack exceeds
        ``POSITIVITY_TOL`` (exact zeros fail); on a disconnected graph
        agreement of the relative outputs does not synchronise the agents.
        """
        slacks = edge_slacks(g, node_weights, edge_weights)
        edge_ok = slacks > POSITIVITY_TOL
        return cls(graph=g, slacks=slacks, edge_ok=edge_ok,
                   satisfied=g.is_connected and bool(np.all(edge_ok)))

    @property
    def min_slack(self) -> float:
        return float(np.min(self.slacks))

    def rows(self) -> list[tuple[str, float, bool]]:
        return [
            (self.graph.edge_label(k), float(self.slacks[k]), bool(self.edge_ok[k]))
            for k in range(self.graph.edge_count)
        ]


@dataclass(frozen=True, eq=False)
class CertificateForms:
    """Symmetric edge-space forms whose positivity underlies the gain bound.

    ``coupling_form`` acts on the stacked coupling outputs;
    ``margin_form`` adds the worst-case sector weighting of the output term
    and must be positive definite for the network margin to hold.
    """

    coupling_form: np.ndarray
    margin_form: np.ndarray

    @cached_property
    def margin_min_eig(self) -> float:
        """Smallest eigenvalue of ``margin_form``, solved on first read by
        :func:`~syncert.linalg.symmetric_eigenvalues`."""
        return float(symmetric_eigenvalues(self.margin_form)[0])


def quadratic_forms(g: Graph, cert: NetworkCertificate) -> CertificateForms:
    """Assemble the certificate quadratic forms.

    Both are ``D.T @ diag(nu_node) @ D + diag(w)``: the coupling form with
    ``w = (2 + common)/alpha_hi - exclusive/2``, the margin form with the
    margin weight ``sigma = w + (gamma - exclusive/2)/alpha_lo**2`` of
    :attr:`NetworkCertificate.sigma`.
    """
    if cert.graph != g:
        raise ValueError("certificate was assembled over a different graph")
    if g.edge_count == 0:
        raise ValueError("graph has no edges, the certificate forms are empty")
    coupling_weights = cert.pair_weight / cert.alpha_hi - 0.5 * cert.exclusive
    return CertificateForms(
        coupling_form=assemble_pd_matrix(g, cert.nu_node, coupling_weights),
        margin_form=assemble_pd_matrix(g, cert.nu_node, cert.sigma),
    )


@dataclass(frozen=True)
class GainBound:
    """Certified bound ``||relative outputs||_T <= gain * ||W||_T + offset``.

    ``n_min`` and ``m_max`` are the extreme eigenvalues of the slope-scanned
    response forms; the bound is certified only when ``n_min > 0``, otherwise
    ``gain`` and ``offset`` are nan.  ``estimate`` is ``"exact"`` when every
    sector is a point (single slope sample), else ``"sampled"``.
    """

    gain: float
    offset: float
    certified: bool
    n_min: float
    m_max: float
    weight_max: float
    slope_max: float
    bias_total: float
    estimate: str
    samples: int


def gain_bound_from_forms(coupling_form: np.ndarray, output_shift: np.ndarray,
                          weight_max: float, slope_max: float, bias_total: float,
                          slope_samples, estimate: str = "sampled") -> GainBound:
    """Scan slope samples and assemble the gain bound from raw forms.

    For each per-edge slope vector ``eta`` the response forms are
    ``M = diag(eta) @ coupling_form @ diag(eta)`` and ``N = M + output_shift``;
    ``n_min`` is the worst smallest eigenvalue of ``N`` and ``m_max`` the
    largest eigenvalue of ``M`` over the scan.  With ``n_min > 0``::

        gain   = sqrt(1/2 + (4 slope_max^2 weight_max^2 + 8 m_max^2) / n_min^2)
        offset = sqrt(2 |bias_total| / n_min)
    """
    samples = [np.asarray(h, dtype=float) for h in slope_samples]
    if not samples:
        raise ValueError("at least one slope sample is required")
    p = coupling_form.shape[0]
    n_min = math.inf
    m_max = -math.inf
    for h in samples:
        if h.shape != (p,):
            raise ValueError(f"slope sample has shape {h.shape}, expected ({p},)")
        m_form = coupling_form * np.outer(h, h)
        n_min = min(n_min, float(symmetric_eigenvalues(m_form + output_shift)[0]))
        m_max = max(m_max, float(symmetric_eigenvalues(m_form)[-1]))
    certified = n_min > 0.0
    if certified:
        gain = math.sqrt(
            0.5 + (4.0 * slope_max ** 2 * weight_max ** 2 + 8.0 * m_max ** 2) / n_min ** 2
        )
        offset = math.sqrt(2.0 * abs(bias_total) / n_min)
    else:
        gain = math.nan
        offset = math.nan
    return GainBound(gain=gain, offset=offset, certified=certified, n_min=n_min,
                     m_max=m_max, weight_max=weight_max, slope_max=slope_max,
                     bias_total=bias_total, estimate=estimate, samples=len(samples))


# Sector boxes are scanned at their vertices by default; past this edge count
# the vertex set is too large and the caller must supply samples.
_MAX_VERTEX_SCAN_EDGES = 12


def _default_slope_samples(cert: NetworkCertificate) -> list[np.ndarray]:
    if all(s.is_point for s in cert.sectors):
        return [cert.alpha_lo.copy()]
    p = cert.graph.edge_count
    if p > _MAX_VERTEX_SCAN_EDGES:
        raise ValueError(
            f"{p} edges with non-point sectors: supply slope_samples explicitly "
            f"(default vertex scan is limited to {_MAX_VERTEX_SCAN_EDGES} edges)"
        )
    corners = [
        np.array(v)
        for v in itertools.product(*[(s.alpha_lo, s.alpha_hi) for s in cert.sectors])
    ]
    corners.append(np.array([s.midpoint for s in cert.sectors]))
    return corners


def gain_bound(g: Graph, cert: NetworkCertificate, slope_samples=None) -> GainBound:
    """Certified disagreement gain bound for a network certificate.

    ``slope_samples`` is an iterable of per-edge slope vectors inside the
    sector box; omitted, it defaults to the single point for point sectors
    and to all box vertices plus the midpoint otherwise.  Samples outside the
    box are rejected.  For point sectors the scan is exact; otherwise the
    reported extremes are sampled estimates and are labelled as such.  The
    coupling form, output form and neighbour counts are read from ``cert``,
    which computes each once.
    """
    if cert.graph != g:
        raise ValueError("certificate was assembled over a different graph")
    if g.edge_count == 0:
        raise ValueError("graph has no edges, nothing to bound")
    if slope_samples is None:
        samples = _default_slope_samples(cert)
    else:
        samples = [np.asarray(h, dtype=float) for h in slope_samples]
        for h in samples:
            if h.shape != (g.edge_count,):
                raise ValueError(
                    f"slope sample has shape {h.shape}, expected ({g.edge_count},)"
                )
            if np.any(h < cert.alpha_lo - 1e-12) or np.any(h > cert.alpha_hi + 1e-12):
                k = int(np.argmax(np.maximum(cert.alpha_lo - h, h - cert.alpha_hi)))
                raise ValueError(
                    f"slope sample leaves the sector box at edge {g.edge_label(k)}"
                )
    estimate = "exact" if all(s.is_point for s in cert.sectors) else "sampled"
    weight_max = float(np.max(cert.pair_weight))
    slope_max = float(np.max(cert.alpha_hi))
    return gain_bound_from_forms(
        coupling_form=cert.forms.coupling_form,
        output_shift=np.diag(cert.output_quadratic),
        weight_max=weight_max,
        slope_max=slope_max,
        bias_total=cert.bias_total,
        slope_samples=samples,
        estimate=estimate,
    )


def certificate_to_dict(cert: NetworkCertificate) -> dict:
    """JSON-ready payload with one entry per edge (raw ``gamma``)."""
    return {
        "edges": [
            {
                "edge": [i, j],
                "nu": cert.certificates[k].nu,
                "gamma": cert.certificates[k].gamma,
                "beta": cert.certificates[k].beta,
                "alpha_lo": cert.sectors[k].alpha_lo,
                "alpha_hi": cert.sectors[k].alpha_hi,
            }
            for k, (i, j) in enumerate(cert.graph.edges)
        ]
    }


_ENTRY_KEYS = ("edge", "nu", "gamma", "beta", "alpha_lo", "alpha_hi")


def certificate_from_dict(payload: dict, n: int | None = None) -> NetworkCertificate:
    """Rebuild a :class:`NetworkCertificate` from its JSON payload.

    ``n`` defaults to the largest node index appearing in the edge list.
    Entries may arrive in any order; they are matched to the canonical edge
    indexing of the reconstructed graph.  A malformed entry is rejected with
    a ``ValueError`` that names its position in the list.
    """
    try:
        entries = payload["edges"]
    except (TypeError, KeyError):
        raise ValueError("certificate payload must be a dict with an 'edges' list") from None
    if not entries:
        raise ValueError("certificate payload has no edges")
    by_edge = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"certificate entry {k} must be a dict, got {entry!r}")
        missing = [key for key in _ENTRY_KEYS if key not in entry]
        if missing:
            raise ValueError(f"certificate entry {k} is missing key {missing[0]!r}")
        pair = entry["edge"]
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                        for v in pair)):
            raise ValueError(
                f"certificate entry {k}: edge {pair!r} must be a pair of "
                "integer node indices")
        by_edge[(min(pair), max(pair))] = (k, entry)
    if n is None:
        n = int(max(j for _, j in by_edge))
    g = build_graph(n, [entry["edge"] for entry in entries])
    sectors = []
    certs = []
    for key in g.edges:
        k, entry = by_edge[key]
        try:
            sectors.append(SectorBound(alpha_lo=float(entry["alpha_lo"]),
                                       alpha_hi=float(entry["alpha_hi"])))
            certs.append(EdgeCertificate(nu=float(entry["nu"]),
                                         gamma=float(entry["gamma"]),
                                         beta=float(entry["beta"])))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"certificate entry {k}: {exc}") from None
    return NetworkCertificate(graph=g, sectors=tuple(sectors),
                              certificates=tuple(certs))
