"""Per-edge dissipativity certificates, the distributed synchronisation
margin, and the certified disagreement gain bound.

A :class:`NetworkCertificate` holds a slope sector for each coupling
nonlinearity and a certificate ``(nu, gamma, beta)`` for each agent pair
joined by an edge, as per-edge arrays.  With the graph statistics it
assembles the per-edge margin check, the network quadratic forms, and the
``gain * ||disturbance||_T + offset`` bound on the relative outputs, each
once, on first use.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, assemble_pd_matrix, build_graph, edge_slacks
from .linalg import symmetric_eigenvalues

__all__ = [
    "POSITIVITY_TOL",
    "SectorBound",
    "EdgeCertificate",
    "NetworkCertificate",
    "sector_arrays",
    "MarginReport",
    "CertificateForms",
    "GainBound",
    "UncertifiedBoundError",
    "quadratic_forms",
    "gain_bound_from_forms",
    "certificate_to_dict",
    "certificate_from_dict",
]

# bench/workloads.py reads and rebinds this name; kept so that lookup resolves.
jacobi_eigenvalues = symmetric_eigenvalues

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
    """Relative-dissipativity parameters of one agent pair, as read and
    written at the JSON boundary and checked by the pair residual curves.

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


def sector_arrays(sectors) -> tuple[np.ndarray, np.ndarray]:
    """``alpha_lo`` and ``alpha_hi`` of a sequence of :class:`SectorBound`,
    as float arrays in the same order."""
    lo, hi = np.array([(s.alpha_lo, s.alpha_hi) for s in sectors],
                      dtype=float).reshape(-1, 2).T
    return lo, hi


_EDGE_ARRAYS = ("alpha_lo", "alpha_hi", "nu", "gamma_raw", "beta")


@dataclass(frozen=True, eq=False)
class NetworkCertificate:
    """Sectors and certificate values stacked over a graph as read-only
    float arrays in edge order (``gamma_raw`` is ``gamma`` before the
    clamp), plus the derived per-node and network aggregates.  One
    vectorised check rejects a wrong length and every value that
    :class:`SectorBound` or :class:`EdgeCertificate` rejects, naming the
    first offending edge."""

    graph: Graph
    alpha_lo: np.ndarray
    alpha_hi: np.ndarray
    nu: np.ndarray
    gamma_raw: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        p = self.graph.edge_count
        if p == 0:
            raise ValueError("graph has no edges, nothing to certify")
        for name in _EDGE_ARRAYS:
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != (p,):
                raise ValueError(f"{name} has shape {values.shape}, expected ({p},)")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        lo, hi, nu = self.alpha_lo, self.alpha_hi, self.nu
        for ok, rule in (
                ((0.0 < lo) & (lo <= hi) & (hi < math.inf),
                 "sector must satisfy 0 < alpha_lo <= alpha_hi < inf"),
                ((-math.inf < nu) & (nu <= 0.0), "nu must be finite and <= 0"),
                (np.isfinite(self.gamma_raw) & np.isfinite(self.beta),
                 "gamma and beta must be finite")):
            if not ok.all():
                raise ValueError(f"edge {self.graph.edge_label(int(np.argmin(ok)))}: {rule}")

    def edge(self, k: int) -> EdgeCertificate:
        """The certificate values of edge ``k``, with the raw ``gamma``."""
        return EdgeCertificate(nu=float(self.nu[k]), gamma=float(self.gamma_raw[k]),
                               beta=float(self.beta[k]))

    @cached_property
    def gamma(self) -> np.ndarray:
        """Clamped to zero from above; the inequality survives the clamp."""
        return np.minimum(self.gamma_raw, 0.0)

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

    # The certification pass: every quantity below is derived once, on first
    # use, and the later ones reuse the earlier ones through this object.

    @cached_property
    def pair_weight(self) -> np.ndarray:
        """Per-edge weight ``2 + common`` between coupling outputs and
        relative outputs in the network dissipation inequality."""
        return 2.0 + self.graph.stats.common

    @cached_property
    def output_quadratic(self) -> np.ndarray:
        """Per-edge weight ``gamma - exclusive/2`` on the squared relative
        outputs in the network dissipation inequality."""
        return self.gamma - 0.5 * self.graph.stats.exclusive

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
                - (1.0 + lo * lo) * self.graph.stats.exclusive / (2.0 * lo * lo)
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
        """Certified disagreement gain bound, proved over the whole sector
        box by :func:`gain_bound_from_forms`: exact for point sectors, an
        interval bound widened by ``4 p eps ||.||`` against rounding
        otherwise."""
        return gain_bound_from_forms(
            coupling_form=self.forms.coupling_form,
            output_shift=np.diag(self.output_quadratic),
            alpha_lo=self.alpha_lo,
            alpha_hi=self.alpha_hi,
            weight_max=float(np.max(self.pair_weight)),
            slope_max=float(np.max(self.alpha_hi)),
            bias_total=self.bias_total,
        )


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
    coupling_weights = cert.pair_weight / cert.alpha_hi - 0.5 * g.stats.exclusive
    return CertificateForms(
        coupling_form=assemble_pd_matrix(g, cert.nu_node, coupling_weights),
        margin_form=assemble_pd_matrix(g, cert.nu_node, cert.sigma),
    )


@dataclass(frozen=True)
class GainBound:
    """Certified bound ``||relative outputs||_T <= gain * ||W||_T + offset``.

    ``n_min`` is a lower bound on the smallest eigenvalue of the response
    form ``N(eta)`` and ``m_max`` an upper bound on the largest eigenvalue
    of ``M(eta)``, over every slope vector ``eta`` of the sector box (see
    :func:`gain_bound_from_forms`).  The bound is certified only when
    ``n_min > 0``, otherwise ``gain`` and ``offset`` are nan.  ``estimate``
    is ``"exact"`` when every sector is a point, so that both are the
    eigenvalues of the one response form, and ``"interval"`` otherwise:
    the interval-matrix bound, widened by a floating-point allowance.
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


# Multiple of p * eps * ||.|| by which an interval bound is widened; see
# gain_bound_from_forms.
_EIG_ALLOWANCE = 4.0


def gain_bound_from_forms(coupling_form: np.ndarray, output_shift: np.ndarray,
                          alpha_lo, alpha_hi, weight_max: float, slope_max: float,
                          bias_total: float) -> GainBound:
    """Bound the response forms over a slope box and assemble the gain bound.

    For a per-edge slope vector ``eta`` in the box ``alpha_lo <= eta <=
    alpha_hi`` (``0 < alpha_lo``) the response forms are ``M(eta) =
    diag(eta) @ coupling_form @ diag(eta)`` and ``N(eta) = M(eta) +
    output_shift``.  Entry ``(k, l)`` of ``M`` is ``eta_k eta_l C_kl``,
    which lies between the least and the greatest of its four corner
    products; their midpoint ``M_c`` and half-width ``Delta >= 0`` contain
    every ``M(eta)``.  By Weyl's inequality and Rohn's midpoint-radius bound
    for interval matrices (SIAM J. Matrix Anal. Appl. 15(1), 1994; the
    spectral radius of ``Delta`` bounds the 2-norm of every matrix
    dominated by it entrywise)::

        n_min = lambda_min(M_c + output_shift) - lambda_max(Delta) - allowance
        m_max = lambda_max(M_c) + lambda_max(Delta) + allowance

    three symmetric solves for any edge count.  The allowance is ``4 p eps
    ||.||``, with ``||.||`` the largest spectral norm of ``M_c +
    output_shift`` and ``M_c`` plus that of ``Delta``.  ``eigvalsh``
    returns the exact eigenvalues of a perturbation of its input of norm
    about ``p eps ||A||`` (Householder tridiagonalisation; LAPACK Users'
    Guide, section 4.7), and rounding an entry costs a few ``eps`` of its
    magnitude, which is at most ``sqrt(p) eps ||A||`` in norm.  The factor
    4 covers one such term each for the centre solve, the radius solve,
    the rounded corner products, midpoint, radius and sums, and the solve
    of any ``N(eta)`` that the bound is compared against.

    A point box (``alpha_lo == alpha_hi`` on every edge) has ``Delta = 0``:
    it solves ``N`` and ``M`` at the one slope vector, without the radius
    solve or the allowance, and is labelled ``"exact"``.  With ``n_min >
    0``::

        gain   = sqrt(1/2 + (4 slope_max^2 weight_max^2 + 8 m_max^2) / n_min^2)
        offset = sqrt(2 |bias_total| / n_min)
    """
    p = coupling_form.shape[0]
    lo = np.asarray(alpha_lo, dtype=float)
    hi = np.asarray(alpha_hi, dtype=float)
    if lo.shape != (p,) or hi.shape != (p,):
        raise ValueError(f"slope box has shapes {lo.shape} and {hi.shape}, "
                         f"expected ({p},)")
    if not np.all((0.0 < lo) & (lo <= hi)):
        raise ValueError("slope box must satisfy 0 < alpha_lo <= alpha_hi")
    point = bool(np.array_equal(lo, hi))
    centre = coupling_form * np.outer(lo, lo)
    if not point:
        corners = [centre] + [coupling_form * np.outer(a, b)
                              for a, b in ((lo, hi), (hi, lo), (hi, hi))]
        lower = np.minimum.reduce(corners)
        upper = np.maximum.reduce(corners)
        centre = 0.5 * (lower + upper)
        radius = 0.5 * (upper - lower)
    n_eigs = symmetric_eigenvalues(centre + output_shift)
    m_eigs = symmetric_eigenvalues(centre)
    n_min = float(n_eigs[0])
    m_max = float(m_eigs[-1])
    if not point:
        spread = float(symmetric_eigenvalues(radius)[-1])
        scale = max(-n_eigs[0], n_eigs[-1], -m_eigs[0], m_eigs[-1]) + spread
        widen = float(spread + _EIG_ALLOWANCE * p * np.finfo(float).eps * scale)
        n_min -= widen
        m_max += widen
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
                     bias_total=bias_total,
                     estimate="exact" if point else "interval")


def certificate_to_dict(cert: NetworkCertificate) -> dict:
    """JSON-ready payload with one entry per edge (raw ``gamma``)."""
    return {"edges": [
        {"edge": [i, j], **asdict(cert.edge(k)),
         "alpha_lo": float(cert.alpha_lo[k]), "alpha_hi": float(cert.alpha_hi[k])}
        for k, (i, j) in enumerate(cert.graph.edges)
    ]}


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
    rows = []
    for key in g.edges:
        k, entry = by_edge[key]
        try:
            sector = SectorBound(alpha_lo=float(entry["alpha_lo"]),
                                 alpha_hi=float(entry["alpha_hi"]))
            edge = EdgeCertificate(nu=float(entry["nu"]), gamma=float(entry["gamma"]),
                                   beta=float(entry["beta"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"certificate entry {k}: {exc}") from None
        rows.append((sector.alpha_lo, sector.alpha_hi, edge.nu, edge.gamma, edge.beta))
    return NetworkCertificate(graph=g, **dict(zip(_EDGE_ARRAYS, np.array(rows).T)))
