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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, assemble_pd_matrix, edge_slacks, node_sums
from .linalg import symmetric_eigenvalues
from .values import ConfigError, finite, read_only

__all__ = [
    "POSITIVITY_TOL",
    "SectorBound",
    "NetworkCertificate",
    "CertificateForms",
    "GainBound",
    "UncertifiedBoundError",
    "quadratic_forms",
    "gain_bound_from_forms",
]

# bench/workloads.py reads and rebinds this name; kept so that lookup resolves.
jacobi_eigenvalues = symmetric_eigenvalues

# Margins are declared satisfied only beyond this slack; exact zeros fail.
POSITIVITY_TOL = 1e-12


class UncertifiedBoundError(ValueError):
    """A gain bound that is not certified cannot be evaluated."""


@dataclass(frozen=True)
class SectorBound:
    """Slope sector ``[alpha_lo, alpha_hi]`` of a scalar coupling
    nonlinearity, with ``0 < alpha_lo <= alpha_hi < inf``, stored as
    floats."""

    alpha_lo: float
    alpha_hi: float

    def __post_init__(self) -> None:
        lo, hi = finite(self.alpha_lo, "/alpha_lo"), finite(self.alpha_hi, "/alpha_hi")
        if not 0.0 < lo <= hi:
            raise ConfigError("", f"sector must satisfy 0 < alpha_lo <= alpha_hi < inf, "
                                  f"got ({lo}, {hi})")
        object.__setattr__(self, "alpha_lo", lo)
        object.__setattr__(self, "alpha_hi", hi)


_EDGE_ARRAYS = ("alpha_lo", "alpha_hi", "nu", "gamma_raw", "beta")


@dataclass(frozen=True, eq=False)
class NetworkCertificate:
    """Per-edge slope sectors and pair certificates ``(nu, gamma, beta)``
    over a graph, as read-only float arrays in edge order, plus the derived
    per-node and network aggregates.  A finite ``nu <= 0`` weights a pair's
    input energy, ``gamma_raw`` its relative-output energy and ``beta`` is
    its bias; :attr:`gamma` clamps ``gamma_raw`` to at most 0.  One
    vectorised check rejects a wrong length, a non-finite value and every
    value outside these rules or :class:`SectorBound`'s, naming the first
    offending edge."""

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
            object.__setattr__(self, name, read_only(values))
        lo, hi, nu = self.alpha_lo, self.alpha_hi, self.nu
        for ok, rule in (
                ((0.0 < lo) & (lo <= hi) & (hi < math.inf),
                 "sector must satisfy 0 < alpha_lo <= alpha_hi < inf"),
                ((-math.inf < nu) & (nu <= 0.0), "nu must be finite and <= 0"),
                (np.isfinite(self.gamma_raw) & np.isfinite(self.beta),
                 "gamma and beta must be finite")):
            if not ok.all():
                raise ValueError(f"edge {self.graph.edge_label(int(np.argmin(ok)))}: {rule}")

    @cached_property
    def gamma(self) -> np.ndarray:
        """Clamped to zero from above; the inequality survives the clamp."""
        return np.minimum(self.gamma_raw, 0.0)

    @cached_property
    def bias_total(self) -> float:
        return float(np.sum(self.beta))

    @cached_property
    def nu_node(self) -> np.ndarray:
        """Per-node sum of ``nu`` over incident edges (:func:`~syncert.graphs.node_sums`)."""
        return node_sums(self.graph, self.nu)

    # The certification pass: every quantity below is derived once, on first
    # use, and the later ones reuse the earlier ones through this object.

    @cached_property
    def pair_weight(self) -> np.ndarray:
        """Per-edge weight ``2 + common`` between coupling outputs and
        relative outputs in the network dissipation inequality."""
        return 2.0 + self.graph.common

    @cached_property
    def output_quadratic(self) -> np.ndarray:
        """Per-edge weight ``gamma - exclusive/2`` on the squared relative
        outputs in the network dissipation inequality."""
        return self.gamma - 0.5 * self.graph.exclusive

    def margin_weights(self, gamma_raw) -> np.ndarray:
        """Per-edge weight ``sigma`` of the margin form ``D.T @ diag(nu_node)
        @ D + diag(sigma)`` at the output weights ``gamma_raw``::

            sigma = (2 + c)/alpha_hi
                    - (1 + alpha_lo**2) * e / (2 * alpha_lo**2)
                    + min(gamma, 0) / alpha_lo**2

        with ``c`` and ``e`` the edge's common and exclusive neighbour
        counts.  ``gamma_raw[:, None]`` gives one row per output weight.
        """
        lo = self.alpha_lo
        return (self.pair_weight / self.alpha_hi
                - (1.0 + lo * lo) * self.graph.exclusive / (2.0 * lo * lo)
                + np.minimum(gamma_raw, 0.0) / (lo * lo))

    @cached_property
    def sigma(self) -> np.ndarray:
        return self.margin_weights(self.gamma_raw)

    @cached_property
    def slacks(self) -> np.ndarray:
        """Distributed per-edge synchronisation margin.

        The slack of edge ``(i, j)`` with degrees ``r`` is the
        :func:`~syncert.graphs.edge_slacks` margin of the margin form::

            sigma_k - r_i * |nu_node_i| - r_j * |nu_node_j|

        (``nu_node <= 0``), where ``nu_node_i`` sums ``nu`` over the edges
        incident to node ``i``.  Every quantity is local to the edge and its
        endpoints, so each agent pair can evaluate its own slack.
        """
        return edge_slacks(self.graph, self.nu_node, self.sigma)

    @cached_property
    def edge_ok(self) -> np.ndarray:
        return self.slacks > POSITIVITY_TOL

    @cached_property
    def satisfied(self) -> bool:
        """Connected, with every edge ok: on a disconnected graph agreement
        of the relative outputs does not synchronise the agents."""
        return self.graph.is_connected and bool(np.all(self.edge_ok))

    @cached_property
    def min_slack(self) -> float:
        return float(np.min(self.slacks))

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
    :meth:`NetworkCertificate.margin_weights`.
    """
    if cert.graph != g:
        raise ValueError("certificate was assembled over a different graph")
    coupling_weights = cert.pair_weight / cert.alpha_hi - 0.5 * g.exclusive
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
    n_min: float
    m_max: float
    estimate: str

    @property
    def certified(self) -> bool:
        """``n_min > 0``, which a nan ``n_min`` fails."""
        return self.n_min > 0.0

    @property
    def why_uncertified(self) -> str | None:
        """Why the bound is not certified, None when it is; ``n_min`` is nan
        when a response form overflows."""
        return None if self.certified else (
            "the response forms overflow double precision" if math.isnan(self.n_min)
            else f"n_min = {self.n_min:.6g} <= 0")

    def require_certified(self, consequence: str) -> None:
        """Unless the bound is certified, raise :class:`UncertifiedBoundError`
        with why it is not and then ``consequence``."""
        if not self.certified:
            raise UncertifiedBoundError(
                f"gain bound is not certified ({self.why_uncertified}); {consequence}")


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
    which lies between its corner products ``ll = lo_k lo_l C_kl`` and ``hh
    = hi_k hi_l C_kl``; their midpoint ``M_c = (ll + hh)/2`` and half-width
    ``Delta = |hh - ll|/2`` contain every ``M(eta)``.  They are those of all
    four corners, bit for bit: ``lo_k lo_l <= lo_k hi_l <= hi_k hi_l``, and
    rounding and the product with ``C_kl`` are monotone, so no rounded mixed
    corner is the least or the greatest.  By Weyl's inequality and Rohn's
    midpoint-radius bound for interval matrices (SIAM J. Matrix Anal. Appl.
    15(1), 1994; the spectral radius of ``Delta`` bounds the 2-norm of
    every matrix dominated by it entrywise)::

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
    estimate = "exact" if point else "interval"
    # a form beyond double precision leaves the bound uncertified
    with np.errstate(over="ignore", invalid="ignore"):
        centre = coupling_form * np.outer(lo, lo)
        radius = np.zeros_like(centre)
        if not point:
            far = coupling_form * np.outer(hi, hi)
            centre, radius = 0.5 * (centre + far), 0.5 * np.abs(far - centre)
        response = centre + output_shift
    if not all(np.isfinite(form).all() for form in (centre, radius, response)):
        return GainBound(math.nan, math.nan, math.nan, math.nan, estimate)
    n_eigs = symmetric_eigenvalues(response)
    m_eigs = symmetric_eigenvalues(centre)
    n_min = float(n_eigs[0])
    m_max = float(m_eigs[-1])
    if not point:
        spread = float(symmetric_eigenvalues(radius)[-1])
        scale = max(-n_eigs[0], n_eigs[-1], -m_eigs[0], m_eigs[-1]) + spread
        widen = float(spread + _EIG_ALLOWANCE * p * np.finfo(float).eps * scale)
        n_min -= widen
        m_max += widen
    gain = offset = math.nan
    if n_min > 0.0:
        gain = math.sqrt(0.5 + (4.0 * slope_max * slope_max * weight_max * weight_max
                                + 8.0 * m_max * m_max) / (n_min * n_min))
        offset = math.sqrt(2.0 * abs(bias_total) / n_min)
    return GainBound(gain=gain, offset=offset, n_min=n_min, m_max=m_max, estimate=estimate)

