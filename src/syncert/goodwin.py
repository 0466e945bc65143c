"""Three-species oscillator agents with Hill-type repression, their
closed-form pairwise dissipativity certificates, and a grid search over the
two free certificate parameters.

An agent is the chain::

    x1' = -a1 x1 - f(x3) + b1 u        f(x) = -1 / (x**hill + 1)
    x2' = -a2 x2 + b2 x1
    x3' = -a3 x3 + b3 x2

with output ``y = x1``.  Agents across a network share the chain parameters
and differ only in the input gain ``b1``; that heterogeneity is what the
certificates measure.  One :class:`GoodwinParams` describes every agent of
a network: the shared chain once, and the gains as one array.

The certificates use the slope constant ``delta`` of ``f`` as a global
Lipschitz constant.  That holds only for even ``hill``, where ``f`` is even,
so that its largest slope over ``x > 0`` is its largest over the line; for
odd ``hill``, ``f`` has a pole at ``x3 = -1``, and :class:`GoodwinParams`
rejects it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .certificates import NetworkCertificate
from .graphs import Graph, edge_slacks, node_sums
from .simulation import sector_arrays
from .values import ConfigError, integer, positive, read_only

if TYPE_CHECKING:
    from .config import NetworkConfig

__all__ = [
    "GoodwinParams",
    "CertParams",
    "check_hill",
    "SearchResult",
    "hill_slope",
    "hill_slope_max",
    "admissible_theta3_interval",
    "CERTIFICATION_MODES",
    "certify_network",
    "search_params",
]


@dataclass(frozen=True, eq=False)
class GoodwinParams:
    """The oscillators of one network: decay rates ``a1..a3``, chain gains
    ``b2, b3`` and the (even) Hill coefficient of the repression, shared by
    every node, and ``input_gains``, the read-only array whose entry
    ``i - 1`` is the input gain of node ``i``."""

    a1: float
    a2: float
    a3: float
    b2: float
    b3: float
    input_gains: np.ndarray
    hill: int

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3", "b2", "b3"):
            value = positive(getattr(self, name), f"/{name}")
            # the certificate weights square the chain gains
            if name in ("b2", "b3") and not math.isfinite(value * value):
                raise ConfigError(f"/{name}", f"must have a finite square, got {value!r}")
            object.__setattr__(self, name, value)
        check_hill(self.hill)
        try:
            gains = np.array([positive(v, f"/input_gains/{i}")
                              for i, v in enumerate(self.input_gains)])
        except TypeError:
            raise ConfigError("/input_gains",
                              f"expected a list, got {self.input_gains!r}") from None
        object.__setattr__(self, "input_gains", read_only(gains))


def check_hill(hill, even: bool = True) -> None:
    """Reject at ``/hill`` a Hill coefficient that is no integer >= 2, or odd if ``even``."""
    if integer(hill, "/hill") < 2:
        raise ConfigError("/hill", f"hill coefficient must be an integer >= 2, got {hill!r}")
    if even and hill % 2:
        raise ConfigError("/hill", f"hill coefficient must be even, got {hill}: for odd hill "
                                   "the repression -1/(x3**hill + 1) has a pole at x3 = -1")


def hill_slope(hill: int) -> float:
    """Slope constant of the repression ``-1/(x**h + 1)`` used by the
    pairwise certificates.

    This is the slope evaluated at ``x = ((h-1)/(h+1))**(1/(h-1))``, slightly
    off the true maximiser ``((h-1)/(h+1))**(1/h)``; see
    :func:`hill_slope_max` for the exact maximum.  The two agree to about
    1e-4 for large ``h`` but differ by roughly 0.11 at ``h = 2``, so
    certificates report both.
    """
    check_hill(hill, even=False)
    h = float(hill)
    core = ((h - 1.0) / (h + 1.0)) ** (h / (h - 1.0))
    return h * (h - 1.0) / ((core + 1.0) ** 2 * (h + 1.0))


def hill_slope_max(hill: int) -> float:
    """Exact maximum slope of ``-1/(x**h + 1)`` over ``x > 0``, attained at
    ``x = ((h-1)/(h+1))**(1/h)``::

        (h+1)**2 / (4h) * ((h-1)/(h+1))**((h-1)/h)
    """
    check_hill(hill, even=False)
    h = float(hill)
    return (h + 1.0) ** 2 / (4.0 * h) * ((h - 1.0) / (h + 1.0)) ** ((h - 1.0) / h)


@lru_cache(maxsize=None)
def _certificate_slope(hill: int) -> float:
    """Closed-form slope constant, warning once when it strays more than 1%
    from the exact maximum."""
    closed = hill_slope(hill)
    exact = hill_slope_max(hill)
    if abs(closed - exact) > 0.01 * exact:
        warnings.warn(
            f"closed-form slope constant {closed:.6g} for hill={hill} is more "
            f"than 1% away from the exact maximum {exact:.6g}; "
            "certificates use the closed form",
            UserWarning,
            stacklevel=2,
        )
    return closed


# how certify_network assigns nu: the least over all edges, or each edge's own
CERTIFICATION_MODES = ("uniform", "per_edge")


@dataclass(frozen=True)
class CertParams:
    """The certification block: the two free parameters of the pairwise
    certificates and the mode, one of :data:`CERTIFICATION_MODES`."""

    theta: float
    theta3: float
    mode: str = "uniform"

    def __post_init__(self) -> None:
        for name in ("theta", "theta3"):
            object.__setattr__(self, name, positive(getattr(self, name), f"/{name}"))
        if self.mode not in CERTIFICATION_MODES:
            raise ConfigError("/mode",
                              f"mode must be one of {CERTIFICATION_MODES}, got {self.mode!r}")


def admissible_theta3_interval(params: GoodwinParams) -> tuple[float, float]:
    """Open interval of ``theta3`` for which both derived weights are
    positive: ``(b3**2 / (2 a3), 2 a2)``."""
    return params.b3 * params.b3 / (2.0 * params.a3), 2.0 * params.a2


def _weights(params: GoodwinParams, theta3):
    """``(theta1, theta2)`` at admissible ``theta3`` of any shape, unchecked."""
    delta = _certificate_slope(params.hill)
    theta1 = delta * delta * theta3 / (2.0 * params.a3 * theta3 - params.b3 * params.b3)
    theta2 = params.b2 * params.b2 / (2.0 * params.a2 - theta3)
    return theta1, theta2


def _output_weight(params: GoodwinParams, theta, theta1, theta2):
    return params.a1 - theta - 0.5 * theta1 - 0.5 * theta2


def _input_weights(agents: GoodwinParams, g: Graph, theta, mode: str) -> np.ndarray:
    """``nu`` of every edge at each ``theta``, shape ``theta.shape + (p,)``."""
    lower, upper = g.endpoints
    deviation = np.abs(agents.input_gains - 1.0)
    deviation = np.maximum(deviation[lower], deviation[upper])
    nu = -deviation * deviation / (2.0 * np.asarray(theta)[..., None])
    if mode == "uniform" and nu.size:
        # nu falls with the gain deviation, so the worst edge has the least nu
        nu = np.broadcast_to(nu.min(axis=-1, keepdims=True), nu.shape)
    return nu


def certify_network(config: NetworkConfig) -> NetworkCertificate:
    """Build the closed-form pairwise certificates of every edge of a
    validated network description at once, with its ``certification``
    parameters, which must be set.

    The description's ``agents`` are one :class:`GoodwinParams`, whose
    ``input_gains`` hold one gain ``b`` per node.  Over the endpoint arrays
    ``(lower, upper)`` of :attr:`Graph.endpoints`::

        nu    = -max(|b - 1|[lower], |b - 1|[upper])**2 / (2 theta)
        gamma = a1 - theta - theta1/2 - theta2/2     (one scalar, every edge)
        beta  = -1/2 * sum((x0[lower] - x0[upper])**2, axis=1)

    with ``theta1, theta2`` from ``theta3``, which the description has
    checked to be admissible.  The ``"uniform"`` mode gives every edge the
    least ``nu``; the ``"per_edge"`` mode keeps each edge's own, which can
    only enlarge the margins.  Each edge's sector is its coupling's.
    """
    agents, g, cp = config.agents, config.graph, config.certification
    if cp is None:
        raise ConfigError("/certification", "certification block required for this command")
    lower, upper = g.endpoints
    x0 = config.initial_states
    alpha_lo, alpha_hi = sector_arrays(config.couplings)
    # a weight or slack beyond double precision leaves nothing to certify
    with np.errstate(all="ignore"):
        gamma = _output_weight(agents, cp.theta, *_weights(agents, cp.theta3))
        nu = _input_weights(agents, g, cp.theta, cp.mode)
        beta = -0.5 * np.sum((x0[lower] - x0[upper]) ** 2, axis=1)
        for name, values in (("gamma", gamma), ("nu", nu), ("beta", beta)):
            if not np.isfinite(values).all():
                raise ConfigError("/certification", f"{name} overflows double precision")
        cert = NetworkCertificate(graph=g, alpha_lo=alpha_lo, alpha_hi=alpha_hi, nu=nu,
                                  gamma_raw=np.full(nu.shape, gamma), beta=beta)
        if not np.isfinite(cert.slacks).all():
            raise ConfigError("/certification", "slacks overflow double precision")
    return cert


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best grid point of the free-parameter search plus the full grid.

    ``rows`` holds ``(theta, theta3, min_slack, feasible)`` in grid order
    (theta outer, theta3 inner); infeasible points carry nan slack.
    """

    best_theta: float
    best_theta3: float
    best_min_slack: float
    rows: tuple[tuple[float, float, float, bool], ...]


def _parse_range(rng, name: str) -> np.ndarray:
    lo, hi, count = rng
    count = int(count)
    if count < 1:
        raise ValueError(f"{name} range needs at least one point, got count={count}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"{name} range must satisfy lo <= hi, got ({lo}, {hi})")
    if lo <= 0.0:
        raise ValueError(f"{name} values must be positive, got lower end {lo}")
    return np.linspace(lo, hi, count)


def search_params(config: NetworkConfig, theta_range, theta3_range) -> SearchResult:
    """Grid-maximise the worst edge margin of a network description over
    ``(theta, theta3)``, in the mode of its certification block (uniform
    without one).

    Ranges are ``(lo, hi, count)`` with ``count >= 1``; the best point is
    the first maximum in grid order (ties prefer smaller ``theta``, then
    smaller ``theta3``).  Each point's slack is the ``min_slack`` of its
    :func:`certify_network` certificate, bit for bit, from the same
    expressions, evaluated per ``theta`` row over every admissible
    ``theta3`` at once.  Raises ``ValueError`` when no grid point is
    admissible.
    """
    agents, g = config.agents, config.graph
    thetas = _parse_range(theta_range, "theta")
    theta3s = _parse_range(theta3_range, "theta3")
    lo, hi = admissible_theta3_interval(agents)
    admissible = (lo < theta3s) & (theta3s < hi)
    if not admissible.any():
        raise ValueError(
            f"inadmissible certification parameters: no admissible theta3 in the "
            f"grid; need b3^2/(2*a3) = {lo:.6g} < theta3 < 2*a2 = {hi:.6g}"
        )
    # the first admissible point's certificate, of a description checked like
    # any other; its margin weights serve every point
    theta, theta3 = float(thetas[0]), float(theta3s[admissible][0])
    cp = replace(config.certification or CertParams(theta, theta3),
                 theta=theta, theta3=theta3)
    first = certify_network(replace(config, certification=cp))
    theta1, theta2 = _weights(agents, theta3s[admissible])
    nu_nodes = node_sums(g, _input_weights(agents, g, thetas, cp.mode))
    slacks = np.full((thetas.size, theta3s.size), math.nan)
    for row, theta, nu_node in zip(slacks, thetas, nu_nodes):
        # one row of edge weights per admissible theta3
        gamma = _output_weight(agents, theta, theta1, theta2)[:, None]
        sigma = first.margin_weights(gamma)
        row[admissible] = np.min(edge_slacks(g, nu_node, sigma), axis=-1)
    r, c = divmod(int(np.nanargmax(slacks)), theta3s.size)
    rows = tuple((theta, theta3, slack, ok)
                 for theta, row in zip(thetas.tolist(), slacks.tolist())
                 for theta3, slack, ok in zip(theta3s.tolist(), row, admissible.tolist()))
    return SearchResult(float(thetas[r]), float(theta3s[c]), float(slacks[r, c]), rows)
