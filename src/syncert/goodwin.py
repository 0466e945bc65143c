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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .certificates import NetworkCertificate, sector_arrays
from .graphs import Graph

__all__ = [
    "InadmissibleParams",
    "GoodwinParams",
    "CertParams",
    "SearchResult",
    "hill_slope",
    "hill_slope_max",
    "admissible_theta3_interval",
    "resolve_weights",
    "CERTIFICATION_MODES",
    "certify_network",
    "search_params",
]


class InadmissibleParams(ValueError):
    """Free certificate parameters outside their admissible region."""


@dataclass(frozen=True, eq=False)
class GoodwinParams:
    """The oscillators of one network: decay rates ``a1..a3``, chain gains
    ``b2, b3`` and the Hill coefficient of the repression, shared by every
    node, and ``input_gains``, the read-only array whose entry ``i - 1`` is
    the input gain of node ``i``."""

    a1: float
    a2: float
    a3: float
    b2: float
    b3: float
    input_gains: np.ndarray
    hill: int

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3", "b2", "b3"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        _check_hill(self.hill)
        gains = np.array(self.input_gains, dtype=float)
        if gains.ndim != 1 or gains.size == 0:
            raise ValueError("input gains must be a non-empty 1-D array, "
                             f"got shape {gains.shape}")
        ok = np.isfinite(gains) & (gains > 0.0)
        if not ok.all():
            k = int(np.argmin(ok))
            raise ValueError(f"node {k + 1}: input_gain must be a positive finite "
                             f"number, got {float(gains[k])!r}")
        gains.flags.writeable = False
        object.__setattr__(self, "input_gains", gains)


def _check_hill(hill) -> None:
    if isinstance(hill, bool) or not isinstance(hill, (int, np.integer)) or hill < 2:
        raise ValueError(f"hill coefficient must be an integer >= 2, got {hill!r}")


def hill_slope(hill: int) -> float:
    """Slope constant of the repression ``-1/(x**h + 1)`` used by the
    pairwise certificates.

    This is the slope evaluated at ``x = ((h-1)/(h+1))**(1/(h-1))``, slightly
    off the true maximiser ``((h-1)/(h+1))**(1/h)``; see
    :func:`hill_slope_max` for the exact maximum.  The two agree to about
    1e-4 for large ``h`` but differ by roughly 0.11 at ``h = 2``, so
    certificates report both.
    """
    _check_hill(hill)
    h = float(hill)
    core = ((h - 1.0) / (h + 1.0)) ** (h / (h - 1.0))
    return h * (h - 1.0) / ((core + 1.0) ** 2 * (h + 1.0))


def hill_slope_max(hill: int) -> float:
    """Exact maximum slope of ``-1/(x**h + 1)`` over ``x > 0``, attained at
    ``x = ((h-1)/(h+1))**(1/h)``::

        (h+1)**2 / (4h) * ((h-1)/(h+1))**((h-1)/h)
    """
    _check_hill(hill)
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


@dataclass(frozen=True)
class CertParams:
    """The two free parameters of the pairwise certificate construction."""

    theta: float
    theta3: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not (math.isfinite(self.theta3) and self.theta3 > 0.0):
            raise ValueError(f"theta3 must be positive, got {self.theta3}")


def admissible_theta3_interval(params: GoodwinParams) -> tuple[float, float]:
    """Open interval of ``theta3`` for which both derived weights are
    positive: ``(b3**2 / (2 a3), 2 a2)``."""
    return params.b3 ** 2 / (2.0 * params.a3), 2.0 * params.a2


def resolve_weights(cp: CertParams, params: GoodwinParams) -> tuple[float, float]:
    """Derived certificate weights ``(theta1, theta2)``.

    Raises :class:`InadmissibleParams` naming the violated bound when
    ``theta3`` leaves the admissible interval.
    """
    lo, hi = admissible_theta3_interval(params)
    if cp.theta3 <= lo:
        raise InadmissibleParams(
            f"theta3 = {cp.theta3:.6g} must exceed b3^2/(2*a3) = {lo:.6g}"
        )
    if cp.theta3 >= hi:
        raise InadmissibleParams(
            f"theta3 = {cp.theta3:.6g} must stay below 2*a2 = {hi:.6g}"
        )
    delta = _certificate_slope(params.hill)
    theta1 = delta * delta * cp.theta3 / (2.0 * params.a3 * cp.theta3 - params.b3 ** 2)
    theta2 = params.b2 ** 2 / (2.0 * params.a2 - cp.theta3)
    return theta1, theta2


# how certify_network assigns nu: the least over all edges, or each edge's own
CERTIFICATION_MODES = ("uniform", "per_edge")


def certify_network(agents: GoodwinParams, g: Graph, cp: CertParams,
                    alpha_lo, alpha_hi, initial_states=None,
                    mode: str = "uniform") -> NetworkCertificate:
    """Build the closed-form pairwise certificates of every edge at once.

    ``agents`` is the one :class:`GoodwinParams` of the network, whose
    ``input_gains`` hold one gain ``b`` per node.  Over the endpoint arrays
    ``(lower, upper)`` of :attr:`Graph.endpoints`::

        nu    = -max(|b - 1|[lower], |b - 1|[upper])**2 / (2 theta)
        gamma = a1 - theta - theta1/2 - theta2/2     (one scalar, every edge)
        beta  = -1/2 * sum((x0[lower] - x0[upper])**2, axis=1)

    with ``theta1, theta2`` from :func:`resolve_weights`.  ``mode="uniform"``
    gives every edge the least ``nu``; ``mode="per_edge"`` keeps each edge's
    own, which can only enlarge the margins.  ``alpha_lo`` and ``alpha_hi``
    are the sector arrays of :func:`~syncert.certificates.sector_arrays`;
    ``initial_states`` is ``(n, 3)`` and defaults to zeros.
    """
    if agents.input_gains.size != g.n:
        raise ValueError(f"{agents.input_gains.size} agents for {g.n} nodes")
    if mode not in CERTIFICATION_MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, CERTIFICATION_MODES))}, "
                         f"got {mode!r}")
    if initial_states is None:
        x0 = np.zeros((g.n, 3))
    else:
        x0 = np.asarray(initial_states, dtype=float)
        if x0.shape != (g.n, 3):
            raise ValueError(
                f"initial states have shape {x0.shape}, expected ({g.n}, 3)"
            )
    theta1, theta2 = resolve_weights(cp, agents)
    gamma = agents.a1 - cp.theta - 0.5 * theta1 - 0.5 * theta2
    lower, upper = g.endpoints
    deviation = np.abs(agents.input_gains - 1.0)
    deviation = np.maximum(deviation[lower], deviation[upper])
    nu = -deviation * deviation / (2.0 * cp.theta)
    if mode == "uniform" and nu.size:
        # nu falls with the gain deviation, so the worst edge has the least nu
        nu = np.full(nu.shape, nu.min())
    beta = -0.5 * np.sum((x0[lower] - x0[upper]) ** 2, axis=1)
    return NetworkCertificate(graph=g, alpha_lo=alpha_lo, alpha_hi=alpha_hi, nu=nu,
                              gamma_raw=np.full(nu.shape, gamma), beta=beta)


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
    if count == 1:
        return np.array([lo])
    return np.linspace(lo, hi, count)


def search_params(agents: GoodwinParams, g: Graph, sectors, theta_range,
                  theta3_range, mode: str = "uniform") -> SearchResult:
    """Grid-maximise the worst edge margin over ``(theta, theta3)``.

    Ranges are ``(lo, hi, count)`` with ``count >= 1``; ties prefer smaller
    ``theta`` and then smaller ``theta3``.  Margins do not involve the bias
    term, so no initial states are needed.  Every grid point reads the
    margins of one :func:`certify_network` certificate; the sector arrays
    are built once per grid, the edge statistics once per graph.  Raises
    :class:`InadmissibleParams` when no grid point is admissible.
    """
    alpha_lo, alpha_hi = sector_arrays(sectors)
    thetas = _parse_range(theta_range, "theta")
    theta3s = _parse_range(theta3_range, "theta3")
    best: tuple[float, float, float] | None = None
    rows: list[tuple[float, float, float, bool]] = []
    for theta in thetas:
        for theta3 in theta3s:
            cp = CertParams(theta=float(theta), theta3=float(theta3))
            try:
                cert = certify_network(agents, g, cp, alpha_lo, alpha_hi, mode=mode)
            except InadmissibleParams:
                rows.append((float(theta), float(theta3), math.nan, False))
                continue
            min_slack = cert.margins.min_slack
            rows.append((float(theta), float(theta3), min_slack, True))
            if best is None or min_slack > best[2]:
                best = (float(theta), float(theta3), min_slack)
    if best is None:
        lo, hi = admissible_theta3_interval(agents)
        raise InadmissibleParams(
            f"no admissible theta3 in the grid; need "
            f"b3^2/(2*a3) = {lo:.6g} < theta3 < 2*a2 = {hi:.6g}"
        )
    return SearchResult(best_theta=best[0], best_theta3=best[1],
                        best_min_slack=best[2], rows=tuple(rows))
