"""Closed-loop network simulation: oscillator agents under diffusive
nonlinear couplings with per-edge disturbances, fixed-step RK4 integration,
and finite-horizon norms and inner products for the certificate checks.

Per edge ``k = (i, j)`` the coupling argument is ``x_k = y_i - y_j + w_k``
(the sign convention rides on the canonical incidence orientation), the
coupling output is ``v_k = theta_k(x_k)``, and the stacked node inputs are
``u = -D v``, which sums to zero across the network.  The disturbance is
held constant over each integration step.  Several disturbance realisations
of one network integrate in one pass as disjoint copies (:func:`run_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .certificates import (
    EdgeCertificate,
    GainBound,
    NetworkCertificate,
    SectorBound,
    UncertifiedBoundError,
)
from .goodwin import GoodwinParams
from .graphs import Graph, incidence
from .noise import normals

__all__ = [
    "SimulationDiverged",
    "UncertifiedBoundError",
    "CouplingSpec",
    "CouplingGroup",
    "NetworkCopies",
    "SectorCheck",
    "DisturbanceSpec",
    "NetworkModel",
    "SimulationTrace",
    "BoundCheck",
    "linear_coupling",
    "affine_sinusoid_coupling",
    "piecewise_linear_coupling",
    "verify_sector",
    "rk4_step",
    "step",
    "run",
    "run_batch",
    "bound_check",
]

_COUPLING_KINDS = ("linear", "affine_sinusoid", "piecewise_linear")
_DISTURBANCE_KINDS = ("gaussian", "zero", "constant")

# Coupling arguments below this magnitude are treated as zero when slope
# ratios are formed; the sector midpoint is substituted there.
SLOPE_EPS = 1e-12


class SimulationDiverged(RuntimeError):
    """The integrator produced a non-finite state."""

    def __init__(self, time: float, message: str | None = None) -> None:
        self.time = time
        super().__init__(message or f"non-finite state at t = {time:.6g}")


@dataclass(frozen=True)
class CouplingSpec:
    """One odd, sector-bounded scalar coupling nonlinearity.

    Oddness is structural: every kind is built from odd primitives (identity,
    sine, odd extension of a half-line polyline), so only ``x >= 0`` shapes
    are ever specified.  The declared sector is a claim checked separately by
    :func:`verify_sector`.
    """

    kind: str
    sector: SectorBound
    gain: float = 0.0
    amplitude: float = 0.0
    knots: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _COUPLING_KINDS:
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        if self.kind in ("linear", "affine_sinusoid"):
            if not (math.isfinite(self.gain) and self.gain > 0.0):
                raise ValueError(f"coupling gain must be positive, got {self.gain}")
        if self.kind == "affine_sinusoid" and not math.isfinite(self.amplitude):
            raise ValueError(f"sinusoid amplitude must be finite, got {self.amplitude}")
        if self.kind == "piecewise_linear":
            if not self.knots:
                raise ValueError("piecewise_linear coupling needs at least one knot")
            prev_x = 0.0
            for x, y in self.knots:
                if not (math.isfinite(x) and math.isfinite(y) and x > prev_x):
                    raise ValueError(
                        "knot abscissae must be finite, positive and strictly "
                        f"increasing, got {self.knots!r}"
                    )
                prev_x = x

    @cached_property
    def _params(self) -> tuple[np.ndarray, ...]:
        """This spec's parameter arrays as a one-edge kind table."""
        return _kind_params(self.kind, (self,))

    def __call__(self, x):
        """Evaluate elementwise on scalars or arrays, through the kind
        kernel that :meth:`NetworkModel.evaluate_couplings` uses."""
        arg = np.asarray(x, dtype=float)
        out = _KERNELS[self.kind](arg[..., None], *self._params)[..., 0]
        return out if out.shape else float(out)


def _linear(x, gain):
    return gain * x


def _affine_sinusoid(x, gain, amplitude):
    return gain * x + amplitude * np.sin(x)


def _piecewise_linear(x, xs, ys, slopes):
    """Odd extension of per-edge polylines through the origin.

    Row ``j`` of the ``(K, q)`` tables holds knot ``j`` of each of the ``q``
    edges on the last axis of ``x`` (row 0 is the origin, and a shorter
    polyline repeats its last knot); ``slopes[j]`` is the slope of the
    segment leaving knot ``j``.  The last slope continues past the last knot
    instead of clamping, so the ratio to ``x`` stays inside a positive sector
    at large arguments.
    """
    mag = np.abs(x)
    seg = np.zeros(mag.shape, dtype=np.intp)
    for knots in xs[1:]:
        seg += mag >= knots
    # flat index of (seg, edge) into the C-ordered (K, q) tables
    pick = seg * xs.shape[1] + np.arange(xs.shape[1])
    offset = mag - xs.take(pick)
    y = ys.take(pick)
    # a knot itself maps to its ordinate exactly, signed zero included
    return np.sign(x) * np.where(offset == 0.0, y, slopes.take(pick) * offset + y)


_KERNELS = {"linear": _linear, "affine_sinusoid": _affine_sinusoid,
            "piecewise_linear": _piecewise_linear}


def _kind_params(kind: str, specs) -> tuple[np.ndarray, ...]:
    """The parameter arrays of the kernel of ``kind`` for same-kind
    ``specs``, one edge per entry of the last axis."""
    if kind == "linear":
        return (np.array([s.gain for s in specs], dtype=float),)
    if kind == "affine_sinusoid":
        return (np.array([s.gain for s in specs], dtype=float),
                np.array([s.amplitude for s in specs], dtype=float))
    rows = 1 + max(len(s.knots) for s in specs)
    columns = []
    for s in specs:
        xs = [0.0, *(float(x) for x, _ in s.knots)]
        ys = [0.0, *(float(y) for _, y in s.knots)]
        slopes = [(ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) for j in range(len(xs) - 1)]
        # the last knot and the padding rows continue the final segment
        columns.append([c + c[-1:] * (rows - len(c)) for c in (xs, ys, slopes)])
    return tuple(np.array(table).T.copy() for table in zip(*columns))


def linear_coupling(gain: float) -> CouplingSpec:
    """Pure gain; its sector is the single point ``gain``."""
    return CouplingSpec(kind="linear", sector=SectorBound(gain, gain), gain=gain)


def affine_sinusoid_coupling(gain: float, amplitude: float,
                             sector: SectorBound) -> CouplingSpec:
    return CouplingSpec(kind="affine_sinusoid", sector=sector, gain=gain,
                        amplitude=amplitude)


def piecewise_linear_coupling(knots, sector: SectorBound) -> CouplingSpec:
    return CouplingSpec(kind="piecewise_linear", sector=sector,
                        knots=tuple((float(x), float(y)) for x, y in knots))


@dataclass(frozen=True, eq=False)
class SectorCheck:
    """Exact extremes of the slope ratio ``spec(x)/x`` over ``x != 0``,
    against the declared sector."""

    passed: bool
    ratio_min: float
    ratio_max: float


# min of sin(x)/x, reached at the first positive root x* of tan(x) = x
SINC_MIN = math.sin(4.493409457909064) / 4.493409457909064


def _slope_ratio_range(spec: CouplingSpec) -> tuple[float, float]:
    if spec.kind == "linear":
        return spec.gain, spec.gain
    if spec.kind == "affine_sinusoid":
        # gain + amplitude * sin(x)/x with sin(x)/x in [SINC_MIN, 1]
        ends = (spec.gain + spec.amplitude * SINC_MIN, spec.gain + spec.amplitude)
        return min(ends), max(ends)
    # y/x is monotone on every segment, so its extremes sit at the knots,
    # next to the origin (the first slope) or at infinity (the last slope)
    xs, ys, slopes = (table[:, 0] for table in spec._params)
    ratios = np.append(ys[1:] / xs[1:], slopes[-1])
    return float(np.min(ratios)), float(np.max(ratios))


def verify_sector(spec: CouplingSpec, tol: float = 1e-9) -> SectorCheck:
    """Check the declared sector against the closed-form slope-ratio range.

    The spec passes when ``[ratio_min, ratio_max]`` lies within
    ``[alpha_lo - tol, alpha_hi + tol]``.  The range is exact for every
    coupling kind (an extreme may be a limit at zero or infinity), so a pass
    proves the declaration.
    """
    ratio_min, ratio_max = _slope_ratio_range(spec)
    passed = bool(ratio_min >= spec.sector.alpha_lo - tol
                  and ratio_max <= spec.sector.alpha_hi + tol)
    return SectorCheck(passed=passed, ratio_min=ratio_min, ratio_max=ratio_max)


@dataclass(frozen=True)
class DisturbanceSpec:
    """Per-edge link disturbance: seeded white Gaussian (held per step),
    a constant, or zero.  ``scale`` is the standard deviation for the
    Gaussian kind and the value itself for the constant kind."""

    kind: str = "zero"
    scale: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _DISTURBANCE_KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if not (math.isfinite(self.scale) and self.scale >= 0.0):
            raise ValueError(f"scale must be nonnegative, got {self.scale}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    def held_values(self, count: int) -> np.ndarray:
        """The sequence of values held over successive integration steps."""
        if self.kind == "gaussian":
            return self.scale * normals(self.seed, count)
        if self.kind == "constant":
            return np.full(count, self.scale)
        return np.zeros(count)


class CouplingGroup(NamedTuple):
    """The edges of one coupling kind, as a last-axis index, and the
    parameter arrays of its kernel, one edge per entry of the last axis."""

    kind: str
    edges: slice | np.ndarray
    params: tuple[np.ndarray, ...]


def _evaluate(table: tuple[CouplingGroup, ...], x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    for kind, edges, params in table:
        out[..., edges] = _KERNELS[kind](x[..., edges], *params)
    return out


class NetworkCopies(NamedTuple):
    """``count`` disjoint copies of one network, the layout of
    :func:`run_batch`: copy ``s`` owns node rows ``s*n + i`` and edge
    columns ``s*p + k``, and no term couples two copies."""

    count: int
    lower: np.ndarray
    upper: np.ndarray
    input_gains: np.ndarray
    coupling_table: tuple[CouplingGroup, ...]


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """A graph of oscillators (one :class:`GoodwinParams` with a gain per
    node) plus couplings, disturbances and initial states; everything
    :func:`run` needs."""

    graph: Graph
    agents: GoodwinParams
    couplings: tuple[CouplingSpec, ...]
    disturbances: tuple[DisturbanceSpec, ...]
    initial_states: np.ndarray

    def __post_init__(self) -> None:
        n, p = self.graph.n, self.graph.edge_count
        if self.agents.input_gains.size != n:
            raise ValueError(f"{self.agents.input_gains.size} agents for {n} nodes")
        if len(self.couplings) != p:
            raise ValueError(f"{len(self.couplings)} couplings for {p} edges")
        if len(self.disturbances) != p:
            raise ValueError(f"{len(self.disturbances)} disturbances for {p} edges")
        x0 = np.array(self.initial_states, dtype=float)
        if x0.shape != (n, 3):
            raise ValueError(f"initial states have shape {x0.shape}, expected ({n}, 3)")
        object.__setattr__(self, "initial_states", x0)

    @cached_property
    def incidence_matrix(self) -> np.ndarray:
        return incidence(self.graph).astype(float)

    @property
    def sectors(self) -> tuple[SectorBound, ...]:
        return tuple(c.sector for c in self.couplings)

    @cached_property
    def coupling_table(self) -> tuple[CouplingGroup, ...]:
        """The couplings grouped by kind, in order of first appearance: at
        most three kernels however many distinct couplings there are.  A kind
        whose edges are contiguous is indexed by a slice, so a network with
        one kind never copies its arguments."""
        members: dict[str, list[int]] = {}
        for k, coupling in enumerate(self.couplings):
            members.setdefault(coupling.kind, []).append(k)
        return tuple(
            CouplingGroup(kind,
                          slice(ks[0], ks[-1] + 1) if ks[-1] - ks[0] == len(ks) - 1
                          else np.array(ks),
                          _kind_params(kind, [self.couplings[k] for k in ks]))
            for kind, ks in members.items())

    def evaluate_couplings(self, x: np.ndarray) -> np.ndarray:
        """Coupling outputs for the per-edge arguments on the last axis of
        ``x``, one kernel call per kind."""
        return _evaluate(self.coupling_table, x)

    @cached_property
    def _copies(self) -> dict[int, NetworkCopies]:
        return {}

    def copies(self, count: int) -> NetworkCopies:
        """The gather indices, input gains and coupling table of ``count``
        copies of this network, built once per count.  A kind on every
        edge keeps a slice, so a one-kind batch copies nothing."""
        layout = self._copies.get(count)
        if layout is None:
            n, p = self.graph.n, self.graph.edge_count
            lower, upper = (
                (ends + n * np.arange(count)[:, None]).ravel()
                for ends in self.graph.endpoints)
            table = []
            for kind, edges, params in self.coupling_table:
                members = np.arange(p)[edges]
                if members.size == p:
                    edges = slice(None)
                elif count > 1:
                    edges = (members + p * np.arange(count)[:, None]).ravel()
                table.append(CouplingGroup(
                    kind, edges, tuple(np.tile(a, count) for a in params)))
            layout = self._copies[count] = NetworkCopies(
                count, lower, upper, np.tile(self.agents.input_gains, count),
                tuple(table))
        return layout

    def derivative(self, state: np.ndarray, w_row: np.ndarray) -> np.ndarray:
        """Right-hand side of the coupled network at one time instant, for
        one copy or a stack of copies laid out as :meth:`copies` says.

        Call it under :func:`step`, which silences non-finite intermediates;
        the step-boundary finiteness check is what reports blow-up.
        """
        agents = self.agents
        layout = self.copies(state.shape[0] // self.graph.n)
        x1 = state[:, 0]
        x2 = state[:, 1]
        x3 = state[:, 2]
        repression = -1.0 / (x3 ** agents.hill + 1.0)
        # each incidence column holds one +1 and one -1, so this gather
        # equals x1 @ D bit for bit
        v = _evaluate(layout.coupling_table,
                      x1[layout.lower] - x1[layout.upper] + w_row)
        # one gemv per copy, the same reduction as D @ v on a single copy;
        # the physical input is -u
        u = np.matmul(self.incidence_matrix,
                      v.reshape(layout.count, self.graph.edge_count, 1)).reshape(-1)
        out = np.empty_like(state)
        out[:, 0] = -agents.a1 * x1 - repression - layout.input_gains * u
        out[:, 1] = agents.b2 * x1 - agents.a2 * x2
        out[:, 2] = agents.b3 * x2 - agents.a3 * x3
        return out


def rk4_step(field, t: float, state, dt: float):
    """One classical fourth-order Runge-Kutta step of ``state' = field(t,
    state)``."""
    k1 = field(t, state)
    k2 = field(t + 0.5 * dt, state + (0.5 * dt) * k1)
    k3 = field(t + 0.5 * dt, state + (0.5 * dt) * k2)
    k4 = field(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def step(model: NetworkModel, state: np.ndarray, t: float, dt: float,
         w_row: np.ndarray) -> np.ndarray:
    """Advance the network one RK4 step with the disturbance row held
    constant; raises :class:`SimulationDiverged` on non-finite results."""
    # non-finite intermediates must not warn; the isfinite check raises
    with np.errstate(over="ignore", invalid="ignore"):
        nxt = rk4_step(lambda _t, s: model.derivative(s, w_row), t, state, dt)
    if not np.isfinite(nxt).all():
        raise SimulationDiverged(t + dt)
    return nxt


def _cumtrapz(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoidal integral of a sampled scalar signal."""
    csum = np.cumsum(values)
    return dt * (csum - 0.5 * (values[0] + values))


def _cumtrapz_norm_sq(signal: np.ndarray, dt: float) -> np.ndarray:
    return _cumtrapz(np.einsum("ti,ti->t", signal, signal), dt)


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Full-grid simulation record plus running certificate quantities.

    ``held_disturbance`` row ``m`` is the value applied on the step that
    starts at ``t_m``; trapezoidal integrals use the grid-point values of all
    signals.  Everything derived (relative outputs, coupling outputs, node
    inputs, running norms) is computed lazily and cached.
    """

    model: NetworkModel
    dt: float
    stride: int
    states: np.ndarray
    held_disturbance: np.ndarray

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @cached_property
    def times(self) -> np.ndarray:
        return np.arange(self.states.shape[0]) * self.dt

    @cached_property
    def outputs(self) -> np.ndarray:
        return self.states[:, :, 0]

    @cached_property
    def relative_outputs(self) -> np.ndarray:
        return self.outputs @ self.model.incidence_matrix

    @cached_property
    def coupling_arguments(self) -> np.ndarray:
        return self.relative_outputs + self.held_disturbance

    @cached_property
    def coupling_outputs(self) -> np.ndarray:
        return self.model.evaluate_couplings(self.coupling_arguments)

    @cached_property
    def inputs(self) -> np.ndarray:
        return -(self.coupling_outputs @ self.model.incidence_matrix.T)

    @cached_property
    def norm_rel_sq(self) -> np.ndarray:
        """Running squared norm of the relative outputs."""
        return _cumtrapz_norm_sq(self.relative_outputs, self.dt)

    @cached_property
    def norm_dist_sq(self) -> np.ndarray:
        """Running squared norm of the held disturbance."""
        return _cumtrapz_norm_sq(self.held_disturbance, self.dt)

    @cached_property
    def sample_indices(self) -> np.ndarray:
        idx = np.arange(0, self.steps + 1, self.stride)
        if idx[-1] != self.steps:
            idx = np.append(idx, self.steps)
        return idx

    def index_at(self, horizon: float) -> int:
        idx = int(round(horizon / self.dt))
        if idx < 0 or idx > self.steps or \
                abs(idx * self.dt - horizon) > 1e-9 * max(1.0, abs(horizon)):
            raise ValueError(f"horizon {horizon} is not on the simulation grid")
        return idx

    def norm_rel(self, horizon: float) -> float:
        return math.sqrt(float(self.norm_rel_sq[self.index_at(horizon)]))

    def norm_dist(self, horizon: float) -> float:
        return math.sqrt(float(self.norm_dist_sq[self.index_at(horizon)]))

    def disagreement(self, index: int = -1) -> float:
        """Largest pairwise output difference at one grid index."""
        row = self.outputs[index]
        return float(row.max() - row.min())

    def realized_slopes(self, indices=None) -> np.ndarray:
        """Coupling slope ratios ``v/x`` per edge at the given grid indices;
        where ``|x|`` falls below ``SLOPE_EPS`` the sector midpoint is
        substituted."""
        idx = self.sample_indices if indices is None else np.asarray(indices)
        x = self.coupling_arguments[idx]
        v = self.coupling_outputs[idx]
        mids = np.array([c.sector.midpoint for c in self.model.couplings])
        eta = np.broadcast_to(mids, x.shape).copy()
        usable = np.abs(x) > SLOPE_EPS
        np.divide(v, x, out=eta, where=usable)
        return eta

    def dissipation_curves(self, cert: NetworkCertificate) -> tuple[np.ndarray, np.ndarray]:
        """Residual and right-hand side of the network dissipation
        inequality of ``cert`` at every grid time.

        The input-energy term ``v.T D.T diag(nu_node) D v`` is taken in node
        space as ``sum_i nu_node_i u_i**2``, since ``u = -D v``.
        """
        if cert.graph != self.model.graph:
            raise ValueError("certificate was assembled over a different graph")
        v = self.coupling_outputs
        rel = self.relative_outputs
        u = self.inputs
        lhs = -_cumtrapz((v * rel) @ cert.pair_weight, self.dt)
        rhs = (
            _cumtrapz((rel * rel) @ cert.output_quadratic, self.dt)
            + _cumtrapz((u * u) @ cert.nu_node
                        - (v * v) @ (0.5 * cert.graph.stats.exclusive), self.dt)
            + cert.bias_total
        )
        return lhs - rhs, rhs

    def pair_residual_curves(self, edge_index: int,
                             certificate: EdgeCertificate) -> tuple[np.ndarray, np.ndarray]:
        """Residual and right-hand side of one pair's dissipativity
        inequality at every grid time, using the realized node inputs."""
        i, j = self.model.graph.edges[edge_index]
        du = self.inputs[:, i - 1] - self.inputs[:, j - 1]
        dy = self.outputs[:, i - 1] - self.outputs[:, j - 1]
        lhs = _cumtrapz(du * dy, self.dt)
        energy = (
            _cumtrapz(self.inputs[:, i - 1] ** 2, self.dt)
            + _cumtrapz(self.inputs[:, j - 1] ** 2, self.dt)
        )
        rhs = (certificate.nu * energy
               + certificate.gamma * _cumtrapz(dy * dy, self.dt)
               + certificate.beta)
        return lhs - rhs, rhs

    def margin_curve(self, bound: GainBound) -> np.ndarray:
        """``gain * ||W||_T + offset - ||relative outputs||_T`` at every grid
        time."""
        if not bound.certified:
            raise UncertifiedBoundError(
                "gain bound is not certified (n_min <= 0); no margin to evaluate"
            )
        return (bound.gain * np.sqrt(self.norm_dist_sq) + bound.offset
                - np.sqrt(self.norm_rel_sq))


def run(model: NetworkModel, horizon: float, dt: float = 1e-3,
        stride: int = 100) -> SimulationTrace:
    """Integrate the closed network over ``[0, horizon]``.

    ``horizon`` must be a positive integer multiple of ``dt``.  The per-edge
    disturbances are drawn up front (one extra value pads the final grid
    point) and held constant across each step.  Identical models, horizons
    and seeds reproduce the trace bit for bit.
    """
    return run_batch((model,), horizon, dt, stride)[0]


def run_batch(models, horizon: float, dt: float = 1e-3,
              stride: int = 100) -> tuple[SimulationTrace, ...]:
    """Integrate several realisations of one network in a single RK4 pass.

    The models must share ``graph``, ``agents`` and ``couplings`` (compared
    with ``==``, so ``agents`` must be one :class:`GoodwinParams` object);
    their disturbances and initial states may differ.  They are stacked as
    disjoint copies of the network (see :meth:`NetworkModel.copies`), so
    each returned trace equals :func:`run` on its model bit for bit.  A
    non-finite state in any copy raises :class:`SimulationDiverged`.
    """
    models = tuple(models)
    if not models:
        raise ValueError("run_batch needs at least one model")
    first = models[0]
    for s, model in enumerate(models[1:], start=1):
        for name in ("graph", "agents", "couplings"):
            if getattr(model, name) != getattr(first, name):
                raise ValueError(f"model {s} has a different {name} from model 0")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
    steps = int(round(horizon / dt))
    if steps < 1 or abs(steps * dt - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ValueError(
            f"horizon {horizon} must be a positive integer multiple of dt = {dt}"
        )
    n, p = first.graph.n, first.graph.edge_count
    if p:
        held = np.column_stack([spec.held_values(steps + 1)
                                for model in models for spec in model.disturbances])
    else:
        held = np.zeros((steps + 1, 0))
    states = np.empty((steps + 1, len(models) * n, 3))
    states[0] = np.concatenate([model.initial_states for model in models])
    for m in range(steps):
        states[m + 1] = step(first, states[m], m * dt, dt, held[m])
    # contiguous copies, so every derived array takes the solo path
    return tuple(
        SimulationTrace(model=model, dt=dt, stride=int(stride),
                        states=states[:, s * n:(s + 1) * n].copy(),
                        held_disturbance=held[:, s * p:(s + 1) * p].copy())
        for s, model in enumerate(models))


@dataclass(frozen=True, eq=False)
class BoundCheck:
    """Gain-bound margins at the sampled horizons."""

    times: np.ndarray
    margins: np.ndarray
    thresholds: np.ndarray
    satisfied: bool

    @property
    def worst_margin(self) -> float:
        return float(np.min(self.margins))


def bound_check(trace: SimulationTrace, bound: GainBound,
                tol: float = 0.0) -> BoundCheck:
    """Evaluate the certified bound along a trace at the sampled horizons.

    The margin at horizon ``T`` is ``gain * ||W||_T + offset - ||relative
    outputs||_T``; the check passes when every sampled margin stays above
    ``-tol * (1 + gain * ||W||_T)``.
    """
    if not bound.certified:
        raise UncertifiedBoundError(
            "gain bound is not certified (n_min <= 0); nothing to check"
        )
    idx = trace.sample_indices
    margins = trace.margin_curve(bound)[idx]
    thresholds = -tol * (1.0 + bound.gain * np.sqrt(trace.norm_dist_sq[idx]))
    return BoundCheck(times=trace.times[idx], margins=margins,
                      thresholds=thresholds,
                      satisfied=bool(np.all(margins >= thresholds)))
