"""Closed-loop network simulation: oscillator agents under diffusive
nonlinear couplings with per-edge disturbances, fixed-step RK4 integration,
and finite-horizon norms and inner products for the certificate checks.

Per edge ``k = (i, j)``, ``i < j``, the coupling argument is ``x_k = y_i -
y_j + w_k``, the coupling output is ``v_k = theta_k(x_k)``, and the stacked
node inputs are ``u = -D v`` for the incidence ``D`` (``+1`` at each lower
endpoint), which sums to zero across the network.  The disturbance is
held constant over each integration step.  Several disturbance realisations
of one network integrate in one pass as disjoint copies (:func:`run_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .certificates import GainBound, NetworkCertificate, SectorBound
from .graphs import copy_endpoints, node_sums
from .noise import normals
from .values import ConfigError, finite, integer, positive

if TYPE_CHECKING:
    from .config import NetworkConfig

__all__ = [
    "SimulationDiverged",
    "COUPLING_KINDS",
    "DISTURBANCE_KINDS",
    "CouplingSpec",
    "sector_arrays",
    "CouplingGroup",
    "DisturbanceSpec",
    "SimulationTrace",
    "residual_slack",
    "trace_check",
    "trace_checks",
    "prove_sectors",
    "group_couplings",
    "evaluate_couplings",
    "grid_steps",
    "run",
    "run_batch",
]

# each disturbance kind, interpreted by DisturbanceSpec.held_values, and the
# fields it reads
DISTURBANCE_KINDS = {"gaussian": ("scale", "seed"), "zero": (), "constant": ("scale",)}


class SimulationDiverged(RuntimeError):
    """The integrator produced a non-finite state."""

    def __init__(self, time: float) -> None:
        self.time = time
        super().__init__(f"non-finite state at t = {time:.6g}")


def _knots(value, pointer: str) -> tuple[tuple[float, float], ...]:
    """A polyline's knots, a list of ``[x, y]`` pairs, as float pairs, with
    finite, positive and strictly increasing abscissae."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(pointer, f"expected a list, got {type(value).__name__}")
    for k, knot in enumerate(value):
        if not isinstance(knot, (list, tuple)) or len(knot) != 2:
            raise ConfigError(f"{pointer}/{k}", f"expected [x, y], got {knot!r}")
    knots = tuple((finite(x, f"{pointer}/{k}"), finite(y, f"{pointer}/{k}"))
                  for k, (x, y) in enumerate(value))
    if not knots:
        raise ConfigError(pointer, "piecewise_linear coupling needs at least one knot")
    xs = [0.0, *(x for x, _ in knots)]
    if not all(a < b for a, b in zip(xs, xs[1:])):
        raise ConfigError(pointer, "knot abscissae must be finite, positive and "
                                   f"strictly increasing, got {knots!r}")
    return knots


@dataclass(frozen=True)
class CouplingSpec:
    """One odd, sector-bounded scalar coupling nonlinearity.

    Oddness is structural: every kind is built from odd primitives (identity,
    sine, odd extension of a half-line polyline), so only ``x >= 0`` shapes
    are ever specified.  The declared sector is a claim that
    :func:`prove_sectors` checks on every network description; a linear
    coupling may declare none (None), which reads as the point of its current
    gain (:func:`sector_arrays`).  None is the only "not given": a field the
    kind reads must be given, and one it does not read must not be, whatever
    its value.  The gain, amplitude and knots are stored as floats.
    """

    kind: str
    sector: SectorBound | None = None
    gain: float | None = None
    amplitude: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in COUPLING_KINDS:
            raise ConfigError("/kind", f"unknown coupling kind {self.kind!r}")
        _, reads, point_sector = COUPLING_KINDS[self.kind]
        for name, rule in (("gain", positive), ("amplitude", finite), ("knots", _knots)):
            value = getattr(self, name)
            if (value is None) == (name in reads):
                raise ConfigError(f"/{name}", f"{self.kind} coupling needs {name}" if value is None
                                  else f"{self.kind} coupling reads no {name}, got {value!r}")
            if value is not None:
                object.__setattr__(self, name, rule(value, f"/{name}"))
        if self.sector is None and not point_sector:
            raise ConfigError("/sector", f"{self.kind} coupling needs a declared sector")
        if not isinstance(self.sector, (SectorBound, type(None))):
            raise ConfigError("/sector", f"expected a sector bound, got {self.sector!r}")

    def __call__(self, x):
        """Evaluate elementwise on scalars or arrays, through the one-edge
        table of :func:`evaluate_couplings`."""
        arg = np.asarray(x, dtype=float)
        out = evaluate_couplings(group_couplings((self,)), arg[..., None])[..., 0]
        return out if out.shape else float(out)


def sector_arrays(couplings) -> tuple[np.ndarray, np.ndarray]:
    """``alpha_lo`` and ``alpha_hi`` of each coupling's sector as float arrays:
    the declared one, or the point ``[gain, gain]`` when it declares none."""
    lo, hi = np.array([(c.sector.alpha_lo, c.sector.alpha_hi) if c.sector else (c.gain,) * 2
                       for c in couplings], dtype=float).reshape(-1, 2).T
    return lo, hi


# Each kernel is called as kernel(*params, x, out): it writes into ``out`` (a
# fresh array when it is None), which must not share memory with ``x``, and
# returns it.  The linear kernel is the product ``gain * x`` itself.

def _affine_sinusoid(gain, amplitude, x, out):
    wave = np.sin(x)
    np.multiply(amplitude, wave, wave)
    out = np.multiply(gain, x, out)
    return np.add(out, wave, out)


def _piecewise_linear(xs, ys, slopes, columns, x, out):
    """Odd extension of per-edge polylines through the origin.

    Row ``j`` of the ``(K, q)`` tables holds knot ``j`` of each of the ``q``
    edges on the last axis of ``x`` (row 0 is the origin, and a shorter
    polyline repeats its last knot); ``slopes[j]`` is the slope of the
    segment leaving knot ``j``, and ``columns`` is ``arange(q)``.  The last
    slope continues past the last knot instead of clamping, so the ratio to
    ``x`` stays inside a positive sector at large arguments.
    """
    mag = np.abs(x)
    # the segment of each argument: the knots past the origin it reaches
    seg = (mag[..., None, :] >= xs[1:]).sum(axis=-2)
    # flat index of (seg, edge) into the C-ordered (K, q) tables
    pick = seg * xs.shape[1] + columns
    offset = mag - xs.take(pick)
    y = ys.take(pick)
    # a knot itself maps to its ordinate exactly, signed zero included
    return np.multiply(np.sign(x),
                       np.where(offset == 0.0, y, slopes.take(pick) * offset + y), out)


# each coupling kind's kernel, the CouplingSpec fields it reads, and whether
# it may leave its sector undeclared (None reads as the point of its gain)
COUPLING_KINDS = {"linear": (np.multiply, ("gain",), True),
                  "affine_sinusoid": (_affine_sinusoid, ("gain", "amplitude"), False),
                  "piecewise_linear": (_piecewise_linear, ("knots",), False)}


def _kind_params(kind: str, specs) -> tuple[np.ndarray, ...]:
    """The parameter arrays of the kernel of ``kind`` for same-kind
    ``specs``, one edge per entry of the last axis (a polyline's column
    index included)."""
    if kind != "piecewise_linear":
        return tuple(np.array([getattr(s, name) for s in specs], dtype=float)
                     for name in COUPLING_KINDS[kind][1])
    rows = 1 + max(len(s.knots) for s in specs)
    columns = []
    for s in specs:
        xs = [0.0, *(x for x, _ in s.knots)]
        ys = [0.0, *(y for _, y in s.knots)]
        slopes = [(ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) for j in range(len(xs) - 1)]
        # the last knot and the padding rows continue the final segment
        columns.append([c + c[-1:] * (rows - len(c)) for c in (xs, ys, slopes)])
    tables = tuple(np.array(table).T.copy() for table in zip(*columns))
    return (*tables, np.arange(len(specs)))


@dataclass(frozen=True)
class DisturbanceSpec:
    """Per-edge link disturbance: seeded white Gaussian (held per step),
    a constant, or zero.  ``scale`` is the standard deviation for the
    Gaussian kind and the value itself for the constant kind; the zero kind
    reads none, and only the Gaussian kind reads a seed.  None is the only
    "not given": a field the kind does not read must be None, and the scale
    must be given where it is read.  A Gaussian seed of None is derived by
    the :class:`~syncert.config.NetworkConfig` that holds the spec; until
    then the spec has no stream."""

    kind: str = "zero"
    scale: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in DISTURBANCE_KINDS:
            raise ConfigError("/kind", f"unknown disturbance kind {self.kind!r}")
        reads = DISTURBANCE_KINDS[self.kind]
        for name in ("scale", "seed"):
            value = getattr(self, name)
            if value is not None and name not in reads:
                raise ConfigError(f"/{name}",
                                  f"{self.kind} disturbance reads no {name}, got {value!r}")
        if "scale" in reads:
            if self.scale is None:
                raise ConfigError("/scale", f"{self.kind} disturbance needs scale")
            scale = finite(self.scale, "/scale")
            if scale < 0.0:
                raise ConfigError("/scale", f"must be nonnegative, got {scale!r}")
            object.__setattr__(self, "scale", scale)
        if self.seed is not None:
            integer(self.seed, "/seed")

    def held_values(self, count: int) -> np.ndarray:
        """The sequence of values held over successive integration steps."""
        if self.kind == "zero":
            return np.zeros(count)
        if self.kind == "constant":
            return np.full(count, self.scale)
        if self.seed is None:
            raise ValueError("a Gaussian disturbance without a seed has no stream")
        # a sample beyond double precision is infinite: the run diverges
        with np.errstate(over="ignore"):
            return self.scale * normals(self.seed, count)


class CouplingGroup(NamedTuple):
    """The edges of one coupling kind, as a last-axis index, and the
    parameter arrays of its kernel, one edge per entry of the last axis."""

    kind: str
    edges: slice | np.ndarray
    params: tuple[np.ndarray, ...]


def group_couplings(couplings) -> tuple[CouplingGroup, ...]:
    """The couplings grouped by kind, in order of first appearance: at most
    three kernels however many distinct couplings there are.  A kind whose
    edges are contiguous is indexed by a slice, so a network with one kind
    never copies its arguments."""
    members: dict[str, list[int]] = {}
    for k, coupling in enumerate(couplings):
        members.setdefault(coupling.kind, []).append(k)
    return tuple(
        CouplingGroup(kind,
                      slice(ks[0], ks[-1] + 1) if ks[-1] - ks[0] == len(ks) - 1
                      else np.array(ks),
                      _kind_params(kind, [couplings[k] for k in ks]))
        for kind, ks in members.items())


def evaluate_couplings(table: tuple[CouplingGroup, ...], x: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Write the coupling outputs of the per-edge arguments on the last axis
    of ``x`` into ``out`` (a fresh array when it is None), one kernel call
    per kind of ``table``, and return it."""
    if out is None:
        out = np.empty_like(x, dtype=float)
    for kind, edges, params in table:
        out[..., edges] = COUPLING_KINDS[kind][0](*params, x[..., edges], None)
    return out


# min of sin(x)/x, reached at the first positive root x* of tan(x) = x
SINC_MIN = math.sin(4.493409457909064) / 4.493409457909064
# absolute slack of the sector check on either end of the declared sector
SECTOR_TOL = 1e-9


# a ratio beyond double precision is infinite and fails the check
@np.errstate(over="ignore")
def prove_sectors(couplings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per coupling: whether the exact range ``[ratio_min, ratio_max]`` of
    its slope ratio ``theta(x)/x`` over ``x != 0`` lies within its declared
    ``[alpha_lo - SECTOR_TOL, alpha_hi + SECTOR_TOL]``, then the range.  It
    is read off the parameter arrays of the kernel table, so it is proved for
    the numbers the kernel evaluates (an end may be a limit at 0 or inf)."""
    ratio_min, ratio_max = np.empty(len(couplings)), np.empty(len(couplings))
    for kind, edges, params in group_couplings(couplings):
        if kind == "linear":
            ratios = np.vstack(params)
        elif kind == "affine_sinusoid":
            # gain + amplitude * sin(x)/x with sin(x)/x in [SINC_MIN, 1]
            gain, amplitude = params
            ratios = np.vstack((gain + amplitude * SINC_MIN, gain + amplitude))
        else:
            # y/x is monotone on every segment, so its extremes are knot ratios
            # (the first is the first slope; padding repeats the last) or the
            # last slope, the limit at infinity
            xs, ys, slopes, _ = params
            ratios = np.vstack((ys[1:] / xs[1:], slopes[-1:]))
        # +0.0 makes a zero +0.0, whichever zero the shape or SIMD path returned
        ratio_min[edges], ratio_max[edges] = ratios.min(axis=0) + 0.0, ratios.max(axis=0) + 0.0
    alpha_lo, alpha_hi = sector_arrays(couplings)
    passed = (ratio_min >= alpha_lo - SECTOR_TOL) & (ratio_max <= alpha_hi + SECTOR_TOL)
    return passed, ratio_min, ratio_max


# steps integrated between two finiteness checks of the new states
_CHECK_BLOCK = 128


class _StepPlan:
    """The RK4 pass of :func:`run_batch` over ``count`` disjoint copies of
    one network, set up once per call.

    Copy ``s`` owns node columns ``s*n + i`` of the component-major
    ``(3, count*n)`` state, so each of ``x1``, ``x2`` and ``x3`` is one
    contiguous row, and edge columns ``s*p + k``, the layout of
    :func:`~syncert.graphs.copy_endpoints`; no term couples two copies.  The
    plan owns every buffer the pass writes and every coefficient it reads.
    A coefficient is an array of the shape of its operand, since a ufunc
    call costs less with a same-shape operand than with a broadcast scalar,
    and every operand is one contiguous block, which a ufunc call walks as
    a single row.  A stage input carries a fourth row, where the stage puts
    the node inputs ``u``, a bincount over the bins of those copies, so that
    one call multiplies ``[x1; x2; x3; u]`` by ``[a1; a2; a3; g]``.
    """

    def __init__(self, config: NetworkConfig, count: int) -> None:
        graph, agents = config.graph, config.agents
        n, p = graph.n, graph.edge_count
        size = count * n
        self.hill = agents.hill
        self.lower, self.upper, self.ends = copy_endpoints(graph, count)
        self.ones = np.full(size, 1.0)
        # b2 and b3 for x1 and x2, and a1, a2, a3 and the input gains g for
        # x1, x2, x3 and u
        self.chain_gains = np.repeat([[agents.b2], [agents.b3]], size, axis=1)
        self.decays = np.concatenate(
            [np.repeat([[agents.a1], [agents.a2], [agents.a3]], size, axis=1),
             np.tile(agents.input_gains, count)[None]])
        # work buffers, which every stage overwrites before reading them:
        # the edge arguments, the weights [-v | v] of the bins in ends, whose
        # back half is the coupling outputs v, and the term blocks [r; b2 x1;
        # b3 x2] and [a1 x1; a2 x2; a3 x3; g u]
        self.arg, self.signed_v = np.empty(count * p), np.empty(2 * count * p)
        self.front, self.v = np.split(self.signed_v, 2)
        self.terms = np.empty((7, size))
        # the couplings of every copy as one table, so a polyline's column
        # index spans all copies; a one-kind table binds its kernel directly
        table = group_couplings(config.couplings * count)
        if len(table) == 1:
            kind, _, params = table[0]
            self.couple = partial(COUPLING_KINDS[kind][0], *params, self.arg, self.v)
        else:
            self.couple = partial(evaluate_couplings, table, self.arg, self.v)
        self.cur, self.probe = np.empty((4, size)), np.empty((4, size))
        self.k1, self.k2, self.k3, self.k4 = (np.empty((3, size)) for _ in range(4))

    def stage(self, state: np.ndarray, out: np.ndarray):
        """The right-hand side of the coupled network at ``state``, bound as
        a call ``rhs(w_row)`` that writes it into ``out`` for the held
        disturbance row ``w_row``.

        ``state`` is a C-contiguous ``(4, count*n)`` array whose rows 0-2
        hold ``x1``, ``x2`` and ``x3`` and whose row 3 the call overwrites
        with the node inputs; ``out`` is a component-major ``(3, count*n)``
        array.  Every view the call uses is taken here, so the call itself
        makes only ufunc calls, the edge-argument gathers and one bincount.
        Call it with non-finite intermediates silenced, as :meth:`integrate`
        does: the finiteness check of the states is what reports blow-up.

        The derivative is ``[r; b2 x1; b3 x2] - [a1 x1; a2 x2; a3 x3]``,
        less ``g u`` in row 0, with ``r = 1/(x3**hill + 1) = -f(x3)``.  IEEE
        rounding is sign-symmetric, so ``r - a1 x1`` has the bits of the
        textbook ``-a1 x1 - f(x3)``, signed zeros included.
        """
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        negative, bincount = np.negative, np.bincount
        x1, x12, head, u = state[0], state[:2], out[0], state[3]
        lower, upper, arg, couple = self.lower, self.upper, self.arg, self.couple
        ends, signed_v, front, v = self.ends, self.signed_v, self.front, self.v
        ones, chain_gains, decays, terms = self.ones, self.chain_gains, self.decays, self.terms
        repression, chain_terms, minuend = terms[0], terms[1:3], terms[:3]
        decay_terms, subtrahend, input_term = terms[3:], terms[3:6], terms[6]
        # x3 ** hill, written in place: numpy's ** calls square for the
        # Python int 2 and power otherwise, and the bits must not change
        if type(self.hill) is int and self.hill == 2:
            repress = partial(np.square, state[2], repression)
        else:
            repress = partial(np.power, state[2], self.hill, repression)

        def rhs(w_row):
            # r = 1/(x3**hill + 1)
            repress()
            add(repression, ones, repression)
            divide(ones, repression, repression)
            # y_lower - y_upper + w, gathered as SimulationTrace.relative_outputs does
            subtract(x1[lower], x1[upper], arg)
            add(arg, w_row, arg)
            couple()
            # u = D v over the node_sums bins; the physical input is -u
            negative(v, front)
            u[...] = bincount(ends, signed_v, len(u))
            multiply(chain_gains, x12, chain_terms)
            multiply(decays, state, decay_terms)
            # r - a1 x1, b2 x1 - a2 x2, b3 x2 - a3 x3, then less g u
            subtract(minuend, subtrahend, out)
            subtract(head, input_term, head)

        return rhs

    def integrate(self, states: np.ndarray, held: np.ndarray, dt: float) -> None:
        """Fill ``states[1:]`` from ``states[0]``, holding disturbance row
        ``held[m]`` over step ``m``.

        Raises :class:`SimulationDiverged` at the end of the first step
        whose state is not finite.  The states are checked once per block
        of ``_CHECK_BLOCK`` steps, so a blow-up is found at most that many
        steps late, and reported at the step where it happened.
        """
        add, multiply = np.add, np.multiply
        k1, k2, k3, k4 = self.k1, self.k2, self.k3, self.k4
        rhs1, rhs2, rhs3, rhs4 = (self.stage(self.cur, k1), self.stage(self.probe, k2),
                                  self.stage(self.probe, k3), self.stage(self.probe, k4))
        # the state rows of the stage inputs
        cur, probe = self.cur[:3], self.probe[:3]
        half, full, sixth = (np.full(cur.shape, c) for c in (0.5 * dt, dt, dt / 6.0))
        steps = states.shape[0] - 1
        cur[...] = states[0]
        # non-finite intermediates must not warn; the isfinite check raises
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, steps, _CHECK_BLOCK):
                stop = min(start + _CHECK_BLOCK, steps)
                for m in range(start, stop):
                    w_row = held[m]
                    # the textbook stages, every association kept so the
                    # bits are those of x + (dt/6) * (k1 + 2 (k2 + k3) + k4)
                    rhs1(w_row)
                    add(cur, multiply(half, k1, probe), probe)
                    rhs2(w_row)
                    add(cur, multiply(half, k2, probe), probe)
                    rhs3(w_row)
                    add(cur, multiply(full, k3, probe), probe)
                    rhs4(w_row)
                    add(k2, k3, k2)
                    add(k2, k2, k2)  # 2 (k2 + k3), exactly
                    add(k1, k2, k1)
                    add(k1, k4, k1)
                    add(cur, multiply(sixth, k1, k1), cur)
                    states[m + 1] = cur
                finite = np.isfinite(states[start + 1:stop + 1]).all(axis=(1, 2))
                if not finite.all():
                    m = start + int(np.argmin(finite))
                    # t + dt at t = m*dt, which (m + 1)*dt can miss in its last bit
                    raise SimulationDiverged(m * dt + dt)


# an integral beyond double precision is inf or nan, which fails every check
@np.errstate(over="ignore", invalid="ignore")
def _cumtrapz(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoidal integral of sampled signals along the first axis.

    The running sum of each column is sequential, so a column's integral
    equals that of the column alone bit for bit."""
    csum = np.cumsum(values, axis=0)
    return dt * (csum - 0.5 * (values[0] + values))


def _cumtrapz_norm_sq(signal: np.ndarray, dt: float) -> np.ndarray:
    return _cumtrapz(np.einsum("ti,ti->t", signal, signal), dt)


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Full-grid simulation record plus running certificate quantities.

    ``held_disturbance`` row ``m`` is the value applied on the step that
    starts at ``t_m``; trapezoidal integrals use the grid-point values of all
    signals.  Everything derived (relative outputs, coupling outputs, node
    inputs, running norms) is computed lazily and cached; the step is
    ``config.dt``.
    """

    config: NetworkConfig
    states: np.ndarray
    held_disturbance: np.ndarray

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @cached_property
    def times(self) -> np.ndarray:
        return np.arange(self.states.shape[0]) * self.config.dt

    @cached_property
    def outputs(self) -> np.ndarray:
        return self.states[:, :, 0]

    @cached_property
    def relative_outputs(self) -> np.ndarray:
        # the stage's endpoint gather off the (T, 3n) state rows (y_i at 3i), temporary-free
        rows = self.states.reshape(len(self.states), -1)
        lower, upper = self.config.graph.endpoints
        rel = rows.take(3 * lower, axis=1)
        for k, j in enumerate(upper):
            rel[:, k] -= rows[:, 3 * j]
        return rel

    @cached_property
    def coupling_arguments(self) -> np.ndarray:
        return self.relative_outputs + self.held_disturbance

    @cached_property
    def coupling_outputs(self) -> np.ndarray:
        return evaluate_couplings(group_couplings(self.config.couplings),
                                  self.coupling_arguments)

    @cached_property
    def inputs(self) -> np.ndarray:
        return -node_sums(self.config.graph, self.coupling_outputs, signed=True)

    @cached_property
    def norm_rel_sq(self) -> np.ndarray:
        """Running squared norm of the relative outputs."""
        return _cumtrapz_norm_sq(self.relative_outputs, self.config.dt)

    @cached_property
    def norm_dist_sq(self) -> np.ndarray:
        """Running squared norm of the held disturbance."""
        return _cumtrapz_norm_sq(self.held_disturbance, self.config.dt)

    @cached_property
    def input_energies(self) -> np.ndarray:
        """Running integral of each node's squared input, one column per
        node."""
        return _cumtrapz(self.inputs ** 2, self.config.dt)

    def disagreement(self, index: int = -1) -> float:
        """Largest pairwise output difference at one grid index."""
        row = self.outputs[index]
        return float(row.max() - row.min())

    def dissipation_curves(self, cert: NetworkCertificate) -> tuple[np.ndarray, np.ndarray]:
        """Residual and right-hand side of the network dissipation
        inequality of ``cert`` at every grid time.

        The input-energy term ``v.T D.T diag(nu_node) D v`` is taken in node
        space as ``sum_i nu_node_i u_i**2``, since ``u = -D v``.
        """
        if cert.graph != self.config.graph:
            raise ValueError("certificate was assembled over a different graph")
        v, rel, u = self.coupling_outputs, self.relative_outputs, self.inputs
        dt = self.config.dt
        # einsum keeps each row's sum order; a gemv's depends on how many rows it gets
        lhs = -_cumtrapz(np.einsum("ti,i->t", v * rel, cert.pair_weight), dt)
        rhs = (
            _cumtrapz(np.einsum("ti,i->t", rel * rel, cert.output_quadratic), dt)
            + _cumtrapz(np.einsum("ti,i->t", u * u, cert.nu_node)
                        - np.einsum("ti,i->t", v * v, 0.5 * cert.graph.exclusive), dt)
            + cert.bias_total
        )
        return lhs - rhs, rhs

    def pair_residual_curves(self, cert: NetworkCertificate,
                             k: int) -> tuple[np.ndarray, np.ndarray]:
        """Residual and right-hand side of the dissipativity inequality of
        edge ``k``'s pair at every grid time, using the realized node inputs
        and the raw ``gamma_raw[k]``, which is stricter than the clamped
        ``gamma[k]`` when it is positive."""
        if cert.graph != self.config.graph:
            raise ValueError("certificate was assembled over a different graph")
        i, j = self.config.graph.edges[k]
        du = self.inputs[:, i - 1] - self.inputs[:, j - 1]
        dy = self.relative_outputs[:, k]
        lhs = _cumtrapz(du * dy, self.config.dt)
        energy = self.input_energies[:, i - 1] + self.input_energies[:, j - 1]
        rhs = (cert.nu[k] * energy
               + cert.gamma_raw[k] * _cumtrapz(dy * dy, self.config.dt)
               + cert.beta[k])
        return lhs - rhs, rhs

    def margin_curve(self, bound: GainBound) -> np.ndarray:
        """``gain * ||W||_T + offset - ||relative outputs||_T`` at every grid
        time."""
        bound.require_certified("no margin to evaluate")
        return (bound.gain * np.sqrt(self.norm_dist_sq) + bound.offset
                - np.sqrt(self.norm_rel_sq))


# the tolerance of an integral inequality, relative to its right-hand side
RESIDUAL_RTOL = 1e-6


def residual_slack(residual: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """How far a residual clears its floor ``-RESIDUAL_RTOL * (1 + |rhs|)``."""
    return residual + RESIDUAL_RTOL * (1.0 + np.abs(rhs))


def trace_check(name: str, trace: SimulationTrace, slacks, what: str,
                edge_labels=None) -> tuple[str, bool, str]:
    """The verdict ``(name, ok, detail)`` that no curve in ``slacks`` (one
    per edge when ``edge_labels`` is given, each dropped once its minimum is
    read) is negative on ``trace``'s grid.  The detail names the worst point:
    each curve's first minimum, then the first least edge; a nan is least."""
    lows = []
    for slack in slacks:
        m = int(np.argmin(slack))
        lows.append((float(slack[m]), m))
    k = int(np.argmin([value for value, _ in lows]))
    worst, m = lows[k]
    detail = f"worst {what} {worst:.6g} at t = {trace.times[m]:.6g}"
    if edge_labels is not None:
        detail += f", edge {edge_labels[k]}"
    return name, worst >= 0.0, detail


def trace_checks(trace: SimulationTrace, cert: NetworkCertificate | None = None,
                 margin: np.ndarray | None = None):
    """The verdicts of one trace and its network residual curve (None without
    ``cert``): the certified bound on the ``margin`` column when one is given,
    then with ``cert`` Lemma 1's network inequality and every pair inequality."""
    checks, residual = [], None
    if margin is not None:
        checks.append(trace_check("bound-margins", trace, [margin], "margin"))
    if cert is not None:
        residual, rhs = trace.dissipation_curves(cert)
        checks.append(trace_check("dissipation-residual", trace,
                                  [residual_slack(residual, rhs)], "residual slack"))
        labels = trace.config.graph.edge_labels()
        pairs = (residual_slack(*trace.pair_residual_curves(cert, k))
                 for k in range(len(labels)))
        checks.append(trace_check("pair-dissipation", trace, pairs,
                                  "pair residual slack", labels))
    return checks, residual


def grid_steps(horizon: float, dt: float) -> int:
    """The number of ``dt`` steps in ``horizon``; raises :class:`ValueError`
    unless ``horizon`` is a positive integer multiple of ``dt``."""
    ratio = horizon / dt
    # a non-finite ratio has no step count and fails the check below
    steps = int(round(ratio)) if math.isfinite(ratio) else 0
    if steps < 1 or abs(steps * dt - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ValueError(
            f"horizon {horizon} must be a positive integer multiple of dt = {dt}"
        )
    return steps


def run(config: NetworkConfig) -> SimulationTrace:
    """Integrate the closed network of ``config`` over ``[0, config.horizon]``
    at step ``config.dt``.

    The per-edge disturbances are drawn up front (one extra value pads the
    final grid point) and held constant across each step.  Identical
    descriptions reproduce the trace bit for bit.
    """
    return run_batch((config,))[0]


def run_batch(configs) -> tuple[SimulationTrace, ...]:
    """Integrate several realisations of one network in a single RK4 pass.

    The descriptions must share ``graph``, ``agents``, ``couplings``, ``dt``
    and ``horizon`` (compared with ``==``, so ``agents`` must be one
    :class:`GoodwinParams` object); their disturbances and initial states
    may differ.  They are stacked as disjoint copies of the network in one
    step plan, built for this call, so each returned trace equals
    :func:`run` on its description bit for bit.  A non-finite state in any
    copy raises :class:`SimulationDiverged`.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("run_batch needs at least one model")
    first = configs[0]
    for s, config in enumerate(configs[1:], start=1):
        for name in ("graph", "agents", "couplings", "dt", "horizon"):
            if getattr(config, name) != getattr(first, name):
                raise ValueError(f"model {s} has a different {name} from model 0")
    steps = grid_steps(first.horizon, first.dt)
    n, p = first.graph.n, first.graph.edge_count
    held = np.empty((steps + 1, len(configs) * p))
    for col, spec in enumerate(spec for config in configs for spec in config.disturbances):
        held[:, col] = spec.held_values(steps + 1)
    # component-major history: row c of states[m] is x_(c+1) of every node
    states = np.empty((steps + 1, 3, len(configs) * n))
    states[0] = np.concatenate([config.initial_states for config in configs]).T
    _StepPlan(first, len(configs)).integrate(states, held, first.dt)
    # C-contiguous node-major copies: einsum's sum order follows the memory
    # layout, so every derived (T, .) array must be C-contiguous as a solo run's is
    return tuple(
        SimulationTrace(config=config,
                        states=states[:, :, s * n:(s + 1) * n].transpose(0, 2, 1).copy(),
                        held_disturbance=held[:, s * p:(s + 1) * p].copy())
        for s, config in enumerate(configs))
