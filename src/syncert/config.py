"""Network configuration files: a single JSON document describes the graph,
the oscillator parameters, couplings, disturbances, certification parameters
and simulation settings.

Top-level keys::

    graph          {"n": 5, "edges": [[1, 2], [1, 3], ...]}
    agents         {"a1": .., "a2": .., "a3": .., "b2": .., "b3": ..,
                    "hill": .., "input_gains": [..],
                    "initial_outputs": [..] | "initial_states": [[..], ..]}
    couplings      single mapping (applied to every edge) or list per edge:
                   {"kind": "linear", "gain": 5.0, "sector": {...}}
                   {"kind": "affine_sinusoid", "gain": .., "amplitude": ..,
                    "sector": {"alpha_lo": .., "alpha_hi": ..}}
                   {"kind": "piecewise_linear", "knots": [[x, y], ..],
                    "sector": {...}}
    disturbances   single mapping or list per edge:
                   {"kind": "zero"}
                   {"kind": "constant", "scale": ..}
                   {"kind": "gaussian", "scale": .., "seed": ..}
    certification  {"theta": .., "theta3": .., "mode": "uniform" | "per_edge"}
    simulation     {"dt": .., "horizon": .., "stride": ..}
    seed           integer master seed

Each object takes the keys shown for it (a kind's own keys for a coupling
or disturbance); any other key is rejected.  The parser reads only the JSON
structure: it hands each value as written to the dataclass that owns it,
which decides what is required (a coupling or disturbance spec: the fields
its kind reads) and what a value left out means, and it places the owner's
rejection at the value's JSON pointer.  Left out, a linear coupling's
sector is the point [gain, gain], the mode is uniform, and
:class:`NetworkConfig` takes dt 1e-3, horizon 100, stride 100 (it only thins
trace CSV rows), zero initial components, zero disturbances and seed 0; it
derives each unpinned Gaussian seed from the master seed by edge index, so
one integer pins the whole realisation.  Every construction, parsed, direct
or replaced, is checked the same way and proves every declared coupling
sector.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .certificates import NetworkCertificate, SectorBound
from .goodwin import CertParams, GoodwinParams, admissible_theta3_interval, certify_network
from .graphs import Graph, build_graph
from .noise import edge_seed_sequence
from .simulation import (
    COUPLING_KINDS,
    DISTURBANCE_KINDS,
    CouplingSpec,
    DisturbanceSpec,
    SimulationTrace,
    grid_steps,
    prove_sectors,
)
from .values import ConfigError, finite, integer, to_float

__all__ = [
    "ConfigError",
    "NetworkConfig",
    "parse_config",
    "config_from_dict",
    "bundled_config",
    "bundled_expected",
    "reproduction_checks",
    "seed_override",
    "SEED_ENV_VAR",
]

SEED_ENV_VAR = "SYNC_CERT_SEED"

DEFAULT_DT = 1e-3
DEFAULT_HORIZON = 100.0
DEFAULT_STRIDE = 100
DEFAULT_SEED = 0


def _child(pointer: str, key) -> str:
    return f"{pointer}/{key}"


def _expect_list(value, pointer: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(pointer, f"expected a list, got {type(value).__name__}")
    return value


def _fields(value, pointer: str, keys, optional=(), read=None) -> dict:
    """Read a JSON object whose keys are ``keys``: reject a non-object, a
    missing required key and an unknown one, then take each given key's
    value as written, or as ``read[key](value, pointer_of_key)`` reads it."""
    if not isinstance(value, dict):
        raise ConfigError(pointer, f"expected an object, got {type(value).__name__}")
    for key in keys:
        if key not in value and key not in optional:
            raise ConfigError(pointer, f"missing required key {key!r}")
    for key in value:
        if key not in keys:
            raise ConfigError(_child(pointer, key), "unknown key")
    read = read or {}
    return {key: read[key](value[key], _child(pointer, key)) if key in read else value[key]
            for key in keys if key in value}


def _tuples(value, pointer: str, size: int, what: str) -> list:
    """A list of ``size``-element lists, taken as written."""
    for k, entry in enumerate(_expect_list(value, pointer)):
        entry_ptr = _child(pointer, k)
        if len(_expect_list(entry, entry_ptr)) != size:
            raise ConfigError(entry_ptr, f"expected {what}, got {entry!r}")
    return value


def _build(owner, pointer: str, **fields):
    """``owner(**fields)``, its rejection placed in the block at ``pointer``."""
    try:
        return owner(**fields)
    except ConfigError as exc:
        # the owner's root pointer is the block's
        raise ConfigError(pointer + exc.pointer.rstrip("/"), exc.message) from None


@dataclass(frozen=True, eq=False)
class NetworkConfig:
    """A validated network description: a graph of oscillators (one
    :class:`GoodwinParams` with a gain per node) with their initial states,
    couplings and disturbances, plus the certification and simulation
    settings.  It is what :meth:`certificate` certifies and what
    :func:`~syncert.simulation.run` integrates over ``horizon`` at ``dt``.

    ``initial_states`` holds ``(n, 3)`` states, ``n`` initial outputs (the
    other components zero) or None (all zero), and is stored as ``(n, 3)``
    floats.  ``disturbances`` holds one spec per edge or None (all zero); a
    Gaussian spec whose seed is None takes its edge's seed, derived here and
    only here from ``seed``.  Every construction is checked, replacements
    included; an error names the JSON pointer of the offending value.  It
    caches nothing derived: the graph owns its endpoint arrays, and
    :func:`~syncert.simulation.group_couplings` builds coupling tables.
    """

    graph: Graph
    agents: GoodwinParams
    initial_states: np.ndarray | None
    couplings: tuple[CouplingSpec, ...]
    disturbances: tuple[DisturbanceSpec, ...] | None
    certification: CertParams | None = None
    dt: float = DEFAULT_DT
    horizon: float = DEFAULT_HORIZON
    stride: int = DEFAULT_STRIDE
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        n, p = self.graph.n, self.graph.edge_count
        if self.agents.input_gains.size != n:
            raise ConfigError("/agents/input_gains",
                              f"{self.agents.input_gains.size} input gains for {n} nodes")
        if len(self.couplings) != p:
            raise ConfigError("/couplings", f"{len(self.couplings)} couplings for {p} edges")
        passed, ratio_min, ratio_max = prove_sectors(self.couplings)
        if not passed.all():
            k = int(np.argmin(passed))
            spec = self.couplings[k]
            # one spec on every edge reads as the single mapping; the point
            # sector of an undeclared linear coupling holds, so this one is declared
            raise ConfigError(
                "/couplings" if self.couplings.count(spec) == p else f"/couplings/{k}",
                "declared sector [{:g}, {:g}] is violated: slope ratios span "
                "[{:.6g}, {:.6g}]".format(spec.sector.alpha_lo, spec.sector.alpha_hi,
                                          ratio_min[k], ratio_max[k]))
        specs = (DisturbanceSpec(),) * p if self.disturbances is None else self.disturbances
        if len(specs) != p:
            raise ConfigError("/disturbances", f"{len(specs)} disturbances for {p} edges")
        x0 = np.zeros((n, 3))
        if self.initial_states is not None:
            given = np.asarray(self.initial_states, dtype=object)
            key = "initial_outputs" if given.ndim == 1 else "initial_states"
            at = f"/agents/{key}"
            if given.ndim == 0 or given.shape[1:] not in ((), (3,)):
                raise ConfigError(at, f"initial states have shape {given.shape}, "
                                      f"expected ({n}, 3)")
            if len(given) != n:
                raise ConfigError(at, f"{len(given)} {key.replace('_', ' ')} for {n} nodes")
            for i, row in enumerate(given.reshape(n, -1)):
                x0[i, :row.size] = [finite(v, _child(at, i)) for v in row]
        object.__setattr__(self, "initial_states", x0)
        dt = finite(self.dt, "/simulation/dt")
        if dt <= 0.0:
            raise ConfigError("/simulation/dt", f"dt must be positive, got {self.dt}")
        # an infinite or nan horizon has no step count: the grid check rejects it
        horizon = to_float(self.horizon, "/simulation/horizon")
        try:
            grid_steps(horizon, dt)
        except ValueError as exc:
            raise ConfigError("/simulation/horizon", str(exc)) from None
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "horizon", horizon)
        if integer(self.stride, "/simulation/stride") < 1:
            raise ConfigError("/simulation/stride",
                              f"must be a positive integer, got {self.stride}")
        if self.certification is not None:
            lo, hi = admissible_theta3_interval(self.agents)
            theta3 = self.certification.theta3
            if not lo < theta3 < hi:
                raise ConfigError(
                    "/certification/theta3",
                    f"must lie in the admissible interval (b3^2/(2*a3), 2*a2) "
                    f"= ({lo:.6g}, {hi:.6g}), got {theta3!r}")
        integer(self.seed, "/seed")
        derived = edge_seed_sequence(self.seed, p)
        object.__setattr__(self, "disturbances", tuple(
            replace(spec, seed=derived[k]) if spec.kind == "gaussian" and spec.seed is None
            else spec for k, spec in enumerate(specs)))

    def certificate(self) -> NetworkCertificate:
        """Certify every edge with the configured parameters."""
        return certify_network(self)

    def with_seed(self, seed: int | None) -> "NetworkConfig":
        """Replace the master seed, unless it is None, and re-derive every
        Gaussian edge seed, including ones that were given explicitly."""
        if seed is None:
            return self
        return replace(self, seed=int(seed), disturbances=tuple(
            replace(spec, seed=None) if spec.kind == "gaussian" else spec
            for spec in self.disturbances))

    def with_simulation(self, dt: float | None = None,
                        horizon: float | None = None) -> "NetworkConfig":
        """Replace the step and the horizon where given, checked like any
        construction."""
        changes = {key: value for key, value in (("dt", dt), ("horizon", horizon))
                   if value is not None}
        return replace(self, **changes) if changes else self


def _parse_graph(value, pointer: str) -> Graph:
    fields = _fields(value, pointer, ("n", "edges"))
    return _build(build_graph, pointer, n=fields["n"], edge_list=fields["edges"])


def _parse_agents(value, pointer: str):
    """The agents, and their initial outputs or states as an object array."""
    fields = _fields(value, pointer, ("a1", "a2", "a3", "b2", "b3", "hill", "input_gains",
                                      "initial_outputs", "initial_states"),
                     optional=("initial_outputs", "initial_states"),
                     read={"input_gains": _expect_list, "initial_outputs": _expect_list,
                           "initial_states": lambda v, at: _tuples(v, at, 3, "3 components")})
    outputs = fields.pop("initial_outputs", None)
    states = fields.pop("initial_states", None)
    if outputs is not None and states is not None:
        raise ConfigError(pointer,
                          "give either initial_outputs or initial_states, not both")
    x0 = None if outputs is None else np.fromiter(outputs, object, len(outputs))
    if states is not None:
        x0 = np.fromiter((v for row in states for v in row), object,
                         3 * len(states)).reshape(-1, 3)
    return _build(GoodwinParams, pointer, **fields), x0


def _parse_sector(value, pointer: str) -> SectorBound:
    fields = _fields(value, pointer, ("alpha_lo", "alpha_hi"))
    return _build(SectorBound, pointer, **fields)


def _kinded(value, pointer: str, owner, kinds, keys_of, read=None):
    """``owner`` built from a JSON object whose ``kind`` is in ``kinds``,
    with any of the keys ``keys_of(kind)`` gives; ``owner`` rejects any
    other kind and decides which of those keys its kind needs."""
    keys = ()
    if isinstance(value, dict) and "kind" in value:
        kind = value["kind"]
        if not (isinstance(kind, str) and kind in kinds):
            _build(owner, pointer, kind=kind)
        keys = keys_of(kind)
    return _build(owner, pointer, **_fields(value, pointer, ("kind", *keys), keys, read))


def _parse_coupling_entry(value, pointer: str) -> CouplingSpec:
    # the fields the kernel reads, and the sector every kind may declare
    return _kinded(value, pointer, CouplingSpec, COUPLING_KINDS,
                   lambda kind: (*COUPLING_KINDS[kind][1], "sector"),
                   {"sector": _parse_sector})


def _per_edge(value, pointer: str, p: int, entry) -> tuple:
    """A block's per-edge specs: a single mapping read once by ``entry`` for
    all ``p`` edges, or a list read entry by entry."""
    if isinstance(value, dict):
        return (entry(value, pointer),) * p
    return tuple(entry(item, _child(pointer, k))
                 for k, item in enumerate(_expect_list(value, pointer)))


def _parse_disturbance_entry(value, pointer: str) -> DisturbanceSpec:
    return _kinded(value, pointer, DisturbanceSpec, DISTURBANCE_KINDS, DISTURBANCE_KINDS.get)


def _parse_disturbances(value, pointer: str, p: int) -> tuple[DisturbanceSpec, ...] | None:
    """The per-edge disturbances, or None for an absent block; the single
    mapping may not pin a seed."""
    if value is None:
        return None
    specs = _per_edge(value, pointer, p, _parse_disturbance_entry)
    if isinstance(value, dict) and "seed" in value:
        raise ConfigError(
            _child(pointer, "seed"),
            "per-edge seeds are derived from the top-level seed here; "
            "use the per-edge list form to pin seeds explicitly")
    return specs


def _parse_certification(value, pointer: str) -> CertParams | None:
    return None if value is None else _build(CertParams, pointer, **_fields(
        value, pointer, ("theta", "theta3", "mode"), optional=("mode",)))


def _parse_simulation(value, pointer: str) -> dict:
    """The simulation settings given, which :class:`NetworkConfig` checks;
    the others keep their defaults."""
    if value is None:
        return {}
    keys = ("dt", "horizon", "stride")
    return _fields(value, pointer, keys, optional=keys)


def config_from_dict(payload) -> NetworkConfig:
    """Validate a decoded JSON document and fill defaults."""
    # the other blocks are read below: agents, couplings and disturbances
    # need the graph, and a null disturbances, certification or simulation
    # block stands for an absent one
    data = _fields(payload, "", ("graph", "seed", "agents", "couplings", "disturbances",
                                 "certification", "simulation"),
                   optional=("seed", "disturbances", "certification", "simulation"),
                   read={"graph": _parse_graph})
    graph = data["graph"]
    agents, x0 = _parse_agents(data["agents"], "/agents")
    couplings = _per_edge(data["couplings"], "/couplings", graph.edge_count,
                          _parse_coupling_entry)
    disturbances = _parse_disturbances(data.get("disturbances"), "/disturbances",
                                       graph.edge_count)
    certification = _parse_certification(data.get("certification"), "/certification")
    settings = _parse_simulation(data.get("simulation"), "/simulation")
    return NetworkConfig(graph=graph, agents=agents, initial_states=x0,
                         couplings=couplings, disturbances=disturbances,
                         certification=certification,
                         seed=data.get("seed", DEFAULT_SEED), **settings)


def parse_config(path) -> NetworkConfig:
    """Read and validate a JSON configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("", f"cannot read config file {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(payload)


def _fixture_text(filename: str) -> str:
    return (resources.files("syncert") / "fixtures" / filename).read_text(
        encoding="utf-8")


def bundled_config() -> NetworkConfig:
    """The bundled five-oscillator case study."""
    return config_from_dict(json.loads(_fixture_text("paper_k5.json")))


def bundled_expected() -> dict:
    """Frozen reference values for the bundled five-oscillator case study."""
    return json.loads(_fixture_text("paper_k5_expected.json"))


def reproduction_checks(cert: NetworkCertificate, noiseless: SimulationTrace,
                        expected: dict) -> tuple[list[tuple[str, bool, str]], str | None]:
    """The case study's verdicts ``(name, ok, detail)`` that no trace check
    decides, in print order: ``cert`` against the frozen ``expected``
    values, then the synchronisation of ``noiseless``, the undisturbed run
    of the description ``cert`` certifies, whose mode and horizon they read;
    and the note printed instead of that last check on a short horizon."""
    config = noiseless.config

    def frozen(name, computed, keys, tol_key, precondition=True):
        # a nan deviation fails
        dev = float(np.max(np.abs(np.subtract(computed, [expected[k] for k in keys]))))
        tol = expected[tol_key]
        return (name, precondition and dev <= tol,
                f"max |{name} - frozen| = {dev:.3g} (tol {tol:g})")

    forms, bound = cert.forms, cert.bound
    checks = [frozen("output-weights", cert.gamma, ("gamma_target",), "gamma_tol")]
    if config.certification.mode == "uniform":
        checks += [
            frozen("input-weights", cert.nu, ("nu",), "nu_tol"),
            frozen("node-weight-sums", cert.nu_node, ("nu_node",), "nu_tol"),
            frozen("margin-slacks", cert.slacks, ("slack_target",), "slack_tol",
                   cert.satisfied),
            frozen("margin-matrix", forms.margin_min_eig, ("margin_min_eig",), "bound_tol"),
            frozen("gain-bound", [bound.n_min, bound.m_max, bound.gain, bound.offset],
                   ("n_min", "m_max", "gain", "offset"), "bound_tol", bound.certified),
        ]
    else:
        # per-edge weights can only improve on the uniform margins; an edge
        # whose both endpoints carry the worst gain deviation still lands
        # exactly on the uniform slack, hence the shared tolerance
        floor = expected["slack_target"] - expected["slack_tol"]
        checks += [
            ("margin-slacks", cert.satisfied and cert.min_slack >= floor,
             f"min slack {cert.min_slack:.6g} >= {floor:g}"),
            ("margin-matrix", forms.margin_min_eig > 0.0,
             f"min eigenvalue {forms.margin_min_eig:.9g} > 0"),
            ("gain-bound", bound.certified, f"certified = {bound.certified}"),
        ]
    ratio = noiseless.disagreement(-1) / noiseless.disagreement(0)
    if config.horizon + 1e-9 < expected["sync_horizon"]:
        return checks, (f"noiseless-sync: skipped (horizon {config.horizon:g} < "
                        f"{expected['sync_horizon']:g}), disagreement ratio {ratio:.3g}")
    checks.append(("noiseless-sync", ratio <= expected["sync_threshold"],
                   f"end/initial disagreement = {ratio:.3g} "
                   f"(threshold {expected['sync_threshold']:g})"))
    return checks, None


def seed_override(explicit: int | None) -> int | None:
    """Seed precedence: an explicit flag beats the environment variable,
    which beats the value in the configuration file (``None`` means no
    override)."""
    if explicit is not None:
        return int(explicit)
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError("/seed",
                          f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
