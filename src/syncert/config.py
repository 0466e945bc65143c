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

Each object takes exactly the keys shown for it (a kind's own keys for a
coupling or disturbance); any other key is rejected.  Defaults: a linear
coupling's sector [gain, gain], dt 1e-3, horizon 100, stride 100 (it only
thins trace CSV rows), zero second and third initial state components,
uniform certification mode, zero disturbance, seed 0.  Only Gaussian
disturbances carry a seed: unless given in the per-edge list form, it
derives from the master seed by edge index, so one integer pins the whole
realisation.  Every construction, parsed, direct or replaced, is checked
and proves every declared coupling sector; an error carries the JSON
pointer of the offending value.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .certificates import NetworkCertificate, SectorBound
from .goodwin import (
    CERTIFICATION_MODES,
    CertParams,
    GoodwinParams,
    admissible_theta3_interval,
    certify_network,
    check_hill,
)
from .graphs import Graph, build_graph
from .noise import edge_seed_sequence
from .simulation import (
    CouplingSpec,
    DisturbanceSpec,
    grid_steps,
    prove_sectors,
)

__all__ = [
    "ConfigError",
    "NetworkConfig",
    "parse_config",
    "config_from_dict",
    "bundled_config",
    "bundled_expected",
    "seed_override",
    "SEED_ENV_VAR",
]

SEED_ENV_VAR = "SYNC_CERT_SEED"

DEFAULT_DT = 1e-3
DEFAULT_HORIZON = 100.0
DEFAULT_STRIDE = 100
DEFAULT_MODE = "uniform"
DEFAULT_SEED = 0


class ConfigError(ValueError):
    """Configuration rejection; ``pointer`` locates the offending value."""

    def __init__(self, pointer: str, message: str) -> None:
        self.pointer = pointer or "/"
        super().__init__(f"{self.pointer}: {message}")


def _child(pointer: str, key) -> str:
    return f"{pointer}/{key}"


def _expect_list(value, pointer: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(pointer, f"expected a list, got {type(value).__name__}")
    return value


def _fields(value, pointer: str, readers: dict, optional=()) -> dict:
    """Read a JSON object whose keys are those of ``readers``: reject a
    non-object, a missing required key and an unknown one, then read each
    given key's value by ``readers[key](value, pointer_of_key)``."""
    if not isinstance(value, dict):
        raise ConfigError(pointer, f"expected an object, got {type(value).__name__}")
    for key in readers:
        if key not in value and key not in optional:
            raise ConfigError(pointer, f"missing required key {key!r}")
    for key in value:
        if key not in readers:
            raise ConfigError(_child(pointer, key), "unknown key")
    return {key: read(value[key], _child(pointer, key))
            for key, read in readers.items() if key in value}


def _given(value, pointer: str):
    """A value taken as written, for a reader or a check further on."""
    return value


def _as_float(value, pointer: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(pointer, f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(pointer, f"expected a finite number, got {value!r}")
    return out


def _as_positive(value, pointer: str) -> float:
    out = _as_float(value, pointer)
    if out <= 0.0:
        raise ConfigError(pointer, f"must be positive, got {value!r}")
    return out


def _as_int(value, pointer: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(pointer, f"expected an integer, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class NetworkConfig:
    """A validated network description: a graph of oscillators (one
    :class:`GoodwinParams` with a gain per node) with their initial states,
    couplings and disturbances, plus the certification and simulation
    settings.  It is what :meth:`certificate` certifies and what
    :func:`~syncert.simulation.run` integrates over ``horizon`` at ``dt``.

    Every construction is checked, replacements included; an error names
    the JSON pointer of the offending block.  It caches nothing derived:
    the graph owns its incidence matrix, and
    :func:`~syncert.simulation.group_couplings` builds coupling tables.
    """

    graph: Graph
    agents: GoodwinParams
    initial_states: np.ndarray
    couplings: tuple[CouplingSpec, ...]
    disturbances: tuple[DisturbanceSpec, ...]
    certification: CertParams | None = None
    mode: str = DEFAULT_MODE
    dt: float = DEFAULT_DT
    horizon: float = DEFAULT_HORIZON
    stride: int = DEFAULT_STRIDE
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        n, p = self.graph.n, self.graph.edge_count
        if self.agents.input_gains.size != n:
            raise ConfigError("/agents/input_gains",
                              f"{self.agents.input_gains.size} agents for {n} nodes")
        if len(self.couplings) != p:
            raise ConfigError("/couplings", f"{len(self.couplings)} couplings for {p} edges")
        passed, ratio_min, ratio_max = prove_sectors(self.couplings)
        if not passed.all():
            k = int(np.argmin(passed))
            spec = self.couplings[k]
            # one spec on every edge reads as the single mapping
            raise ConfigError(
                "/couplings" if self.couplings.count(spec) == p else f"/couplings/{k}",
                "declared sector [{:g}, {:g}] is violated: slope ratios span "
                "[{:.6g}, {:.6g}]".format(spec.sector.alpha_lo, spec.sector.alpha_hi,
                                          ratio_min[k], ratio_max[k]))
        if len(self.disturbances) != p:
            raise ConfigError("/disturbances",
                              f"{len(self.disturbances)} disturbances for {p} edges")
        x0 = np.array(self.initial_states, dtype=float)
        if x0.shape != (n, 3):
            raise ConfigError("/agents/initial_states",
                              f"initial states have shape {x0.shape}, expected ({n}, 3)")
        object.__setattr__(self, "initial_states", x0)
        dt = _as_float(self.dt, "/simulation/dt")
        if dt <= 0.0:
            raise ConfigError("/simulation/dt", f"dt must be positive, got {self.dt}")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, (int, float)):
            raise ConfigError("/simulation/horizon", f"expected a number, got {self.horizon!r}")
        # an infinite or nan horizon has no step count: the grid check rejects it
        horizon = float(self.horizon)
        try:
            grid_steps(horizon, dt)
        except ValueError as exc:
            raise ConfigError("/simulation/horizon", str(exc)) from None
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "horizon", horizon)
        if _as_int(self.stride, "/simulation/stride") < 1:
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
        if self.mode not in CERTIFICATION_MODES:
            raise ConfigError("/certification/mode",
                              f"mode must be one of {CERTIFICATION_MODES}, got {self.mode!r}")
        _as_int(self.seed, "/seed")

    def certificate(self) -> NetworkCertificate:
        """Certify every edge with the configured parameters."""
        if self.certification is None:
            raise ConfigError("/certification",
                              "certification block required for this command")
        return certify_network(self)

    def with_seed(self, seed: int | None) -> "NetworkConfig":
        """Replace the master seed, unless it is None, and re-derive every
        Gaussian edge seed, including ones that were given explicitly."""
        if seed is None:
            return self
        derived = edge_seed_sequence(seed, self.graph.edge_count)
        disturbances = tuple(
            replace(spec, seed=int(derived[k])) if spec.kind == "gaussian" else spec
            for k, spec in enumerate(self.disturbances)
        )
        return replace(self, seed=int(seed), disturbances=disturbances)

    def with_simulation(self, dt: float | None = None,
                        horizon: float | None = None) -> "NetworkConfig":
        """Replace the step and the horizon where given, checked like any
        construction."""
        changes = {key: value for key, value in (("dt", dt), ("horizon", horizon))
                   if value is not None}
        return replace(self, **changes) if changes else self


def _as_hill(value, pointer: str) -> int:
    hill = _as_int(value, pointer)
    try:
        check_hill(hill)
    except ValueError as exc:
        raise ConfigError(pointer, str(exc)) from None
    return hill


def _as_scale(value, pointer: str) -> float:
    scale = _as_float(value, pointer)
    if scale < 0.0:
        raise ConfigError(pointer, f"must be nonnegative, got {scale!r}")
    return scale


def _tuples(value, pointer: str, read, size: int, what: str) -> tuple:
    """A list of ``size``-element lists, each element read at its entry's
    pointer."""
    out = []
    for k, entry in enumerate(_expect_list(value, pointer)):
        entry_ptr = _child(pointer, k)
        if len(_expect_list(entry, entry_ptr)) != size:
            raise ConfigError(entry_ptr, f"expected {what}, got {entry!r}")
        out.append(tuple(read(v, entry_ptr) for v in entry))
    return tuple(out)


def _per_node(value, pointer: str, n: int, noun: str) -> list:
    items = _expect_list(value, pointer)
    if len(items) != n:
        raise ConfigError(pointer, f"{len(items)} {noun} for {n} nodes")
    return items


def _parse_graph(value, pointer: str) -> Graph:
    fields = _fields(value, pointer, {
        "n": _as_int,
        "edges": lambda v, at: _tuples(v, at, _as_int, 2, "a pair of nodes")})
    try:
        return build_graph(fields["n"], fields["edges"])
    except ValueError as exc:
        raise ConfigError(_child(pointer, "edges"), str(exc)) from exc


def _parse_agents(value, pointer: str, n: int):
    def node_values(read, noun):
        return lambda v, at: [read(x, _child(at, i))
                              for i, x in enumerate(_per_node(v, at, n, noun))]

    fields = _fields(value, pointer, {
        **dict.fromkeys(("a1", "a2", "a3", "b2", "b3"), _as_positive),
        "hill": _as_hill,
        "input_gains": node_values(_as_positive, "input gains"),
        "initial_outputs": node_values(_as_float, "initial outputs"),
        "initial_states": lambda v, at: _tuples(_per_node(v, at, n, "initial states"),
                                                at, _as_float, 3, "3 components"),
    }, optional=("initial_outputs", "initial_states"))
    outputs = fields.pop("initial_outputs", None)
    states = fields.pop("initial_states", None)
    if outputs is not None and states is not None:
        raise ConfigError(pointer,
                          "give either initial_outputs or initial_states, not both")
    x0 = np.zeros((n, 3))
    if outputs is not None:
        x0[:, 0] = outputs
    elif states is not None:
        x0[:] = states
    return GoodwinParams(**fields), x0


def _parse_sector(value, pointer: str) -> SectorBound:
    fields = _fields(value, pointer, dict.fromkeys(("alpha_lo", "alpha_hi"), _as_float))
    try:
        return SectorBound(**fields)
    except ValueError as exc:
        raise ConfigError(pointer, str(exc)) from exc


def _kinded(value, pointer: str, table: dict, noun: str) -> dict:
    """Read a JSON object whose ``kind`` key names an entry of ``table``,
    that kind's readers of its other keys and the optional ones among them."""
    readers, optional = {}, ()
    if isinstance(value, dict) and "kind" in value:
        kind = value["kind"]
        if not isinstance(kind, str) or kind not in table:
            raise ConfigError(_child(pointer, "kind"), f"unknown {noun} kind {kind!r}")
        readers, optional = table[kind]
    return _fields(value, pointer, {"kind": _given, **readers}, optional)


_COUPLING_FIELDS = {
    "linear": ({"gain": _as_positive, "sector": _parse_sector}, ("sector",)),
    "affine_sinusoid": ({"gain": _as_positive, "amplitude": _as_float,
                         "sector": _parse_sector}, ()),
    "piecewise_linear": ({"knots": lambda v, at: _tuples(v, at, _as_float, 2, "[x, y]"),
                          "sector": _parse_sector}, ()),
}


def _parse_coupling_entry(value, pointer: str) -> CouplingSpec:
    fields = _kinded(value, pointer, _COUPLING_FIELDS, "coupling")
    try:
        return CouplingSpec(**fields)
    except ValueError as exc:
        # the readers have checked every gain and amplitude: the knots failed
        raise ConfigError(_child(pointer, "knots"), str(exc)) from exc


def _parse_couplings(value, pointer: str, p: int) -> tuple[CouplingSpec, ...]:
    if isinstance(value, dict):
        return (_parse_coupling_entry(value, pointer),) * p
    return tuple(_parse_coupling_entry(entry, _child(pointer, k))
                 for k, entry in enumerate(_expect_list(value, pointer)))


_DISTURBANCE_FIELDS = {
    "zero": ({}, ()),
    "constant": ({"scale": _as_scale}, ()),
    "gaussian": ({"scale": _as_scale, "seed": _as_int}, ("seed",)),
}


def _parse_disturbances(value, pointer: str, p: int,
                        master_seed: int) -> tuple[DisturbanceSpec, ...]:
    """The per-edge disturbances.  A Gaussian entry without a seed takes its
    edge's derived one, counted per list entry so that a miscount reaches
    the count check; the single mapping may not pin a seed."""
    if value is None:
        return (DisturbanceSpec(kind="zero"),) * p
    single = isinstance(value, dict)
    entries = [value] * p if single else _expect_list(value, pointer)
    specs = []
    for k, (entry, seed) in enumerate(
            zip(entries, edge_seed_sequence(master_seed, len(entries)))):
        at = pointer if single else _child(pointer, k)
        fields = _kinded(entry, at, _DISTURBANCE_FIELDS, "disturbance")
        if single and "seed" in fields:
            raise ConfigError(
                _child(at, "seed"),
                "per-edge seeds are derived from the top-level seed here; "
                "use the per-edge list form to pin seeds explicitly")
        if fields["kind"] == "gaussian":
            fields.setdefault("seed", seed)
        specs.append(DisturbanceSpec(**fields))
    return tuple(specs)


def _parse_certification(value, pointer: str):
    if value is None:
        return None, DEFAULT_MODE
    fields = _fields(value, pointer, {"theta": _as_positive, "theta3": _as_positive,
                                      "mode": _given}, optional=("mode",))
    mode = fields.pop("mode", DEFAULT_MODE)
    return CertParams(**fields), mode


def _parse_simulation(value, pointer: str) -> dict:
    """The simulation settings given, which :class:`NetworkConfig` checks;
    the others keep their defaults."""
    if value is None:
        return {}
    keys = ("dt", "horizon", "stride")
    return _fields(value, pointer, dict.fromkeys(keys, _given), optional=keys)


def config_from_dict(payload) -> NetworkConfig:
    """Validate a decoded JSON document and fill defaults."""
    # the other blocks are read below: agents, couplings and disturbances
    # need the graph, and a null disturbances, certification or simulation
    # block stands for an absent one
    data = _fields(payload, "", {
        "graph": _parse_graph,
        # checked before the description exists: the edge seeds derive from it
        "seed": _as_int,
        **dict.fromkeys(("agents", "couplings", "disturbances", "certification",
                         "simulation"), _given),
    }, optional=("seed", "disturbances", "certification", "simulation"))
    graph, seed = data["graph"], data.get("seed", DEFAULT_SEED)
    agents, x0 = _parse_agents(data["agents"], "/agents", graph.n)
    couplings = _parse_couplings(data["couplings"], "/couplings", graph.edge_count)
    disturbances = _parse_disturbances(data.get("disturbances"), "/disturbances",
                                       graph.edge_count, seed)
    certification, mode = _parse_certification(data.get("certification"),
                                               "/certification")
    settings = _parse_simulation(data.get("simulation"), "/simulation")
    return NetworkConfig(graph=graph, agents=agents, initial_states=x0,
                         couplings=couplings, disturbances=disturbances,
                         certification=certification, mode=mode, seed=seed,
                         **settings)


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


def bundled_config(name: str = "paper_k5") -> NetworkConfig:
    """Load a configuration that ships with the package."""
    return config_from_dict(json.loads(_fixture_text(f"{name}.json")))


def bundled_expected(name: str = "paper_k5_expected") -> dict:
    """Frozen reference values for the bundled five-oscillator case study."""
    return json.loads(_fixture_text(f"{name}.json"))


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
