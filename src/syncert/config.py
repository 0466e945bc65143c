"""Network configuration files: a single JSON document describes the graph,
the oscillator parameters, couplings, disturbances, certification parameters
and simulation settings.

Top-level keys::

    graph          {"n": 5, "edges": [[1, 2], [1, 3], ...]}
    agents         {"a1": .., "a2": .., "a3": .., "b2": .., "b3": ..,
                    "hill": .., "input_gains": [..],
                    "initial_outputs": [..] | "initial_states": [[..], ..]}
    couplings      single mapping (applied to every edge) or list per edge:
                   {"kind": "linear", "gain": 5.0}
                   {"kind": "affine_sinusoid", "gain": .., "amplitude": ..,
                    "sector": {"alpha_lo": .., "alpha_hi": ..}}
                   {"kind": "piecewise_linear", "knots": [[x, y], ..],
                    "sector": {...}}
    disturbances   single mapping or list per edge:
                   {"kind": "zero" | "constant" | "gaussian",
                    "scale": .., "seed": ..}
    certification  {"theta": .., "theta3": .., "mode": "uniform" | "per_edge"}
    simulation     {"dt": .., "horizon": .., "stride": ..}
    seed           integer master seed

Defaults: dt 1e-3, horizon 100, stride 100 (it only thins trace CSV rows),
zero second and third initial state components, uniform certification
mode, zero disturbance, seed 0.  Gaussian disturbance seeds, unless given
explicitly in the per-edge list form, are derived from the master seed by
edge index so that one integer pins the whole realisation.  Validation
errors carry a JSON-pointer path to the offending value.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .certificates import NetworkCertificate, SectorBound, sector_arrays
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
    DISTURBANCE_KINDS,
    CouplingSpec,
    DisturbanceSpec,
    grid_steps,
    verify_sector,
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


def _expect_mapping(value, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(pointer, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, pointer: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(pointer, f"expected a list, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, known, pointer: str) -> None:
    for key in mapping:
        if key not in known:
            raise ConfigError(_child(pointer, key), "unknown key")


def _require(mapping: dict, key: str, pointer: str):
    if key not in mapping:
        raise ConfigError(pointer, f"missing required key {key!r}")
    return mapping[key]


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
        if len(self.disturbances) != p:
            raise ConfigError("/disturbances",
                              f"{len(self.disturbances)} disturbances for {p} edges")
        x0 = np.array(self.initial_states, dtype=float)
        if x0.shape != (n, 3):
            raise ConfigError("/agents/initial_states",
                              f"initial states have shape {x0.shape}, expected ({n}, 3)")
        object.__setattr__(self, "initial_states", x0)
        if _as_float(self.dt, "/simulation/dt") <= 0.0:
            raise ConfigError("/simulation/dt", f"dt must be positive, got {self.dt}")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, (int, float)):
            raise ConfigError("/simulation/horizon", f"expected a number, got {self.horizon!r}")
        try:
            grid_steps(self.horizon, self.dt)
        except ValueError as exc:
            raise ConfigError("/simulation/horizon", str(exc)) from None
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

    @property
    def sectors(self) -> tuple[SectorBound, ...]:
        return tuple(c.sector for c in self.couplings)

    def certificate(self) -> NetworkCertificate:
        """Certify every edge with the configured parameters."""
        if self.certification is None:
            raise ConfigError("/certification",
                              "certification block required for this command")
        return certify_network(self.agents, self.graph, self.certification,
                               *sector_arrays(self.sectors),
                               initial_states=self.initial_states, mode=self.mode)

    def with_seed(self, seed: int) -> "NetworkConfig":
        """Replace the master seed and re-derive every Gaussian edge seed,
        including ones that were given explicitly."""
        derived = edge_seed_sequence(seed, self.graph.edge_count)
        disturbances = tuple(
            replace(spec, seed=int(derived[k])) if spec.kind == "gaussian" else spec
            for k, spec in enumerate(self.disturbances)
        )
        return replace(self, seed=int(seed), disturbances=disturbances)

    def with_simulation(self, dt: float | None = None,
                        horizon: float | None = None) -> "NetworkConfig":
        changes = {}
        if dt is not None:
            changes["dt"] = _as_positive(dt, "/simulation/dt")
        if horizon is not None:
            changes["horizon"] = _as_positive(horizon, "/simulation/horizon")
        return replace(self, **changes) if changes else self


def _parse_graph(value, pointer: str) -> Graph:
    block = _expect_mapping(value, pointer)
    _reject_unknown(block, {"n", "edges"}, pointer)
    n = _as_int(_require(block, "n", pointer), _child(pointer, "n"))
    raw_edges = _expect_list(_require(block, "edges", pointer),
                             _child(pointer, "edges"))
    edges = []
    for k, entry in enumerate(raw_edges):
        entry_ptr = _child(_child(pointer, "edges"), k)
        pair = _expect_list(entry, entry_ptr)
        if len(pair) != 2:
            raise ConfigError(entry_ptr, f"expected a pair of nodes, got {entry!r}")
        edges.append((_as_int(pair[0], entry_ptr), _as_int(pair[1], entry_ptr)))
    try:
        return build_graph(n, edges)
    except ValueError as exc:
        raise ConfigError(_child(pointer, "edges"), str(exc)) from exc


def _parse_agents(value, pointer: str, n: int):
    block = _expect_mapping(value, pointer)
    _reject_unknown(block, {"a1", "a2", "a3", "b2", "b3", "hill", "input_gains",
                            "initial_outputs", "initial_states"}, pointer)
    chain = {key: _as_positive(_require(block, key, pointer), _child(pointer, key))
             for key in ("a1", "a2", "a3", "b2", "b3")}
    hill_ptr = _child(pointer, "hill")
    hill = _as_int(_require(block, "hill", pointer), hill_ptr)
    try:
        check_hill(hill)
    except ValueError as exc:
        raise ConfigError(hill_ptr, str(exc)) from None
    gains_ptr = _child(pointer, "input_gains")
    gains = _expect_list(_require(block, "input_gains", pointer), gains_ptr)
    if len(gains) != n:
        raise ConfigError(gains_ptr, f"{len(gains)} input gains for {n} nodes")
    agents = GoodwinParams(
        input_gains=[_as_positive(v, _child(gains_ptr, i))
                     for i, v in enumerate(gains)],
        hill=hill, **chain)

    if "initial_outputs" in block and "initial_states" in block:
        raise ConfigError(pointer,
                          "give either initial_outputs or initial_states, not both")
    x0 = np.zeros((n, 3))
    if "initial_outputs" in block:
        out_ptr = _child(pointer, "initial_outputs")
        outputs = _expect_list(block["initial_outputs"], out_ptr)
        if len(outputs) != n:
            raise ConfigError(out_ptr, f"{len(outputs)} initial outputs for {n} nodes")
        x0[:, 0] = [_as_float(v, _child(out_ptr, i)) for i, v in enumerate(outputs)]
    elif "initial_states" in block:
        st_ptr = _child(pointer, "initial_states")
        rows = _expect_list(block["initial_states"], st_ptr)
        if len(rows) != n:
            raise ConfigError(st_ptr, f"{len(rows)} initial states for {n} nodes")
        for i, row in enumerate(rows):
            row_ptr = _child(st_ptr, i)
            triple = _expect_list(row, row_ptr)
            if len(triple) != 3:
                raise ConfigError(row_ptr, f"expected 3 components, got {row!r}")
            x0[i] = [_as_float(v, row_ptr) for v in triple]
    return agents, x0


def _parse_sector(value, pointer: str) -> SectorBound:
    block = _expect_mapping(value, pointer)
    _reject_unknown(block, {"alpha_lo", "alpha_hi"}, pointer)
    lo = _as_float(_require(block, "alpha_lo", pointer), _child(pointer, "alpha_lo"))
    hi = _as_float(_require(block, "alpha_hi", pointer), _child(pointer, "alpha_hi"))
    try:
        return SectorBound(lo, hi)
    except ValueError as exc:
        raise ConfigError(pointer, str(exc)) from exc


def _parse_coupling_entry(value, pointer: str) -> CouplingSpec:
    block = _expect_mapping(value, pointer)
    _reject_unknown(block, {"kind", "gain", "amplitude", "knots", "sector"}, pointer)
    kind = _require(block, "kind", pointer)
    if kind == "linear":
        gain = _as_positive(_require(block, "gain", pointer), _child(pointer, "gain"))
        sector = SectorBound(gain, gain)
        if "sector" in block:
            sector = _parse_sector(block["sector"], _child(pointer, "sector"))
        spec = CouplingSpec(kind="linear", sector=sector, gain=gain)
    elif kind == "affine_sinusoid":
        spec = CouplingSpec(
            kind="affine_sinusoid",
            sector=_parse_sector(_require(block, "sector", pointer),
                                 _child(pointer, "sector")),
            gain=_as_positive(_require(block, "gain", pointer),
                              _child(pointer, "gain")),
            amplitude=_as_float(_require(block, "amplitude", pointer),
                                _child(pointer, "amplitude")))
    elif kind == "piecewise_linear":
        knots_ptr = _child(pointer, "knots")
        raw = _expect_list(_require(block, "knots", pointer), knots_ptr)
        knots = []
        for k, entry in enumerate(raw):
            pair = _expect_list(entry, _child(knots_ptr, k))
            if len(pair) != 2:
                raise ConfigError(_child(knots_ptr, k),
                                  f"expected [x, y], got {entry!r}")
            knots.append((_as_float(pair[0], _child(knots_ptr, k)),
                          _as_float(pair[1], _child(knots_ptr, k))))
        sector = _parse_sector(_require(block, "sector", pointer),
                               _child(pointer, "sector"))
        try:
            spec = CouplingSpec(kind="piecewise_linear", sector=sector,
                                knots=tuple(knots))
        except ValueError as exc:
            raise ConfigError(knots_ptr, str(exc)) from exc
    else:
        raise ConfigError(_child(pointer, "kind"),
                          f"unknown coupling kind {kind!r}")

    check = verify_sector(spec)
    if not check.passed:
        raise ConfigError(
            pointer,
            "declared sector [{:g}, {:g}] is violated: slope ratios span "
            "[{:.6g}, {:.6g}]".format(spec.sector.alpha_lo, spec.sector.alpha_hi,
                                      check.ratio_min, check.ratio_max))
    return spec


def _parse_couplings(value, pointer: str, p: int) -> tuple[CouplingSpec, ...]:
    if isinstance(value, dict):
        return (_parse_coupling_entry(value, pointer),) * p
    return tuple(_parse_coupling_entry(entry, _child(pointer, k))
                 for k, entry in enumerate(_expect_list(value, pointer)))


def _parse_disturbance_entry(value, pointer: str, derived_seed: int,
                             allow_explicit_seed: bool) -> DisturbanceSpec:
    block = _expect_mapping(value, pointer)
    _reject_unknown(block, {"kind", "scale", "seed"}, pointer)
    kind = _require(block, "kind", pointer)
    if kind not in DISTURBANCE_KINDS:
        raise ConfigError(_child(pointer, "kind"),
                          f"unknown disturbance kind {kind!r}")
    scale = 0.0
    if kind != "zero":
        scale_ptr = _child(pointer, "scale")
        scale = _as_float(_require(block, "scale", pointer), scale_ptr)
        if scale < 0.0:
            raise ConfigError(scale_ptr, f"must be nonnegative, got {scale!r}")
    seed = derived_seed
    if "seed" in block:
        if not allow_explicit_seed:
            raise ConfigError(
                _child(pointer, "seed"),
                "per-edge seeds are derived from the top-level seed here; "
                "use the per-edge list form to pin seeds explicitly")
        seed = _as_int(block["seed"], _child(pointer, "seed"))
    return DisturbanceSpec(kind=kind, scale=scale, seed=seed)


def _parse_disturbances(value, pointer: str, p: int,
                        master_seed: int) -> tuple[DisturbanceSpec, ...]:
    if value is None:
        return (DisturbanceSpec(kind="zero"),) * p
    if isinstance(value, dict):
        return tuple(
            _parse_disturbance_entry(value, pointer, seed, allow_explicit_seed=False)
            for seed in edge_seed_sequence(master_seed, p))
    # one derived seed per entry, so a miscount reaches the count check
    entries = _expect_list(value, pointer)
    return tuple(
        _parse_disturbance_entry(entry, _child(pointer, k), seed,
                                 allow_explicit_seed=True)
        for k, (entry, seed) in enumerate(
            zip(entries, edge_seed_sequence(master_seed, len(entries)))))


def _parse_certification(value, pointer: str):
    if value is None:
        return None, DEFAULT_MODE
    block = _expect_mapping(value, pointer)
    _reject_unknown(block, {"theta", "theta3", "mode"}, pointer)
    theta = _as_positive(_require(block, "theta", pointer), _child(pointer, "theta"))
    theta3 = _as_positive(_require(block, "theta3", pointer), _child(pointer, "theta3"))
    return CertParams(theta=theta, theta3=theta3), block.get("mode", DEFAULT_MODE)


def _parse_simulation(value, pointer: str) -> dict:
    """The simulation settings given; the others keep their defaults."""
    if value is None:
        return {}
    block = _expect_mapping(value, pointer)
    _reject_unknown(block, {"dt", "horizon", "stride"}, pointer)
    settings = {key: _as_positive(block[key], _child(pointer, key))
                for key in ("dt", "horizon") if key in block}
    if "stride" in block:
        settings["stride"] = block["stride"]
    return settings


def config_from_dict(payload) -> NetworkConfig:
    """Validate a decoded JSON document and fill defaults."""
    data = _expect_mapping(payload, "")
    _reject_unknown(data, {"graph", "agents", "couplings", "disturbances",
                           "certification", "simulation", "seed"}, "")
    graph = _parse_graph(_require(data, "graph", ""), "/graph")
    # checked before the description exists: the edge seeds derive from it
    seed = _as_int(data.get("seed", DEFAULT_SEED), "/seed")
    agents, x0 = _parse_agents(_require(data, "agents", ""), "/agents", graph.n)
    couplings = _parse_couplings(_require(data, "couplings", ""), "/couplings",
                                 graph.edge_count)
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
