"""JSON configuration parsing, seed plumbing and the command line surface."""

from __future__ import annotations

import copy
import csv
import dataclasses
import functools
import json
import math
import warnings
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncert import __version__, certificates, cli, graphs
from syncert.cli import main
from syncert.config import (
    SEED_ENV_VAR,
    ConfigError,
    bundled_config,
    bundled_expected,
    config_from_dict,
    parse_config,
    reproduction_checks,
    seed_override,
)
from syncert.certificates import SectorBound
from syncert.goodwin import CertParams, certify_network
from syncert.graphs import build_graph
from syncert.noise import edge_seed_sequence
from syncert.simulation import (
    COUPLING_KINDS,
    DISTURBANCE_KINDS,
    CouplingSpec,
    DisturbanceSpec,
    SimulationTrace,
    residual_slack,
    run,
    sector_arrays,
    trace_check,
    trace_checks,
)

TRIANGLE = {
    "graph": {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]},
    "agents": {"a1": 0.5, "a2": 1.0, "a3": 1.0, "b2": 1.5, "b3": 1.5,
               "hill": 14, "input_gains": [0.9, 1.0, 1.1],
               "initial_outputs": [1.0, -0.5, 0.3]},
    "couplings": {"kind": "linear", "gain": 10.0},
    "disturbances": {"kind": "gaussian", "scale": 0.2},
    "certification": {"theta": 2.0, "theta3": 1.5},
    "simulation": {"dt": 0.001, "horizon": 0.5, "stride": 50},
    "seed": 4242,
}


def _payload(**overrides):
    payload = copy.deepcopy(TRIANGLE)
    payload.update(copy.deepcopy(overrides))
    return payload


def _write(tmp_path, payload, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _bundled_path(tmp_path):
    text = (resources.files("syncert") / "fixtures" / "paper_k5.json").read_text(
        encoding="utf-8")
    path = tmp_path / "bundled.json"
    path.write_text(text, encoding="utf-8")
    return path


def test_bundled_config_values():
    cfg = bundled_config()
    assert cfg.graph.n == 5 and cfg.graph.edge_count == 10
    assert cfg.certification == CertParams(theta=2.0, theta3=1.5, mode="uniform")
    assert (cfg.dt, cfg.horizon, cfg.stride) == (1e-3, 100.0, 100)
    assert cfg.seed == 20260815
    assert all((a == 5.0).all() for a in sector_arrays(cfg.couplings))
    assert all(d.kind == "gaussian" for d in cfg.disturbances)
    expected = bundled_expected()
    assert expected["sync_horizon"] <= cfg.horizon


def test_defaults_fill():
    cfg = config_from_dict({
        "graph": {"n": 2, "edges": [[1, 2]]},
        "agents": {"a1": 0.5, "a2": 1.0, "a3": 1.0, "b2": 1.5, "b3": 1.5,
                   "hill": 14, "input_gains": [1.0, 1.1]},
        "couplings": {"kind": "linear", "gain": 5.0},
    })
    assert (cfg.dt, cfg.horizon, cfg.stride) == (1e-3, 100.0, 100)
    assert cfg.seed == 0
    assert cfg.certification is None
    assert all(d.kind == "zero" for d in cfg.disturbances)
    assert np.array_equal(cfg.initial_states, np.zeros((2, 3)))
    with pytest.raises(ConfigError, match="certification block required") as err:
        cfg.certificate()
    assert err.value.pointer == "/certification"


def test_initial_outputs_fill_first_component():
    cfg = config_from_dict(_payload())
    assert np.array_equal(cfg.initial_states[:, 0], [1.0, -0.5, 0.3])
    assert np.array_equal(cfg.initial_states[:, 1:], np.zeros((3, 2)))


def test_initial_states_rows_are_parsed_as_whole_states():
    rows = [[1.0, 0.5, -0.2], [-0.5, 0, 0.1], [0.3, -0.1, 2]]
    agents = {key: v for key, v in TRIANGLE["agents"].items() if key != "initial_outputs"}
    cfg = config_from_dict(_payload(agents={**agents, "initial_states": rows}))
    assert cfg.initial_states.dtype == np.float64
    assert cfg.initial_states.tolist() == rows
    # the rows as written reach the description, which stores them as floats
    direct = dataclasses.replace(cfg, initial_states=rows)
    assert direct.initial_states.tobytes() == cfg.initial_states.tobytes()


@pytest.mark.parametrize("mutate, pointer, fragment", [
    (lambda d: d.pop("graph"), "/", "missing required key 'graph'"),
    (lambda d: d.update(bogus=1), "/bogus", "unknown key"),
    (lambda d: d["graph"].update(edges=[[1]]), "/graph/edges/0", "pair"),
    (lambda d: d["graph"].update(edges=[[1, 1]]), "/graph/edges", "self-loop"),
    (lambda d: d["agents"].update(input_gains=[1.0]), "/agents/input_gains",
     "input gains for"),
    (lambda d: d["agents"].update(initial_states=[[0, 0, 0]] * 3),
     "/agents", "not both"),
    (lambda d: d["agents"].update(hill=True), "/agents/hill",
     "expected an integer"),
    (lambda d: d["agents"].update(input_gains=[0.9, 0, 1.1]),
     "/agents/input_gains/1", "must be positive"),
    (lambda d: d["agents"].update(a1=-0.5), "/agents/a1", "must be positive"),
    (lambda d: d["agents"].update(hill=1), "/agents/hill", "integer >= 2"),
    (lambda d: d["agents"].update(hill=3), "/agents/hill", "pole at x3 = -1"),
    (lambda d: d["certification"].update(theta=-1), "/certification/theta",
     "must be positive"),
    (lambda d: d["certification"].update(theta3=5.0), "/certification/theta3",
     "admissible interval"),
    (lambda d: d.update(couplings={"kind": "linear", "gain": -1.0}),
     "/couplings/gain", "must be positive"),
    (lambda d: d.update(couplings=[{"kind": "linear", "gain": 5.0}] * 2
                        + [{"kind": "affine_sinusoid", "gain": -5.0,
                            "amplitude": 0.3,
                            "sector": {"alpha_lo": 4.7, "alpha_hi": 5.3}}]),
     "/couplings/2/gain", "must be positive"),
    (lambda d: d.update(couplings={"kind": "affine_sinusoid", "gain": 5.0,
                                   "amplitude": math.inf,
                                   "sector": {"alpha_lo": 4.7, "alpha_hi": 5.3}}),
     "/couplings/amplitude", "finite number"),
    (lambda d: d.update(couplings={"kind": "piecewise_linear",
                                   "knots": [[2.0, 1.0], [1.0, 2.0]],
                                   "sector": {"alpha_lo": 0.5, "alpha_hi": 2.0}}),
     "/couplings/knots", "strictly increasing"),
    (lambda d: d["disturbances"].update(scale=-0.1), "/disturbances/scale",
     "must be nonnegative"),
    # each kind reads its own keys only
    (lambda d: d["couplings"].update(amplitude=3.0), "/couplings/amplitude",
     "unknown key"),
    (lambda d: d.update(couplings={"kind": "piecewise_linear", "gain": 10.0,
                                   "knots": [[1.0, 2.0]],
                                   "sector": {"alpha_lo": 2.0, "alpha_hi": 2.0}}),
     "/couplings/gain", "unknown key"),
    (lambda d: d.update(disturbances={"kind": "zero", "scale": 5.0}),
     "/disturbances/scale", "unknown key"),
    # only a Gaussian stream reads a seed
    (lambda d: d.update(disturbances=[{"kind": "gaussian", "scale": 0.2}] * 2
                        + [{"kind": "zero", "seed": 7}]),
     "/disturbances/2/seed", "unknown key"),
    (lambda d: d.update(disturbances=[{"kind": "constant", "scale": 0.1, "seed": 7}] * 3),
     "/disturbances/0/seed", "unknown key"),
    (lambda d: d.update(couplings={"kind": "linear", "gain": 5.0,
                                   "sector": {"alpha_lo": 5.5,
                                              "alpha_hi": 6.0}}),
     "/couplings", "declared sector"),
    (lambda d: d.update(couplings={"kind": "warped"}), "/couplings/kind",
     "unknown coupling kind"),
    (lambda d: d.update(couplings=[{"kind": "linear", "gain": 5.0}]),
     "/couplings", "couplings for"),
    (lambda d: d["disturbances"].update(seed=3), "/disturbances/seed",
     "per-edge list form"),
    (lambda d: d["certification"].update(mode="per-edge"),
     "/certification/mode", "mode must be one of"),
    (lambda d: d["certification"].pop("theta"), "/certification",
     "missing required key 'theta'"),
    (lambda d: d["simulation"].update(dt=-0.1), "/simulation/dt",
     "must be positive"),
    (lambda d: d["simulation"].update(stride=0), "/simulation/stride",
     "must be a positive integer"),
    (lambda d: d.update(seed=1.5), "/seed", "expected an integer"),
])
def test_rejections_carry_pointers(mutate, pointer, fragment):
    payload = _payload()
    mutate(payload)
    with pytest.raises(ConfigError, match=fragment) as err:
        config_from_dict(payload)
    assert err.value.pointer == pointer


_DATA = Path(__file__).parent / "data"
# the two descriptions that the fuzzers mutate, one of each coupling form
_FUZZ_BASES = {
    "paper_k5": json.loads(
        (resources.files("syncert") / "fixtures" / "paper_k5.json").read_text(
            encoding="utf-8")),
    "mixed": json.loads((_DATA / "mixed_couplings_per_edge.json").read_text(
        encoding="utf-8")),
}
_FUZZ_VALUES = [None, True, False, 0, 1, -1, 0.5, 2, 1e308, -1e308, 1e200, 1e-300,
                math.nan, math.inf, -math.inf, 10**30, -10**30, "x", "", "1", [], [1.0],
                [1.0, 2.0], {}, {"kind": "zero"}]


def _json_paths(node, prefix=()):
    """Every path below ``node``, with whether its value is a leaf, that is
    neither an object nor a list."""
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (key,), not isinstance(child, (dict, list))
        if isinstance(child, (dict, list)):
            yield from _json_paths(child, prefix + (key,))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


_LEAVES = [(name, path) for name, base in _FUZZ_BASES.items()
           for path, leaf in _json_paths(base) if leaf]


def _direct_pointer(payload, path, value):
    """The pointer at which direct construction rejects the value at JSON
    ``path`` of ``payload``: its owner built with that value (by
    ``dataclasses.replace`` of the parsed one, after its edited sector, or
    afresh for a graph), its rejection placed in the owner's block as the
    parser places it, then ``dataclasses.replace`` of the description, whose
    pointers are absolute.  None when accepted."""
    rep = dataclasses.replace
    cfg = config_from_dict(payload)
    edited = copy.deepcopy(payload)
    _set(edited, path, value)
    head, *rest = path
    node = edited[head]
    if head == "graph":
        stages = [("/graph", lambda _: build_graph(node["n"], node["edges"])),
                  ("", lambda g: rep(cfg, graph=g))]
    elif head == "agents" and rest[0] == "initial_outputs":
        stages = [("", lambda _: rep(cfg, initial_states=node["initial_outputs"]))]
    elif head == "agents":
        stages = [("/agents", lambda _: rep(cfg.agents, **{rest[0]: node[rest[0]]})),
                  ("", lambda agents: rep(cfg, agents=agents))]
    elif head == "couplings":
        single = isinstance(node, dict)
        k, key = (0, rest[0]) if single else rest[:2]
        block, entry = ("/couplings", node) if single else (f"/couplings/{k}", node[k])
        couplings = lambda new: tuple(new if single or j == k else c
                                      for j, c in enumerate(cfg.couplings))
        stages = [(f"{block}/{key}", lambda _: SectorBound(**entry[key])
                   if key == "sector" and isinstance(entry[key], dict) else entry[key]),
                  (block, lambda field: rep(cfg.couplings[k], **{key: field})),
                  ("", lambda new: rep(cfg, couplings=couplings(new)))]
    elif head == "disturbances":
        stages = [("/disturbances", lambda _: tuple(rep(d, **{rest[0]: value})
                                                   for d in cfg.disturbances)),
                  ("", lambda ds: rep(cfg, disturbances=ds))]
    elif head == "certification":
        stages = [("/certification", lambda _: rep(cfg.certification, **{rest[0]: value})),
                  ("", lambda cp: rep(cfg, certification=cp))]
    else:
        stages = [("", lambda _: rep(cfg, **{rest[-1] if rest else head: value}))]
    built = None
    for block, build in stages:
        try:
            built = build(built)
        except ConfigError as exc:
            return block + exc.pointer.rstrip("/")
    return None


# the five parser/constructor disagreements that one owner per rule removed
@example(leaf=("paper_k5", ("agents", "initial_outputs", 0)), value=math.nan)
@example(leaf=("mixed", ("couplings", 1, "sector", "alpha_lo")), value=True)
@example(leaf=("mixed", ("couplings", 2, "knots", 0, 0)), value=True)
@example(leaf=("mixed", ("couplings", 1, "sector", "alpha_lo")), value="1")
@example(leaf=("paper_k5", ("certification", "theta")), value="a")
# an integer beyond the float range raised OverflowError in the parser
@example(leaf=("paper_k5", ("agents", "a1")), value=10**400)
# knots and a sector of the wrong shape: the spec rejects them at its field
@example(leaf=("mixed", ("couplings", 2, "knots")), value=5)
@example(leaf=("mixed", ("couplings", 2, "knots")), value=[[1.0, 2.0, 3.0]])
@example(leaf=("mixed", ("couplings", 2, "knots")), value=[1.0])
@example(leaf=("mixed", ("couplings", 1, "sector")), value=[1.0, 2.0])
# an edge list or edge of the wrong shape: build_graph rejects it at /edges
# or /edges/<k> in either path
@example(leaf=("paper_k5", ("graph", "edges")), value=5)
@example(leaf=("paper_k5", ("graph", "edges")), value=None)
@example(leaf=("paper_k5", ("graph", "edges")), value=[[1, 2, 3]])
@example(leaf=("paper_k5", ("graph", "edges")), value=[5])
# the mode is the block's, like theta: CertParams rejects it in either path
@example(leaf=("paper_k5", ("certification", "mode")), value="bogus")
@given(leaf=st.sampled_from(_LEAVES), value=st.sampled_from(_FUZZ_VALUES))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_parser_and_direct_construction_reject_alike(leaf, value):
    # one value of one field, parsed from the file or set by direct
    # construction: rejected at the same pointer, or accepted by both
    name, path = leaf
    payload = _FUZZ_BASES[name]
    mutated = copy.deepcopy(payload)
    _set(mutated, path, value)
    try:
        config_from_dict(mutated)
        parsed = None
    except ConfigError as exc:
        parsed = exc.pointer
    assert _direct_pointer(payload, path, value) == parsed


# every disturbance kind once per three edges, the Gaussian one pinned
_EVERY_DISTURBANCE = ({"kind": "gaussian", "scale": 0.3, "seed": 7},
                      {"kind": "constant", "scale": 0.1}, {"kind": "zero"})
# each spec field's zero, which is a value given, not a field left out
_ZEROS = {"couplings": {"gain": 0.0, "amplitude": 0.0, "knots": []},
          "disturbances": {"scale": 0.0, "seed": 0}}


def _entry_variants():
    """``(payload, block, k, entry)``: each coupling or disturbance entry of
    the twin test's bases (``k`` None for the single mapping), and of each
    base with every disturbance kind listed, with one key but ``kind`` left
    out, or with one field its kind does not read set to its zero."""
    for base in _FUZZ_BASES.values():
        listed = copy.deepcopy(base)
        listed["disturbances"] = [_EVERY_DISTURBANCE[k % 3]
                                  for k in range(len(base["graph"]["edges"]))]
        for payload, block in ((base, "couplings"), (base, "disturbances"),
                               (listed, "disturbances")):
            node = payload[block]
            for k, entry in [(None, node)] if isinstance(node, dict) else enumerate(node):
                kind = entry["kind"]
                reads = (COUPLING_KINDS[kind][1] if block == "couplings"
                         else DISTURBANCE_KINDS[kind])
                for key in entry:
                    if key != "kind":
                        yield payload, block, k, {f: v for f, v in entry.items() if f != key}
                for key, zero in _ZEROS[block].items():
                    if key not in reads:
                        yield payload, block, k, {**entry, key: zero}


def _parsed_entry(payload, block, k, entry):
    """``payload`` parsed with ``entry`` at ``k`` of ``block``, or the
    rejection's pointer."""
    doc = copy.deepcopy(payload)
    if k is None:
        doc[block] = entry
    else:
        doc[block][k] = entry
    try:
        return config_from_dict(doc)
    except ConfigError as exc:
        return exc.pointer


def _built_entry(payload, block, k, entry):
    """The parsed ``payload`` with the spec built directly from ``entry``'s
    keys at ``k`` of ``block`` (every edge for None), or the pointer of the
    rejection, placed in the block as the parser places it."""
    cfg = config_from_dict(payload)
    try:
        if block == "couplings":
            sector = {"sector": SectorBound(**entry["sector"])} if "sector" in entry else {}
            spec = CouplingSpec(**{**entry, **sector})
        else:
            spec = DisturbanceSpec(**entry)
    except ConfigError as exc:
        return f"/{block}" + ("" if k is None else f"/{k}") + exc.pointer.rstrip("/")
    specs = tuple(spec if k in (None, j) else old for j, old in enumerate(getattr(cfg, block)))
    try:
        return dataclasses.replace(cfg, **{block: specs})
    except ConfigError as exc:
        return exc.pointer


def test_a_left_out_or_unread_field_means_the_same_parsed_or_built():
    # None is the one "not given" of a spec: a field its kind reads and that
    # is left out, and one it does not read given as zero, are rejected at
    # the field's pointer either way; an accepted entry builds equal specs,
    # a Gaussian seed left out derived alike
    cases = 0
    for payload, block, k, entry in _entry_variants():
        parsed = _parsed_entry(payload, block, k, entry)
        built = _built_entry(payload, block, k, entry)
        if isinstance(parsed, str) or isinstance(built, str):
            assert parsed == built, (block, k, entry)
        else:
            assert (parsed.couplings, parsed.disturbances) == (
                built.couplings, built.disturbances), (block, k, entry)
        cases += 1
    assert cases > 50
    # a Gaussian spec built without a seed takes its edge's derived seed:
    # all ten K5 links drew one stream of seed 0
    cfg = bundled_config()
    unseeded = dataclasses.replace(
        cfg, disturbances=(DisturbanceSpec(kind="gaussian", scale=0.3),) * 10)
    assert unseeded.disturbances == cfg.disturbances
    one, other = (run(c.with_simulation(horizon=1.0)) for c in (unseeded, cfg))
    assert one.states.tobytes() == other.states.tobytes()
    assert one.held_disturbance.tobytes() == other.held_disturbance.tobytes()


# exit-2 rejections that name no file value: a graph without edges has no
# certificate, and a search grid comes from the command line
_POINTERLESS = ("error: graph has no edges, nothing to certify\n",
                "error: inadmissible certification parameters: no admissible theta3")


def _at(name, path, value):
    """The mutation that sets ``path`` of an unmutated base to ``value``."""
    return [path for path, _ in _json_paths(_FUZZ_BASES[name])].index(path), value


def _mutated(name, mutations):
    """A copy of base ``name`` with each ``(index, value)`` mutation applied
    in turn: the key at ``index`` (modulo the number of keys) deleted for
    ``"delete"``, else set to ``value``."""
    doc = copy.deepcopy(_FUZZ_BASES[name])
    for index, value in mutations:
        paths = [path for path, _ in _json_paths(doc)]
        if not paths:
            break
        path = paths[index % len(paths)]
        if value == "delete":
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
        else:
            _set(doc, path, copy.deepcopy(value))
    return doc


_MUTATIONS = st.lists(st.tuples(st.integers(0, 10**6),
                                st.sampled_from([*_FUZZ_VALUES, "delete"])),
                      min_size=1, max_size=3)


# one per class of fault that single mutations reached: each exited 1 with a
# traceback, by a RuntimeWarning, an OverflowError or an IndexError
@example(name="mixed", mutations=[_at("mixed", ("agents", "initial_outputs", 0), -1e308)])
@example(name="mixed", mutations=[_at("mixed", ("agents", "input_gains", 0), 1e200)])
@example(name="paper_k5", mutations=[_at("paper_k5", ("agents", "b3"), 1e308)])
@example(name="paper_k5", mutations=[_at("paper_k5", ("agents", "b2"), 1e200)])
@example(name="mixed", mutations=[_at("mixed", ("couplings", 0, "gain"), 1e-300)])
@example(name="paper_k5", mutations=[_at("paper_k5", ("couplings", "gain"), 1e-300)])
@example(name="mixed", mutations=[_at("mixed", ("couplings", 0, "gain"), 1e200)])
@example(name="mixed",
         mutations=[_at("mixed", ("couplings", 1, "sector", "alpha_hi"), 1e200)])
@example(name="mixed", mutations=[_at("mixed", ("couplings", 2, "knots", 0, 1), -1e308)])
@example(name="mixed", mutations=[_at("mixed", ("disturbances", "scale"), 1e308)])
@example(name="mixed", mutations=[_at("mixed", ("disturbances", "scale"), 1e200)])
@example(name="mixed", mutations=[_at("mixed", ("simulation", "stride"), 10**30)])
@given(name=st.sampled_from(sorted(_FUZZ_BASES)), mutations=_MUTATIONS)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_mutated_configs_exit_by_the_contract(tmp_path_factory, name, mutations):
    # 1-3 keys deleted or set to hostile values: every command exits 0, 1,
    # 2 or 3 without a traceback, with RuntimeWarning as an error, and a
    # rejected file value is named by its JSON pointer
    doc = _mutated(name, mutations)
    out = tmp_path_factory.mktemp("fuzz")
    path = _write(out, doc)
    for command in (["certify", str(path)],
                    ["search", str(path), "--theta", "1:3:3", "--theta3", "1.2:1.9:3"],
                    ["simulate", str(path), "-o", str(out / "sim"), "--dt", "0.001",
                     "-T", "0.005"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = CliRunner().invoke(main, command)
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            (command[0], doc, result.exception)
        assert result.exit_code in (0, 1, 2, 3)
        if result.exit_code == 2:
            assert result.output.startswith(("error: /", *_POINTERLESS)), \
                (command[0], doc, result.output)


# an overflowing response form left n_min nan, and certify printed
# "n_min = nan <= 0"
@example(name="mixed",
         mutations=[_at("mixed", ("couplings", 1, "sector", "alpha_hi"), 1e308)])
@given(name=st.sampled_from(sorted(_FUZZ_BASES)), mutations=_MUTATIONS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_accepted_mutated_configs_certify_to_finite_numbers(name, mutations):
    # a description that parses either raises ValueError when certified, or
    # gives finite per-edge numbers, forms and margin eigenvalue, and a bound
    # that is finite when certified and says why when it is not
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cert = config_from_dict(_mutated(name, mutations)).certificate()
            forms, bound = cert.forms, cert.bound
            margin_min_eig = forms.margin_min_eig
    except ValueError:
        return
    for values in (cert.nu, cert.gamma, cert.beta, cert.sigma, cert.slacks, cert.nu_node,
                   forms.margin_form, margin_min_eig):
        assert np.isfinite(values).all(), (name, mutations)
    if bound.certified:
        assert np.isfinite([bound.gain, bound.offset, bound.n_min, bound.m_max]).all()
    else:
        assert "nan" not in bound.why_uncertified, (name, mutations)


def test_an_overflowing_response_form_says_why_the_bound_is_uncertified(tmp_path):
    # a declared alpha_hi of 1e308 overflows the response forms: n_min is
    # nan, which no "n_min <= 0" message describes
    payload = copy.deepcopy(_FUZZ_BASES["mixed"])
    payload["couplings"][1]["sector"]["alpha_hi"] = 1e308
    path = _write(tmp_path, payload)
    why = "(the response forms overflow double precision)"
    result = CliRunner().invoke(main, ["certify", str(path)])
    assert result.exit_code == 1
    assert f"gain bound: not certified {why}\n" in result.output
    result = CliRunner().invoke(main, ["simulate", str(path), "-o", str(tmp_path / "sim"),
                                       "--check-bound"])
    assert result.exit_code == 2
    assert result.output == f"error: gain bound is not certified {why}; nothing to check\n"
    cfg = dataclasses.replace(config_from_dict(payload), horizon=0.01)
    bound = cfg.certificate().bound
    assert math.isnan(bound.n_min)
    with pytest.raises(certificates.UncertifiedBoundError) as err:
        run(cfg).margin_curve(bound)
    assert str(err.value) == f"gain bound is not certified {why}; no margin to evaluate"


@pytest.mark.parametrize("name, value", [("b3", 1e308), ("b2", 1e200)])
def test_overflowing_chain_gain_exits_2_at_its_pointer(tmp_path, name, value):
    # b3 * b3 and b2 * b2 enter the admissible interval and the certificate
    # weights; an infinite square raised OverflowError and exited 1, which
    # reads as a false verdict
    path = _DATA / "overflow_b3_k5.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    bundled = copy.deepcopy(_FUZZ_BASES["paper_k5"])
    bundled["agents"]["b3"] = 1e308
    assert payload == bundled
    if name == "b2":
        bundled["agents"].update(b2=value, b3=1.5)
        path = _write(tmp_path, bundled)
    result = CliRunner().invoke(main, ["certify", str(path)])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output == f"error: /agents/{name}: must have a finite square, got {value!r}\n"


def test_overstated_sinusoid_sector_exits_2_with_pointer(tmp_path):
    # gain 1, amplitude 2: the slope ratio's infimum is 0.565533; a declared
    # alpha_lo 0.0068 above it passed the sampled check
    sinusoid = {"kind": "affine_sinusoid", "gain": 1.0, "amplitude": 2.0,
                "sector": {"alpha_lo": 0.565533 + 0.0068, "alpha_hi": 3.0}}
    linear = {"kind": "linear", "gain": 10.0}
    path = _write(tmp_path, _payload(couplings=[linear, sinusoid, linear]))
    result = CliRunner().invoke(main, ["certify", str(path)])
    assert result.exit_code == 2
    assert "error: /couplings/1: declared sector" in result.output
    assert "[0.565533, 3]" in result.output


def test_coupling_dict_replicates_and_list_is_positional():
    cfg = config_from_dict(_payload())
    assert len(set(cfg.couplings)) == 1
    listed = config_from_dict(_payload(couplings=[
        {"kind": "linear", "gain": 5.0},
        {"kind": "linear", "gain": 10.0},
        {"kind": "linear", "gain": 15.0},
    ]))
    assert [c.gain for c in listed.couplings] == [5.0, 10.0, 15.0]


def test_gaussian_seeds_derive_from_master():
    cfg = config_from_dict(_payload())
    assert [d.seed for d in cfg.disturbances] == edge_seed_sequence(4242, 3)


def test_explicit_seed_allowed_in_list_form():
    cfg = config_from_dict(_payload(disturbances=[
        {"kind": "gaussian", "scale": 0.2, "seed": 7},
        {"kind": "gaussian", "scale": 0.2},
        {"kind": "constant", "scale": 0.1},
    ]))
    derived = edge_seed_sequence(4242, 3)
    assert cfg.disturbances[0].seed == 7
    assert cfg.disturbances[1].seed == derived[1]
    assert cfg.disturbances[2].kind == "constant"


def test_only_gaussian_entries_store_a_derived_seed():
    derived = edge_seed_sequence(4242, 3)
    listed = [{"kind": "constant", "scale": 0.1}, {"kind": "gaussian", "scale": 0.2},
              {"kind": "zero"}]
    for disturbances in ({"kind": "constant", "scale": 0.1}, {"kind": "zero"}, listed):
        cfg = config_from_dict(_payload(disturbances=disturbances))
        assert [d.seed for d in cfg.disturbances] == [
            derived[k] if d.kind == "gaussian" else None
            for k, d in enumerate(cfg.disturbances)]
    assert [d.kind for d in cfg.disturbances] == ["constant", "gaussian", "zero"]
    assert cfg.disturbances[1].seed == derived[1]


def test_with_seed_rederives_every_gaussian_stream():
    cfg = config_from_dict(_payload(disturbances=[
        {"kind": "gaussian", "scale": 0.2, "seed": 7},
        {"kind": "gaussian", "scale": 0.2},
        {"kind": "zero"},
    ]))
    reseeded = cfg.with_seed(99)
    derived = edge_seed_sequence(99, 3)
    assert reseeded.seed == 99
    # the explicitly pinned seed is re-derived too: one master seed must pin
    # the whole realisation
    assert [d.seed for d in reseeded.disturbances[:2]] == derived[:2]
    assert reseeded.disturbances[2].kind == "zero"
    assert cfg.seed == 4242


# seeds below zero, small ones and ones of a word or more, which wrap
_SEEDS = st.one_of(st.integers(max_value=-1), st.integers(0, 1000),
                   st.integers(min_value=2**64))
# one Gaussian mapping; a kind mix; a pinned seed, which re-seeding re-derives
_SEEDED_FORMS = (
    {"kind": "gaussian", "scale": 0.2},
    [{"kind": "gaussian", "scale": 0.2}, {"kind": "zero"}, {"kind": "constant", "scale": 0.1}],
    [{"kind": "gaussian", "scale": 0.2, "seed": 7}, {"kind": "gaussian", "scale": 0.2},
     {"kind": "zero"}],
)


@given(form=st.sampled_from(_SEEDED_FORMS), s=_SEEDS, t=_SEEDS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_parsed_and_reseeded_descriptions_derive_alike(form, s, t):
    # one seed rule: a description parsed with seed s has the disturbances
    # of the one parsed with seed t and re-seeded with s, pins left out
    unpinned = form if isinstance(form, dict) else [
        {key: v for key, v in entry.items() if key != "seed"} for entry in form]
    parsed = config_from_dict(_payload(disturbances=unpinned, seed=s))
    reseeded = config_from_dict(_payload(disturbances=form, seed=t)).with_seed(s)
    assert reseeded.seed == s
    assert reseeded.disturbances == parsed.disturbances


def test_with_simulation_overrides():
    cfg = config_from_dict(_payload())
    tuned = cfg.with_simulation(dt=2e-3, horizon=1.0)
    assert (tuned.dt, tuned.horizon, tuned.stride) == (2e-3, 1.0, 50)
    assert cfg.with_simulation() is cfg
    with pytest.raises(ConfigError, match="must be positive") as err:
        cfg.with_simulation(dt=0.0)
    assert err.value.pointer == "/simulation/dt"
    # integers given for the step or the horizon are stored as floats
    parsed = config_from_dict(_payload(simulation={"horizon": 1}))
    replaced = dataclasses.replace(cfg, dt=1, horizon=4)
    for value in (parsed.dt, parsed.horizon, replaced.dt, replaced.horizon):
        assert type(value) is float
    assert (parsed.horizon, replaced.dt, replaced.horizon) == (1.0, 1.0, 4.0)


@pytest.mark.parametrize("changes, pointer", [
    ({"dt": True, "horizon": 1}, "/simulation/dt"),
    ({"horizon": True, "dt": 0.5}, "/simulation/horizon"),
    ({"horizon": "x"}, "/simulation/horizon"),
    ({"dt": "x"}, "/simulation/dt"),
])
def test_replaced_dt_and_horizon_must_be_numbers(changes, pointer):
    # a bool would pass the grid check as 1 or 0; a string must not reach it
    with pytest.raises(ConfigError, match="expected a number") as err:
        dataclasses.replace(bundled_config(), **changes)
    assert err.value.pointer == pointer


def test_seed_override_precedence(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "5")
    assert seed_override(7) == 7
    assert seed_override(None) == 5
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(ConfigError, match="must be an integer"):
        seed_override(None)
    monkeypatch.delenv(SEED_ENV_VAR)
    assert seed_override(None) is None


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(broken)


def test_certify_writes_full_precision_csv(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    out = tmp_path / "margins.csv"
    result = runner.invoke(main, ["certify", str(path), "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert "verdict: certified" in result.output

    cfg = parse_config(path)
    cert = cfg.certificate()
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["edge"] for r in rows] == ["1-2", "1-3", "2-3"]
    for k, row in enumerate(rows):
        assert float(row["nu"]) == cert.nu[k]
        assert float(row["gamma"]) == cert.gamma[k]
        assert float(row["beta"]) == cert.beta[k]
        assert float(row["slack"]) == cert.slacks[k]
        assert row["ok"] == "true"


def test_certify_reports_failed_verdict(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload(couplings={"kind": "linear", "gain": 2.0}))
    result = runner.invoke(main, ["certify", str(path)])
    assert result.exit_code == 1
    assert "NOT certified" in result.output


def test_certify_rejects_disconnected_graph(tmp_path):
    payload = json.loads(_bundled_path(tmp_path).read_text(encoding="utf-8"))
    edges = payload["graph"]["edges"]
    payload["graph"] = {"n": 10, "edges": edges + [[i + 5, j + 5] for i, j in edges]}
    for key in ("input_gains", "initial_outputs"):
        payload["agents"][key] = payload["agents"][key] * 2
    result = CliRunner().invoke(main, ["certify", str(_write(tmp_path, payload))])
    assert result.exit_code == 1, result.output
    assert "verdict: NOT certified (graph is disconnected)" in result.output


def _count_certificate_work(monkeypatch):
    """Count eigen solves and computations of the per-edge common-neighbour
    counts (``Graph.common``, which ``Graph.exclusive`` reads) from here
    on."""
    calls = {"eigvalsh": 0, "common": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(certificates, "symmetric_eigenvalues",
                        counted("eigvalsh", certificates.symmetric_eigenvalues))
    common = functools.cached_property(counted("common", graphs.Graph.common.func))
    common.__set_name__(graphs.Graph, "common")
    monkeypatch.setattr(graphs.Graph, "common", common)
    return calls


def test_certify_solves_each_quantity_once(tmp_path, monkeypatch):
    calls = _count_certificate_work(monkeypatch)
    result = CliRunner().invoke(main, ["certify", str(_bundled_path(tmp_path))])
    assert result.exit_code == 0, result.output
    # margin eigenvalue once, then the smallest and largest response
    # eigenvalues of the single slope sample
    assert calls == {"eigvalsh": 3, "common": 1}


@pytest.mark.parametrize("command", [
    ["certify"],
    ["search", "--theta", "2:2:1", "--theta3", "1.5:1.5:1"],
], ids=["certify", "search"])
def test_edgeless_graph_exits_2_before_any_table(tmp_path, command):
    path = _write(tmp_path, _payload(graph={"n": 3, "edges": []}))
    result = CliRunner().invoke(main, [command[0], str(path), *command[1:]])
    assert result.exit_code == 2, result.output
    assert result.output == "error: graph has no edges, nothing to certify\n"


def test_search_computes_edge_stats_once_for_the_grid(tmp_path, monkeypatch):
    path = _write(tmp_path, _payload())
    out = tmp_path / "grid.csv"
    calls = _count_certificate_work(monkeypatch)
    result = CliRunner().invoke(main, ["search", str(path), "--theta", "0.5:4:4",
                                       "--theta3", "1.2:1.95:3", "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert calls == {"eigvalsh": 0, "common": 1}
    cfg = parse_config(path)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12 and all(r["feasible"] == "true" for r in rows)
    for row in rows:
        cp = CertParams(theta=float(row["theta"]), theta3=float(row["theta3"]))
        cert = certify_network(dataclasses.replace(cfg, certification=cp))
        assert float(row["min_slack"]) == cert.min_slack


def test_search_reproduces_golden_grid_csv(tmp_path):
    # the K5 golden was written on the bundled network by the per-edge
    # certificate build that the array build replaced; the mixed one covers
    # all three coupling kinds, so the default linear point sectors and the
    # declared sectors of the other kinds reach the margin, and its per-edge
    # twin differs only in the certification block's mode, which search keeps.
    # Without a block the mode is uniform, as in a block that says so. Every
    # grid includes theta3 points outside the admissible (1.125, 2), which
    # carry nan
    data = Path(__file__).parent / "data"
    mixed, uniform = (json.loads((data / name).read_text(encoding="utf-8"))
                      for name in ("mixed_couplings.json", "mixed_couplings_per_edge.json"))
    assert mixed == {key: value for key, value in uniform.items() if key != "certification"}
    uniform["certification"]["mode"] = "uniform"
    uniform_path = tmp_path / "mixed_uniform.json"
    uniform_path.write_text(json.dumps(uniform), encoding="utf-8")
    assert ((data / "search_mixed_golden.csv").read_bytes()
            != (data / "search_mixed_per_edge_golden.csv").read_bytes())
    cases = [(_bundled_path(tmp_path), "search_k5_golden.csv", "0.18475"),
             (data / "mixed_couplings.json", "search_mixed_golden.csv", "-8.35222"),
             (uniform_path, "search_mixed_golden.csv", "-8.35222"),
             (data / "mixed_couplings_per_edge.json", "search_mixed_per_edge_golden.csv",
              "-8.09722")]
    for config, golden, best in cases:
        out = tmp_path / golden
        result = CliRunner().invoke(main, ["search", str(config),
                                           "--theta", "0.5:4:7", "--theta3", "1.0:2.1:9",
                                           "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert "grid points: 63, admissible: 49" in result.output
        assert f"min slack = {best}\n" in result.output
        assert out.read_bytes() == (data / golden).read_bytes(), golden


def test_version_option_reads_the_package_version():
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output == f"syncert, version {__version__}\n"
    assert __version__ == "0.1.0"


def test_certify_rejects_inadmissible_theta3_with_pointer(tmp_path):
    path = _write(tmp_path, _payload(certification={"theta": 2.0, "theta3": 5.0}))
    result = CliRunner().invoke(main, ["certify", str(path)])
    assert result.exit_code == 2
    assert ("error: /certification/theta3: must lie in the admissible interval "
            "(b3^2/(2*a3), 2*a2) = (1.125, 2), got 5.0") in result.output


def test_simulate_reproduces_golden_mixed_coupling_trace(tmp_path):
    # all three coupling kinds with distinct parameters, piecewise knot counts
    # of 1, 2 and 4 and arguments past every last knot; trace.csv written by
    # the per-edge evaluator that the kind kernels replaced
    data = Path(__file__).parent / "data"
    out = tmp_path / "mixed"
    result = CliRunner().invoke(main, ["simulate", str(data / "mixed_couplings.json"),
                                       "--full", "-o", str(out), "--seed", "1"])
    assert result.exit_code == 0, result.output
    assert (out / "trace.csv").read_bytes() == \
        (data / "mixed_couplings_trace.csv").read_bytes()


def test_reproduce_paper_reproduces_golden_traces(tmp_path):
    # both traces written by the one-realisation-per-pass integrator that the
    # batched pass replaced; the margin CSV pins the certificate values
    golden = Path(__file__).parent / "data" / "reproduce_paper_T1_seed3"
    out = tmp_path / "repro"
    result = CliRunner().invoke(main, ["reproduce-paper", "-T", "1", "--seed", "3",
                                       "-o", str(out)])
    assert result.exit_code == 0, result.output
    for name in ("margins.csv", "trace_noiseless.csv", "trace_noisy.csv"):
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def test_certify_rejects_bad_config(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload(bogus=1))
    result = runner.invoke(main, ["certify", str(path)])
    assert result.exit_code == 2
    assert "unknown key" in result.output


def test_simulate_trace_layout_and_determinism(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    out = tmp_path / "run1"
    result = runner.invoke(main, ["simulate", str(path), "-o", str(out)])
    assert result.exit_code == 0, result.output
    data = (out / "trace.csv").read_bytes()
    lines = data.decode().splitlines()
    assert lines[0] == "t,y_1,y_2,y_3,normDTY,normW,bound_margin"
    assert len(lines) == 1 + 11  # header plus 500 steps sampled every 50
    # identical invocations must byte-match
    runner.invoke(main, ["simulate", str(path), "-o", str(tmp_path / "run2")])
    assert (tmp_path / "run2" / "trace.csv").read_bytes() == data
    # a different master seed changes the realisation
    runner.invoke(main, ["simulate", str(path), "-o", str(tmp_path / "run3"),
                         "--seed", "7"])
    seeded = (tmp_path / "run3" / "trace.csv").read_bytes()
    assert seeded != data
    # the environment override is equivalent to the flag
    runner.invoke(main, ["simulate", str(path), "-o", str(tmp_path / "run4")],
                  env={SEED_ENV_VAR: "7"})
    assert (tmp_path / "run4" / "trace.csv").read_bytes() == seeded


def test_trace_csv_rows_always_include_endpoint(tmp_path):
    # stride thins the CSV only: every stride-th grid point, then the last
    for stride, steps in ((3, [0, 3, 6, 9, 10]), (5, [0, 5, 10])):
        path = _write(tmp_path, _payload(
            simulation={"dt": 1e-3, "horizon": 0.01, "stride": stride}))
        out = tmp_path / f"stride{stride}"
        result = CliRunner().invoke(main, ["simulate", str(path), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert "integrated 10 steps" in result.output
        with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
            times = [float(row["t"]) for row in csv.DictReader(fh)]
        assert times == [m * 1e-3 for m in steps]


def test_simulate_full_appends_edge_columns(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    out = tmp_path / "full"
    result = runner.invoke(main, ["simulate", str(path), "-o", str(out),
                                  "--full"])
    assert result.exit_code == 0, result.output
    with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == (
            ["t", "y_1", "y_2", "y_3", "normDTY", "normW", "bound_margin"]
            + [f"{s}_{k}" for s in ("X", "V", "W") for k in (1, 2, 3)])
        for row in reader:
            for k in (1, 2, 3):
                x, v = float(row[f"X_{k}"]), float(row[f"V_{k}"])
                assert v == pytest.approx(10.0 * x, rel=1e-12, abs=1e-12)


def test_simulate_checks_pass_and_annotate_csv(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    out = tmp_path / "checked"
    result = runner.invoke(main, ["simulate", str(path), "-o", str(out),
                                  "--check-bound", "--check-lemma1"])
    assert result.exit_code == 0, result.output
    assert "PASS  bound-margins: worst margin " in result.output
    assert "PASS  pair-dissipation: worst pair residual slack " in result.output
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header.endswith("bound_margin,dissipation_residual")
    # the printed worst residual slack is the least over the whole grid, at
    # its time, not over the CSV's every-50th rows
    cfg = parse_config(path)
    trace = run(cfg)
    slack = residual_slack(*trace.dissipation_curves(cfg.certificate()))
    m = int(np.argmin(slack))
    assert m % cfg.stride != 0
    assert (f"PASS  dissipation-residual: worst residual slack {slack[m]:.6g} "
            f"at t = {trace.times[m]:.6g}\n") in result.output


def test_simulate_checks_require_certification_block(tmp_path):
    runner = CliRunner()
    payload = _payload()
    del payload["certification"]
    path = _write(tmp_path, payload)
    result = runner.invoke(main, ["simulate", str(path),
                                  "-o", str(tmp_path / "x"), "--check-bound"])
    assert result.exit_code == 2
    assert "certification block required" in result.output


_K6_SINUSOID = _payload(
    graph={"n": 6, "edges": [[i, j] for i in range(1, 7) for j in range(i + 1, 7)]},
    agents=dict(TRIANGLE["agents"], input_gains=[0.95, 1.0, 1.05] * 2,
                initial_outputs=[1.0, -0.5, 0.3] * 2),
    couplings={"kind": "affine_sinusoid", "gain": 5.0, "amplitude": 0.3,
               "sector": {"alpha_lo": 4.7, "alpha_hi": 5.3}},
)


@pytest.mark.parametrize("payload, flags, message", [
    # the gain bound is formed but not certified (n_min <= 0)
    (_payload(couplings={"kind": "linear", "gain": 0.5}), ["--check-bound"],
     "gain bound is not certified"),
], ids=["uncertified_bound"])
def test_simulate_rejects_unboundable_certificate_before_integrating(
        tmp_path, monkeypatch, payload, flags, message):
    def no_run(*args, **kwargs):
        raise AssertionError("integrated before the certificate was checked")

    monkeypatch.setattr("syncert.cli.run", no_run)
    result = CliRunner().invoke(main, ["simulate", str(_write(tmp_path, payload)),
                                       "-o", str(tmp_path / "x"), *flags])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "integrated" not in result.output


def test_non_point_box_of_any_size_is_bounded(tmp_path):
    # 15 non-point edges: the interval bound has no edge limit
    path = _write(tmp_path, _K6_SINUSOID)
    result = CliRunner().invoke(main, ["certify", str(path)])
    assert result.exit_code == 0, result.output
    assert "gain bound (interval, whole slope box): gain " in result.output
    result = CliRunner().invoke(main, ["simulate", str(path), "--check-bound",
                                       "-o", str(tmp_path / "x")])
    assert result.exit_code == 0, result.output
    assert "integrated 500 steps" in result.output
    assert "PASS  bound-margins: worst margin " in result.output


def test_certify_interval_bound_takes_one_more_solve(tmp_path, monkeypatch):
    # a non-point box of 15 edges: margin, centre, centre plus output shift
    # and radius, whatever the edge count
    calls = _count_certificate_work(monkeypatch)
    result = CliRunner().invoke(main, ["certify", str(_write(tmp_path, _K6_SINUSOID))])
    assert result.exit_code == 0, result.output
    assert calls == {"eigvalsh": 4, "common": 1}


def test_single_disturbance_mapping_is_checked_on_an_edgeless_graph(tmp_path):
    # the mapping is read once whatever the edge count, as a coupling is
    payload = _payload(graph={"n": 2, "edges": []},
                       agents={**TRIANGLE["agents"], "input_gains": [1.0, 1.2],
                               "initial_outputs": [1.0, -1.0]},
                       disturbances={"kind": "brownian", "volatility": "high"})
    del payload["certification"]
    result = CliRunner().invoke(main, ["simulate", str(_write(tmp_path, payload)),
                                       "-o", str(tmp_path / "sim")])
    assert result.exit_code == 2
    assert result.output == "error: /disturbances/kind: unknown disturbance kind 'brownian'\n"


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 745. GiB for an array"),
     "Unable to allocate 745. GiB for an array"),
    (MemoryError(), "not enough memory for this run"),
])
def test_a_run_too_large_to_allocate_exits_2(tmp_path, monkeypatch, exc, message):
    # exit 1 would read as a false verdict; nothing is really allocated
    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr("syncert.cli.run", refuse)
    monkeypatch.setattr("syncert.cli.search_params", refuse)
    path = _write(tmp_path, _payload())
    for command in (["simulate", str(path), "-o", str(tmp_path / "sim")],
                    ["search", str(path), "--theta", "1:3:3", "--theta3", "1.2:1.9:3"]):
        result = CliRunner().invoke(main, command)
        assert result.exit_code == 2, (command[0], result.exception)
        assert result.output == f"error: {message}\n"


def test_simulate_blowup_exit_code(tmp_path):
    payload = _payload(
        graph={"n": 2, "edges": [[1, 2]]},
        agents={"a1": 0.5, "a2": 1.0, "a3": 1.0, "b2": 1.5, "b3": 1.5,
                "hill": 14, "input_gains": [1.0, 1.2],
                "initial_outputs": [1.0, -1.0]},
        couplings={"kind": "linear", "gain": 50.0},
        disturbances={"kind": "zero"},
        simulation={"dt": 1.0, "horizon": 100.0, "stride": 1},
    )
    del payload["certification"]
    path = _write(tmp_path, payload)
    runner = CliRunner()
    result = runner.invoke(main, ["simulate", str(path),
                                  "-o", str(tmp_path / "boom")])
    assert result.exit_code == 3
    assert "diverged at t =" in result.output


def test_simulate_rejects_off_grid_horizon(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    result = runner.invoke(main, ["simulate", str(path),
                                  "-o", str(tmp_path / "x"),
                                  "-T", "0.25", "--dt", "0.1"])
    assert result.exit_code == 2
    assert "integer multiple" in result.output


def test_off_grid_horizon_is_rejected_before_any_work(tmp_path):
    # certify never integrates, yet a file's horizon must lie on its grid
    path = _write(tmp_path, _payload(simulation={"dt": 0.3, "horizon": 1.0}))
    result = CliRunner().invoke(main, ["certify", str(path)])
    assert result.exit_code == 2
    assert ("error: /simulation/horizon: horizon 1.0 must be a positive "
            "integer multiple of dt = 0.3") in result.output
    # an override is rejected before the certificate is printed
    result = CliRunner().invoke(main, ["reproduce-paper", "-T", "1e-4"])
    assert result.exit_code == 2
    assert result.output == ("error: /simulation/horizon: horizon 0.0001 must be "
                             "a positive integer multiple of dt = 0.001\n")
    # so is a step that does not divide the horizon
    result = CliRunner().invoke(main, ["reproduce-paper", "--dt", "0.003", "-T", "1"])
    assert result.exit_code == 2
    assert result.output == ("error: /simulation/horizon: horizon 1.0 must be "
                             "a positive integer multiple of dt = 0.003\n")
    with pytest.raises(ConfigError, match="integer multiple") as err:
        config_from_dict(_payload()).with_simulation(dt=0.3)
    assert err.value.pointer == "/simulation/horizon"


def test_search_single_point_matches_certify(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    out = tmp_path / "grid.csv"
    result = runner.invoke(main, ["search", str(path), "--theta", "2:2:1",
                                  "--theta3", "1.5:1.5:1", "-o", str(out)])
    assert result.exit_code == 0, result.output
    cfg = parse_config(path)
    cert = cfg.certificate()
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["min_slack"]) == cert.min_slack
    assert rows[0]["feasible"] == "true"


def test_search_marks_infeasible_rows(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    out = tmp_path / "grid.csv"
    result = runner.invoke(main, ["search", str(path), "--theta", "2:2:1",
                                  "--theta3", "1:1.5:2", "-o", str(out)])
    assert result.exit_code == 0, result.output
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["feasible"] == "false" and rows[0]["min_slack"] == "nan"
    assert rows[1]["feasible"] == "true"


def test_search_bad_grid_spec_exits_two(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    for spec in ("2:1", "a:b:1"):
        result = runner.invoke(main, ["search", str(path), "--theta", spec,
                                      "--theta3", "1.5:1.5:1"])
        assert result.exit_code == 2


def test_search_infeasible_grid_exits_two(tmp_path):
    runner = CliRunner()
    path = _write(tmp_path, _payload())
    result = runner.invoke(main, ["search", str(path), "--theta", "2:2:1",
                                  "--theta3", "1:1.1:2"])
    assert result.exit_code == 2
    assert "inadmissible" in result.output


def test_graph_stats_csv_outputs(tmp_path):
    runner = CliRunner()
    path = _bundled_path(tmp_path)
    stats_out = tmp_path / "stats.csv"
    inc_out = tmp_path / "incidence.csv"
    result = runner.invoke(main, ["graph-stats", str(path),
                                  "-o", str(stats_out),
                                  "--incidence", str(inc_out)])
    assert result.exit_code == 0, result.output
    assert "connected: yes" in result.output
    with open(stats_out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for row in rows:
        assert (row["degree_i"], row["degree_j"]) == ("4", "4")
        assert (row["common"], row["exclusive"]) == ("3", "0")
    with open(inc_out, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        matrix = np.array([[int(v) for v in row] for row in reader])
    assert header == [f"{i}-{j}" for i in range(1, 6) for j in range(i + 1, 6)]
    assert matrix.shape == (5, 10)
    assert np.array_equal(np.sort(np.unique(matrix)), [-1, 0, 1])
    assert np.array_equal(matrix.sum(axis=0), np.zeros(10))
    # byte for byte against the committed goldens
    golden = Path(__file__).parent / "data" / "graph_stats_k5"
    assert stats_out.read_bytes() == (golden / "stats.csv").read_bytes()
    assert inc_out.read_bytes() == (golden / "incidence.csv").read_bytes()


def test_graph_stats_csvs_of_an_edgeless_graph(tmp_path):
    # the header of the empty incidence table and each node's empty row are
    # blank lines; the edge statistics are the header alone
    path = _write(tmp_path, _payload(graph={"n": 3, "edges": []}))
    result = CliRunner().invoke(main, ["graph-stats", str(path), "-o", str(tmp_path / "s.csv"),
                                       "--incidence", str(tmp_path / "i.csv")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "s.csv").read_bytes() == (
        b"edge,node_i,node_j,degree_i,degree_j,common,exclusive\n")
    assert (tmp_path / "i.csv").read_bytes() == b"\n" * 4


def test_csv_floats_keep_every_special_value(tmp_path):
    out = tmp_path / "t.csv"
    cli._write_csv(out, ["a", "b", "c", "d"], "%.17g,%.17g,%.17g,%.17g",
                   [[-0.0, math.nan, math.inf, -math.inf]])
    assert out.read_bytes() == b"a,b,c,d\n-0,nan,inf,-inf\n"


@given(x=st.floats())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_row_template_float_digits_are_format_g17(x):
    assert "%.17g" % x == format(x, ".17g")


def test_reproduce_short_horizon_smoke(tmp_path):
    runner = CliRunner()
    out = tmp_path / "repro"
    result = runner.invoke(main, ["reproduce-paper", "-T", "2", "--dt", "2e-3",
                                  "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert "all checks passed" in result.output
    assert "noiseless-sync: skipped" in result.output
    assert "FAIL" not in result.output
    for name in ("margins.csv", "trace_noiseless.csv", "trace_noisy.csv"):
        assert (out / name).exists()


def test_trace_check_reports_the_least_slack_with_its_time_and_edge():
    trace = SimpleNamespace(times=np.array([0.0, 0.5, 1.0]))
    assert trace_check("c", trace, [np.array([1.0, 2.0, 0.0])], "margin") == (
        "c", True, "worst margin 0 at t = 1")
    curves = [np.array([1.0, 2.0, 3.0]), np.array([0.0, -1.0, -0.5]),
              np.array([4.0, 0.5, -0.1])]
    assert trace_check("c", trace, iter(curves), "slack", ["a", "b", "c"]) == (
        "c", False, "worst slack -1 at t = 0.5, edge b")
    # a nan slack fails the check wherever it sits
    curves[0][1] = math.nan
    assert trace_check("c", trace, iter(curves), "slack", ["a", "b", "c"]) == (
        "c", False, "worst slack nan at t = 0.5, edge a")
    # a tie goes to the lower edge, even when a later edge reaches it earlier
    ties = [np.array([1.0, 0.0, 2.0]), np.array([0.0, 3.0, 3.0])]
    assert trace_check("c", trace, iter(ties), "slack", ["a", "b"]) == (
        "c", True, "worst slack 0 at t = 0.5, edge a")


def test_reproduce_names_the_worst_pair_instant_and_edge():
    # every pair inequality is checked at every grid point; the least slack
    # sits at t = 0, where each residual is -beta and beta varies by edge
    result = CliRunner().invoke(main, ["reproduce-paper", "-T", "0.5", "--seed", "3"])
    assert result.exit_code == 0, result.output
    assert "all checks passed" in result.output
    assert ("PASS  pair-dissipation: worst pair residual slack 0.00500101 "
            "at t = 0, edge 1-3\n") in result.output


@pytest.mark.parametrize("command", ["certify", "simulate", "search"])
def test_odd_hill_exits_2_at_the_hill_pointer(tmp_path, command):
    # the bundled K5 with hill 3, whose trace would cross the pole at x3 = -1
    path = Path(__file__).parent / "data" / "odd_hill_k5.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    bundled = json.loads(_bundled_path(tmp_path).read_text(encoding="utf-8"))
    bundled["agents"].update(hill=3, initial_outputs=[-20, -0.2, 1, 0.5, 0.3])
    assert payload == bundled
    options = {"certify": [], "simulate": ["-o", str(tmp_path / "sim")],
               "search": ["--theta", "2:2:1", "--theta3", "1.5:1.5:1"]}[command]
    result = CliRunner().invoke(main, [command, str(path), *options])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: /agents/hill: hill coefficient must be "
                                    "even, got 3")
    assert "pole at x3 = -1" in result.output


@pytest.mark.parametrize("command", [
    ["certify", "{config}", "-o", "{out}/m.csv"],
    ["reproduce-paper", "-T", "0.01", "-o", "{out}/repro"],
    ["search", "{config}", "--theta", "2:2:1", "--theta3", "1.5:1.5:1", "-o", "{out}/g.csv"],
    ["graph-stats", "{config}", "--incidence", "{out}/i.csv"],
], ids=lambda command: command[0])
def test_unwritable_output_exits_2_naming_the_path(tmp_path, command):
    # an output path under a regular file is an input the command cannot
    # honour, not a false verdict: exit 2 with the OS error, no traceback
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    args = [arg.format(config=_bundled_path(tmp_path), out=blocker) for arg in command]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "\nerror: " in "\n" + result.output
    assert str(blocker) in result.output.rsplit("error: ", 1)[1]


def test_pair_dissipation_catches_what_the_network_checks_miss():
    # the odd-hill K5 parsed with hill 4, then given hill 3 past the parser's
    # pole check: the network inequality and the bound hold on its trace,
    # but one pair inequality breaks
    payload = json.loads((Path(__file__).parent / "data" / "odd_hill_k5.json")
                         .read_text(encoding="utf-8"))
    payload["agents"]["hill"] = 4
    cfg = config_from_dict(payload).with_simulation(horizon=10.0)
    object.__setattr__(cfg.agents, "hill", 3)
    with pytest.warns(UserWarning, match="closed-form slope constant"):
        cert = cfg.certificate()
    trace = run(cfg)
    checks, _ = trace_checks(trace, cert, trace.margin_curve(cert.bound))
    verdicts = {name: (ok, detail) for name, ok, detail in checks}
    assert verdicts["bound-margins"][0] and verdicts["dissipation-residual"][0]
    assert verdicts["pair-dissipation"] == (
        False, "worst pair residual slack -18.8661 at t = 0.802, edge 3-4")


@pytest.mark.parametrize("mode, key, tol_key, shift, check", [
    ("uniform", "gamma_target", "gamma_tol", 2.0, "output-weights"),
    ("uniform", "nu", "nu_tol", 2.0, "input-weights"),
    ("uniform", "nu_node", "nu_tol", -2.0, "node-weight-sums"),
    ("uniform", "slack_target", "slack_tol", 2.0, "margin-slacks"),
    ("uniform", "margin_min_eig", "bound_tol", 2.0, "margin-matrix"),
    ("uniform", "gain", "bound_tol", 2.0, "gain-bound"),
    # a nan frozen value is a nan deviation, which fails
    ("uniform", "offset", "bound_tol", math.nan, "gain-bound"),
    ("per_edge", "gamma_target", "gamma_tol", -2.0, "output-weights"),
    # the per-edge slack floor, slack_target - slack_tol, above every slack
    ("per_edge", "slack_target", "slack_tol", 200.0, "margin-slacks"),
])
def test_each_frozen_check_fails_alone(monkeypatch, mode, key, tol_key, shift, check):
    # one frozen value moved past its tolerance fails its own check only
    expected = bundled_expected()
    expected[key] += shift * expected[tol_key]
    monkeypatch.setattr("syncert.cli.bundled_expected", lambda: expected)
    result = CliRunner().invoke(main, ["reproduce-paper", "-T", "0.5", "--seed", "3",
                                       "--mode", mode])
    assert result.exit_code == 1, result.output
    verdicts = [line.split(":")[0] for line in result.output.splitlines()
                if line.startswith(("PASS  ", "FAIL  "))]
    assert [v for v in verdicts if v.startswith("FAIL")] == [f"FAIL  {check}"]
    # the frozen checks of the mode plus the three trace checks
    assert len(verdicts) == (9 if mode == "uniform" else 7)
    assert f"first failing check: {check}\n" in result.output


def test_reproduction_checks_come_in_print_order(paper_config, paper_certification,
                                                 noiseless_trace, paper_expected):
    # reproduce-paper prints these before the trace checks, and its "first
    # failing check" is the first in this order
    frozen = ["output-weights", "input-weights", "node-weight-sums", "margin-slacks",
              "margin-matrix", "gain-bound"]
    checks, note = reproduction_checks(paper_certification, noiseless_trace, paper_expected)
    assert [name for name, _, _ in checks] == [*frozen, "noiseless-sync"]
    assert all(ok for _, ok, _ in checks) and note is None
    # per_edge mode: the same undisturbed run, read under the per-edge description
    mode = dataclasses.replace(paper_config.certification, mode="per_edge")
    per_edge = dataclasses.replace(paper_config, disturbances=None, certification=mode)
    trace = SimulationTrace(per_edge, noiseless_trace.states, noiseless_trace.held_disturbance)
    checks, note = reproduction_checks(per_edge.certificate(), trace, paper_expected)
    assert [name for name, _, _ in checks] == ["output-weights", "margin-slacks",
                                               "margin-matrix", "gain-bound", "noiseless-sync"]
    assert all(ok for _, ok, _ in checks) and note is None
    # below the 100 s sync horizon, the first 50 s of the same run: a note
    # with the ratio it reached takes the sync check's place
    rows = 50_001
    short = SimulationTrace(noiseless_trace.config.with_simulation(horizon=50.0),
                            noiseless_trace.states[:rows],
                            noiseless_trace.held_disturbance[:rows])
    checks, note = reproduction_checks(paper_certification, short, paper_expected)
    assert [name for name, _, _ in checks] == frozen
    ratio = short.disagreement(-1) / short.disagreement(0)
    assert note == f"noiseless-sync: skipped (horizon 50 < 100), disagreement ratio {ratio:.3g}"


def test_vocabulary_rejections_keep_their_text():
    payload = _payload()
    payload["certification"]["mode"] = "per-edge"
    with pytest.raises(ConfigError) as err:
        config_from_dict(payload)
    assert str(err.value) == ("/certification/mode: mode must be one of "
                              "('uniform', 'per_edge'), got 'per-edge'")
    payload = _payload()
    payload["disturbances"]["kind"] = "pink"
    with pytest.raises(ConfigError) as err:
        config_from_dict(payload)
    assert str(err.value) == "/disturbances/kind: unknown disturbance kind 'pink'"
    result = CliRunner().invoke(main, ["reproduce-paper", "--mode", "per-edge"])
    assert result.exit_code == 2
    assert "'uniform', 'per_edge'" in result.output


def test_reproduce_per_edge_mode_smoke():
    runner = CliRunner()
    result = runner.invoke(main, ["reproduce-paper", "--mode", "per_edge",
                                  "-T", "1"])
    assert result.exit_code == 0, result.output
    assert "all checks passed" in result.output
