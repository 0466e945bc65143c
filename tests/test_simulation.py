"""Coupling nonlinearities, disturbance streams, the RK4 integrator and the
trace bookkeeping that feeds the certificate checks."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import complete_graph, edge_order_sums, goodwin_field, incidence, rk4_step
from syncert.certificates import (
    GainBound,
    NetworkCertificate,
    SectorBound,
    UncertifiedBoundError,
)
from syncert.config import ConfigError, NetworkConfig, bundled_config, parse_config
from syncert.goodwin import CertParams, GoodwinParams
from syncert.graphs import build_graph
from syncert.noise import edge_seed_sequence, normals
from syncert.simulation import (
    SINC_MIN,
    CouplingSpec,
    DisturbanceSpec,
    SimulationDiverged,
    SimulationTrace,
    _CHECK_BLOCK,
    _StepPlan,
    evaluate_couplings,
    group_couplings,
    prove_sectors,
    run,
    run_batch,
    sector_arrays,
)

# single RK4 step of x' = -x at dt = 0.1 agrees with exp to its dt^5 term
RK4_STEP_ATOL = 1e-7
# node inputs cancel pairwise up to accumulated rounding
ZERO_SUM_ATOL = 1e-12
# node-space dissipation curves against the dense edge-space forms, relative
# to 1 + |rhs|: the two sum the same products in a different order
DISSIPATION_RTOL = 1e-12
# permuted initial states must give permuted trajectories up to roundoff
SYMMETRY_ATOL = 1e-9

_CHAIN = dict(a1=0.5, a2=1.0, a3=1.0, b2=1.5, b3=1.5, hill=14)


def _agents(*gains, **chain_overrides):
    return GoodwinParams(input_gains=gains, **{**_CHAIN, **chain_overrides})


def _grid(config, horizon, dt=1e-3):
    """``config`` set to integrate over ``horizon`` at step ``dt``."""
    return dataclasses.replace(config, horizon=horizon, dt=dt)


def _triangle(scale=0.2, gain=2.0):
    g = build_graph(3, [(1, 2), (1, 3), (2, 3)])
    return NetworkConfig(
        graph=g,
        agents=_agents(0.9, 1.0, 1.1),
        couplings=(CouplingSpec(kind="linear", gain=gain),) * 3,
        disturbances=tuple(DisturbanceSpec(kind="gaussian", scale=scale, seed=s)
                           for s in (11, 12, 13)),
        initial_states=np.array([[1.0, 0.0, 0.5],
                                 [-0.5, 0.2, 0.0],
                                 [0.3, -0.1, 0.4]]),
    )


def test_linear_coupling_is_pure_gain():
    spec = CouplingSpec(kind="linear", gain=5.0)
    assert spec(2.0) == 10.0
    assert np.array_equal(spec(np.array([-1.0, 0.0, 3.0])),
                          np.array([-5.0, 0.0, 15.0]))
    # an undeclared sector is read as the point of the current gain
    assert spec.sector is None
    assert [a.tolist() for a in sector_arrays((spec,))] == [[5.0], [5.0]]


def test_affine_sinusoid_values():
    spec = CouplingSpec(kind="affine_sinusoid", gain=5.0, amplitude=0.5,
                        sector=SectorBound(4.5, 5.5))
    xs = np.array([-2.0, 0.3, 10.0])
    assert np.allclose(spec(xs), 5.0 * xs + 0.5 * np.sin(xs), rtol=1e-15)
    assert prove_sectors((spec,))[0].all()


def test_piecewise_linear_interpolation_and_extrapolation():
    spec = CouplingSpec(kind="piecewise_linear", knots=[(1.0, 2.0), (2.0, 3.0)],
                        sector=SectorBound(1.0, 2.0))
    assert spec(0.5) == pytest.approx(1.0)
    assert spec(1.0) == pytest.approx(2.0)
    assert spec(1.5) == pytest.approx(2.5)
    # beyond the last knot the final slope continues instead of clamping
    assert spec(4.0) == pytest.approx(5.0)
    assert spec(-4.0) == pytest.approx(-5.0)
    assert prove_sectors((spec,))[0].all()
    # the knots are stored as float pairs, however they were given
    ints = CouplingSpec(kind="piecewise_linear", knots=[[1, 2], (np.int64(2), 3)],
                        sector=SectorBound(1.0, 2.0))
    assert ints.knots == ((1.0, 2.0), (2.0, 3.0))
    assert all(type(v) is float for knot in ints.knots for v in knot)
    assert ints == spec


@given(x=st.floats(min_value=1e-9, max_value=1e6))
def test_couplings_are_odd(x):
    for spec in (
        CouplingSpec(kind="linear", gain=3.0),
        CouplingSpec(kind="affine_sinusoid", gain=2.0, amplitude=0.7,
                     sector=SectorBound(1.3, 2.7)),
        CouplingSpec(kind="piecewise_linear", knots=[(1.0, 1.5), (3.0, 4.0)],
                     sector=SectorBound(0.5, 2.0)),
    ):
        assert np.isclose(spec(-x), -spec(x), rtol=1e-12, atol=0.0)


def test_coupling_validation():
    with pytest.raises(ValueError, match="unknown coupling kind"):
        CouplingSpec(kind="cubic", sector=SectorBound(1.0, 1.0))
    with pytest.raises(ConfigError, match=r"^/gain: must be positive, got 0\.0$"):
        CouplingSpec(kind="linear", sector=SectorBound(1.0, 1.0), gain=0.0)
    # the gain is checked before it becomes the default point sector
    with pytest.raises(ConfigError, match=r"^/gain: must be positive, got 0\.0$"):
        CouplingSpec(kind="linear", gain=0.0)
    # a bool is not a number, though it compares as one
    for kind in ("linear", "affine_sinusoid"):
        with pytest.raises(ConfigError, match="^/gain: expected a number, got True$"):
            CouplingSpec(kind=kind, gain=True, sector=SectorBound(1.0, 1.0))
    with pytest.raises(ConfigError, match="^/amplitude: expected a number, got True$"):
        CouplingSpec(kind="affine_sinusoid", gain=1.0, amplitude=True,
                     sector=SectorBound(0.5, 2.0))
    with pytest.raises(ConfigError, match="^/amplitude: expected a finite number, got inf$"):
        CouplingSpec(kind="affine_sinusoid", gain=1.0, amplitude=math.inf,
                     sector=SectorBound(0.5, 1.5))
    # a knot that is not two numbers, a bool included
    with pytest.raises(ConfigError, match="^/knots/1: expected a number, got True$"):
        CouplingSpec(kind="piecewise_linear", knots=((1.0, 1.0), (True, 2.0)),
                     sector=SectorBound(1.0, 1.0))
    # knots that are not a list of [x, y] pairs, and a sector that is not a
    # SectorBound, are rejected at their field rather than deep in a kernel
    for knots, pointer in ((5, "/knots"), ([(1.0, 2.0, 3.0)], "/knots/0"),
                           ([(0.5, 1.0), 1.0], "/knots/1")):
        with pytest.raises(ConfigError) as err:
            CouplingSpec(kind="piecewise_linear", knots=knots, sector=SectorBound(1.0, 2.0))
        assert err.value.pointer == pointer
    for sector in ((1.0, 2.0), {"alpha_lo": 1.0, "alpha_hi": 2.0}):
        with pytest.raises(ConfigError, match="^/sector: expected a sector bound, got "):
            CouplingSpec(kind="linear", gain=1.5, sector=sector)
    # only a linear coupling has a default sector
    with pytest.raises(ValueError, match="affine_sinusoid coupling needs a declared sector"):
        CouplingSpec(kind="affine_sinusoid", gain=1.0, amplitude=0.5)
    with pytest.raises(ValueError, match="piecewise_linear coupling needs a declared sector"):
        CouplingSpec(kind="piecewise_linear", knots=[(1.0, 2.0)])
    with pytest.raises(ValueError, match="at least one knot"):
        CouplingSpec(kind="piecewise_linear", knots=[], sector=SectorBound(1.0, 1.0))
    with pytest.raises(ValueError, match="strictly"):
        CouplingSpec(kind="piecewise_linear", knots=[(2.0, 1.0), (1.0, 2.0)],
                     sector=SectorBound(1.0, 1.0))


def test_coupling_rejects_fields_its_kind_never_reads():
    # such a field changes nothing the kernel evaluates, yet it made two
    # equal couplings compare unequal, so run_batch refused to batch them
    sector = SectorBound(1.0, 2.0)
    for kind, name, value, given in (
            ("linear", "amplitude", 7.0, dict(gain=2.0)),
            ("linear", "knots", ((1.0, 1.0),), dict(gain=2.0)),
            ("affine_sinusoid", "knots", ((1.0, 1.0),),
             dict(gain=2.0, amplitude=0.1, sector=sector)),
            ("piecewise_linear", "gain", 2.0, dict(knots=[(1.0, 1.5)], sector=sector)),
            ("piecewise_linear", "amplitude", 0.5,
             dict(knots=[(1.0, 1.5)], sector=sector))):
        with pytest.raises(ConfigError, match=f"^/{name}: {kind} coupling reads no {name}, "
                                              "got "):
            CouplingSpec(kind=kind, **given, **{name: value})
        # None is the only absent value: the type's zero is a value given
        with pytest.raises(ConfigError, match=f"^/{name}: {kind} coupling reads no {name}, "
                                              "got "):
            CouplingSpec(kind=kind, **given, **{name: type(value)()})
        assert CouplingSpec(kind=kind, **given) == CouplingSpec(kind=kind, **given,
                                                                **{name: None})


def test_specs_need_the_fields_their_kind_reads():
    # a field left out is None, rejected at its own pointer, not read as zero
    sector = SectorBound(1.0, 2.0)
    for kind, name, given in (("linear", "gain", {}),
                              ("affine_sinusoid", "gain", dict(amplitude=0.1, sector=sector)),
                              ("affine_sinusoid", "amplitude", dict(gain=2.0, sector=sector)),
                              ("piecewise_linear", "knots", dict(sector=sector))):
        with pytest.raises(ConfigError, match=f"^/{name}: {kind} coupling needs {name}$"):
            CouplingSpec(kind=kind, **given)
    for kind in ("gaussian", "constant"):
        with pytest.raises(ConfigError, match=f"^/scale: {kind} disturbance needs scale$"):
            DisturbanceSpec(kind=kind)


def test_prove_sectors_refutes_wrong_declaration():
    spec = CouplingSpec(kind="linear", sector=SectorBound(5.5, 6.0), gain=5.0)
    [passed], [ratio_min], [ratio_max] = prove_sectors((spec,))
    assert not passed
    assert ratio_min == ratio_max == 5.0


def test_prove_sectors_reports_extremes():
    spec = CouplingSpec(kind="affine_sinusoid", gain=5.0, amplitude=0.5,
                        sector=SectorBound(4.5, 5.5))
    [passed], [ratio_min], [ratio_max] = prove_sectors((spec,))
    # ratio is 5 + sin(x)/(2x): supremum 5.5 as x -> 0, minimum at tan x = x
    assert passed
    assert ratio_max == 5.5
    assert ratio_min == pytest.approx(5.0 - 0.5 * 0.21723362821122166, rel=1e-15)
    flipped = CouplingSpec(kind="affine_sinusoid", gain=5.0, amplitude=-0.5,
                           sector=SectorBound(4.5, 5.5))
    polyline = CouplingSpec(
        kind="piecewise_linear", knots=[(1.0, 3.0), (2.0, 4.0), (3.0, 7.5)],
        sector=SectorBound(1.0, 3.5))
    _, ratio_min, ratio_max = prove_sectors((flipped, polyline))
    assert (ratio_min[0], ratio_max[0]) == (4.5, 5.0 - 0.5 * SINC_MIN)
    # first slope 3, knot ratios 3, 2 and 2.5, last slope 3.5 at infinity
    assert (ratio_min[1], ratio_max[1]) == (2.0, 3.5)


def _log_grid_ratios(spec, samples, extra=()):
    """The sampled check the exact range replaced: slope ratios on a log
    grid of magnitudes in [1e-6, 1e6], both signs."""
    mags = np.concatenate((np.logspace(-6.0, 6.0, samples // 2), extra))
    args = np.concatenate((mags, -mags))
    return np.asarray(spec(args)) / args


def test_prove_sectors_rejects_overstatement_the_grid_missed():
    # true infimum 1 + 2 * SINC_MIN = 0.565533; 0.0068 above it slips
    # through the old 512-point grid but not the exact range
    lo = 1.0 + 2.0 * SINC_MIN + 0.0068
    spec = CouplingSpec(kind="affine_sinusoid", gain=1.0, amplitude=2.0,
                        sector=SectorBound(lo, 3.0))
    assert _log_grid_ratios(spec, 512).min() >= lo - 1e-9
    [passed], [ratio_min], _ = prove_sectors((spec,))
    assert not passed
    assert ratio_min == pytest.approx(0.565533, abs=1e-6)


_SAMPLED_SPECS = st.one_of(
    st.builds(CouplingSpec, kind=st.just("linear"), gain=st.floats(0.01, 100.0)),
    st.builds(CouplingSpec, kind=st.just("affine_sinusoid"), gain=st.floats(0.01, 100.0),
              amplitude=st.floats(-50.0, 50.0), sector=st.just(SectorBound(1.0, 1.0))),
    st.builds(lambda steps: CouplingSpec(
                  kind="piecewise_linear",
                  knots=[(x, y) for x, (_, y) in
                         zip(np.cumsum([dx for dx, _ in steps]), steps)],
                  sector=SectorBound(1.0, 1.0)),
              st.lists(st.tuples(st.floats(0.05, 5.0), st.floats(-10.0, 10.0)),
                       min_size=1, max_size=5)),
)


@given(spec=_SAMPLED_SPECS)
def test_prove_sectors_range_contains_sampled_ratios(spec):
    """The sampler survives as a falsifier: no sampled ratio may leave the
    exact range, and with the knots added the sampled extremes reach it."""
    _, [ratio_min], [ratio_max] = prove_sectors((spec,))
    scale = 1.0 + max(abs(ratio_min), abs(ratio_max))
    knots = [x for x, _ in spec.knots or ()]
    ratios = _log_grid_ratios(spec, 4000, knots)
    assert ratios.min() >= ratio_min - 1e-9 * scale
    assert ratios.max() <= ratio_max + 1e-9 * scale
    assert ratios.min() <= ratio_min + 1e-3 * scale
    assert ratios.max() >= ratio_max - 1e-3 * scale


def test_disturbance_held_values():
    assert np.array_equal(DisturbanceSpec().held_values(4), np.zeros(4))
    assert np.array_equal(
        DisturbanceSpec(kind="constant", scale=0.3).held_values(3),
        np.full(3, 0.3))
    gauss = DisturbanceSpec(kind="gaussian", scale=0.5, seed=9)
    assert np.array_equal(gauss.held_values(6), 0.5 * normals(9, 6))


def test_disturbance_validation():
    with pytest.raises(ValueError, match="unknown disturbance kind"):
        DisturbanceSpec(kind="brownian")
    with pytest.raises(ValueError, match="nonnegative"):
        DisturbanceSpec(kind="gaussian", scale=-1.0)
    for kind in ("gaussian", "constant"):
        with pytest.raises(ConfigError, match="^/scale: expected a number, got True$"):
            DisturbanceSpec(kind=kind, scale=True)
    with pytest.raises(ConfigError, match="^/seed: expected an integer, got True$"):
        DisturbanceSpec(kind="gaussian", scale=1.0, seed=True)
    # a scale on zero would hold zeros yet compare unequal to the plain kind
    with pytest.raises(ConfigError, match=r"^/scale: zero disturbance reads no scale, "
                                          r"got 0\.3$"):
        DisturbanceSpec(kind="zero", scale=0.3)


def test_only_gaussian_disturbances_carry_a_seed():
    for kind in ("zero", "constant"):
        # any seed, zero included: only None means none was given
        for seed in (5, 0):
            with pytest.raises(ConfigError, match=f"^/seed: {kind} disturbance reads no "
                                                  f"seed, got {seed}$"):
                DisturbanceSpec(kind=kind, scale=None if kind == "zero" else 0.1, seed=seed)


def test_the_description_fills_zero_disturbances_and_derives_gaussian_seeds():
    # a Gaussian seed of None has no stream until the description holding it
    # derives its edge's seed; another kind's seed is None; pinned seeds stay
    unseeded = DisturbanceSpec(kind="gaussian", scale=0.2, seed=None)
    with pytest.raises(ValueError, match="no stream"):
        unseeded.held_values(4)
    assert DisturbanceSpec(kind="zero", seed=None) == DisturbanceSpec()
    fields = dict(graph=build_graph(3, [(1, 2), (1, 3), (2, 3)]),
                  agents=_agents(1.0, 1.1, 0.9), initial_states=None,
                  couplings=(CouplingSpec(kind="linear", gain=1.0),) * 3, seed=7)
    assert NetworkConfig(disturbances=None, **fields).disturbances == (DisturbanceSpec(),) * 3
    pinned = DisturbanceSpec(kind="gaussian", scale=0.2, seed=5)
    cfg = NetworkConfig(disturbances=(unseeded, pinned, unseeded), **fields)
    derived = edge_seed_sequence(7, 3)
    assert [d.seed for d in cfg.disturbances] == [derived[0], 5, derived[2]]


def test_model_validation():
    g = build_graph(2, [(1, 2)])
    agents = _agents(1.0, 1.1)
    coupling = (CouplingSpec(kind="linear", gain=1.0),)
    dist = (DisturbanceSpec(),)
    x0 = np.zeros((2, 3))
    fields = dict(graph=g, agents=agents, initial_states=x0,
                  couplings=coupling, disturbances=dist)
    cfg = NetworkConfig(**fields)
    assert [a.tolist() for a in sector_arrays(cfg.couplings)] == [[1.0], [1.0]]
    # the fields after the disturbances default to the parser's defaults
    assert (cfg.certification, cfg.dt, cfg.horizon, cfg.stride,
            cfg.seed) == (None, 1e-3, 100.0, 100, 0)
    # initial outputs fill the first state component, and None is all zeros
    outputs = dataclasses.replace(cfg, initial_states=[1, -0.5]).initial_states
    assert outputs.dtype == np.float64
    assert np.array_equal(outputs, [[1.0, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    assert np.array_equal(dataclasses.replace(cfg, initial_states=None).initial_states, x0)
    rejected = [("1 input gains for 2 nodes", "/agents/input_gains",
                 dict(agents=_agents(1.0))),
                ("couplings for", "/couplings", dict(couplings=coupling * 2)),
                ("disturbances for", "/disturbances", dict(disturbances=dist * 2)),
                ("3 initial states for 2 nodes", "/agents/initial_states",
                 dict(initial_states=np.zeros((3, 3)))),
                # a row is one output or a whole state, never two components
                (r"initial states have shape \(2, 2\), expected \(2, 3\)",
                 "/agents/initial_states", dict(initial_states=np.zeros((2, 2)))),
                # a state was checked for its shape only, so a nan reached
                # the certificate
                ("expected a finite number, got nan", "/agents/initial_states/1",
                 dict(initial_states=np.array([[0.0] * 3, [0.0, math.nan, 0.0]]))),
                # n initial outputs stand for states whose other components are 0
                ("3 initial outputs for 2 nodes", "/agents/initial_outputs",
                 dict(initial_states=[1.0, 2.0, 3.0])),
                ("expected a number, got 'x'", "/agents/initial_outputs/0",
                 dict(initial_states=["x", 2.0])),
                ("must be a positive integer", "/simulation/stride", dict(stride=0)),
                ("expected an integer", "/simulation/stride", dict(stride=2.5)),
                ("admissible interval", "/certification/theta3",
                 dict(certification=CertParams(theta=2.0, theta3=50.0))),
                ("admissible interval", "/certification/theta3",
                 dict(certification=CertParams(theta=2.0, theta3=1.0))),
                ("expected an integer", "/seed", dict(seed="x"))]
    for match, pointer, change in rejected:
        # built directly or replaced, the description is checked the same way
        with pytest.raises(ValueError, match=match) as built:
            NetworkConfig(**{**fields, **change})
        with pytest.raises(ValueError, match=match) as replaced:
            dataclasses.replace(cfg, **change)
        assert built.value.pointer == replaced.value.pointer == pointer


def test_every_construction_proves_the_declared_sectors():
    # gain 5, amplitude 2: the slope ratio spans [5 + 2 SINC_MIN, 7], so the
    # point sector [5, 5] is false, and the certificate rests on it
    false = CouplingSpec(kind="affine_sinusoid", gain=5.0, amplitude=2.0,
                         sector=SectorBound(5.0, 5.0))
    cfg = bundled_config()
    p = cfg.graph.edge_count
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    message = (r"^/couplings: declared sector \[5, 5\] is violated: "
               r"slope ratios span \[4\.56553, 7\]$")
    with pytest.raises(ConfigError, match=message):
        NetworkConfig(**{**fields, "couplings": (false,) * p})
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(cfg, couplings=(false,) * p)
    # with distinct couplings the pointer names the first false edge
    true = CouplingSpec(kind="affine_sinusoid", gain=5.0, amplitude=2.0,
                        sector=SectorBound(4.5, 7.0))
    mixed = (*cfg.couplings[:3], true, false, false, *cfg.couplings[6:])
    with pytest.raises(ConfigError, match=r"^/couplings/4: declared sector \[5, 5\]"):
        dataclasses.replace(cfg, couplings=mixed)
    assert dataclasses.replace(cfg, couplings=(true,) * p).couplings == (true,) * p


def test_a_replaced_linear_gain_moves_its_undeclared_sector():
    # the undeclared sector was stored as the point of the gain at
    # construction, so a replaced gain kept it and the description was
    # rejected for a sector that nothing declared
    cfg = parse_config(Path(__file__).parent / "data" / "mixed_couplings_per_edge.json")
    old = cfg.couplings[3]
    assert (old.kind, old.gain, old.sector) == ("linear", 1.75, None)
    new = dataclasses.replace(old, gain=1.0)
    replaced = dataclasses.replace(
        cfg, couplings=(*cfg.couplings[:3], new, *cfg.couplings[4:]))
    assert new.sector is None and prove_sectors((new,))[0].all()
    cert = replaced.certificate()
    assert cert.alpha_lo[3] == cert.alpha_hi[3] == 1.0
    assert np.array_equal(np.delete(cert.alpha_hi, 3), np.delete(cfg.certificate().alpha_hi, 3))


def _per_edge(couplings, x):
    """Reference evaluation: one coupling call per edge."""
    out = np.empty_like(x)
    for k, coupling in enumerate(couplings):
        out[..., k] = coupling(x[..., k])
    return out


_SIN = CouplingSpec(kind="affine_sinusoid", gain=5.0, amplitude=0.3,
                    sector=SectorBound(4.7, 5.31))
_PWL = CouplingSpec(kind="piecewise_linear", knots=[(1.0, 5.0), (2.0, 9.0)],
                    sector=SectorBound(4.0, 5.0))
_LIN = CouplingSpec(kind="linear", gain=4.0)
_COUPLING_LISTS = {
    "all_equal": (_SIN,) * 6,
    "all_distinct": (_SIN, _PWL, _LIN, CouplingSpec(kind="linear", gain=4.5),
                     CouplingSpec(kind="affine_sinusoid", gain=5.0, amplitude=0.2,
                                  sector=SectorBound(4.7, 5.21)),
                     CouplingSpec(kind="piecewise_linear", knots=[(1.0, 4.0)],
                                  sector=SectorBound(4.0, 4.0))),
    "mixed": (_SIN, _PWL, _SIN, _LIN, _PWL, CouplingSpec(kind="linear", gain=4.5)),
    "empty": (),
    # one kernel per kind, however many distinct couplings
    "hundred_distinct": tuple(
        (CouplingSpec(kind="linear", gain=4.0 + k / 100),
         CouplingSpec(kind="affine_sinusoid", gain=5.0 + k / 100, amplitude=0.2,
                      sector=SectorBound(4.0, 6.5)),
         CouplingSpec(kind="piecewise_linear",
                      knots=[(1.0 + j, (4.0 + k / 100) * (1.0 + j))
                             for j in range(1 + k % 4)],
                      sector=SectorBound(4.0, 5.0)))[k % 3]
        for k in range(100)),
}


@pytest.mark.parametrize("case", list(_COUPLING_LISTS))
def test_coupling_groups_match_per_edge_loop(case):
    couplings = _COUPLING_LISTS[case]
    table = group_couplings(couplings)
    assert len(table) == len({c.kind for c in couplings}) <= 3
    edges = np.arange(len(couplings))
    covered = []
    for group in table:
        members = edges[group.edges]
        assert all(couplings[k].kind == group.kind for k in members)
        # contiguous edges are indexed by a slice, which copies nothing
        assert isinstance(group.edges, slice) == bool(np.all(np.diff(members) == 1))
        covered += members.tolist()
    assert sorted(covered) == edges.tolist()
    rng = np.random.default_rng(3)
    for shape in ((len(couplings),), (7, len(couplings))):
        # arguments past the last knot exercise the extrapolated segment
        x = rng.normal(scale=3.0, size=shape)
        assert np.array_equal(evaluate_couplings(table, x),
                              _per_edge(couplings, x))


_ANY_SECTOR = SectorBound(1.0, 2.0)
_FINITE = st.floats(min_value=-10.0, max_value=10.0)
_POSITIVE = st.floats(min_value=0.1, max_value=10.0)


def _polyline(steps):
    x, knots = 0.0, []
    for dx, y in steps:
        x += dx
        knots.append((x, y))
    return CouplingSpec(kind="piecewise_linear", sector=_ANY_SECTOR, knots=tuple(knots))


_KERNEL_SPECS = st.one_of(
    st.builds(lambda g: CouplingSpec(kind="linear", sector=_ANY_SECTOR, gain=g),
              _POSITIVE),
    st.builds(lambda g, a: CouplingSpec(kind="affine_sinusoid", sector=_ANY_SECTOR,
                                        gain=g, amplitude=a), _POSITIVE, _FINITE),
    # knot counts 1 to 5, so one kernel call pads the shorter tables; signed
    # zero ordinates check that a knot maps to its ordinate bit for bit
    st.lists(st.tuples(st.floats(min_value=0.01, max_value=3.0),
                       st.sampled_from([0.0, -0.0]) | _FINITE),
             min_size=1, max_size=5).map(_polyline),
)


@given(specs=st.lists(_KERNEL_SPECS, min_size=1, max_size=8))
@example(specs=list(parse_config(
    Path(__file__).parent / "data" / "mixed_couplings.json").couplings))
@example(specs=[_polyline([(1.0, -0.0), (1.0, 0.0)]), _polyline([(0.5, 0.0)])])
# a column of +0.0 and -0.0 ratios: without AVX512, numpy's min returns +0.0
# over the one-edge table and -0.0 over the whole table
@example(specs=[_polyline([(1.0, 1.0)]),
                _polyline([(1.0, 0.0), (1.0, 0.0), (1.0, -0.0), (1.0, 1.0)])])
@settings(max_examples=150, deadline=None)
def test_table_wide_sector_proof_matches_each_one_edge_proof(specs):
    """One pass over the whole coupling table gives every edge the range and
    verdict of its own one-edge table, bit for bit."""
    passed, ratio_min, ratio_max = prove_sectors(tuple(specs))
    for k, spec in enumerate(specs):
        [one_passed], [one_min], [one_max] = prove_sectors((spec,))
        assert bool(passed[k]) is bool(one_passed)
        assert float(ratio_min[k]).hex() == float(one_min).hex()
        assert float(ratio_max[k]).hex() == float(one_max).hex()


def _interp_reference(spec, x):
    """The scalar formula each kind kernel replaced, ``np.interp`` plus the
    final-slope extension for polylines."""
    if spec.kind == "linear":
        return spec.gain * x
    if spec.kind == "affine_sinusoid":
        return spec.gain * x + spec.amplitude * np.sin(x)
    xs = np.concatenate(([0.0], [k[0] for k in spec.knots]))
    ys = np.concatenate(([0.0], [k[1] for k in spec.knots]))
    last_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    mag = np.abs(x)
    val = np.interp(mag, xs, ys)
    val = np.where(mag > xs[-1], ys[-1] + last_slope * (mag - xs[-1]), val)
    return np.sign(x) * val


def _same_bits(a, b):
    finite = ~np.isnan(a)
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[finite]), np.signbit(b[finite])))


@given(couplings=st.lists(_KERNEL_SPECS, min_size=1, max_size=8),
       extra=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1,
                      max_size=4))
@example(couplings=[_polyline([(1.0, -0.0), (1.0, 0.0)])], extra=[0.5])
@settings(max_examples=150, deadline=None)
def test_kind_kernels_match_per_edge_loop_bit_for_bit(couplings, extra):
    table = group_couplings(couplings)
    pools = []
    for spec in couplings:
        pool = [0.0, -0.0, math.inf, -math.inf, math.nan, *extra]
        for x, _ in spec.knots or ():
            pool += [x, -x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)]
        if spec.knots:
            pool += [spec.knots[-1][0] + 1.5, -spec.knots[-1][0] - 1.5]
        pools.append(pool)
    rows = max(len(pool) for pool in pools)
    x = np.column_stack([np.resize(pool, rows) for pool in pools])
    with np.errstate(all="ignore"):
        reference = _per_edge(couplings, x)
        assert _same_bits(reference, np.column_stack(
            [_interp_reference(c, x[:, k]) for k, c in enumerate(couplings)]))
        assert _same_bits(evaluate_couplings(table, x), reference)
        for row, expected in zip(x, reference):
            assert _same_bits(evaluate_couplings(table, row), expected)


def test_rk4_single_step_accuracy():
    out = rk4_step(lambda t, x: -x, 0.0, np.array([1.0]), 0.1)
    assert out[0] == pytest.approx(math.exp(-0.1), abs=RK4_STEP_ATOL)


def test_rk4_uses_stage_times():
    # x' = cos(t) integrates to sin(t); wrong stage times would show here
    out = rk4_step(lambda t, x: np.cos(t), 0.0, np.array([0.0]), 0.2)
    assert out[0] == pytest.approx(math.sin(0.2), abs=1e-6)


def _paper_pair():
    cfg = bundled_config()
    noiseless = dataclasses.replace(
        cfg, disturbances=(DisturbanceSpec(),) * cfg.graph.edge_count)
    return [noiseless, cfg]


def _mixed_triple():
    cfg = parse_config(Path(__file__).parent / "data" / "mixed_couplings.json")
    # kinds interleave, so the batch gathers each kind by index array
    assert any(not isinstance(group.edges, slice) for group in group_couplings(cfg.couplings))
    return [dataclasses.replace(cfg.with_seed(seed),
                                initial_states=cfg.initial_states + 0.1 * seed)
            for seed in (1, 2, 3)]


def _edgeless():
    return NetworkConfig(
        graph=build_graph(3, []), agents=_agents(0.9, 1.0, 1.1),
        initial_states=np.array([[1.0, 0.0, 0.5], [-0.5, 0.2, 0.0], [0.3, -0.1, 0.4]]),
        couplings=(), disturbances=())


_ORACLE_CASES = {
    "k5-pair": _paper_pair,
    "triangle-hill14": lambda: [_triangle()],
    "triangle-hill2": lambda: [dataclasses.replace(
        _triangle(), agents=_agents(0.9, 1.0, 1.1, hill=2))],
    "mixed-couplings-s3": _mixed_triple,
    "edgeless": lambda: [_edgeless()],
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_run_batch_matches_textbook_rk4_bit_for_bit(case):
    dt, steps = 1e-3, 50
    models = [_grid(m, steps * dt, dt) for m in _ORACLE_CASES[case]()]
    model, n = models[0], models[0].graph.n
    traces = run_batch(models)
    held = np.concatenate([trace.held_disturbance for trace in traces], axis=1)
    # the component-major state of the whole batch, one column per node
    state = np.concatenate([m.initial_states for m in models]).T
    plan = _StepPlan(model, len(models))

    def field(s, w_row):
        # the loop's own right-hand side, bound to a fresh input and output
        stage_input, out = np.empty((4, s.shape[1])), np.empty_like(s)
        stage_input[:3] = s
        plan.stage(stage_input, out)(w_row)
        return out

    expected = [state]
    for m in range(steps):
        state = rk4_step(lambda _t, s: field(s, held[m]), m * dt, state, dt)
        expected.append(state)
    expected = np.array(expected)
    for s, trace in enumerate(traces):
        assert np.array_equal(trace.states,
                              expected[:, :, s * n:(s + 1) * n].transpose(0, 2, 1))


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_trace_rows_hold_what_the_stage_applied(case):
    # every grid row carries the edge arguments, coupling outputs and node
    # inputs that stage 1 of its step applied, so the checks integrate the
    # signals the integrator used
    dt, steps = 1e-3, 50
    models = [_grid(m, steps * dt, dt) for m in _ORACLE_CASES[case]()]
    traces = run_batch(models)
    plan = _StepPlan(models[0], len(models))
    stage_input = np.empty((4, len(models) * models[0].graph.n))
    rhs = plan.stage(stage_input, np.empty_like(stage_input[:3]))
    for m in range(steps + 1):
        stage_input[:3] = np.concatenate([trace.states[m] for trace in traces]).T
        rhs(np.concatenate([trace.held_disturbance[m] for trace in traces]))
        for name, applied in (("coupling_arguments", plan.arg),
                              ("coupling_outputs", plan.v),
                              ("inputs", -stage_input[3])):
            recorded = np.concatenate([getattr(trace, name)[m] for trace in traces])
            assert np.array_equal(recorded, applied), (name, m)


def _fold_states(model):
    """Node-major states at which the first derivative row meets a signed
    zero: ``x1 = +0.0`` and ``x1 = -0.0``, each with ``x3**hill = inf`` (so
    ``r = 1/(x3**hill + 1)`` is +0.0), and ``x1`` with ``a1 x1 == r``."""
    x, a1 = model.initial_states, model.agents.a1
    with np.errstate(over="ignore"):
        r = 1.0 / (x[:, 2] ** model.agents.hill + 1.0)
    # exact for the power-of-two a1 of every oracle case
    cancel = r / a1
    assert np.array_equal(a1 * cancel, r)
    return [np.column_stack([np.full(len(x), zero), x[:, 1], np.full(len(x), 1e200)])
            for zero in (0.0, -0.0)] + [np.column_stack([cancel, x[:, 1:]])]


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_stage_is_the_textbook_goodwin_field_bit_for_bit(case):
    """The stage's two term blocks give the bits of the textbook right-hand
    side at every grid row of a run, with the disturbance that row held,
    and at the signed-zero states of :func:`_fold_states` with zero and
    with held disturbances."""
    dt, steps = 1e-3, 50
    models = [_grid(m, steps * dt, dt) for m in _ORACLE_CASES[case]()]
    traces = run_batch(models)
    p = models[0].graph.edge_count
    plan = _StepPlan(models[0], len(models))
    stage_input = np.empty((4, len(models) * models[0].graph.n))
    out = np.empty_like(stage_input[:3])
    rhs = plan.stage(stage_input, out)
    cases = [([trace.states[m] for trace in traces],
              np.concatenate([trace.held_disturbance[m] for trace in traces]))
             for m in range(steps + 1)]
    folds = zip(*(_fold_states(model) for model in models))
    cases += [(list(states), w) for states in folds
              for w in (np.zeros(len(models) * p), cases[0][1])]
    for states, w_row in cases:
        stage_input[:3] = np.concatenate(states).T
        with np.errstate(over="ignore"):
            rhs(w_row)
            expected = np.concatenate([goodwin_field(model, x, w_row[s * p:(s + 1) * p])
                                       for s, (model, x) in enumerate(zip(models, states))])
        assert expected.T.tobytes() == out.tobytes()


def _wide_mixed():
    """A connected G(50, 100) whose three coupling kinds interleave, with
    Gaussian noise on every edge, over 300 steps."""
    rng = np.random.default_rng(5)
    pairs = [(i, j) for i in range(1, 51) for j in range(i + 1, 51)]
    graph = build_graph(50, [])
    while not graph.is_connected:
        graph = build_graph(50, [pairs[k] for k in rng.choice(len(pairs), 100, replace=False)])
    return NetworkConfig(
        graph=graph, agents=_agents(*rng.uniform(0.9, 1.1, 50)),
        initial_states=rng.uniform(-1.0, 1.0, (50, 3)),
        couplings=tuple((_SIN, _PWL, _LIN)[k] for k in rng.permutation(np.arange(100) % 3)),
        disturbances=tuple(DisturbanceSpec(kind="gaussian", scale=0.2, seed=k)
                           for k in range(100)),
        horizon=0.3)


def test_any_block_of_rows_derives_the_rows_of_the_whole_trace():
    # a streamed consumer evaluates a trace block by block: every derived row
    # must not depend on which rows are evaluated with it, so a block also
    # integrates to the first values of the integrals over all later rows
    full = run(_wide_mixed())
    cfg, p = full.config, full.config.graph.edge_count
    # no bias, whose size would absorb the last bits of the integrals
    cert = NetworkCertificate(graph=cfg.graph, alpha_lo=[4.0] * p, alpha_hi=[6.0] * p,
                              nu=[-0.01] * p, gamma_raw=[-1.0] * p, beta=[0.0] * p)
    bound = GainBound(gain=2.0, offset=1.0, n_min=1.0, m_max=1.0, estimate="exact")
    for size in (1, 7, 10, 97):
        for a in range(0, full.steps + 1, size):
            block, rest = (SimulationTrace(cfg, full.states[a:b], full.held_disturbance[a:b])
                           for b in (a + size, None))
            for name in ("relative_outputs", "coupling_arguments", "coupling_outputs",
                         "inputs"):
                assert np.array_equal(getattr(block, name),
                                      getattr(full, name)[a:a + size]), (name, size, a)
            for short, long in zip((*block.dissipation_curves(cert), block.margin_curve(bound)),
                                   (*rest.dissipation_curves(cert), rest.margin_curve(bound))):
                assert np.array_equal(short, long[:size]), (size, a)


def test_run_validation():
    cfg = _triangle()
    with pytest.raises(ValueError, match="integer multiple"):
        _grid(cfg, 0.25, 0.1)
    with pytest.raises(ValueError, match="integer multiple"):
        _grid(cfg, -1.0, 0.1)
    with pytest.raises(ValueError, match="dt must be positive"):
        _grid(cfg, 1.0, 0.0)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="integer multiple"):
            _grid(cfg, horizon)
    # replacing the horizon alone is checked against the grid, too
    with pytest.raises(ValueError, match="integer multiple") as err:
        dataclasses.replace(cfg, horizon=0.0105)
    assert err.value.pointer == "/simulation/horizon"


def _diverging():
    g = build_graph(2, [(1, 2)])
    return NetworkConfig(
        graph=g,
        agents=_agents(1.0, 1.2),
        couplings=(CouplingSpec(kind="linear", gain=50.0),),
        disturbances=(DisturbanceSpec(),),
        initial_states=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    )


def test_unstable_step_size_reports_divergence_time():
    model = _grid(_diverging(), 100.0, 1.0)
    with pytest.raises(SimulationDiverged, match="non-finite state at t ="):
        run(model)
    try:
        run(model)
    except SimulationDiverged as exc:
        assert 0.0 < exc.time <= 100.0
        assert exc.time == pytest.approx(round(exc.time))


def test_divergence_time_is_the_end_of_the_first_non_finite_step():
    diverging = _diverging()
    calm = dataclasses.replace(diverging, initial_states=np.zeros((2, 3)))
    for models in ((diverging,), (calm, diverging)):
        with pytest.raises(SimulationDiverged) as exc:
            run_batch([_grid(m, 100.0, 0.1) for m in models])
        # m*dt + dt at m = 115; (m + 1)*dt would read 11.600000000000001
        assert exc.value.time == 11.6


def test_block_checks_report_the_first_non_finite_step():
    diverging = _diverging()
    calm = dataclasses.replace(diverging, initial_states=np.zeros((2, 3)))
    # overflows within step 1
    blown = dataclasses.replace(
        diverging, initial_states=np.array([[1e307, 0.0, 0.0], [-1e307, 0.0, 0.0]]))
    # at dt = 0.04 the difference mode grows slowly: states[341] is the
    # last finite one, and step m = 341 lies in the last, partial block of
    # a 350-step run
    assert np.isfinite(run(_grid(diverging, 13.64, 0.04)).states).all()
    steps, m = 350, 341
    assert steps % _CHECK_BLOCK and steps - steps % _CHECK_BLOCK <= m
    cases = [((blown,), 0.5, 0.1, 0.1), ((calm, blown), 0.5, 0.1, 0.1),
             ((diverging,), steps * 0.04, 0.04, 13.68),
             ((diverging, calm), steps * 0.04, 0.04, 13.68),
             ((calm, diverging), steps * 0.04, 0.04, 13.68)]
    for models, horizon, dt, time in cases:
        with pytest.raises(SimulationDiverged) as exc:
            run_batch([_grid(m, horizon, dt) for m in models])
        assert exc.value.time == time


def test_run_batch_carries_no_state_between_calls(paper_config):
    cfg = paper_config
    models = [_grid(cfg.with_seed(1), 0.2), _grid(cfg.with_seed(2), 0.2)]
    first = run_batch(models)
    saved = [trace.states.copy() for trace in first]
    # writes into returned traces and a call at another S reach no later call
    for trace in first:
        trace.states[:] = np.nan
    run_batch([_grid(m, 0.1) for m in models + models[:1]])
    again = run_batch(models)
    for model, expected, trace in zip(models, saved, again):
        assert np.array_equal(trace.states, expected)
        assert np.array_equal(run(model).states, expected)


def _assert_batch_matches_solo(models):
    batch = run_batch(models)
    assert len(batch) == len(models)
    for model, member in zip(models, batch):
        solo = run(model)
        assert member.config is model
        assert np.array_equal(member.states, solo.states)
        assert np.array_equal(member.held_disturbance, solo.held_disturbance)
        assert member.states.flags.c_contiguous
        assert member.held_disturbance.flags.c_contiguous
        # einsum's sum order follows the layout: every derived (T, .) array
        # an einsum reads must be C-contiguous, in a member as in a solo run
        for trace in (member, solo):
            for name in ("relative_outputs", "coupling_arguments", "coupling_outputs",
                         "inputs", "input_energies"):
                assert getattr(trace, name).flags.c_contiguous, name


def test_run_batch_members_equal_solo_runs_on_the_paper_network(paper_config):
    cfg = paper_config
    noiseless = dataclasses.replace(
        cfg, disturbances=(DisturbanceSpec(),) * cfg.graph.edge_count)
    models = [noiseless, cfg.with_seed(1), cfg.with_seed(2)]
    _assert_batch_matches_solo([_grid(m, 1.0, cfg.dt) for m in models])


def test_run_batch_members_equal_solo_runs_on_mixed_couplings():
    # the members carry the file's horizon and step
    _assert_batch_matches_solo(_mixed_triple())


def test_run_batch_validation():
    model = _grid(_triangle(), 0.01)
    path = build_graph(3, [(1, 2), (2, 3)])
    mismatched = {
        "graph": dataclasses.replace(
            model, graph=path, couplings=(CouplingSpec(kind="linear", gain=2.0),) * 2,
            disturbances=(DisturbanceSpec(),) * 2),
        # a different GoodwinParams object, even with equal values
        "agents": dataclasses.replace(model, agents=_agents(0.9, 1.0, 1.1)),
        "couplings": dataclasses.replace(
            model, couplings=(CouplingSpec(kind="linear", gain=3.0),) * 3),
        "dt": _grid(model, 0.01, 2e-3),
        "horizon": _grid(model, 0.02),
    }
    for name, other in mismatched.items():
        with pytest.raises(ValueError, match=f"model 1 has a different {name}"):
            run_batch((model, other))
    with pytest.raises(ValueError, match="at least one model"):
        run_batch(())


def test_run_batch_reports_a_diverging_member_at_its_solo_time():
    diverging = _grid(_diverging(), 100.0, 1.0)
    # equal outputs keep the coupling silent, so this member stays finite
    calm = dataclasses.replace(diverging, initial_states=np.zeros((2, 3)))
    assert np.isfinite(run(calm).states).all()
    with pytest.raises(SimulationDiverged) as solo:
        run(diverging)
    with pytest.raises(SimulationDiverged) as batched:
        run_batch((calm, diverging))
    assert batched.value.time == solo.value.time


def test_trace_signal_identities():
    model = _triangle()
    trace = run(_grid(model, 2.0))
    assert trace.steps == 2000
    assert trace.held_disturbance.shape == (2001, 3)
    d = incidence(model.graph)
    assert np.array_equal(trace.outputs, trace.states[:, :, 0])
    assert np.array_equal(trace.relative_outputs, trace.outputs @ d)
    assert np.array_equal(trace.coupling_arguments,
                          trace.relative_outputs + trace.held_disturbance)
    assert np.allclose(trace.coupling_outputs, 2.0 * trace.coupling_arguments,
                       rtol=1e-15)
    # -D v summed per node in edge order, as the integrator's stage sums it,
    # here and on all three coupling kinds, whatever BLAS kernel the CPU selects
    assert np.array_equal(trace.inputs,
                          -edge_order_sums(model.graph, trace.coupling_outputs, signed=True))
    mixed = run(parse_config(Path(__file__).parent / "data" / "mixed_couplings.json"))
    assert np.array_equal(mixed.inputs, -edge_order_sums(mixed.config.graph,
                                                         mixed.coupling_outputs, signed=True))
    # diffusive inputs redistribute, never inject: they sum to zero
    assert np.max(np.abs(trace.inputs.sum(axis=1))) < ZERO_SUM_ATOL
    # held rows replay the per-edge streams
    assert np.array_equal(trace.held_disturbance[:, 1],
                          0.2 * normals(12, 2001))


def test_running_norms_match_library_quadrature():
    model = _triangle()
    trace = run(_grid(model, 1.0))
    rel_sq = np.sum(trace.relative_outputs**2, axis=1)
    dist_sq = np.sum(trace.held_disturbance**2, axis=1)
    assert trace.norm_rel_sq[-1] == pytest.approx(
        np.trapezoid(rel_sq, dx=1e-3), rel=1e-12)
    assert trace.norm_dist_sq[-1] == pytest.approx(
        np.trapezoid(dist_sq, dx=1e-3), rel=1e-12)
    assert trace.norm_rel_sq[0] == 0.0
    mid = 500  # t = 0.5
    assert trace.norm_rel_sq[mid] == pytest.approx(
        np.trapezoid(rel_sq[:mid + 1], dx=1e-3), rel=1e-12)


def test_disagreement_is_output_spread():
    trace = run(_grid(_triangle(), 0.01))
    row = trace.outputs[-1]
    assert trace.disagreement() == pytest.approx(row.max() - row.min(),
                                                 rel=1e-15)
    first = trace.outputs[0]
    assert trace.disagreement(0) == pytest.approx(first.max() - first.min(),
                                                  rel=1e-15)


def test_pair_residual_starts_at_minus_bias():
    model = _triangle()
    lo, hi = sector_arrays(model.couplings)
    cert = NetworkCertificate(graph=model.graph, alpha_lo=lo, alpha_hi=hi,
                              nu=[-0.01] * 3, gamma_raw=[-16.0] * 3,
                              beta=[-2.5, -0.5, -0.25])
    trace = run(_grid(model, 0.01))
    for k in range(3):
        residual, rhs = trace.pair_residual_curves(cert, k)
        assert residual.shape == rhs.shape == (trace.steps + 1,)
        assert rhs[0] == cert.beta[k]
        assert residual[0] == -cert.beta[k]


def test_node_input_energies_equal_per_node_integrals(noisy_traces):
    # the pair checks sum two of these columns; each must equal its node's
    # integral taken alone, bit for bit
    for trace in noisy_traces.values():
        dt = trace.config.dt
        assert trace.input_energies.shape == trace.inputs.shape
        for i in range(trace.config.graph.n):
            squared = trace.inputs[:, i] ** 2
            alone = dt * (np.cumsum(squared) - 0.5 * (squared[0] + squared))
            assert np.array_equal(trace.input_energies[:, i], alone)


def test_pair_residual_rejects_certificate_of_other_graph():
    trace = run(_grid(_triangle(), 0.01))
    path = build_graph(3, [(1, 2), (2, 3)])
    other = NetworkCertificate(graph=path, alpha_lo=[2.0] * 2, alpha_hi=[2.0] * 2,
                               nu=[-0.01] * 2, gamma_raw=[-16.0] * 2,
                               beta=[-2.5, -0.5])
    with pytest.raises(ValueError, match="different graph"):
        trace.pair_residual_curves(other, 0)


def test_dissipation_residual_starts_at_minus_total_bias():
    model = _triangle()
    lo, hi = sector_arrays(model.couplings)
    network_cert = NetworkCertificate(graph=model.graph, alpha_lo=lo, alpha_hi=hi,
                                      nu=[-0.01] * 3, gamma_raw=[-1.0] * 3,
                                      beta=[-0.5, -0.25, -0.25])
    trace = run(_grid(model, 0.01))
    residual, rhs = trace.dissipation_curves(network_cert)
    assert rhs[0] == network_cert.bias_total == -1.0
    assert residual[0] == 1.0
    path = build_graph(3, [(1, 2), (2, 3)])
    other = NetworkCertificate(graph=path, alpha_lo=lo[:2], alpha_hi=hi[:2],
                               nu=[-0.01] * 2, gamma_raw=[-1.0] * 2,
                               beta=[-0.5, -0.25])
    with pytest.raises(ValueError, match="different graph"):
        trace.dissipation_curves(other)


def test_dissipation_curves_match_dense_forms():
    # a triangle with a pendant edge: nonzero common and exclusive counts
    g = build_graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    model = NetworkConfig(
        graph=g,
        agents=_agents(0.9, 1.0, 1.1, 0.95),
        couplings=(_SIN, _LIN, _SIN, _PWL),
        disturbances=tuple(DisturbanceSpec(kind="gaussian", scale=0.3, seed=s)
                           for s in (1, 2, 3, 4)),
        initial_states=np.array([[1.0, 0.0, 0.5], [-0.5, 0.2, 0.0],
                                 [0.3, -0.1, 0.4], [0.8, 0.1, 0.2]]),
    )
    lo, hi = sector_arrays(model.couplings)
    cert = NetworkCertificate(graph=g, alpha_lo=lo, alpha_hi=hi,
                              nu=[-0.01, -0.02, -0.03, -0.04],
                              gamma_raw=[-2.0, 1.0, -1.5, -0.5], beta=[-0.25] * 4)
    trace = run(_grid(model, 0.5))

    d = incidence(g)
    exclusive_half = 0.5 * np.diag(np.array(g.exclusive, dtype=float))
    pair = 2.0 * np.eye(4) + np.diag(np.array(g.common, dtype=float))
    output_form = np.diag(cert.gamma) - exclusive_half
    coupling_form = d.T @ np.diag(cert.nu_node) @ d - exclusive_half
    v, rel = trace.coupling_outputs, trace.relative_outputs

    def integral(values):
        return 1e-3 * (np.cumsum(values) - 0.5 * (values[0] + values))

    rhs_ref = (integral(np.einsum("ti,ij,tj->t", rel, output_form, rel))
               + integral(np.einsum("ti,ij,tj->t", v, coupling_form, v))
               + cert.bias_total)
    residual_ref = -integral(np.einsum("ti,ij,tj->t", v, pair, rel)) - rhs_ref
    residual, rhs = trace.dissipation_curves(cert)
    scale = DISSIPATION_RTOL * (1.0 + np.abs(rhs_ref))
    assert np.all(np.abs(rhs - rhs_ref) <= scale)
    assert np.all(np.abs(residual - residual_ref) <= scale)
    assert np.ptp(rhs) > 0.1  # the curves are not trivially constant


def test_uncertified_bound_is_rejected():
    trace = run(_grid(_triangle(), 0.01))
    bad = GainBound(gain=math.nan, offset=math.nan, n_min=-1.0, m_max=2.0, estimate="exact")
    assert not bad.certified
    with pytest.raises(UncertifiedBoundError) as err:
        trace.margin_curve(bad)
    assert str(err.value) == ("gain bound is not certified (n_min = -1 <= 0); "
                              "no margin to evaluate")
    # a certified bound has no reason and raises nothing
    # certified is n_min > 0 itself, so no bound contradicts its own n_min
    good = dataclasses.replace(bad, gain=2.0, offset=1.0, n_min=1.0)
    assert good.certified and good.why_uncertified is None
    good.require_certified("unreachable")


def test_margin_curve_on_quiet_network(noiseless_trace, paper_certification):
    bound = paper_certification.bound
    margins = noiseless_trace.margin_curve(bound)
    assert margins.shape == noiseless_trace.times.shape
    assert np.min(margins) > 0.0
    # no disturbance: the margin is offset minus the growing output norm
    assert np.allclose(margins, bound.offset - np.sqrt(noiseless_trace.norm_rel_sq),
                       rtol=1e-12)


def test_permuting_nodes_permutes_trajectories():
    g = complete_graph(5)
    rng = np.random.default_rng(17)
    x0 = rng.normal(size=(5, 3))
    perm = np.array([4, 2, 0, 3, 1])
    couplings = (CouplingSpec(kind="linear", gain=5.0),) * g.edge_count
    dists = (DisturbanceSpec(),) * g.edge_count
    agents = _agents(*[1.0] * 5)
    base = run(NetworkConfig(graph=g, agents=agents, initial_states=x0,
                             couplings=couplings, disturbances=dists, horizon=1.0))
    shuffled = run(NetworkConfig(graph=g, agents=agents, initial_states=x0[perm],
                                 couplings=couplings, disturbances=dists, horizon=1.0))
    assert np.allclose(shuffled.states, base.states[:, perm, :],
                       atol=SYMMETRY_ATOL, rtol=0.0)
