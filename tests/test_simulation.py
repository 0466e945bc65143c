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

from oracles import complete_graph
from syncert.certificates import (
    EdgeCertificate,
    GainBound,
    NetworkCertificate,
    SectorBound,
    UncertifiedBoundError,
    sector_arrays,
)
from syncert.config import parse_config
from syncert.goodwin import GoodwinParams
from syncert.graphs import build_graph, incidence
from syncert.noise import normals
from syncert.simulation import (
    SINC_MIN,
    CouplingSpec,
    DisturbanceSpec,
    NetworkModel,
    SimulationDiverged,
    affine_sinusoid_coupling,
    bound_check,
    linear_coupling,
    piecewise_linear_coupling,
    rk4_step,
    run,
    run_batch,
    step,
    verify_sector,
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


def _triangle_model(scale=0.2, gain=2.0):
    g = build_graph(3, [(1, 2), (1, 3), (2, 3)])
    return NetworkModel(
        graph=g,
        agents=_agents(0.9, 1.0, 1.1),
        couplings=(linear_coupling(gain),) * 3,
        disturbances=tuple(DisturbanceSpec(kind="gaussian", scale=scale, seed=s)
                           for s in (11, 12, 13)),
        initial_states=np.array([[1.0, 0.0, 0.5],
                                 [-0.5, 0.2, 0.0],
                                 [0.3, -0.1, 0.4]]),
    )


def test_linear_coupling_is_pure_gain():
    spec = linear_coupling(5.0)
    assert spec(2.0) == 10.0
    assert np.array_equal(spec(np.array([-1.0, 0.0, 3.0])),
                          np.array([-5.0, 0.0, 15.0]))
    assert spec.sector == SectorBound(5.0, 5.0)
    assert spec.sector.is_point


def test_affine_sinusoid_values():
    spec = affine_sinusoid_coupling(5.0, 0.5, SectorBound(4.5, 5.5))
    xs = np.array([-2.0, 0.3, 10.0])
    assert np.allclose(spec(xs), 5.0 * xs + 0.5 * np.sin(xs), rtol=1e-15)
    assert verify_sector(spec).passed


def test_piecewise_linear_interpolation_and_extrapolation():
    spec = piecewise_linear_coupling([(1.0, 2.0), (2.0, 3.0)],
                                     SectorBound(1.0, 2.0))
    assert spec(0.5) == pytest.approx(1.0)
    assert spec(1.0) == pytest.approx(2.0)
    assert spec(1.5) == pytest.approx(2.5)
    # beyond the last knot the final slope continues instead of clamping
    assert spec(4.0) == pytest.approx(5.0)
    assert spec(-4.0) == pytest.approx(-5.0)
    assert verify_sector(spec).passed


@given(x=st.floats(min_value=1e-9, max_value=1e6))
def test_couplings_are_odd(x):
    for spec in (
        linear_coupling(3.0),
        affine_sinusoid_coupling(2.0, 0.7, SectorBound(1.3, 2.7)),
        piecewise_linear_coupling([(1.0, 1.5), (3.0, 4.0)], SectorBound(0.5, 2.0)),
    ):
        assert np.isclose(spec(-x), -spec(x), rtol=1e-12, atol=0.0)


def test_coupling_validation():
    with pytest.raises(ValueError, match="unknown coupling kind"):
        CouplingSpec(kind="cubic", sector=SectorBound(1.0, 1.0))
    with pytest.raises(ValueError, match="gain must be positive"):
        CouplingSpec(kind="linear", sector=SectorBound(1.0, 1.0), gain=0.0)
    with pytest.raises(ValueError, match="sector must satisfy"):
        linear_coupling(0.0)
    with pytest.raises(ValueError, match="amplitude must be finite"):
        affine_sinusoid_coupling(1.0, math.inf, SectorBound(0.5, 1.5))
    with pytest.raises(ValueError, match="at least one knot"):
        piecewise_linear_coupling([], SectorBound(1.0, 1.0))
    with pytest.raises(ValueError, match="strictly"):
        piecewise_linear_coupling([(2.0, 1.0), (1.0, 2.0)], SectorBound(1.0, 1.0))


def test_verify_sector_refutes_wrong_declaration():
    spec = CouplingSpec(kind="linear", sector=SectorBound(5.5, 6.0), gain=5.0)
    check = verify_sector(spec)
    assert not check.passed
    assert check.ratio_min == check.ratio_max == 5.0


def test_verify_sector_reports_extremes():
    spec = affine_sinusoid_coupling(5.0, 0.5, SectorBound(4.5, 5.5))
    check = verify_sector(spec)
    # ratio is 5 + sin(x)/(2x): supremum 5.5 as x -> 0, minimum at tan x = x
    assert check.passed
    assert check.ratio_max == 5.5
    assert check.ratio_min == pytest.approx(5.0 - 0.5 * 0.21723362821122166,
                                            rel=1e-15)
    flipped = verify_sector(affine_sinusoid_coupling(5.0, -0.5, SectorBound(4.5, 5.5)))
    assert (flipped.ratio_min, flipped.ratio_max) == (4.5, 5.0 - 0.5 * SINC_MIN)
    polyline = verify_sector(piecewise_linear_coupling(
        [(1.0, 3.0), (2.0, 4.0), (3.0, 7.5)], SectorBound(1.0, 3.5)))
    # first slope 3, knot ratios 3, 2 and 2.5, last slope 3.5 at infinity
    assert (polyline.ratio_min, polyline.ratio_max) == (2.0, 3.5)


def _log_grid_ratios(spec, samples, extra=()):
    """The sampled check the exact range replaced: slope ratios on a log
    grid of magnitudes in [1e-6, 1e6], both signs."""
    mags = np.concatenate((np.logspace(-6.0, 6.0, samples // 2), extra))
    args = np.concatenate((mags, -mags))
    return np.asarray(spec(args)) / args


def test_verify_sector_rejects_overstatement_the_grid_missed():
    # true infimum 1 + 2 * SINC_MIN = 0.565533; 0.0068 above it slips
    # through the old 512-point grid but not the exact range
    lo = 1.0 + 2.0 * SINC_MIN + 0.0068
    spec = affine_sinusoid_coupling(1.0, 2.0, SectorBound(lo, 3.0))
    assert _log_grid_ratios(spec, 512).min() >= lo - 1e-9
    check = verify_sector(spec)
    assert not check.passed
    assert check.ratio_min == pytest.approx(0.565533, abs=1e-6)


_SPECS = st.one_of(
    st.builds(linear_coupling, st.floats(0.01, 100.0)),
    st.builds(lambda g, a: affine_sinusoid_coupling(g, a, SectorBound(1.0, 1.0)),
              st.floats(0.01, 100.0), st.floats(-50.0, 50.0)),
    st.builds(lambda steps: piecewise_linear_coupling(
                  [(float(x), y) for x, (_, y) in
                   zip(np.cumsum([dx for dx, _ in steps]), steps)],
                  SectorBound(1.0, 1.0)),
              st.lists(st.tuples(st.floats(0.05, 5.0), st.floats(-10.0, 10.0)),
                       min_size=1, max_size=5)),
)


@given(spec=_SPECS)
def test_verify_sector_range_contains_sampled_ratios(spec):
    """The sampler survives as a falsifier: no sampled ratio may leave the
    exact range, and with the knots added the sampled extremes reach it."""
    check = verify_sector(spec)
    scale = 1.0 + max(abs(check.ratio_min), abs(check.ratio_max))
    knots = [x for x, _ in spec.knots]
    ratios = _log_grid_ratios(spec, 4000, knots)
    assert ratios.min() >= check.ratio_min - 1e-9 * scale
    assert ratios.max() <= check.ratio_max + 1e-9 * scale
    assert ratios.min() <= check.ratio_min + 1e-3 * scale
    assert ratios.max() >= check.ratio_max - 1e-3 * scale


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
    with pytest.raises(ValueError, match="seed must be an integer"):
        DisturbanceSpec(kind="gaussian", scale=1.0, seed=True)


def test_model_validation():
    g = build_graph(2, [(1, 2)])
    agents = _agents(1.0, 1.1)
    coupling = (linear_coupling(1.0),)
    dist = (DisturbanceSpec(),)
    x0 = np.zeros((2, 3))
    with pytest.raises(ValueError, match="agents for"):
        NetworkModel(g, _agents(1.0), coupling, dist, x0)
    with pytest.raises(ValueError, match="couplings for"):
        NetworkModel(g, agents, coupling * 2, dist, x0)
    with pytest.raises(ValueError, match="disturbances for"):
        NetworkModel(g, agents, coupling, dist * 2, x0)
    with pytest.raises(ValueError, match="initial states"):
        NetworkModel(g, agents, coupling, dist, np.zeros((3, 3)))
    model = NetworkModel(g, agents, coupling, dist, x0)
    assert model.sectors == (SectorBound(1.0, 1.0),)


def _per_edge(couplings, x):
    """Reference evaluation: one coupling call per edge."""
    out = np.empty_like(x)
    for k, coupling in enumerate(couplings):
        out[..., k] = coupling(x[..., k])
    return out


_SIN = affine_sinusoid_coupling(5.0, 0.3, SectorBound(4.7, 5.31))
_PWL = piecewise_linear_coupling([(1.0, 5.0), (2.0, 9.0)], SectorBound(4.5, 5.0))
_LIN = linear_coupling(4.0)
_COUPLING_LISTS = {
    "all_equal": (_SIN,) * 6,
    "all_distinct": (_SIN, _PWL, _LIN, linear_coupling(4.5),
                     affine_sinusoid_coupling(5.0, 0.2, SectorBound(4.7, 5.21)),
                     piecewise_linear_coupling([(1.0, 4.0)], SectorBound(4.0, 4.0))),
    "mixed": (_SIN, _PWL, _SIN, _LIN, _PWL, linear_coupling(4.5)),
    "empty": (),
    # one kernel per kind, however many distinct couplings
    "hundred_distinct": tuple(
        (linear_coupling(4.0 + k / 100),
         affine_sinusoid_coupling(5.0 + k / 100, 0.2, SectorBound(4.0, 6.5)),
         piecewise_linear_coupling([(1.0 + j, (4.0 + k / 100) * (1.0 + j))
                                    for j in range(1 + k % 4)],
                                   SectorBound(4.0, 5.0)))[k % 3]
        for k in range(100)),
}


def _network(couplings):
    """A connected network with one edge per coupling: the first ``p``
    lexicographic pairs of the smallest complete graph that has ``p``."""
    p = len(couplings)
    if not p:
        g = build_graph(1, [])
    else:
        n = next(n for n in range(2, p + 3) if n * (n - 1) // 2 >= p)
        g = build_graph(n, list(complete_graph(n).edges)[:p])
    return NetworkModel(g, _agents(*[1.0] * g.n), tuple(couplings),
                        (DisturbanceSpec(),) * p, np.zeros((g.n, 3)))


@pytest.mark.parametrize("case", list(_COUPLING_LISTS))
def test_coupling_groups_match_per_edge_loop(case):
    couplings = _COUPLING_LISTS[case]
    model = _network(couplings)
    table = model.coupling_table
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
        assert np.array_equal(model.evaluate_couplings(x), _per_edge(couplings, x))


_ANY_SECTOR = SectorBound(1.0, 2.0)
_FINITE = st.floats(min_value=-10.0, max_value=10.0)
_POSITIVE = st.floats(min_value=0.1, max_value=10.0)


def _polyline(steps):
    x, knots = 0.0, []
    for dx, y in steps:
        x += dx
        knots.append((x, y))
    return CouplingSpec(kind="piecewise_linear", sector=_ANY_SECTOR, knots=tuple(knots))


_SPECS = st.one_of(
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


@given(couplings=st.lists(_SPECS, min_size=1, max_size=8),
       extra=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1,
                      max_size=4))
@example(couplings=[_polyline([(1.0, -0.0), (1.0, 0.0)])], extra=[0.5])
@settings(max_examples=150, deadline=None)
def test_kind_kernels_match_per_edge_loop_bit_for_bit(couplings, extra):
    model = _network(couplings)
    pools = []
    for spec in couplings:
        pool = [0.0, -0.0, math.inf, -math.inf, math.nan, *extra]
        for x, _ in spec.knots:
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
        assert _same_bits(model.evaluate_couplings(x), reference)
        for row, expected in zip(x, reference):
            assert _same_bits(model.evaluate_couplings(row), expected)


def test_rk4_single_step_accuracy():
    out = rk4_step(lambda t, x: -x, 0.0, np.array([1.0]), 0.1)
    assert out[0] == pytest.approx(math.exp(-0.1), abs=RK4_STEP_ATOL)


def test_rk4_uses_stage_times():
    # x' = cos(t) integrates to sin(t); wrong stage times would show here
    out = rk4_step(lambda t, x: np.cos(t), 0.0, np.array([0.0]), 0.2)
    assert out[0] == pytest.approx(math.sin(0.2), abs=1e-6)


def test_step_matches_run_first_step():
    model = _triangle_model()
    trace = run(model, horizon=0.002, dt=1e-3, stride=1)
    manual = step(model, model.initial_states, 0.0, 1e-3,
                  trace.held_disturbance[0])
    assert np.array_equal(trace.states[1], manual)


def test_run_validation():
    model = _triangle_model()
    with pytest.raises(ValueError, match="integer multiple"):
        run(model, horizon=0.25, dt=0.1)
    with pytest.raises(ValueError, match="integer multiple"):
        run(model, horizon=-1.0, dt=0.1)
    with pytest.raises(ValueError, match="dt must be positive"):
        run(model, horizon=1.0, dt=0.0)
    with pytest.raises(ValueError, match="stride"):
        run(model, horizon=1.0, dt=0.1, stride=0)
    with pytest.raises(ValueError, match="stride"):
        run(model, horizon=1.0, dt=0.1, stride=True)


def test_unstable_step_size_reports_divergence_time():
    g = build_graph(2, [(1, 2)])
    model = NetworkModel(
        graph=g,
        agents=_agents(1.0, 1.2),
        couplings=(linear_coupling(50.0),),
        disturbances=(DisturbanceSpec(),),
        initial_states=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    )
    with pytest.raises(SimulationDiverged, match="non-finite state at t ="):
        run(model, horizon=100.0, dt=1.0)
    try:
        run(model, horizon=100.0, dt=1.0)
    except SimulationDiverged as exc:
        assert 0.0 < exc.time <= 100.0
        assert exc.time == pytest.approx(round(exc.time))


def _assert_batch_matches_solo(models, horizon, dt, stride):
    batch = run_batch(models, horizon, dt=dt, stride=stride)
    assert len(batch) == len(models)
    for model, member in zip(models, batch):
        solo = run(model, horizon, dt=dt, stride=stride)
        assert member.model is model
        assert np.array_equal(member.states, solo.states)
        assert np.array_equal(member.held_disturbance, solo.held_disturbance)
        assert member.states.flags.c_contiguous
        assert member.held_disturbance.flags.c_contiguous


def test_run_batch_members_equal_solo_runs_on_the_paper_network(paper_config):
    cfg = paper_config
    noiseless = dataclasses.replace(
        cfg.model(), disturbances=(DisturbanceSpec(),) * cfg.graph.edge_count)
    models = [noiseless, cfg.with_seed(1).model(), cfg.with_seed(2).model()]
    _assert_batch_matches_solo(models, 1.0, cfg.dt, cfg.stride)


def test_run_batch_members_equal_solo_runs_on_mixed_couplings():
    cfg = parse_config(Path(__file__).parent / "data" / "mixed_couplings.json")
    base = cfg.model()
    # kinds interleave, so the batch gathers each kind by index array
    assert any(not isinstance(group.edges, slice) for group in base.coupling_table)
    models = [dataclasses.replace(cfg.with_seed(seed).model(),
                                  initial_states=base.initial_states + 0.1 * seed)
              for seed in (1, 2, 3)]
    _assert_batch_matches_solo(models, cfg.horizon, cfg.dt, cfg.stride)


def test_run_batch_validation():
    model = _triangle_model()
    path = build_graph(3, [(1, 2), (2, 3)])
    mismatched = {
        "graph": NetworkModel(path, model.agents, (linear_coupling(2.0),) * 2,
                              (DisturbanceSpec(),) * 2, model.initial_states),
        # a different GoodwinParams object, even with equal values
        "agents": dataclasses.replace(model, agents=_agents(0.9, 1.0, 1.1)),
        "couplings": dataclasses.replace(model, couplings=(linear_coupling(3.0),) * 3),
    }
    for name, other in mismatched.items():
        with pytest.raises(ValueError, match=f"model 1 has a different {name}"):
            run_batch((model, other), horizon=0.01, dt=1e-3)
    with pytest.raises(ValueError, match="at least one model"):
        run_batch((), horizon=0.01, dt=1e-3)


def test_run_batch_reports_a_diverging_member_at_its_solo_time():
    g = build_graph(2, [(1, 2)])
    diverging = NetworkModel(
        graph=g,
        agents=_agents(1.0, 1.2),
        couplings=(linear_coupling(50.0),),
        disturbances=(DisturbanceSpec(),),
        initial_states=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    )
    # equal outputs keep the coupling silent, so this member stays finite
    calm = dataclasses.replace(diverging, initial_states=np.zeros((2, 3)))
    assert np.isfinite(run(calm, horizon=100.0, dt=1.0).states).all()
    with pytest.raises(SimulationDiverged) as solo:
        run(diverging, horizon=100.0, dt=1.0)
    with pytest.raises(SimulationDiverged) as batched:
        run_batch((calm, diverging), horizon=100.0, dt=1.0)
    assert batched.value.time == solo.value.time


def test_trace_signal_identities():
    model = _triangle_model()
    trace = run(model, horizon=2.0, dt=1e-3, stride=50)
    assert trace.steps == 2000
    assert trace.held_disturbance.shape == (2001, 3)
    d = incidence(model.graph).astype(float)
    assert np.array_equal(trace.outputs, trace.states[:, :, 0])
    assert np.array_equal(trace.relative_outputs, trace.outputs @ d)
    assert np.array_equal(trace.coupling_arguments,
                          trace.relative_outputs + trace.held_disturbance)
    assert np.allclose(trace.coupling_outputs, 2.0 * trace.coupling_arguments,
                       rtol=1e-15)
    assert np.allclose(trace.inputs, -(trace.coupling_outputs @ d.T),
                       rtol=1e-15)
    # diffusive inputs redistribute, never inject: they sum to zero
    assert np.max(np.abs(trace.inputs.sum(axis=1))) < ZERO_SUM_ATOL
    # held rows replay the per-edge streams
    assert np.array_equal(trace.held_disturbance[:, 1],
                          0.2 * normals(12, 2001))


def test_running_norms_match_library_quadrature():
    model = _triangle_model()
    trace = run(model, horizon=1.0, dt=1e-3)
    rel_sq = np.sum(trace.relative_outputs**2, axis=1)
    dist_sq = np.sum(trace.held_disturbance**2, axis=1)
    assert trace.norm_rel_sq[-1] == pytest.approx(
        np.trapezoid(rel_sq, dx=1e-3), rel=1e-12)
    assert trace.norm_dist_sq[-1] == pytest.approx(
        np.trapezoid(dist_sq, dx=1e-3), rel=1e-12)
    assert trace.norm_rel_sq[0] == 0.0
    mid = trace.index_at(0.5)
    assert trace.norm_rel_sq[mid] == pytest.approx(
        np.trapezoid(rel_sq[:mid + 1], dx=1e-3), rel=1e-12)


def test_sample_indices_always_include_endpoint():
    model = _triangle_model()
    trace = run(model, horizon=0.01, dt=1e-3, stride=3)
    assert trace.steps == 10
    assert np.array_equal(trace.sample_indices, [0, 3, 6, 9, 10])
    aligned = run(model, horizon=0.01, dt=1e-3, stride=5)
    assert np.array_equal(aligned.sample_indices, [0, 5, 10])


def test_index_at_grid_checks():
    trace = run(_triangle_model(), horizon=1.0, dt=1e-3)
    assert trace.index_at(1.0) == 1000
    assert trace.index_at(0.0) == 0
    with pytest.raises(ValueError, match="not on the simulation grid"):
        trace.index_at(0.00051)
    with pytest.raises(ValueError, match="not on the simulation grid"):
        trace.index_at(2.0)
    with pytest.raises(ValueError, match="not on the simulation grid"):
        trace.index_at(-0.5)


def test_disagreement_is_output_spread():
    trace = run(_triangle_model(), horizon=0.01, dt=1e-3)
    row = trace.outputs[-1]
    assert trace.disagreement() == pytest.approx(row.max() - row.min(),
                                                 rel=1e-15)
    first = trace.outputs[0]
    assert trace.disagreement(0) == pytest.approx(first.max() - first.min(),
                                                  rel=1e-15)


def test_pair_residual_starts_at_minus_bias():
    trace = run(_triangle_model(), horizon=0.01, dt=1e-3)
    cert = EdgeCertificate(nu=-0.01, gamma=-16.0, beta=-2.5)
    residual, rhs = trace.pair_residual_curves(0, cert)
    assert residual.shape == rhs.shape == (trace.steps + 1,)
    assert rhs[0] == cert.beta
    assert residual[0] == -cert.beta


def test_dissipation_residual_starts_at_minus_total_bias():
    model = _triangle_model()
    lo, hi = sector_arrays(model.sectors)
    network_cert = NetworkCertificate(graph=model.graph, alpha_lo=lo, alpha_hi=hi,
                                      nu=[-0.01] * 3, gamma_raw=[-1.0] * 3,
                                      beta=[-0.5, -0.25, -0.25])
    trace = run(model, horizon=0.01, dt=1e-3)
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
    model = NetworkModel(
        graph=g,
        agents=_agents(0.9, 1.0, 1.1, 0.95),
        couplings=(_SIN, _LIN, _SIN, _PWL),
        disturbances=tuple(DisturbanceSpec(kind="gaussian", scale=0.3, seed=s)
                           for s in (1, 2, 3, 4)),
        initial_states=np.array([[1.0, 0.0, 0.5], [-0.5, 0.2, 0.0],
                                 [0.3, -0.1, 0.4], [0.8, 0.1, 0.2]]),
    )
    lo, hi = sector_arrays(model.sectors)
    cert = NetworkCertificate(graph=g, alpha_lo=lo, alpha_hi=hi,
                              nu=[-0.01, -0.02, -0.03, -0.04],
                              gamma_raw=[-2.0, 1.0, -1.5, -0.5], beta=[-0.25] * 4)
    trace = run(model, horizon=0.5, dt=1e-3)

    d = incidence(g).astype(float)
    stats = g.stats
    exclusive_half = 0.5 * np.diag(np.array(stats.exclusive, dtype=float))
    pair = 2.0 * np.eye(4) + np.diag(np.array(stats.common, dtype=float))
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
    trace = run(_triangle_model(), horizon=0.01, dt=1e-3)
    bad = GainBound(gain=math.nan, offset=math.nan, certified=False,
                    n_min=-1.0, m_max=2.0, weight_max=2.0, slope_max=2.0,
                    bias_total=-1.0, estimate="exact")
    with pytest.raises(UncertifiedBoundError):
        trace.margin_curve(bad)
    with pytest.raises(UncertifiedBoundError):
        bound_check(trace, bad)


def test_bound_check_on_quiet_network(noiseless_trace, paper_certification):
    bound = paper_certification.bound
    check = bound_check(noiseless_trace, bound)
    assert check.satisfied
    assert check.worst_margin > 0.0
    assert check.times[0] == 0.0 and check.times[-1] == pytest.approx(
        noiseless_trace.times[-1])
    # no disturbance: the margin is offset minus the growing output norm
    margins = bound.offset - np.sqrt(
        noiseless_trace.norm_rel_sq[noiseless_trace.sample_indices])
    assert np.allclose(check.margins, margins, rtol=1e-12)


def test_permuting_nodes_permutes_trajectories():
    g = complete_graph(5)
    rng = np.random.default_rng(17)
    x0 = rng.normal(size=(5, 3))
    perm = np.array([4, 2, 0, 3, 1])
    couplings = (linear_coupling(5.0),) * g.edge_count
    dists = (DisturbanceSpec(),) * g.edge_count
    agents = _agents(*[1.0] * 5)
    base = run(NetworkModel(g, agents, couplings, dists, x0),
               horizon=1.0, dt=1e-3)
    shuffled = run(NetworkModel(g, agents, couplings, dists, x0[perm]),
                   horizon=1.0, dt=1e-3)
    assert np.allclose(shuffled.states, base.states[:, perm, :],
                       atol=SYMMETRY_ATOL, rtol=0.0)
