"""Oscillator parameters, slope constants, derived certificate weights and
the free-parameter grid search."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import complete_graph, erdos_renyi_graph
from syncert.certificates import NetworkCertificate, SectorBound, sector_arrays
from syncert.goodwin import (
    CertParams,
    GoodwinParams,
    InadmissibleParams,
    _certificate_slope,
    admissible_theta3_interval,
    certify_network,
    hill_slope,
    hill_slope_max,
    resolve_weights,
    search_params,
)
from syncert.graphs import build_graph

# closed-form slope constant and numerical maximum at hill = 14, frozen
HILL14_SLOPE = 3.5178120744028827
HILL14_SLOPE_MAX = 3.5179180679467708
# exact maximum of 2x/(x^2+1)^2 over x > 0, attained at x = 3^(-1/2)
HILL2_SLOPE_MAX = 9.0 / (8.0 * math.sqrt(3.0))
EXACT_RTOL = 1e-15
# a dense grid can undershoot the maximum by curvature * spacing^2 / 8
GRID_GAP_MAX = 1e-8

_CHAIN = dict(a1=0.5, a2=1.0, a3=1.0, b2=1.5, b3=1.5, hill=14)


def _agents(*gains, **chain_overrides):
    return GoodwinParams(input_gains=gains, **{**_CHAIN, **chain_overrides})


def _k5_setup():
    g = complete_graph(5)
    agents = _agents(0.8, 0.9, 1.0, 1.1, 1.2)
    sectors = (SectorBound(5.0, 5.0),) * g.edge_count
    return g, agents, sectors


def test_closed_form_slope_small_hill():
    # core reduces to (1/3)^2, so the slope is 2/(3 * (10/9)^2) = 27/50
    assert hill_slope(2) == pytest.approx(27.0 / 50.0, rel=EXACT_RTOL)


def test_closed_form_slope_frozen_value():
    assert hill_slope(14) == pytest.approx(HILL14_SLOPE, rel=EXACT_RTOL)


def test_slope_maximum_closed_form_small_hill():
    assert hill_slope_max(2) == pytest.approx(HILL2_SLOPE_MAX, abs=1e-12)


def test_slope_maximum_frozen_value():
    assert hill_slope_max(14) == pytest.approx(HILL14_SLOPE_MAX, rel=1e-12)


@pytest.mark.parametrize("hill", [3, 7, 14])
def test_slope_maximum_beats_dense_grid(hill):
    xs = np.linspace(1e-6, 2.0, 400001)
    slopes = hill * xs ** (hill - 1) / (xs**hill + 1.0) ** 2
    grid_max = float(slopes.max())
    gap = hill_slope_max(hill) - grid_max
    assert -1e-12 <= gap <= GRID_GAP_MAX


def test_closed_form_stays_below_maximum():
    for hill in range(2, 21):
        assert hill_slope(hill) <= hill_slope_max(hill) + 1e-12


def test_slope_gap_large_for_small_hill():
    # the two constants disagree visibly at hill = 2 and barely at 14
    assert 0.105 <= hill_slope_max(2) - hill_slope(2) <= 0.115
    assert abs(hill_slope_max(14) - hill_slope(14)) < 1e-3


@pytest.mark.parametrize("bad", [1, 0, -3, 2.5, True])
def test_slope_rejects_bad_hill(bad):
    with pytest.raises(ValueError, match="hill coefficient"):
        hill_slope(bad)
    with pytest.raises(ValueError, match="hill coefficient"):
        hill_slope_max(bad)


def test_params_validation():
    with pytest.raises(ValueError, match="a1 must be a positive"):
        _agents(1.0, a1=-0.5)
    with pytest.raises(ValueError, match="input_gain must be a positive"):
        _agents(0.0)
    with pytest.raises(ValueError, match="hill coefficient"):
        _agents(1.0, hill=1)
    with pytest.raises(ValueError, match="b2 must be a positive"):
        _agents(1.0, b2=math.inf)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_params_reject_bad_gain_naming_the_node(bad):
    with pytest.raises(ValueError, match="node 2: input_gain must be a positive"):
        _agents(1.0, bad, 1.1)


@pytest.mark.parametrize("gains", [[], [[0.9, 1.1]]])
def test_params_reject_empty_or_nested_gains(gains):
    with pytest.raises(ValueError, match="non-empty 1-D"):
        GoodwinParams(input_gains=gains, **_CHAIN)


def test_params_store_read_only_copy_of_gains():
    gains = np.array([0.9, 1.0, 1.1])
    agents = GoodwinParams(input_gains=gains, **_CHAIN)
    gains[0] = 5.0
    assert agents.input_gains.tolist() == [0.9, 1.0, 1.1]
    assert agents.input_gains.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        agents.input_gains[0] = 2.0


def test_cert_params_validation():
    with pytest.raises(ValueError, match="theta must be positive"):
        CertParams(theta=0.0, theta3=1.5)
    with pytest.raises(ValueError, match="theta3 must be positive"):
        CertParams(theta=2.0, theta3=-1.0)


def test_admissible_interval():
    lo, hi = admissible_theta3_interval(_agents(1.0))
    assert lo == pytest.approx(1.125, rel=EXACT_RTOL)
    assert hi == pytest.approx(2.0, rel=EXACT_RTOL)


def test_resolve_weights_reference_point():
    # theta3 = 1.5: theta1 = delta^2 * 1.5 / (3 - 2.25), theta2 = 2.25 / 0.5
    theta1, theta2 = resolve_weights(CertParams(theta=2.0, theta3=1.5), _agents(1.0))
    assert theta1 == pytest.approx(2.0 * HILL14_SLOPE**2, rel=1e-12)
    assert theta2 == pytest.approx(4.5, rel=EXACT_RTOL)


def test_resolve_weights_rejects_out_of_interval():
    with pytest.raises(InadmissibleParams, match="must exceed"):
        resolve_weights(CertParams(theta=2.0, theta3=1.1), _agents(1.0))
    with pytest.raises(InadmissibleParams, match="must stay below"):
        resolve_weights(CertParams(theta=2.0, theta3=2.0), _agents(1.0))
    assert issubclass(InadmissibleParams, ValueError)


@given(theta3=st.floats(min_value=1.125, max_value=2.0,
                        exclude_min=True, exclude_max=True))
def test_derived_weights_positive_on_admissible_interval(theta3):
    theta1, theta2 = resolve_weights(CertParams(theta=1.0, theta3=theta3),
                                     _agents(1.0))
    assert theta1 > 0.0 and math.isfinite(theta1)
    assert theta2 > 0.0 and math.isfinite(theta2)


def test_slope_constant_warns_when_far_from_maximum():
    _certificate_slope.cache_clear()
    with pytest.warns(UserWarning, match="more than 1%"):
        resolve_weights(CertParams(theta=2.0, theta3=1.5), _agents(1.0, hill=2))


def test_slope_constant_silent_near_maximum():
    _certificate_slope.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resolve_weights(CertParams(theta=2.0, theta3=1.5), _agents(1.0))


def _certify_pair(gain_i, gain_j, cp, x0_i, x0_j):
    """The one edge certificate of the two-node network ``1 - 2``."""
    g = build_graph(2, [(1, 2)])
    return certify_network(_agents(gain_i, gain_j), g, cp, [5.0], [5.0],
                           initial_states=[x0_i, x0_j]).edge(0)


def test_certify_edge_values():
    cp = CertParams(theta=2.0, theta3=1.5)
    cert = _certify_pair(0.8, 1.1, cp,
                         (1.0, 2.0, 3.0), (0.0, 0.0, 0.0))
    # worst gain deviation is 0.2, so nu = -0.04 / (2 * 2)
    assert cert.nu == pytest.approx(-0.01, rel=EXACT_RTOL)
    assert cert.beta == pytest.approx(-7.0, rel=EXACT_RTOL)
    theta1, theta2 = resolve_weights(cp, _agents(0.8))
    assert cert.gamma == pytest.approx(0.5 - 2.0 - 0.5 * (theta1 + theta2),
                                       rel=1e-12)
    # symmetric in the pair
    swapped = _certify_pair(1.1, 0.8, cp,
                            (0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    assert swapped.nu == cert.nu and swapped.beta == cert.beta


def test_certify_edge_validation():
    cp = CertParams(theta=2.0, theta3=1.5)
    with pytest.raises(ValueError, match=r"shape \(2, 2\), expected \(2, 3\)"):
        _certify_pair(1.0, 1.0, cp, np.zeros(2), np.zeros(2))


def test_certify_network_uniform_versus_per_edge():
    g, agents, sectors = _k5_setup()
    cp = CertParams(theta=2.0, theta3=1.5)
    uniform = certify_network(agents, g, cp, *sector_arrays(sectors), mode="uniform")
    per_edge = certify_network(agents, g, cp, *sector_arrays(sectors), mode="per_edge")
    assert all(nu == pytest.approx(-0.01, rel=EXACT_RTOL) for nu in uniform.nu)
    # canonical edge order puts (3, 4) at index 7; gains 1.0 and 1.1
    assert g.edges[7] == (3, 4)
    assert per_edge.nu[7] == pytest.approx(-0.0025, rel=EXACT_RTOL)
    slack_u = uniform.margins.slacks
    slack_pe = per_edge.margins.slacks
    assert all(pe >= u - 1e-15 for pe, u in zip(slack_pe, slack_u))


def test_certify_network_default_states_zero_bias():
    g, agents, sectors = _k5_setup()
    cert = certify_network(agents, g, CertParams(theta=2.0, theta3=1.5),
                           *sector_arrays(sectors))
    assert all(beta == 0.0 for beta in cert.beta)
    assert cert.bias_total == 0.0


def test_certify_network_validation():
    g, agents, sectors = _k5_setup()
    cp = CertParams(theta=2.0, theta3=1.5)
    with pytest.raises(ValueError, match="agents for"):
        certify_network(_agents(0.8, 0.9, 1.0, 1.1), g, cp, *sector_arrays(sectors))
    with pytest.raises(ValueError,
                       match="^mode must be 'uniform' or 'per_edge', got 'per-edge'$"):
        certify_network(agents, g, cp, *sector_arrays(sectors), mode="per-edge")
    with pytest.raises(ValueError, match="initial states"):
        certify_network(agents, g, cp, *sector_arrays(sectors),
                        initial_states=np.zeros((4, 3)))


def _reference_certificate(agents, g, cp, alpha_lo, alpha_hi, x0, mode):
    """The per-edge construction that the array build replaced: one scalar
    ``nu`` and ``beta`` per edge, with the same formulas and operation
    order."""
    nus = []
    for i, j in g.edges:
        deviation = max(abs(agents.input_gains[i - 1] - 1.0),
                        abs(agents.input_gains[j - 1] - 1.0))
        nus.append(-deviation * deviation / (2.0 * cp.theta))
    if mode == "uniform":
        nus = [min(nus)] * len(nus)
    theta1, theta2 = resolve_weights(cp, agents)
    gamma = agents.a1 - cp.theta - 0.5 * theta1 - 0.5 * theta2
    betas = [-0.5 * float(np.sum((x0[i - 1] - x0[j - 1]) ** 2)) for i, j in g.edges]
    return NetworkCertificate(graph=g, alpha_lo=alpha_lo, alpha_hi=alpha_hi,
                              nu=nus, gamma_raw=[gamma] * len(nus), beta=betas)


def test_array_certificate_matches_per_edge_reference_bit_for_bit():
    rng = np.random.default_rng(2027)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        g = erdos_renyi_graph(n, float(rng.uniform(0.2, 1.0)), rng,
                              require_connected=True)
        gains = rng.uniform(0.5, 1.5, size=n)
        gains[rng.random(n) < 0.2] = 1.0  # zero deviations give -0.0
        agents = _agents(*gains)
        x0 = rng.normal(scale=float(rng.uniform(0.1, 10.0)), size=(n, 3))
        cp = CertParams(theta=float(rng.uniform(0.2, 5.0)),
                        theta3=float(rng.uniform(1.15, 1.95)))
        lo = rng.uniform(0.5, 6.0, size=g.edge_count)
        hi = lo * rng.uniform(1.0, 1.5, size=g.edge_count)
        for mode in ("uniform", "per_edge"):
            cert = certify_network(agents, g, cp, lo, hi, initial_states=x0, mode=mode)
            ref = _reference_certificate(agents, g, cp, lo, hi, x0, mode)
            for name in ("nu", "gamma_raw", "beta", "nu_node"):
                assert np.array_equal(getattr(cert, name), getattr(ref, name)), name
            assert np.array_equal(np.signbit(cert.nu), np.signbit(ref.nu))
            assert np.array_equal(cert.margins.slacks, ref.margins.slacks)


def test_search_single_point_matches_direct_certification():
    g, agents, sectors = _k5_setup()
    result = search_params(agents, g, sectors, (2.0, 2.0, 1), (1.5, 1.5, 1))
    cert = certify_network(agents, g, CertParams(theta=2.0, theta3=1.5),
                           *sector_arrays(sectors))
    report = cert.margins
    assert result.best_theta == 2.0
    assert result.best_theta3 == 1.5
    assert result.best_min_slack == pytest.approx(report.min_slack, rel=1e-12)
    assert result.rows == ((2.0, 1.5, result.best_min_slack, True),)


def test_search_marks_inadmissible_points():
    g, agents, sectors = _k5_setup()
    result = search_params(agents, g, sectors, (2.0, 2.0, 1), (1.0, 1.5, 2))
    assert len(result.rows) == 2
    theta, theta3, slack, feasible = result.rows[0]
    assert (theta3, feasible) == (1.0, False) and math.isnan(slack)
    assert result.rows[1][3] is True
    assert result.best_theta3 == 1.5


def test_search_best_is_first_feasible_maximum():
    g, agents, sectors = _k5_setup()
    result = search_params(agents, g, sectors, (0.5, 3.0, 3), (1.2, 1.9, 3))
    assert len(result.rows) == 9
    # grid order: theta outer, theta3 inner
    assert [r[0] for r in result.rows[:3]] == [0.5] * 3
    feasible = [r for r in result.rows if r[3]]
    assert feasible, "interval (1.125, 2) contains the whole theta3 grid"
    best_slack = max(r[2] for r in feasible)
    first = next(r for r in result.rows if r[3] and r[2] == best_slack)
    assert (result.best_theta, result.best_theta3) == (first[0], first[1])
    assert result.best_min_slack == best_slack


def test_search_raises_when_nothing_admissible():
    g, agents, sectors = _k5_setup()
    with pytest.raises(InadmissibleParams, match="no admissible theta3"):
        search_params(agents, g, sectors, (2.0, 2.0, 1), (1.0, 1.1, 2))


def test_search_range_validation():
    g, agents, sectors = _k5_setup()
    with pytest.raises(ValueError, match="at least one point"):
        search_params(agents, g, sectors, (2.0, 2.0, 0), (1.5, 1.5, 1))
    with pytest.raises(ValueError, match="lo <= hi"):
        search_params(agents, g, sectors, (3.0, 2.0, 2), (1.5, 1.5, 1))
    with pytest.raises(ValueError, match="must be positive"):
        search_params(agents, g, sectors, (0.0, 2.0, 2), (1.5, 1.5, 1))
