"""Oscillator parameters, slope constants, derived certificate weights and
the free-parameter grid search."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import complete_graph, erdos_renyi_graph, linear_network
from syncert.certificates import NetworkCertificate
from syncert.goodwin import (
    CERTIFICATION_MODES,
    CertParams,
    GoodwinParams,
    _certificate_slope,
    _weights,
    admissible_theta3_interval,
    certify_network,
    hill_slope,
    hill_slope_max,
    search_params,
)
from syncert.graphs import build_graph
from syncert.values import ConfigError

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


def _k5_network(cp=None):
    """K5 with input gains 0.8 to 1.2 and linear couplings of gain 5."""
    return linear_network(_agents(0.8, 0.9, 1.0, 1.1, 1.2), complete_graph(5), 5.0, 5.0,
                          cp)


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


def test_closed_form_slope_is_exceeded_by_a_secant():
    # falsifier for the understated constant: near the maximiser x* ~ 0.577
    # of the slope at h = 2, two states whose repression difference exceeds
    # hill_slope(2) * |dx|, while the exact maximum still bounds the secant
    def repression(x):
        return -1.0 / (x ** 2 + 1.0)

    lo, hi = 0.57, 0.585
    secant = (repression(hi) - repression(lo)) / (hi - lo)
    assert secant == pytest.approx(0.649492, abs=1e-6)
    assert hill_slope(2) < secant < hill_slope_max(2)


@pytest.mark.parametrize("bad", [1, 0, -3, 2.5, True])
def test_slope_rejects_bad_hill(bad):
    rule = "hill coefficient must be an integer >= 2" if type(bad) is int \
        else "expected an integer"
    with pytest.raises(ConfigError, match=f"^/hill: {rule}, got {bad}$"):
        hill_slope(bad)
    with pytest.raises(ConfigError, match=f"^/hill: {rule}, got {bad}$"):
        hill_slope_max(bad)


def test_params_validation():
    with pytest.raises(ConfigError, match=r"^/a1: must be positive, got -0\.5$"):
        _agents(1.0, a1=-0.5)
    with pytest.raises(ConfigError, match=r"^/input_gains/0: must be positive, got 0\.0$"):
        _agents(0.0)
    with pytest.raises(ConfigError, match="^/hill: hill coefficient must be an integer >= 2"):
        _agents(1.0, hill=1)
    with pytest.raises(ConfigError, match="^/b2: expected a finite number, got inf$"):
        _agents(1.0, b2=math.inf)
    with pytest.raises(ConfigError, match="^/a1: expected a number, got True$"):
        _agents(1.0, a1=True)
    # a chain gain whose square overflows would overflow the certificate weights
    for name, value in (("b2", 1e200), ("b3", 1e308)):
        with pytest.raises(ConfigError, match=f"^/{name}: must have a finite square, got "):
            _agents(1.0, **{name: value})
    # the chain parameters are stored as floats
    assert type(_agents(1.0, a1=1).a1) is float


@pytest.mark.parametrize("hill", [3, 7, 15])
def test_params_reject_odd_hill_naming_the_pole(hill):
    # delta is a global Lipschitz constant of the repression only for even
    # hill; for odd hill it has a pole at x3 = -1
    with pytest.raises(ConfigError, match=rf"^/hill: hill coefficient must be even, "
                                          rf"got {hill}: .*pole at x3 = -1$"):
        _agents(1.0, hill=hill)
    # the slope constants themselves take any integer >= 2
    assert hill_slope(hill) <= hill_slope_max(hill)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_params_reject_bad_gain_naming_the_node(bad):
    rule = "must be positive" if math.isfinite(bad) else "expected a finite number"
    with pytest.raises(ConfigError, match=f"^/input_gains/1: {rule}, got {bad}$"):
        _agents(1.0, bad, 1.1)


def test_params_reject_bool_gains():
    # a bool converts to 1.0 or 0.0 without complaint, but it is no gain
    with pytest.raises(ConfigError, match=r"^/input_gains/0: expected a number, "
                                          r"got True$"):
        GoodwinParams(input_gains=[True, 1.0], **_CHAIN)
    with pytest.raises(ConfigError, match=r"^/input_gains/1: .* got np\.True_$"):
        GoodwinParams(input_gains=[1.0, np.True_], **_CHAIN)
    with pytest.raises(ConfigError, match=r"^/input_gains/0: .* got np\.True_$"):
        GoodwinParams(input_gains=np.array([True, True]), **_CHAIN)


@pytest.mark.parametrize("gains", [[], [[0.9, 1.1]]])
def test_params_reject_empty_or_nested_gains(gains):
    # a nested entry is no gain; an empty array is no network, so the
    # description's per-node count rejects it
    with pytest.raises(ConfigError) as err:
        linear_network(GoodwinParams(input_gains=gains, **_CHAIN),
                       build_graph(2, [(1, 2)]), 5.0, 5.0)
    assert str(err.value) == ("/agents/input_gains: 0 input gains for 2 nodes" if not gains
                              else "/input_gains/0: expected a number, got [0.9, 1.1]")


def test_params_reject_gains_that_are_no_list():
    with pytest.raises(ConfigError, match=r"^/input_gains: expected a list, got 5$"):
        GoodwinParams(input_gains=5, **_CHAIN)


def test_params_store_read_only_copy_of_gains():
    gains = np.array([0.9, 1.0, 1.1])
    agents = GoodwinParams(input_gains=gains, **_CHAIN)
    gains[0] = 5.0
    assert agents.input_gains.tolist() == [0.9, 1.0, 1.1]
    assert agents.input_gains.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        agents.input_gains[0] = 2.0


def test_cert_params_validation():
    with pytest.raises(ConfigError, match=r"^/theta: must be positive, got 0\.0$"):
        CertParams(theta=0.0, theta3=1.5)
    with pytest.raises(ConfigError, match=r"^/theta3: must be positive, got -1\.0$"):
        CertParams(theta=2.0, theta3=-1.0)
    with pytest.raises(ConfigError, match="^/theta: expected a number, got True$"):
        CertParams(theta=True, theta3=1.5)
    # a string was a TypeError, which the command line maps to no exit code
    with pytest.raises(ConfigError, match="^/theta: expected a number, got 'a'$"):
        CertParams("a", 1.0)
    with pytest.raises(ConfigError, match=r"^/mode: mode must be one of \('uniform', "
                                          r"'per_edge'\), got 'bogus'$"):
        CertParams(theta=2.0, theta3=1.5, mode="bogus")
    # theta and theta3 are checked first
    with pytest.raises(ConfigError, match="^/theta3: "):
        CertParams(theta=2.0, theta3=0.0, mode="bogus")
    assert CertParams(2.0, 1.5).mode == "uniform"


def test_certify_network_requires_certification_parameters(paper_config):
    with pytest.raises(ConfigError, match="^/certification: certification block required"):
        certify_network(dataclasses.replace(paper_config, certification=None))


def test_admissible_interval():
    lo, hi = admissible_theta3_interval(_agents(1.0))
    assert lo == pytest.approx(1.125, rel=EXACT_RTOL)
    assert hi == pytest.approx(2.0, rel=EXACT_RTOL)


def test_resolve_weights_reference_point():
    # theta3 = 1.5: theta1 = delta^2 * 1.5 / (3 - 2.25), theta2 = 2.25 / 0.5
    theta1, theta2 = _weights(_agents(1.0), 1.5)
    assert theta1 == pytest.approx(2.0 * HILL14_SLOPE**2, rel=1e-12)
    assert theta2 == pytest.approx(4.5, rel=EXACT_RTOL)


@given(theta3=st.floats(min_value=1.125, max_value=2.0,
                        exclude_min=True, exclude_max=True))
def test_derived_weights_positive_on_admissible_interval(theta3):
    theta1, theta2 = _weights(_agents(1.0), theta3)
    assert theta1 > 0.0 and math.isfinite(theta1)
    assert theta2 > 0.0 and math.isfinite(theta2)


def test_slope_constant_warns_when_far_from_maximum():
    _certificate_slope.cache_clear()
    with pytest.warns(UserWarning, match="more than 1%"):
        _weights(_agents(1.0, hill=2), 1.5)


def test_slope_constant_silent_near_maximum():
    _certificate_slope.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _weights(_agents(1.0), 1.5)


def _certify_pair(gain_i, gain_j, cp, x0_i, x0_j):
    """The certificate of the two-node network ``1 - 2``: one edge, index 0."""
    g = build_graph(2, [(1, 2)])
    return certify_network(linear_network(_agents(gain_i, gain_j), g, 5.0, 5.0, cp,
                                          initial_states=[x0_i, x0_j]))


def test_certify_edge_values():
    cp = CertParams(theta=2.0, theta3=1.5)
    cert = _certify_pair(0.8, 1.1, cp,
                         (1.0, 2.0, 3.0), (0.0, 0.0, 0.0))
    # worst gain deviation is 0.2, so nu = -0.04 / (2 * 2)
    assert cert.nu[0] == pytest.approx(-0.01, rel=EXACT_RTOL)
    assert cert.beta[0] == pytest.approx(-7.0, rel=EXACT_RTOL)
    theta1, theta2 = _weights(_agents(0.8), cp.theta3)
    assert cert.gamma_raw[0] == pytest.approx(0.5 - 2.0 - 0.5 * (theta1 + theta2),
                                       rel=1e-12)
    # symmetric in the pair
    swapped = _certify_pair(1.1, 0.8, cp,
                            (0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    assert swapped.nu[0] == cert.nu[0] and swapped.beta[0] == cert.beta[0]


def test_certify_network_uniform_versus_per_edge():
    uniform = certify_network(_k5_network(CertParams(theta=2.0, theta3=1.5)))
    per_edge = certify_network(_k5_network(CertParams(theta=2.0, theta3=1.5,
                                                      mode="per_edge")))
    g = uniform.graph
    assert all(nu == pytest.approx(-0.01, rel=EXACT_RTOL) for nu in uniform.nu)
    # canonical edge order puts (3, 4) at index 7; gains 1.0 and 1.1
    assert g.edges[7] == (3, 4)
    assert per_edge.nu[7] == pytest.approx(-0.0025, rel=EXACT_RTOL)
    slack_u = uniform.slacks
    slack_pe = per_edge.slacks
    assert all(pe >= u - 1e-15 for pe, u in zip(slack_pe, slack_u))


def test_certify_network_default_states_zero_bias():
    cert = certify_network(_k5_network(CertParams(theta=2.0, theta3=1.5)))
    assert all(beta == 0.0 for beta in cert.beta)
    assert cert.bias_total == 0.0


def _slacks_by_label(agents, g, mode):
    cert = certify_network(linear_network(agents, g, 4.0, 5.0,
                                          CertParams(theta=2.0, theta3=1.5, mode=mode)))
    return {edge: float(slack).hex() for edge, slack in zip(g.edges, cert.slacks)}


@given(data=st.data())
def test_per_edge_slack_reads_only_the_closed_neighbourhood(data):
    """The conditions are local: in per_edge mode the slack of edge (i, j)
    stays bit-identical when a gain outside the closed neighbourhood of i and
    j changes, or when an edge that touches neither i nor j is added.  In
    uniform mode every edge reads the network's least nu, so a far gain
    change that raises the largest gain deviation moves every slack."""
    n = data.draw(st.integers(5, 12), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g = erdos_renyi_graph(n, data.draw(st.floats(0.15, 0.5), label="density"), rng,
                          require_connected=True)
    gains = data.draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n),
                      label="gains")

    def closed(edge):
        i, j = edge
        return {i, j} | g.neighbours[i - 1] | g.neighbours[j - 1]

    edges = [edge for edge in g.edges if len(closed(edge)) < n]
    assume(edges)
    edge = data.draw(st.sampled_from(edges), label="edge")
    far = data.draw(st.sampled_from(sorted(set(range(1, n + 1)) - closed(edge))),
                    label="far node")
    base = _slacks_by_label(_agents(*gains), g, "per_edge")
    # a drawn far gain, then one whose deviation 1.5 exceeds every drawn one
    for gain in (data.draw(st.floats(0.05, 3.0), label="far gain"), 2.5):
        changed = _agents(*gains[:far - 1], gain, *gains[far:])
        assert _slacks_by_label(changed, g, "per_edge")[edge] == base[edge]
    uniform = _slacks_by_label(_agents(*gains), g, "uniform")
    moved = _slacks_by_label(changed, g, "uniform")
    assert all(moved[e] != uniform[e] for e in g.edges)
    i, j = edge
    absent = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
              if not {a, b} & {i, j} and (a, b) not in g.edges]
    if absent:
        added = build_graph(n, [*g.edges, data.draw(st.sampled_from(absent),
                                                     label="added edge")])
        assert _slacks_by_label(_agents(*gains), added, "per_edge")[edge] == base[edge]


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
    theta1, theta2 = _weights(agents, cp.theta3)
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
            cert = certify_network(linear_network(
                agents, g, lo, hi, dataclasses.replace(cp, mode=mode), x0))
            ref = _reference_certificate(agents, g, cp, lo, hi, x0, mode)
            for name in ("nu", "gamma_raw", "beta", "nu_node"):
                assert np.array_equal(getattr(cert, name), getattr(ref, name)), name
            assert np.array_equal(np.signbit(cert.nu), np.signbit(ref.nu))
            assert np.array_equal(cert.slacks, ref.slacks)


def test_search_single_point_matches_direct_certification():
    result = search_params(_k5_network(), (2.0, 2.0, 1), (1.5, 1.5, 1))
    cert = certify_network(_k5_network(CertParams(theta=2.0, theta3=1.5)))
    assert result.best_theta == 2.0
    assert result.best_theta3 == 1.5
    assert result.best_min_slack == pytest.approx(cert.min_slack, rel=1e-12)
    assert result.rows == ((2.0, 1.5, result.best_min_slack, True),)


def test_search_marks_inadmissible_points():
    result = search_params(_k5_network(), (2.0, 2.0, 1), (1.0, 1.5, 2))
    assert len(result.rows) == 2
    theta, theta3, slack, feasible = result.rows[0]
    assert (theta3, feasible) == (1.0, False) and math.isnan(slack)
    assert result.rows[1][3] is True
    assert result.best_theta3 == 1.5


def test_search_best_is_first_feasible_maximum():
    result = search_params(_k5_network(), (0.5, 3.0, 3), (1.2, 1.9, 3))
    assert len(result.rows) == 9
    # grid order: theta outer, theta3 inner
    assert [r[0] for r in result.rows[:3]] == [0.5] * 3
    feasible = [r for r in result.rows if r[3]]
    assert feasible, "interval (1.125, 2) contains the whole theta3 grid"
    best_slack = max(r[2] for r in feasible)
    first = next(r for r in result.rows if r[3] and r[2] == best_slack)
    assert (result.best_theta, result.best_theta3) == (first[0], first[1])
    assert result.best_min_slack == best_slack


def test_search_rows_match_certificates_bit_for_bit():
    # random connected graphs, gains and non-point sectors, and theta3 grids
    # reaching past both ends of the admissible interval (1.125, 2) or, on
    # every other graph, ending exactly on them
    rng = np.random.default_rng(2061)
    for trial in range(12):
        n = int(rng.integers(2, 9))
        g = erdos_renyi_graph(n, float(rng.uniform(0.3, 1.0)), rng,
                              require_connected=True)
        agents = _agents(*rng.uniform(0.6, 1.4, size=n))
        lo = rng.uniform(0.5, 6.0, size=g.edge_count)
        hi = lo * rng.uniform(1.05, 1.5, size=g.edge_count)
        theta_range = (float(rng.uniform(0.05, 1.0)), float(rng.uniform(1.0, 5.0)),
                       int(rng.integers(1, 6)))
        inside = admissible_theta3_interval(agents)
        theta3_range = (float(rng.uniform(0.9, 1.12)), float(rng.uniform(2.01, 2.3)),
                        int(rng.integers(4, 10)))
        if trial % 2:
            theta3_range = (*inside, theta3_range[2])
        for mode in CERTIFICATION_MODES:
            config = linear_network(agents, g, lo, hi, CertParams(1.0, 1.5, mode))
            result = search_params(config, theta_range, theta3_range)
            assert not result.rows[0][3] and not result.rows[-1][3]
            for theta, theta3, slack, feasible in result.rows:
                assert feasible is (inside[0] < theta3 < inside[1])
                if not feasible:
                    assert math.isnan(slack)
                    continue
                cert = certify_network(dataclasses.replace(
                    config, certification=CertParams(theta, theta3, mode)))
                assert slack.hex() == cert.min_slack.hex()
            best = max(r[2] for r in result.rows if r[3])
            first = next(r for r in result.rows if r[3] and r[2] == best)
            assert (result.best_theta, result.best_theta3,
                    result.best_min_slack) == first[:3]


def test_search_tie_picks_the_first_admissible_point():
    # unit gains give nu = 0 and a large a1 clamps every gamma to 0, so no
    # slack depends on (theta, theta3): the first admissible point wins
    agents = _agents(*[1.0] * 5, a1=1000.0)
    for mode in CERTIFICATION_MODES:
        config = linear_network(agents, complete_graph(5), 4.0, 6.0,
                                CertParams(1.0, 1.5, mode))
        result = search_params(config, (0.5, 4.0, 4), (1.0, 1.9, 10))
        feasible = [r for r in result.rows if r[3]]
        assert len({r[2] for r in feasible}) == 1
        assert (result.best_theta, result.best_theta3) == (0.5, 1.2)
        assert feasible[0][:2] == (0.5, 1.2)


def test_search_raises_when_nothing_admissible():
    with pytest.raises(ValueError, match="^inadmissible certification parameters: "
                                         "no admissible theta3 in the grid"):
        search_params(_k5_network(), (2.0, 2.0, 1), (1.0, 1.1, 2))


def test_search_range_validation():
    config = _k5_network()
    with pytest.raises(ValueError, match="at least one point"):
        search_params(config, (2.0, 2.0, 0), (1.5, 1.5, 1))
    with pytest.raises(ValueError, match="lo <= hi"):
        search_params(config, (3.0, 2.0, 2), (1.5, 1.5, 1))
    with pytest.raises(ValueError, match="must be positive"):
        search_params(config, (0.0, 2.0, 2), (1.5, 1.5, 1))
