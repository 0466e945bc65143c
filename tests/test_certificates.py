"""Edge certificates, synchronisation margins, quadratic forms and the gain
bound, each checked against independent in-test assemblies."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    complete_graph,
    edge_order_sums,
    erdos_renyi_graph,
    four_corner_gain_bound,
    incidence,
)
from syncert.certificates import (
    POSITIVITY_TOL,
    NetworkCertificate,
    SectorBound,
    gain_bound_from_forms,
    quadratic_forms,
)
from syncert.graphs import build_graph, node_sums
from syncert.linalg import symmetric_eigenvalues

# matrix routes recomputed in-test must agree to this tolerance
FORM_ATOL = 1e-12
EIG_RTOL = 1e-9


def _certificate(graph, nus, gammas, betas, sectors):
    lo, hi = np.array(sectors, dtype=float).reshape(-1, 2).T
    return NetworkCertificate(graph=graph, alpha_lo=lo, alpha_hi=hi, nu=nus,
                              gamma_raw=gammas, beta=betas)


def test_sector_bound_validation():
    point = SectorBound(2.0, 2.0)
    assert point.alpha_lo == point.alpha_hi == 2.0
    box = SectorBound(1.0, 3.0)
    assert (box.alpha_lo, box.alpha_hi) == (1.0, 3.0)
    for lo, hi in [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, math.inf)]:
        with pytest.raises(ValueError):
            SectorBound(lo, hi)


def test_edge_certificate_validation():
    g = build_graph(3, [(1, 2), (2, 3)])
    good = {"nu": (0.0, -0.5), "gammas": (1.0, -1.0), "betas": (0.0, -2.0),
            "sectors": ((1.0, 2.0), (3.0, 3.0))}
    cert = _certificate(g, good["nu"], good["gammas"], good["betas"],
                        good["sectors"])  # zero nu is admissible
    assert (cert.nu[1], cert.gamma_raw[1], cert.beta[1]) == (-0.5, -1.0, -2.0)
    # each bad value is rejected with the edge that carries it
    for key, value, rule in [
        ("nu", math.nan, "nu must be finite and <= 0"),
        ("nu", -math.inf, "nu must be finite and <= 0"),
        ("nu", 0.1, "nu must be finite and <= 0"),
        ("gammas", math.inf, "gamma and beta must be finite"),
        ("gammas", -math.inf, "gamma and beta must be finite"),
        ("betas", math.nan, "gamma and beta must be finite"),
        ("sectors", (2.0, 1.0), "sector must satisfy"),
    ]:
        bad = dict(good)
        bad[key] = (good[key][0], value)
        with pytest.raises(ValueError, match=f"edge 2-3: {rule}"):
            _certificate(g, bad["nu"], bad["gammas"], bad["betas"], bad["sectors"])
    for key in good:
        bad = dict(good)
        bad[key] = good[key][:1]
        with pytest.raises(ValueError, match=r"has shape \(1,\), expected \(2,\)"):
            _certificate(g, bad["nu"], bad["gammas"], bad["betas"], bad["sectors"])
    # the stored arrays are read-only copies of the inputs
    nus = np.array([-0.25, -0.5])
    cert = _certificate(g, nus, good["gammas"], good["betas"], good["sectors"])
    nus[0] = 1.0
    assert cert.nu[0] == -0.25
    for name in ("alpha_lo", "alpha_hi", "nu", "gamma_raw", "beta"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(cert, name)[0] = -1.0


def test_network_certificate_aggregates():
    g = build_graph(3, [(1, 2), (2, 3)])
    cert = _certificate(g, nus=(-0.02, -0.03), gammas=(0.5, -0.5),
                        betas=(-1.0, -2.0), sectors=((1.0, 2.0), (1.0, 1.0)))
    assert np.allclose(cert.nu_node, [-0.02, -0.05, -0.03], atol=0.0)
    assert cert.bias_total == -3.0
    # positive raw gamma is clamped in the aggregate view, kept in the raw one
    assert cert.gamma.tolist() == [0.0, -0.5]
    assert cert.gamma_raw.tolist() == [0.5, -0.5]
    with pytest.raises(ValueError, match=r"alpha_lo has shape \(1,\)"):
        _certificate(g, nus=(-0.02, -0.03), gammas=(0.0, 0.0),
                     betas=(0.0, 0.0), sectors=((1.0, 2.0),))


def test_nu_node_matches_edge_loop_bit_for_bit():
    # the scatter-add must keep the per-node summation order of a plain
    # loop over the edges, so that every downstream figure is unchanged
    rng = np.random.default_rng(404)
    for _ in range(300):
        g = erdos_renyi_graph(int(rng.integers(2, 12)), float(rng.uniform(0.2, 1.0)),
                              rng)
        p = g.edge_count
        if p == 0:  # an edgeless graph has nothing to certify
            with pytest.raises(ValueError, match="no edges"):
                _certificate(g, nus=(), gammas=(), betas=(), sectors=())
            continue
        cert = _certificate(g, nus=-rng.uniform(0.0, 1.0, size=p) ** 3,
                            gammas=np.zeros(p), betas=np.zeros(p),
                            sectors=((1.0, 1.0),) * p)
        assert cert.nu_node.tolist() == edge_order_sums(g, cert.nu).tolist()
        # with a leading axis each row sums in the same order
        rows = node_sums(g, np.stack([cert.nu, 3.0 * cert.nu]))
        assert rows[0].tolist() == edge_order_sums(g, cert.nu).tolist()
        assert rows[1].tolist() == node_sums(g, 3.0 * cert.nu).tolist()


def test_single_edge_margin_formula():
    # isolated homogeneous pair with zero nu: slack = 2/alpha_hi + gamma/alpha_lo^2
    g = build_graph(2, [(1, 2)])
    cert = _certificate(g, nus=(0.0,), gammas=(-0.8,), betas=(0.0,),
                        sectors=((2.0, 4.0),))
    assert np.isclose(cert.slacks[0], 2.0 / 4.0 + (-0.8) / 4.0, atol=1e-15)
    assert cert.satisfied
    # two disjoint copies keep every slack but no longer synchronise
    g2 = build_graph(4, [(1, 2), (3, 4)])
    cert2 = NetworkCertificate(
        graph=g2, **{name: np.tile(getattr(cert, name), 2)
                     for name in ("alpha_lo", "alpha_hi", "nu", "gamma_raw", "beta")}
    )
    assert np.array_equal(cert2.slacks, np.repeat(cert.slacks, 2))
    assert cert2.edge_ok.all()
    assert not cert2.satisfied


def test_margin_verdict_needs_slack_beyond_positivity_tol():
    # one edge, unit sector, zero gamma: slack = 2 + 2 nu; nu = -1 gives
    # exactly 0, which must not count as a pass, and so must a positive
    # slack below POSITIVITY_TOL
    g = build_graph(2, [(1, 2)])
    slacks = []
    for nu, passes in ((-1.0, False), (-(1.0 - 2.5e-13), False),
                       (-(1.0 - 1e-12), True)):
        cert = _certificate(g, nus=(nu,), gammas=(0.0,), betas=(0.0,),
                            sectors=((1.0, 1.0),))
        assert cert.edge_ok.tolist() == [passes]
        assert cert.satisfied is passes
        slacks.append(cert.min_slack)
    assert slacks[0] == 0.0 and 0.0 < slacks[1] < POSITIVITY_TOL < slacks[2]


def test_path_margins_hand_computed():
    g = build_graph(3, [(1, 2), (2, 3)])
    cert = _certificate(g, nus=(-0.02, -0.03), gammas=(-1.0, -0.5),
                        betas=(0.0, 0.0), sectors=((2.0, 3.0), (1.0, 4.0)))
    # edge (1,2): degrees 1,2; no common, one exclusive neighbour
    slack_12 = (2.0 / 3.0 - (1 + 4.0) * 1 / (2 * 4.0) + (-1.0) / 4.0
                - 1 * 0.02 - 2 * 0.05)
    # edge (2,3): degrees 2,1
    slack_23 = (2.0 / 4.0 - (1 + 1.0) * 1 / (2 * 1.0) + (-0.5) / 1.0
                - 2 * 0.05 - 1 * 0.03)
    assert np.allclose(cert.slacks, [slack_12, slack_23], atol=1e-15)
    assert not cert.satisfied
    assert cert.min_slack == pytest.approx(slack_23)


def _random_certificate(rng, graph):
    p = graph.edge_count
    lo = rng.uniform(0.2, 3.0, size=p)
    hi = lo * rng.uniform(1.0, 2.0, size=p)
    return _certificate(
        graph,
        nus=-rng.uniform(0.0, 0.05, size=p),
        gammas=rng.uniform(-3.0, 0.5, size=p),
        betas=-rng.uniform(0.0, 1.0, size=p),
        sectors=tuple(zip(lo, hi)),
    )


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_margin_slack_lower_bounds_form_eigenvalue(seed):
    """The per-edge slack is a row-dominance bound: the smallest eigenvalue
    of the margin form can never fall below the worst slack."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    g = erdos_renyi_graph(n, float(rng.uniform(0.3, 0.9)), rng)
    if g.edge_count == 0:
        return
    cert = _random_certificate(rng, g)
    forms = quadratic_forms(g, cert)
    assert forms.margin_min_eig >= cert.min_slack - 1e-10


def test_quadratic_forms_match_direct_assembly():
    rng = np.random.default_rng(31)
    g = complete_graph(4)
    cert = _random_certificate(rng, g)
    d = incidence(g)

    common = np.array(g.common, dtype=float)
    exclusive_half = 0.5 * np.diag(np.array(g.exclusive, dtype=float))
    coupling_direct = (
        d.T @ np.diag(cert.nu_node) @ d
        - exclusive_half
        + np.diag((2.0 + common) / cert.alpha_hi)
    )
    margin_direct = coupling_direct + np.diag(
        (np.minimum(cert.gamma_raw, 0.0) - np.diag(exclusive_half))
        / cert.alpha_lo ** 2
    )
    forms = quadratic_forms(g, cert)
    assert np.allclose(forms.coupling_form, coupling_direct, atol=FORM_ATOL)
    assert np.allclose(forms.margin_form, margin_direct, atol=FORM_ATOL)
    ref = float(np.linalg.eigvalsh(margin_direct)[0])
    assert np.isclose(forms.margin_min_eig, ref, rtol=EIG_RTOL, atol=1e-12)
    assert np.count_nonzero(common - common.T) == 0
    with pytest.raises(ValueError, match="different graph"):
        quadratic_forms(complete_graph(5), cert)


def test_certificate_dissipation_weights():
    g = build_graph(3, [(1, 2), (2, 3)])
    cert = _certificate(g, nus=(-0.1, -0.2), gammas=(-1.0, 2.0),
                        betas=(-0.5, -0.5), sectors=((1.0, 1.0), (1.0, 1.0)))
    # per-node and per-edge vectors, no p x p or n x n arrays
    assert np.allclose(cert.nu_node, [-0.1, -0.3, -0.2], rtol=1e-15, atol=0.0)
    assert cert.bias_total == -1.0
    # gamma is clamped; each end of the path sees one exclusive neighbour
    assert np.array_equal(cert.gamma, [-1.0, 0.0])
    assert np.array_equal(cert.graph.common, [0, 0])
    assert np.array_equal(cert.graph.exclusive, [1, 1])
    # pair weight is 2 plus the common-neighbour count (zero on a path)
    assert np.array_equal(cert.pair_weight, [2.0, 2.0])
    assert np.array_equal(cert.output_quadratic, [-1.5, -0.5])


def test_gain_bound_point_sectors_is_exact(paper_certification, paper_expected):
    cert = paper_certification
    bound = cert.bound
    assert bound.certified
    assert bound.estimate == "exact"
    assert bound.n_min == pytest.approx(paper_expected["n_min"], rel=1e-12)
    assert bound.m_max == pytest.approx(paper_expected["m_max"], rel=1e-12)
    assert bound.gain == pytest.approx(paper_expected["gain"], rel=1e-12)
    assert bound.offset == pytest.approx(paper_expected["offset"], rel=1e-12)
    # gain and offset recomputed from their defining expressions, with the
    # largest slope, the largest pair weight and the total bias of the
    # certificate
    slope_max = float(np.max(cert.alpha_hi))
    weight_max = float(np.max(cert.pair_weight))
    gain = math.sqrt(0.5 + (4 * slope_max**2 * weight_max**2
                            + 8 * bound.m_max**2) / bound.n_min**2)
    offset = math.sqrt(2 * abs(float(np.sum(cert.beta))) / bound.n_min)
    assert bound.gain == pytest.approx(gain, rel=1e-15)
    assert bound.offset == pytest.approx(offset, rel=1e-15)


def test_gain_bound_box_sectors_interval():
    g = build_graph(2, [(1, 2)])
    cert = _certificate(g, nus=(0.0,), gammas=(-0.5,), betas=(-1.0,),
                        sectors=((1.0, 2.0),))
    bound = cert.bound
    assert bound.estimate == "interval"
    assert bound.certified
    # single edge: coupling form is (2 + 0)/alpha_hi = 1, so
    # N(eta) = eta^2 + gamma (worst at eta = 1) and M(eta) = eta^2; the
    # interval bound is tight here up to its 4 p eps ||.|| allowance, with
    # midpoint 2.5, radius 1.5 and ||.|| = max(2.5 - 0.5, 2.5) + 1.5
    allowance = 4.0 * np.finfo(float).eps * 4.0
    assert 0.5 - allowance <= bound.n_min <= 0.5
    assert 4.0 <= bound.m_max <= 4.0 + allowance


def _box_vertices(lo, hi):
    """Every vertex of the box, as rows."""
    p = len(lo)
    bits = (np.arange(2 ** p)[:, None] >> np.arange(p)) & 1
    return np.where(bits == 1, hi, lo)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_interval_gain_bound_holds_over_the_box(seed):
    """Sampled falsifier of the interval bound: no vertex and no random point
    of the slope box has a response eigenvalue beyond ``n_min`` or
    ``m_max``, with zero tolerance against the same solver."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 9))
    a = rng.normal(size=(p, p))
    # diagonal forms make the bound tight at a vertex; zero out the
    # off-diagonal part of a share of the cases
    coupling = a + a.T if rng.random() < 0.7 else np.diag(rng.normal(size=p))
    b = rng.normal(size=(p, p))
    shift = rng.uniform(0.0, 3.0) * (b + b.T)
    lo = rng.uniform(0.1, 3.0, size=p)
    hi = lo + rng.uniform(0.0, 1.0, size=p) * (rng.random(p) < 0.8)
    if np.array_equal(lo, hi):
        hi[0] += 0.5
    bound = gain_bound_from_forms(coupling, shift, lo, hi, weight_max=2.0,
                                  slope_max=float(hi.max()), bias_total=0.0)
    assert bound.estimate == "interval"
    points = np.vstack([_box_vertices(lo, hi),
                        rng.uniform(lo, hi, size=(32, p))])
    for eta in points:
        m_form = coupling * np.outer(eta, eta)
        assert bound.n_min <= symmetric_eigenvalues(m_form + shift)[0]
        assert bound.m_max >= symmetric_eigenvalues(m_form)[-1]


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_two_corner_box_is_the_four_corner_reference_bit_for_bit(seed):
    """The ``(lo, lo)`` and ``(hi, hi)`` corners give the bits of the bound
    over all four, on forms with negative, +0.0 and -0.0 entries over boxes
    in which some or all edges are points."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 9))
    a = rng.normal(size=(p, p)) * 10.0 ** rng.uniform(-3.0, 3.0)
    coupling = a + a.T
    zero = rng.random((p, p)) < rng.uniform(0.0, 0.6)
    coupling[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    # mirror the upper triangle, signed zeros included
    coupling = np.where(np.triu(np.ones((p, p), dtype=bool)), coupling, coupling.T)
    b = rng.normal(size=(p, p))
    shift = rng.uniform(0.0, 3.0) * (b + b.T) + rng.uniform(0.0, 30.0) * np.eye(p)
    lo = rng.uniform(0.1, 3.0, size=p)
    hi = lo + rng.uniform(0.0, 1.0, size=p) * (rng.random(p) < rng.uniform(0.0, 1.0))
    args = (coupling, shift, lo, hi, 2.0, float(hi.max()), -1.5)
    bound, reference = gain_bound_from_forms(*args), four_corner_gain_bound(*args)
    for name in ("n_min", "m_max", "gain", "offset"):
        assert getattr(bound, name).hex() == getattr(reference, name).hex(), name
    assert bound.estimate == reference.estimate


def test_gain_bound_point_box_is_the_single_solve():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4))
    coupling, shift = a + a.T, np.diag(rng.uniform(-1.0, 1.0, size=4))
    eta = rng.uniform(1.0, 2.0, size=4)
    bound = gain_bound_from_forms(coupling, shift, eta, eta.copy(), weight_max=2.0,
                                  slope_max=float(eta.max()), bias_total=0.0)
    m_form = coupling * np.outer(eta, eta)
    assert bound.estimate == "exact"
    assert bound.n_min == symmetric_eigenvalues(m_form + shift)[0]
    assert bound.m_max == symmetric_eigenvalues(m_form)[-1]
    with pytest.raises(ValueError, match="0 < alpha_lo <= alpha_hi"):
        gain_bound_from_forms(coupling, shift, eta, eta - 0.5, weight_max=2.0,
                              slope_max=2.0, bias_total=0.0)


def test_gain_bound_rejects_a_slope_box_of_the_wrong_length():
    coupling = np.eye(3)
    with pytest.raises(ValueError, match=r"^slope box has shapes \(2,\) and \(3,\), "
                                         r"expected \(3,\)$"):
        gain_bound_from_forms(coupling, np.zeros((3, 3)), [1.0, 1.0], [1.0, 1.0, 1.0],
                              weight_max=2.0, slope_max=1.0, bias_total=0.0)


def test_gain_bound_uncertified_yields_nan():
    g = build_graph(2, [(1, 2)])
    cert = _certificate(g, nus=(0.0,), gammas=(-100.0,), betas=(-1.0,),
                        sectors=((1.0, 1.0),))
    bound = cert.bound
    assert not bound.certified
    assert bound.n_min < 0.0
    assert math.isnan(bound.gain) and math.isnan(bound.offset)


def test_benchmark_harness_names_resolve(paper_config, paper_certification):
    """The benchmark's printed-value check reads and rebinds
    ``syncert.certificates.jacobi_eigenvalues`` and solves the margin form of
    ``quadratic_forms(graph, cert)`` itself; its ``pass_ratio`` rests on both
    names and on that solve matching the one the CLI prints."""
    from syncert import certificates

    assert callable(certificates.jacobi_eigenvalues)
    form = quadratic_forms(paper_config.graph, paper_certification).margin_form
    assert float(np.linalg.eigvalsh(form)[0]) == paper_certification.forms.margin_min_eig
