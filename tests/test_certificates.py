"""Edge certificates, synchronisation margins, quadratic forms and the gain
bound, each checked against independent in-test assemblies."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncert.certificates import (
    EdgeCertificate,
    NetworkCertificate,
    SectorBound,
    certificate_from_dict,
    certificate_to_dict,
    dissipation_matrices,
    gain_bound,
    quadratic_forms,
    sync_margins,
)
from syncert.graphs import (
    build_graph,
    complete_graph,
    edge_stats,
    erdos_renyi_graph,
    incidence,
)

# matrix routes recomputed in-test must agree to this tolerance
FORM_ATOL = 1e-12
EIG_RTOL = 1e-9


def _certificate(graph, nus, gammas, betas, sectors):
    return NetworkCertificate(
        graph=graph,
        sectors=tuple(SectorBound(lo, hi) for lo, hi in sectors),
        certificates=tuple(EdgeCertificate(nu=n, gamma=g, beta=b)
                           for n, g, b in zip(nus, gammas, betas)),
    )


def test_sector_bound_validation():
    assert SectorBound(2.0, 2.0).is_point
    assert SectorBound(1.0, 3.0).midpoint == 2.0
    for lo, hi in [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, math.inf)]:
        with pytest.raises(ValueError):
            SectorBound(lo, hi)


def test_edge_certificate_validation():
    EdgeCertificate(nu=0.0, gamma=1.0, beta=0.0)  # zero nu is admissible
    with pytest.raises(ValueError):
        EdgeCertificate(nu=0.1, gamma=0.0, beta=0.0)
    with pytest.raises(ValueError):
        EdgeCertificate(nu=math.nan, gamma=0.0, beta=0.0)
    with pytest.raises(ValueError, match="finite"):
        EdgeCertificate(nu=-math.inf, gamma=0.0, beta=0.0)
    with pytest.raises(ValueError):
        EdgeCertificate(nu=-1.0, gamma=math.inf, beta=0.0)


def test_network_certificate_aggregates():
    g = build_graph(3, [(1, 2), (2, 3)])
    cert = _certificate(g, nus=(-0.02, -0.03), gammas=(0.5, -0.5),
                        betas=(-1.0, -2.0), sectors=((1.0, 2.0), (1.0, 1.0)))
    assert np.allclose(cert.nu_node, [-0.02, -0.05, -0.03], atol=0.0)
    assert cert.bias_total == -3.0
    # positive raw gamma is clamped in the aggregate view, kept in the raw one
    assert cert.gamma.tolist() == [0.0, -0.5]
    assert cert.gamma_raw.tolist() == [0.5, -0.5]
    with pytest.raises(ValueError, match="sectors"):
        _certificate(g, nus=(-0.02, -0.03), gammas=(0.0, 0.0),
                     betas=(0.0, 0.0), sectors=((1.0, 2.0),))


def test_single_edge_margin_formula():
    # isolated homogeneous pair with zero nu: slack = 2/alpha_hi + gamma/alpha_lo^2
    g = build_graph(2, [(1, 2)])
    cert = _certificate(g, nus=(0.0,), gammas=(-0.8,), betas=(0.0,),
                        sectors=((2.0, 4.0),))
    report = sync_margins(edge_stats(g), cert.sectors, cert.certificates)
    assert np.isclose(report.slacks[0], 2.0 / 4.0 + (-0.8) / 4.0, atol=1e-15)
    assert report.satisfied
    # two disjoint copies keep every slack but no longer synchronise
    g2 = build_graph(4, [(1, 2), (3, 4)])
    report2 = sync_margins(edge_stats(g2), cert.sectors * 2, cert.certificates * 2)
    assert np.array_equal(report2.slacks, np.repeat(report.slacks, 2))
    assert report2.edge_ok.all()
    assert not report2.satisfied


def test_path_margins_hand_computed():
    g = build_graph(3, [(1, 2), (2, 3)])
    cert = _certificate(g, nus=(-0.02, -0.03), gammas=(-1.0, -0.5),
                        betas=(0.0, 0.0), sectors=((2.0, 3.0), (1.0, 4.0)))
    report = sync_margins(edge_stats(g), cert.sectors, cert.certificates)
    # edge (1,2): degrees 1,2; no common, one exclusive neighbour
    slack_12 = (2.0 / 3.0 - (1 + 4.0) * 1 / (2 * 4.0) + (-1.0) / 4.0
                - 1 * 0.02 - 2 * 0.05)
    # edge (2,3): degrees 2,1
    slack_23 = (2.0 / 4.0 - (1 + 1.0) * 1 / (2 * 1.0) + (-0.5) / 1.0
                - 2 * 0.05 - 1 * 0.03)
    assert np.allclose(report.slacks, [slack_12, slack_23], atol=1e-15)
    assert not report.satisfied
    assert report.min_slack == pytest.approx(slack_23)


def test_margin_rows_use_edge_labels():
    g = build_graph(3, [(1, 2), (2, 3)])
    cert = _certificate(g, nus=(0.0, 0.0), gammas=(0.0, 0.0), betas=(0.0, 0.0),
                        sectors=((1.0, 1.0), (1.0, 1.0)))
    rows = sync_margins(edge_stats(g), cert.sectors, cert.certificates).rows()
    assert [r[0] for r in rows] == ["1-2", "2-3"]


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
    report = sync_margins(edge_stats(g), cert.sectors, cert.certificates)
    forms = quadratic_forms(g, cert)
    assert forms.margin_min_eig >= report.min_slack - 1e-10


def test_quadratic_forms_match_direct_assembly():
    rng = np.random.default_rng(31)
    g = complete_graph(4)
    cert = _random_certificate(rng, g)
    stats = edge_stats(g)
    d = incidence(g).astype(float)

    common = np.array(stats.common, dtype=float)
    exclusive_half = 0.5 * np.diag(np.array(stats.exclusive, dtype=float))
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


def test_dissipation_matrices_structure():
    g = build_graph(3, [(1, 2), (2, 3)])
    cert = _certificate(g, nus=(-0.1, -0.2), gammas=(-1.0, 2.0),
                        betas=(-0.5, -0.5), sectors=((1.0, 1.0), (1.0, 1.0)))
    mats = dissipation_matrices(g, cert)
    # per-node and per-edge vectors, no p x p or n x n arrays
    assert np.allclose(mats.nu_node, [-0.1, -0.3, -0.2], rtol=1e-15, atol=0.0)
    assert mats.bias_total == -1.0
    # gamma is clamped; each end of the path sees one exclusive neighbour
    assert np.array_equal(mats.gamma, [-1.0, 0.0])
    assert np.array_equal(mats.common_weight, [0.0, 0.0])
    assert np.array_equal(mats.exclusive_weight, [0.5, 0.5])
    # pair weight is 2 plus the common-neighbour count (zero on a path)
    assert np.array_equal(mats.pair_weight, [2.0, 2.0])
    assert np.array_equal(mats.output_quadratic, [-1.5, -0.5])
    with pytest.raises(ValueError, match="different graph"):
        dissipation_matrices(complete_graph(3), cert)


def test_gain_bound_point_sectors_is_exact(paper_config, paper_certification,
                                           paper_expected):
    bound = gain_bound(paper_config.graph, paper_certification)
    assert bound.certified
    assert bound.estimate == "exact"
    assert bound.samples == 1
    assert bound.n_min == pytest.approx(paper_expected["n_min"], rel=1e-12)
    assert bound.m_max == pytest.approx(paper_expected["m_max"], rel=1e-12)
    assert bound.gain == pytest.approx(paper_expected["gain"], rel=1e-12)
    assert bound.offset == pytest.approx(paper_expected["offset"], rel=1e-12)
    # gain and offset recomputed from their defining expressions
    gain = math.sqrt(0.5 + (4 * bound.slope_max**2 * bound.weight_max**2
                            + 8 * bound.m_max**2) / bound.n_min**2)
    offset = math.sqrt(2 * abs(bound.bias_total) / bound.n_min)
    assert bound.gain == pytest.approx(gain, rel=1e-15)
    assert bound.offset == pytest.approx(offset, rel=1e-15)


def test_gain_bound_box_sectors_scan_vertices():
    g = build_graph(2, [(1, 2)])
    cert = _certificate(g, nus=(0.0,), gammas=(-0.5,), betas=(-1.0,),
                        sectors=((1.0, 2.0),))
    bound = gain_bound(g, cert)
    assert bound.estimate == "sampled"
    assert bound.samples == 3  # two vertices plus the midpoint
    assert bound.certified
    # single edge: coupling form is (2 + 0)/alpha_hi = 1, so
    # N(eta) = eta^2 + gamma (worst at eta = 1) and M(eta) = eta^2
    assert bound.n_min == pytest.approx(1.0 - 0.5, rel=1e-15)
    assert bound.m_max == pytest.approx(4.0, rel=1e-15)


def test_gain_bound_rejects_sample_outside_box():
    g = build_graph(2, [(1, 2)])
    cert = _certificate(g, nus=(0.0,), gammas=(0.0,), betas=(0.0,),
                        sectors=((1.0, 2.0),))
    with pytest.raises(ValueError, match="1-2"):
        gain_bound(g, cert, slope_samples=[np.array([5.0])])


def test_gain_bound_uncertified_yields_nan():
    g = build_graph(2, [(1, 2)])
    cert = _certificate(g, nus=(0.0,), gammas=(-100.0,), betas=(-1.0,),
                        sectors=((1.0, 1.0),))
    bound = gain_bound(g, cert)
    assert not bound.certified
    assert bound.n_min < 0.0
    assert math.isnan(bound.gain) and math.isnan(bound.offset)


def test_certificate_json_round_trip():
    g = build_graph(3, [(1, 2), (2, 3)])
    cert = _certificate(g, nus=(-0.01, -0.02), gammas=(1.5, -2.0),
                        betas=(-0.25, 0.0), sectors=((1.0, 2.0), (3.0, 3.0)))
    payload = certificate_to_dict(cert)
    rebuilt = certificate_from_dict(payload)
    assert rebuilt.graph == g
    assert rebuilt.gamma_raw.tolist() == cert.gamma_raw.tolist()  # raw survives
    assert rebuilt.nu.tolist() == cert.nu.tolist()
    assert rebuilt.beta.tolist() == cert.beta.tolist()
    assert rebuilt.alpha_lo.tolist() == cert.alpha_lo.tolist()
    assert rebuilt.alpha_hi.tolist() == cert.alpha_hi.tolist()


def test_certificate_from_dict_reorders_entries_and_pads_nodes():
    payload = {"edges": [
        {"edge": [3, 2], "nu": -0.5, "gamma": 0.0, "beta": 0.0,
         "alpha_lo": 1.0, "alpha_hi": 1.0},
        {"edge": [1, 2], "nu": -0.25, "gamma": 0.0, "beta": 0.0,
         "alpha_lo": 2.0, "alpha_hi": 2.0},
    ]}
    cert = certificate_from_dict(payload, n=4)
    assert cert.graph.n == 4
    assert cert.graph.edges == ((1, 2), (2, 3))
    assert cert.nu.tolist() == [-0.25, -0.5]
    with pytest.raises(ValueError, match="edges"):
        certificate_from_dict({"edges": []})
