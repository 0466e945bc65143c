"""Graph construction, incidence algebra, per-edge statistics, and the
per-edge positive-definiteness slacks with their eigenvalue oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import complete_graph, erdos_renyi_graph, pd_oracle
from syncert.certificates import MarginReport
from syncert.graphs import (
    assemble_pd_matrix,
    build_graph,
    edge_slacks,
    edge_stats,
    incidence,
)

# the strict-positivity check must never best the eigenvalue oracle by more
# than this floor (soundness margin of the acceptance gate)
PD_EIG_FLOOR = 1e-10


def test_edges_are_canonicalised_and_sorted():
    g = build_graph(4, [(3, 1), (4, 2), (2, 1)])
    assert g.edges == ((1, 2), (1, 3), (2, 4))
    assert g.edge_labels() == ["1-2", "1-3", "2-4"]


def test_rejects_out_of_range_node():
    with pytest.raises(ValueError, match=r"edge \(1, 6\): node out of range 1\.\.5"):
        build_graph(5, [(1, 6)])


def test_rejects_self_loop_and_duplicates():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(3, [(2, 2)])
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 3\)"):
        build_graph(3, [(1, 3), (3, 1)])


def test_rejects_non_integer_nodes():
    with pytest.raises(ValueError, match="integer"):
        build_graph(3, [(1.0, 2)])
    with pytest.raises(ValueError, match="integer"):
        build_graph(3, [(True, 2)])
    with pytest.raises(ValueError, match="node pair"):
        build_graph(3, [(1, 2, 3)])


def test_rejects_bad_node_count():
    with pytest.raises(ValueError, match="node count"):
        build_graph(0, [])


def test_connectivity():
    assert build_graph(3, [(1, 2), (2, 3)]).is_connected
    assert not build_graph(4, [(1, 2), (3, 4)]).is_connected
    assert build_graph(1, []).is_connected


def test_incidence_gives_laplacian():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    d = incidence(g)
    assert d.dtype == np.int64
    assert np.all(d.sum(axis=0) == 0)
    laplacian = d @ d.T
    degrees = np.array([len(nb) for nb in g.neighbours])
    assert np.all(np.diag(laplacian) == degrees)
    adjacency = -(laplacian - np.diag(degrees))
    for i, j in g.edges:
        assert adjacency[i - 1, j - 1] == 1
    # the cached endpoint and degree arrays agree with the edge list
    lower, upper = g.endpoints
    assert [(i + 1, j + 1) for i, j in zip(lower, upper)] == list(g.edges)
    assert np.array_equal(g.degrees, degrees)
    with pytest.raises(ValueError):
        g.degrees[0] = 7  # the shared caches are read-only


@pytest.mark.parametrize(
    "graph, expected",
    [
        # complete graph on 5: every edge shares the other 3 nodes
        (complete_graph(5), [(4, 4, 3, 0)] * 10),
        # path 1-2-3-4: end edges see one exclusive neighbour, middle two
        (build_graph(4, [(1, 2), (2, 3), (3, 4)]),
         [(1, 2, 0, 1), (2, 2, 0, 2), (2, 1, 0, 1)]),
        # star centred on 1: leaves contribute nothing, centre the rest
        (build_graph(5, [(1, k) for k in (2, 3, 4, 5)]),
         [(4, 1, 0, 3)] * 4),
        # triangle: both endpoints share the third node
        (complete_graph(3), [(2, 2, 1, 0)] * 3),
    ],
)
def test_edge_stats_known_graphs(graph, expected):
    stats = edge_stats(graph)
    for k, (deg_i, deg_j, common, exclusive) in enumerate(expected):
        assert stats.endpoint_degrees(k) == (deg_i, deg_j)
        assert stats.common[k] == common
        assert stats.exclusive[k] == exclusive


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=2, max_value=9),
       prob=st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=60, deadline=None)
def test_edge_stats_match_set_enumeration(seed, n, prob):
    rng = np.random.default_rng(seed)
    g = erdos_renyi_graph(n, prob, rng)
    stats = edge_stats(g)
    assert g.stats == stats
    for k, (i, j) in enumerate(g.edges):
        ni = set(g.neighbours[i - 1])
        nj = set(g.neighbours[j - 1])
        assert stats.common[k] == len(ni & nj)
        assert stats.exclusive[k] == len((ni | nj) - {i, j}) - len(ni & nj)


def test_assemble_pd_matrix_matches_definition():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    mu = np.array([0.3, -0.1, 0.5])
    sigma = np.array([1.0, 2.0, 0.5])
    d = incidence(g).astype(float)
    direct = d.T @ np.diag(mu) @ d + np.diag(sigma)
    assert np.allclose(assemble_pd_matrix(g, mu, sigma), direct, atol=0.0)


def test_edge_slacks_formula():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    mu = np.array([0.5, -0.25, 1.0])
    sigma = np.array([2.0, 1.5, 0.25])  # canonical edge order (1,2), (1,3), (2,3)
    slacks = edge_slacks(g, mu, sigma)
    # degree 2 everywhere: slack_k = sigma_k + mu_i + mu_j - |mu_i| - |mu_j|
    expected = [
        2.0 + 0.5 - 0.25 - 0.5 - 0.25,
        1.5 + 0.5 + 1.0 - 0.5 - 1.0,
        0.25 - 0.25 + 1.0 - 0.25 - 1.0,
    ]
    assert np.allclose(slacks, expected, atol=1e-15)
    report = MarginReport.from_weights(g, mu, sigma)
    assert report.slacks.tolist() == slacks.tolist()
    assert report.edge_ok.tolist() == [True, True, False]
    assert report.satisfied is False


def test_margin_report_passes_imply_positive_definite():
    rng = np.random.default_rng(202)
    passes = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        g = erdos_renyi_graph(n, float(rng.uniform(0.3, 0.9)), rng,
                              require_connected=True)
        mu = rng.uniform(-2.0, 2.0, size=n)
        sigma = rng.uniform(0.0, 3.0, size=g.edge_count)
        report = MarginReport.from_weights(g, mu, sigma)
        # scalar reference: the same arithmetic edge by edge, bit for bit
        deg = [len(s) for s in g.neighbours]
        reference = [sigma[k] + mu[i - 1] + mu[j - 1]
                     - (deg[i - 1] - 1.0) * abs(mu[i - 1])
                     - (deg[j - 1] - 1.0) * abs(mu[j - 1])
                     for k, (i, j) in enumerate(g.edges)]
        assert report.slacks.tolist() == reference
        if report.satisfied:
            passes += 1
            assert pd_oracle(g, mu, sigma) > PD_EIG_FLOOR
    assert passes > 0  # the scan must actually exercise the passing branch


def test_margin_report_zero_slack_fails():
    # mu = 0, sigma = 0 gives slack exactly 0, which must not count as a pass
    g = build_graph(2, [(1, 2)])
    report = MarginReport.from_weights(g, np.zeros(2), np.zeros(1))
    assert report.slacks.tolist() == [0.0]
    assert not report.edge_ok[0]
    assert report.satisfied is False


def test_pd_oracle_matches_lapack():
    rng = np.random.default_rng(5)
    g = complete_graph(5)
    mu = rng.uniform(-1.0, 2.0, size=5)
    sigma = rng.uniform(0.0, 3.0, size=10)
    ours = pd_oracle(g, mu, sigma)
    ref = float(np.linalg.eigvalsh(assemble_pd_matrix(g, mu, sigma))[0])
    assert np.isclose(ours, ref, rtol=1e-10, atol=1e-12)


def test_pd_oracle_rejects_edgeless_graph():
    with pytest.raises(ValueError, match="no edges"):
        pd_oracle(build_graph(2, []), np.ones(2), np.ones(0))


def test_erdos_renyi_reproducible_and_connected():
    g1 = erdos_renyi_graph(6, 0.5, np.random.default_rng(9), require_connected=True)
    g2 = erdos_renyi_graph(6, 0.5, np.random.default_rng(9), require_connected=True)
    assert g1 == g2
    assert g1.is_connected
    with pytest.raises(RuntimeError, match="no connected sample"):
        erdos_renyi_graph(3, 0.0, np.random.default_rng(0),
                          require_connected=True, max_tries=5)
