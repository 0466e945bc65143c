"""Graph construction, the endpoint constructions against the incidence
algebra, per-edge statistics, and the per-edge positive-definiteness slacks
with their eigenvalue oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import complete_graph, edge_order_sums, erdos_renyi_graph, incidence, pd_oracle
from syncert.certificates import POSITIVITY_TOL
from syncert.graphs import (
    _SUM_BLOCK,
    assemble_pd_matrix,
    build_graph,
    edge_slacks,
    node_sums,
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
    with pytest.raises(ValueError, match="edge 'ab' is not a node pair"):
        build_graph(3, ["ab"])
    for edges in (5, None):
        with pytest.raises(ValueError, match="expected a list, got"):
            build_graph(3, edges)


def test_rejects_bad_node_count():
    with pytest.raises(ValueError, match="node count"):
        build_graph(0, [])


def test_connectivity():
    assert build_graph(3, [(1, 2), (2, 3)]).is_connected
    assert not build_graph(4, [(1, 2), (3, 4)]).is_connected
    assert build_graph(1, []).is_connected


def test_unit_node_weights_give_the_edge_laplacian():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    d = incidence(g)
    # D D.T is the graph Laplacian and D.T D the form at unit node weights
    degrees = np.array([len(nb) for nb in g.neighbours])
    adjacency = np.zeros((g.n, g.n))
    for i, j in g.edges:
        adjacency[i - 1, j - 1] = adjacency[j - 1, i - 1] = 1.0
    assert np.array_equal(d @ d.T, np.diag(degrees) - adjacency)
    assert np.array_equal(assemble_pd_matrix(g, np.ones(g.n), np.zeros(g.edge_count)),
                          d.T @ d)
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
    for k, (deg_i, deg_j, common, exclusive) in enumerate(expected):
        i, j = graph.edges[k]
        assert (graph.degrees[i - 1], graph.degrees[j - 1]) == (deg_i, deg_j)
        assert graph.common[k] == common
        assert graph.exclusive[k] == exclusive


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=2, max_value=9),
       prob=st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=60, deadline=None)
def test_edge_stats_match_set_enumeration(seed, n, prob):
    rng = np.random.default_rng(seed)
    g = erdos_renyi_graph(n, prob, rng)
    # computed once per graph, as read-only exact integers
    assert g.common is g.common and g.exclusive is g.exclusive
    for counts in (g.common, g.exclusive):
        assert counts.dtype == np.int64 and not counts.flags.writeable
    for k, (i, j) in enumerate(g.edges):
        ni = set(g.neighbours[i - 1])
        nj = set(g.neighbours[j - 1])
        assert g.common[k] == len(ni & nj)
        assert g.exclusive[k] == len((ni | nj) - {i, j}) - len(ni & nj)


@st.composite
def _graph_and_edge_values(draw):
    """A random simple graph and finite edge values with up to two leading
    axes."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    g = build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    lead = draw(st.lists(st.integers(0, 3), max_size=2))
    values = draw(arrays(np.float64, (*lead, g.edge_count),
                         elements=st.floats(-1e300, 1e300, allow_subnormal=True)))
    return g, values


# K5 edge values that fill two blocks of the sum and three rows of a third
_K5 = complete_graph(5)
_K5_ROWS = np.random.default_rng(5).standard_normal(
    (2 * (_SUM_BLOCK // _K5.edge_count) + 3, _K5.edge_count))


@example(case=(_K5, _K5_ROWS), signed=True)
@given(case=_graph_and_edge_values(), signed=st.booleans())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_node_sums_add_in_edge_order_bit_for_bit(case, signed):
    g, values = case
    sums = node_sums(g, values, signed=signed)
    assert sums.shape == values.shape[:-1] + (g.n,)
    assert sums.tobytes() == edge_order_sums(g, values, signed=signed).tobytes()
    if signed and values.ndim == 1:
        # the signed sum is the incidence product, here summed in edge order
        assert np.allclose(sums, incidence(g) @ values, rtol=1e-12,
                           atol=1e-12 * np.abs(values).sum())


# +-0.0 or a magnitude from 1e-3 to 1e3 of either sign
_NODE_WEIGHTS = st.sampled_from([0.0, -0.0]) | st.builds(
    lambda sign, scale: sign * 10.0 ** scale, st.sampled_from([1.0, -1.0]),
    st.floats(-3.0, 3.0))


@st.composite
def _weighted_graph(draw):
    """A random simple graph whose last 0-3 nodes touch no edge, node
    weights from ``_NODE_WEIGHTS`` and edge weights with either zero."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    g = build_graph(n + draw(st.integers(0, 3)),
                    draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    mu = np.array(draw(st.lists(_NODE_WEIGHTS, min_size=g.n, max_size=g.n)))
    sigma = draw(arrays(np.float64, g.edge_count,
                        elements=st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)))
    return g, mu, sigma


# a diagonal sum of -0.0 terms is +0.0 in the product
@example(case=(build_graph(2, [(1, 2)]), np.array([-0.0, -0.0]), np.array([-0.0])))
@given(case=_weighted_graph())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_assemble_pd_matrix_matches_definition(case):
    g, mu, sigma = case
    d = incidence(g)
    direct = d.T @ (mu[:, None] * d) + np.diag(sigma)
    # bit for bit, signed zeros included
    assert np.array_equal(assemble_pd_matrix(g, mu, sigma).view(np.int64),
                          direct.view(np.int64))
    with pytest.raises(ValueError, match="one weighting only"):
        assemble_pd_matrix(g, np.stack([mu, mu]), sigma)


@given(case=_weighted_graph(), data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_stacked_assembly_rows_are_the_one_weighting_builds(case, data):
    g, mu, sigma = case
    # a second and a third weighting, signed zeros included, on a 3 x 1 stack
    others = data.draw(arrays(np.float64, (2, g.edge_count),
                              elements=st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)))
    stack = np.concatenate([sigma[None], others])[:, None]
    forms = assemble_pd_matrix(g, mu, stack)
    assert forms.shape == (3, 1, g.edge_count, g.edge_count)
    for form, row in zip(forms[:, 0], stack[:, 0]):
        assert np.array_equal(form.view(np.int64),
                              assemble_pd_matrix(g, mu, row).view(np.int64))


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
    # the third slack is negative, so that edge fails the strict verdict
    assert (slacks > POSITIVITY_TOL).tolist() == [True, True, False]
    # leading axes broadcast: one row of slacks per (node, edge) weighting
    rows = edge_slacks(g, np.stack([mu, -mu])[:, None], np.stack([sigma, 2 * sigma]))
    assert rows.shape == (2, 2, 3)
    for a, m in enumerate((mu, -mu)):
        for b, s in enumerate((sigma, 2 * sigma)):
            assert rows[a, b].tolist() == edge_slacks(g, m, s).tolist()


def test_edge_slacks_reject_weights_of_the_wrong_shape():
    g = build_graph(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match=r"^node weights have shape \(2,\), expected \(3,\)$"):
        edge_slacks(g, np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match=r"^edge weights have shape \(2, 3\), "
                                         r"expected \(2,\)$"):
        edge_slacks(g, np.ones(3), np.ones((2, 3)))


def test_edge_slacks_passing_imply_positive_definite():
    rng = np.random.default_rng(202)
    passes = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        g = erdos_renyi_graph(n, float(rng.uniform(0.3, 0.9)), rng,
                              require_connected=True)
        mu = rng.uniform(-2.0, 2.0, size=n)
        sigma = rng.uniform(0.0, 3.0, size=g.edge_count)
        slacks = edge_slacks(g, mu, sigma)
        # scalar reference: the same arithmetic edge by edge, bit for bit
        deg = [len(s) for s in g.neighbours]
        reference = [sigma[k] + mu[i - 1] + mu[j - 1]
                     - (deg[i - 1] - 1.0) * abs(mu[i - 1])
                     - (deg[j - 1] - 1.0) * abs(mu[j - 1])
                     for k, (i, j) in enumerate(g.edges)]
        assert slacks.tolist() == reference
        # connected, so the verdict is every slack beyond POSITIVITY_TOL
        if np.all(slacks > POSITIVITY_TOL):
            passes += 1
            assert pd_oracle(g, mu, sigma) > PD_EIG_FLOOR
    assert passes > 0  # the scan must actually exercise the passing branch


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
