import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    INF,
    average_local_clustering,
    bfs_lengths,
    distance_stats_of,
    er_baseline_oracle,
    floyd_warshall,
    random_directed_network,
    sample_gnm_adjacency,
    triangle_count_trace,
    triangle_ratio,
)
from wsdepnet import topology
from wsdepnet.errors import DegenerateAnalysisError
from wsdepnet.matching import MatcherKind
from wsdepnet.network import network_from_edges
from wsdepnet.topology import (
    components,
    degree_correlation,
    degree_stats,
    distances,
    er_baseline,
    giant_subnetwork,
    transitivity,
    weak_components_of,
)


def _net(num_nodes, edges):
    return network_from_edges(num_nodes, edges, MatcherKind.SYNTACTIC_EQUAL)


# -- distances ----------------------------------------------------------------


def test_directed_path_distances():
    n = _net(3, [(0, 1), (1, 2)])
    d = distances(n, "directed")
    assert d.average == pytest.approx(4 / 3)
    assert d.diameter == 2
    assert d.finite_pairs == 3
    u = distances(n, "undirected")
    assert u.average == pytest.approx(4 / 3)
    assert u.diameter == 2
    assert u.finite_pairs == 6


def test_star_distances():
    n = _net(4, [(0, 1), (0, 2), (0, 3)])
    d = distances(n, "directed")
    assert d.average == pytest.approx(1.0)
    assert d.finite_pairs == 3
    assert d.diameter == 1
    u = distances(n, "undirected")
    assert u.average == pytest.approx(1.5)
    assert u.diameter == 2


def test_single_node_distances():
    n = _net(1, [])
    d = distances(n, "directed")
    assert d.average is None
    assert d.diameter == 0


def test_empty_network_distances_error():
    with pytest.raises(DegenerateAnalysisError, match="empty"):
        distances(_net(0, []), "directed")


def test_undirected_mode_requires_connectivity():
    n = _net(4, [(0, 1), (2, 3)])
    with pytest.raises(DegenerateAnalysisError, match="no path 0 -> 2"):
        distances(n, "undirected")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        distances(_net(2, [(0, 1)]), "both")


@st.composite
def _directed_nets(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_directed_network(np.random.default_rng(seed), max_n=25)


@given(_directed_nets())
@settings(max_examples=40)
def test_bfs_agrees_with_floyd_warshall(n):
    adj = n.successors
    oracle = floyd_warshall(adj)
    for src in range(n.node_count):
        lengths = bfs_lengths(adj, src)
        for dst in range(n.node_count):
            expected = oracle[src][dst]
            assert lengths[dst] == (-1 if expected == INF else int(expected))


@st.composite
def _sparse_nets(draw):
    """Directed graphs with unreachable pairs and trailing isolated nodes."""
    linked = draw(st.integers(1, 16))
    isolated = draw(st.integers(0, 3))
    node = st.integers(0, linked - 1)
    edges = draw(st.sets(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=3 * linked))
    return _net(linked + isolated, sorted(edges))


@given(_sparse_nets())
@settings(max_examples=150)
def test_distance_kernel_matches_floyd_warshall(n):
    # the kernel pulls over predecessor lists; the oracle walks successor lists
    for adj, pred in ((n.successors, n.predecessors), (n.neighbors, n.neighbors)):
        oracle = floyd_warshall(adj)
        pairs = [(s, t) for s in range(len(adj)) for t in range(len(adj)) if s != t]
        finite = [int(oracle[s][t]) for s, t in pairs if oracle[s][t] != INF]
        average, diameter, finite_pairs = distance_stats_of(pred, require_all_pairs=False)
        assert finite_pairs == len(finite)
        assert diameter == max(finite, default=0)
        if finite:
            assert average == sum(finite) / len(finite)
        else:
            assert math.isnan(average)
        unreachable = [(s, t) for s, t in pairs if oracle[s][t] == INF]
        if unreachable:
            s, t = unreachable[0]
            with pytest.raises(DegenerateAnalysisError, match=f"no path {s} -> {t}$"):
                distance_stats_of(pred, require_all_pairs=True)
        else:
            assert distance_stats_of(pred, require_all_pairs=True)[1:] == (diameter, finite_pairs)


@st.composite
def _word_nets(draw):
    """Sparse directed graphs of 1 to 140 nodes, across uint64 word boundaries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = int(rng.integers(1, 141))
    pairs = rng.integers(0, size, size=(int(rng.integers(0, 3 * size + 1)), 2))
    return _net(size, sorted({(int(u), int(v)) for u, v in pairs if u != v}))


@given(st.one_of(_sparse_nets(), _word_nets()))
@settings(max_examples=80)
def test_kernel_equals_python_int_oracles(n):
    # the numpy planes against the Python-int kernel, bit for bit
    for mode, pred in (("directed", n.predecessors), ("undirected", n.neighbors)):
        try:
            average, diameter, finite_pairs = distance_stats_of(pred, require_all_pairs=(mode == "undirected"))
        except DegenerateAnalysisError as err:
            with pytest.raises(DegenerateAnalysisError, match=f"^{re.escape(str(err))}$"):
                distances(n, mode)
            continue
        got = distances(n, mode)
        assert (got.diameter, got.finite_pairs) == (diameter, finite_pairs)
        assert got.average == (average if finite_pairs else None)
    assert transitivity(n) == triangle_ratio(n.neighbors)


@given(_directed_nets())
@settings(max_examples=40)
def test_pairwise_dominance_undirected_le_directed(n):
    directed = n.successors
    undirected = n.neighbors
    for src in range(n.node_count):
        d_dir = bfs_lengths(directed, src)
        d_und = bfs_lengths(undirected, src)
        for dst in range(n.node_count):
            if d_dir[dst] >= 0:
                assert 0 <= d_und[dst] <= d_dir[dst]


# -- transitivity -------------------------------------------------------------


def test_triangle_transitivity_one():
    assert transitivity(_net(3, [(0, 1), (1, 2), (2, 0)])) == pytest.approx(1.0)


def test_path_transitivity_zero():
    assert transitivity(_net(3, [(0, 1), (1, 2)])) == 0.0


def test_no_triples_transitivity_zero():
    assert transitivity(_net(2, [(0, 1)])) == 0.0


@given(_directed_nets())
@settings(max_examples=40)
def test_triangles_agree_with_trace_oracle(n):
    undirected = n.neighbors
    triples = sum(len(neigh) * (len(neigh) - 1) // 2 for neigh in undirected)
    expected = 3 * triangle_count_trace(undirected) / triples if triples else 0.0
    assert transitivity(n) == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= transitivity(n) <= 1.0


def test_average_local_clustering_square_with_diagonal():
    # square 0-1-2-3 plus diagonal 0-2: local c = (1, 1/3)... by hand:
    # node 0: neighbors {1,2,3}, edges among them: (1,2),(2,3) -> 2/3
    # node 1: neighbors {0,2}, edge (0,2) -> 1
    # node 2: symmetric to 0 -> 2/3; node 3: neighbors {0,2}, edge -> 1
    adj = [[1, 2, 3], [0, 2], [0, 1, 3], [0, 2]]
    assert average_local_clustering(adj) == pytest.approx((2 / 3 + 1 + 2 / 3 + 1) / 4)


# -- degrees ------------------------------------------------------------------


def test_degree_stats_single_edge():
    stats = degree_stats(_net(2, [(0, 1)]))
    assert stats.in_degrees == [0, 1]
    assert stats.out_degrees == [1, 0]
    assert stats.total_degrees == [1, 1]
    assert stats.avg_in == stats.avg_out == pytest.approx(0.5)
    assert stats.avg_total == pytest.approx(1.0)
    assert stats.max_total == 1


def test_degree_averages_equal_link_ratio(k2_collection):
    from wsdepnet.network import build_network

    n = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    stats = degree_stats(n)
    assert stats.avg_in == pytest.approx(n.link_count / n.node_count)
    assert stats.avg_out == pytest.approx(n.link_count / n.node_count)
    assert stats.avg_total == pytest.approx(2 * n.link_count / n.node_count)


def test_star_degree_correlation_is_minus_one():
    n = _net(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert degree_correlation(n) == pytest.approx(-1.0, abs=1e-9)


def test_cycle_degree_correlation_degenerate():
    n = _net(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(DegenerateAnalysisError, match="degree"):
        degree_correlation(n)


def test_no_links_degree_correlation_degenerate():
    with pytest.raises(DegenerateAnalysisError):
        degree_correlation(_net(3, []))


@given(_directed_nets())
@settings(max_examples=30)
def test_degree_correlation_bounded(n):
    try:
        r = degree_correlation(n)
    except DegenerateAnalysisError:
        return
    assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12


def test_directed_correlation_modes_exist():
    n = _net(4, [(0, 1), (0, 2), (3, 0), (1, 2)])
    for mode in ("total", "out-in", "in-out"):
        value = degree_correlation(n, mode=mode)
        assert -1.0 <= value <= 1.0


# -- components ---------------------------------------------------------------


def test_two_disjoint_edges_two_components():
    n = _net(4, [(0, 1), (2, 3)])
    decomposition = components(n)
    assert len(decomposition.components) == 2
    assert decomposition.sizes == [(2, 1), (2, 1)]
    assert decomposition.giant_index == 0


def test_k2_is_one_component(k2_collection):
    from wsdepnet.network import build_network

    n = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    # only c,d,e,f are connected through op2; a and b link into c,d,e too
    assert len(components(n).components) == 1


def test_giant_selection_five_over_three():
    edges5 = [(0, 1), (1, 2), (2, 3), (3, 4)]
    edges3 = [(5, 6), (6, 7)]
    n = _net(8, edges5 + edges3)
    giant, id_map = giant_subnetwork(n)
    assert giant.node_count == 5
    assert giant.link_count == 4
    assert sorted(id_map) == [0, 1, 2, 3, 4]


def test_giant_identity_on_connected():
    n = _net(3, [(0, 1), (1, 2)])
    giant, id_map = giant_subnetwork(n)
    assert giant.node_count == 3
    assert id_map == {0: 0, 1: 1, 2: 2}
    assert sorted(giant.links) == sorted(n.links)


def test_giant_of_empty_network_errors():
    with pytest.raises(DegenerateAnalysisError):
        giant_subnetwork(_net(0, []))


def test_components_ordering_breaks_size_ties_by_smallest_id():
    n = _net(4, [(2, 3), (0, 1)])
    decomposition = components(n)
    assert decomposition.components[0][0] == 0
    assert decomposition.components[1][0] == 2


def test_singletons_are_components():
    n = _net(3, [(0, 1)])
    decomposition = components(n)
    assert [len(c) for c in decomposition.components] == [2, 1]
    assert decomposition.sizes[1] == (1, 0)


# -- ER baseline --------------------------------------------------------------


def test_gnm_sample_shape():
    rng = np.random.default_rng(7)
    adj = sample_gnm_adjacency(12, 20, rng)
    edges = {(min(u, v), max(u, v)) for u in range(12) for v in adj[u]}
    assert len(edges) == 20
    assert all(u != v for u, v in edges)


def test_gnm_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        sample_gnm_adjacency(4, 7, np.random.default_rng(0))


def test_er_complete_graph_metrics():
    er = er_baseline(10, 45, samples=3, seed=0)
    assert er.transitivity_mean == pytest.approx(1.0)
    assert er.transitivity_sd == 0.0
    assert er.avg_distance_mean == pytest.approx(1.0)
    assert er.avg_distance_sd == 0.0


def test_er_determinism():
    a = er_baseline(30, 60, samples=5, seed=42)
    b = er_baseline(30, 60, samples=5, seed=42)
    assert a == b
    c = er_baseline(30, 60, samples=5, seed=43)
    assert c != a


def test_er_analytic_values_269_633():
    er = er_baseline(269, 633, samples=1, seed=0)
    k = 2 * 633 / 269
    assert er.analytic_transitivity == pytest.approx(k / 269)
    assert er.analytic_transitivity == pytest.approx(0.0175, abs=5e-4)
    assert er.analytic_distance == pytest.approx(math.log(269) / math.log(k))


def test_er_single_sample_sd_zero():
    er = er_baseline(20, 30, samples=1, seed=1)
    assert er.avg_distance_sd == 0.0
    assert er.transitivity_sd == 0.0


def _giant_size_ties(nodes, links, samples, seed):
    """Samples of er_baseline(nodes, links, samples, seed) whose two largest components tie."""
    ties = 0
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        sizes = sorted(map(len, weak_components_of(sample_gnm_adjacency(nodes, links, rng))), reverse=True)
        ties += len(sizes) > 1 and sizes[0] == sizes[1]
    return ties


@pytest.mark.parametrize(
    "nodes, links, samples, seed",
    [
        (12, 8, 20, 1),  # mean degree 4/3: disconnected, the giant tied in 5 samples
        (30, 20, 20, 5),
        (64, 100, 6, 2),  # one word of sources
        (65, 100, 6, 2),  # one source past the first word
        (269, 633, 30, 0),  # more than one batch, as the next test checks
    ],
)
def test_er_baseline_equals_per_sample_oracle(nodes, links, samples, seed):
    assert er_baseline(nodes, links, samples, seed) == er_baseline_oracle(nodes, links, samples, seed)


def test_er_oracle_cases_hold_ties_and_several_batches():
    assert _giant_size_ties(12, 8, 20, 1) == 5
    assert _giant_size_ties(30, 20, 20, 5) == 2
    assert topology._PLANE_WORDS // (269 * 5) < 30


@pytest.mark.parametrize("per_batch", [1, 2, 3])
def test_er_batches_join_into_one_run(monkeypatch, per_batch):
    whole = er_baseline(65, 100, 7, 4)
    monkeypatch.setattr(topology, "_PLANE_WORDS", per_batch * 65 * 2)  # n = 65 takes 2 words
    assert er_baseline(65, 100, 7, 4) == whole == er_baseline_oracle(65, 100, 7, 4)


def test_er_rejects_bad_arguments():
    with pytest.raises(ValueError):
        er_baseline(10, 100, samples=1, seed=0)
    with pytest.raises(ValueError):
        er_baseline(10, 5, samples=0, seed=0)


# -- low-level helpers --------------------------------------------------------


def test_bfs_lengths_unreachable_is_minus_one():
    adj = [[1], [], [0]]
    assert bfs_lengths(adj, 0) == [0, 1, -1]
    assert bfs_lengths(adj, 2) == [1, 2, 0]


def test_weak_components_of():
    adj = [[1], [0], []]
    comps = weak_components_of(adj)
    assert sorted(map(tuple, comps)) == [(0, 1), (2,)]


def test_triangle_ratio_matches_oracle_small():
    adj = [[1, 2], [0, 2], [0, 1, 3], [2]]
    triples = sum(len(x) * (len(x) - 1) // 2 for x in adj)
    assert triangle_ratio(adj) == pytest.approx(3 * 1 / triples)
