import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    block_agreement,
    heavy_tailed_network,
    modularity_definition,
    planted_two_block,
    random_connected_undirected_network,
    walktrap_delta_sigma,
    walktrap_delta_sigma_exact,
    walk_gram_oracle,
    walktrap_heap_reference,
)
from wsdepnet import community
from wsdepnet.community import (
    dendrogram_csv,
    partition_csv,
    walktrap,
)
from wsdepnet.errors import DegenerateAnalysisError
from wsdepnet.matching import MatcherKind
from wsdepnet.network import network_from_edges


def _net(num_nodes, edges, labels=None):
    return network_from_edges(num_nodes, edges, MatcherKind.SYNTACTIC_EQUAL, labels=labels)


BRIDGE = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]


def _edges(net):
    return sorted({(min(u, v), max(u, v)) for u, v in net.links})


# -- modularity: Walktrap's cut values against the definition -----------------


def test_single_community_modularity_zero():
    result = walktrap(_net(6, BRIDGE), t=4)
    assert set(result.assignment_at_cut(5).values()) == {0}
    assert result.cut_modularities[-1] == 0.0


def test_bridge_split_modularity_value():
    n = _net(6, BRIDGE)
    result = walktrap(n, t=4)
    split = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    assert result.assignment_at_cut(4) == split
    # m=7, each side e_c=3, d_c=7
    assert result.cut_modularities[4] == pytest.approx(2 * (3 / 7 - (7 / 14) ** 2), abs=1e-12)
    assert result.cut_modularities[4] == pytest.approx(modularity_definition(_edges(n), split), abs=1e-12)
    assert result.cut_modularities[4] == pytest.approx(0.357143, abs=1e-6)


def test_modularity_uses_undirected_simple_projection():
    # reciprocal links collapse to one undirected edge
    simple = walktrap(_net(6, BRIDGE), t=4)
    reciprocal = walktrap(_net(6, BRIDGE + [(v, u) for u, v in BRIDGE[:3]]), t=4)
    assert reciprocal.merges == simple.merges
    assert reciprocal.cut_modularities == simple.cut_modularities
    assert reciprocal.partition == simple.partition


@st.composite
def _connected_nets(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_connected_undirected_network(np.random.default_rng(seed), max_n=20)


@given(net=_connected_nets(), seed=st.integers(0, 1000))
@settings(max_examples=40)
def test_modularity_matches_definition_on_random_partitions(net, seed):
    # the partition is a dendrogram cut drawn at random, of a walk of 1 to 8 steps
    rng = np.random.default_rng(seed)
    result = walktrap(net, t=int(rng.integers(1, 9)))
    cut = int(rng.integers(0, net.node_count))
    assert result.cut_modularities[cut] == pytest.approx(
        modularity_definition(_edges(net), result.assignment_at_cut(cut)), abs=1e-10
    )


# -- walktrap -----------------------------------------------------------------


def test_walktrap_recovers_bridge_split():
    n = _net(6, BRIDGE)
    result = walktrap(n, t=4)
    p = result.partition
    assert p.community_count == 2
    assert p.assignment[0] == p.assignment[1] == p.assignment[2] == 0
    assert p.assignment[3] == p.assignment[4] == p.assignment[5] == 1
    assert p.modularity == pytest.approx(0.357143, abs=1e-6)


def test_partition_modularity_consistent_with_recomputation():
    n = _net(6, BRIDGE)
    p = walktrap(n, t=4).partition
    assert p.modularity == pytest.approx(modularity_definition(_edges(n), p.assignment), abs=1e-10)


def _assert_cuts_consistent(net, result):
    # every cut's modularity is that of its partition; exact ties go to the earliest cut
    edges = _edges(net)
    for cut, expected in enumerate(result.cut_modularities):
        assert modularity_definition(edges, result.assignment_at_cut(cut)) == pytest.approx(expected, abs=1e-12)
    assert result.best_cut == result.cut_modularities.index(max(result.cut_modularities))


def test_best_cut_is_argmax_over_dendrogram():
    n = _net(6, BRIDGE)
    _assert_cuts_consistent(n, walktrap(n, t=4))


@given(_connected_nets(), st.integers(1, 5))
@settings(max_examples=40)
def test_best_cut_is_argmax_over_dendrogram_on_random_graphs(net, t):
    _assert_cuts_consistent(net, walktrap(net, t=t))


@given(_connected_nets(), st.integers(1, 5))
@settings(max_examples=40)
def test_walktrap_merges_match_dense_oracle(net, t):
    result = walktrap(net, t=t)
    delta_sigma = walktrap_delta_sigma(net.neighbors, t)
    edges = sorted({(min(u, v), max(u, v)) for u, v in net.links})
    members = {i: {i} for i in range(net.node_count)}
    for step, merge in enumerate(result.merges):
        community_of = {node: c for c, nodes in members.items() for node in nodes}
        adjacent = {
            (min(community_of[u], community_of[v]), max(community_of[u], community_of[v]))
            for u, v in edges
            if community_of[u] != community_of[v]
        }
        pair = (merge.community_a, merge.community_b)
        assert pair in adjacent
        oracle = {p: delta_sigma(members[p[0]], members[p[1]]) for p in adjacent}
        assert merge.delta_sigma == pytest.approx(oracle[pair], rel=1e-9, abs=0)
        assert oracle[pair] == pytest.approx(min(oracle.values()), rel=1e-9, abs=0)
        members[net.node_count + step] = members.pop(pair[0]) | members.pop(pair[1])


# t stops at 6: past it the heap code's own Delta-sigma errors near 1e-12
# relative on small graphs (test_walktrap_long_walks_match_exact_arithmetic
# checks longer walks)
@given(_connected_nets(), st.integers(1, 6))
@settings(max_examples=150)
def test_walktrap_matches_heap_reference(net, t):
    result = walktrap(net, t=t)
    reference = walktrap_heap_reference(net, t=t)
    assert len(result.merges) == len(reference.merges)
    # Up to a first difference both runs took the minimum over the same
    # pairs, so a different pair must be a tie. Symmetric graphs have exact
    # ties that the two routes round apart, and past such a tie each run is
    # a valid agglomeration of its own (the dense oracle test checks every
    # step).
    for ours, theirs in zip(result.merges, reference.merges):
        if (ours.community_a, ours.community_b) != (theirs.community_a, theirs.community_b):
            assert ours.delta_sigma == pytest.approx(theirs.delta_sigma, rel=1e-12)
            return
        assert ours.delta_sigma == pytest.approx(theirs.delta_sigma, rel=1e-9)
    assert result.partition == reference.partition
    assert result.best_cut == reference.best_cut
    assert result.cut_modularities == reference.cut_modularities


# 2 and 6 share their closed neighbourhood, so their walk rows differ by
# about 4^-t; 0 and 1, and 3 and 4, are twins with equal rows
CLOSED_TWINS = [(0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 4), (1, 6), (2, 5), (2, 6), (5, 6)]


@pytest.mark.parametrize("t", [8, 16, 32])
def test_walktrap_long_walks_match_exact_arithmetic(t):
    # As the walk mixes the rows, G_CC + G_XX - 2 G_CX cancels ever more
    # digits; every recorded Delta-sigma must still be that of exact
    # arithmetic, and the least over the adjacent pairs.
    nets = [_net(7, CLOSED_TWINS)]
    nets += [random_connected_undirected_network(np.random.default_rng(seed), max_n=10) for seed in range(12)]
    for net in nets:
        delta_sigma = walktrap_delta_sigma_exact(net.neighbors, t)
        edges = sorted({(min(u, v), max(u, v)) for u, v in net.links})
        members = {i: {i} for i in range(net.node_count)}
        for step, merge in enumerate(walktrap(net, t=t).merges):
            community_of = {node: c for c, nodes in members.items() for node in nodes}
            adjacent = {tuple(sorted((community_of[u], community_of[v]))) for u, v in edges}
            adjacent -= {(c, c) for c in members}
            pair = (merge.community_a, merge.community_b)
            exact = {p: delta_sigma(members[p[0]], members[p[1]]) for p in adjacent}
            assert merge.delta_sigma == pytest.approx(float(exact[pair]), rel=1e-12, abs=0)
            assert float(exact[pair]) == pytest.approx(float(min(exact.values())), rel=1e-12, abs=0)
            members[net.node_count + step] = members.pop(pair[0]) | members.pop(pair[1])


@pytest.mark.parametrize("seed", range(3))
def test_walktrap_matches_heap_reference_on_planted_blocks(seed):
    net, _ = planted_two_block(60, 0.15, 0.01, seed=seed)
    for t in (2, 4, 8):
        result, reference = walktrap(net, t=t), walktrap_heap_reference(net, t=t)
        assert [(m.community_a, m.community_b) for m in result.merges] == [
            (m.community_a, m.community_b) for m in reference.merges
        ]
        assert result.partition == reference.partition
        assert result.best_cut == reference.best_cut


def test_walktrap_delta_sigma_bits_on_heavy_tailed_graph():
    # The dendrogram CSV carries every merge pair and the repr of its
    # Delta-sigma, so its hash pins the merge loop's arithmetic bit for bit
    # on 1,200 nodes with degrees up to 419.
    net = heavy_tailed_network()
    text = dendrogram_csv(walktrap(net, t=4).merges)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "23865ae07f32b720867f61a66907b7427dd3e5205c0c06cdbd2700b4f1fc74e7"
    )
    # some of its pairs are recomputed from the walk of their row
    # difference: with no pair recomputed, the bits differ
    with mock.patch.object(community, "_RECOMPUTE_BELOW", -np.inf):
        assert dendrogram_csv(walktrap(net, t=4).merges) != text


def test_walktrap_peak_memory_is_two_walk_matrices():
    # one n x n Gram matrix plus the spare of the walk steps; the slack
    # covers the adjacency, the link counts and the per-community arrays
    net, _ = planted_two_block(200, 0.05, 0.005, seed=0)
    size = net.node_count
    assert size == 400
    tracemalloc.start()
    try:
        walktrap(net, t=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * size * size + 256 * 1024


def test_walktrap_peak_memory_is_one_walk_matrix_on_a_heavy_tailed_graph():
    # in descending degree order the walk steps need one side row here; the
    # slack covers the adjacency, the link counts and the per-community arrays
    net = heavy_tailed_network()
    size = net.node_count
    assert size == 1200
    tracemalloc.start()
    try:
        walktrap(net, t=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * size * size + 2 * 2**20


@st.composite
def _walk_graphs(draw):
    """Adjacency lists of a star, a path, a clique, a tree whose few hubs
    carry the other nodes as leaves, or a connected random graph; all but
    the last are numbered in a drawn order or in order of construction."""
    kind = draw(st.sampled_from(["star", "path", "clique", "leafy tree", "random"]))
    size = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return random_connected_undirected_network(rng, max_n=size).neighbors
    if kind == "star":
        edges = [(0, v) for v in range(1, size)]
    elif kind == "path":
        edges = [(v, v + 1) for v in range(size - 1)]
    elif kind == "clique":
        edges = [(u, v) for u in range(size) for v in range(u + 1, size)]
    else:
        hubs = draw(st.integers(1, max(1, size // 5)))
        edges = [(int(rng.integers(v)), v) for v in range(1, hubs)]
        edges += [(int(rng.integers(hubs)), v) for v in range(hubs, size)]
    label = rng.permutation(size).tolist() if draw(st.booleans()) else list(range(size))
    undirected: list[list[int]] = [[] for _ in range(size)]
    for u, v in edges:
        undirected[label[u]].append(label[v])
        undirected[label[v]].append(label[u])
    return [sorted(neighbors) for neighbors in undirected]


@given(_walk_graphs(), st.integers(1, 4))
@settings(max_examples=200)
def test_walk_gram_equals_the_two_buffer_walk_bit_for_bit(undirected, t):
    # a row written to a slot still in use, or a row left out of node order,
    # changes G; the side buffer stays below n rows
    assert community._visit_order(undirected)[0] < len(undirected)
    assert community.walk_gram(undirected, t).tobytes() == walk_gram_oracle(undirected, t).tobytes()


@pytest.mark.parametrize(
    "edges, side_rows",
    [
        ([(0, v) for v in range(1, 6)], 1),  # the hub's visit frees every leaf
        ([(v, v + 1) for v in range(5)], 2),
        ([(u, v) for u in range(6) for v in range(u + 1, 6)], 5),  # every row lives until the last visits
    ],
)
def test_walk_side_rows_of_a_star_a_path_and_a_clique(edges, side_rows):
    assert community._visit_order(_net(6, edges).neighbors)[0] == side_rows


@given(_connected_nets())
@settings(max_examples=25)
def test_walktrap_invariants_on_random_graphs(net):
    result = walktrap(net, t=3)
    p = result.partition
    # total, dense assignment
    assert set(p.assignment) == set(range(net.node_count))
    assert set(p.assignment.values()) == set(range(p.community_count))
    # n-1 merges, modularity maximal over cuts
    assert len(result.merges) == net.node_count - 1
    assert p.modularity == pytest.approx(max(result.cut_modularities), abs=1e-12)
    assert p.modularity == pytest.approx(modularity_definition(_edges(net), p.assignment), abs=1e-10)
    assert p.modularity <= 1.0


def test_walktrap_path_merges_adjacent_pair_first():
    # path 0-1-2 with t=1: ends have identical walk rows, but only adjacent
    # communities may merge; the tie goes to (0,1)
    n = _net(3, [(0, 1), (1, 2)])
    result = walktrap(n, t=1)
    first = result.merges[0]
    assert (first.community_a, first.community_b) == (0, 1)
    assert result.partition.community_count == 1
    assert result.partition.modularity == 0.0


def test_walktrap_exact_ties_go_to_smallest_ids():
    # by symmetry every leaf of a star ties with every other, and so does
    # each side of a cycle at t=1: the smallest (min id, max id) must win
    star = _net(7, [(0, leaf) for leaf in range(1, 7)])
    for t in (1, 2, 3):
        merges = walktrap(star, t=t).merges
        assert [(m.community_a, m.community_b) for m in merges] == [(0, 1), (2, 7), (3, 8), (4, 9), (5, 10), (6, 11)]
    cycle = _net(8, [(i, (i + 1) % 8) for i in range(8)])
    merges = walktrap(cycle, t=1).merges
    assert [(m.community_a, m.community_b) for m in merges] == [
        (0, 1), (2, 8), (3, 9), (4, 10), (5, 11), (6, 12), (7, 13)
    ]
    # here the third merge ties (3, 7) with (3, 8) exactly: node 3's older
    # partner 7 must not give way to the newer community 8
    edges = [(0, 2), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 6), (3, 5), (4, 5), (5, 6)]
    merges = walktrap(_net(7, edges), t=1).merges
    assert [(m.community_a, m.community_b) for m in merges[:3]] == [(0, 5), (2, 6), (3, 7)]


def test_walktrap_two_runs_identical():
    n = _net(6, BRIDGE, labels=[f"p{i}" for i in range(6)])
    r1 = walktrap(n, t=4)
    r2 = walktrap(n, t=4)
    assert partition_csv(n, r1.partition) == partition_csv(n, r2.partition)
    assert dendrogram_csv(r1.merges) == dendrogram_csv(r2.merges)


def test_walktrap_rejects_disconnected():
    n = _net(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        walktrap(n)


def test_walktrap_rejects_bad_t():
    n = _net(2, [(0, 1)])
    with pytest.raises(ValueError, match="t must be"):
        walktrap(n, t=0)


def test_walktrap_empty_and_linkless_degenerate():
    with pytest.raises(DegenerateAnalysisError, match="empty"):
        walktrap(_net(0, []))
    with pytest.raises(DegenerateAnalysisError, match="no links"):
        walktrap(_net(1, []))


def test_planted_partition_recovery_single_seed():
    net, truth = planted_two_block(16, 0.5, 0.02, seed=0)
    result = walktrap(net, t=4)
    assert block_agreement(result.partition.assignment, truth) >= 0.9


def test_walk_length_changes_granularity_without_breaking_invariants():
    net, _ = planted_two_block(8, 0.6, 0.05, seed=1)
    for t in (1, 2, 4, 8):
        p = walktrap(net, t=t).partition
        assert p.modularity == pytest.approx(modularity_definition(_edges(net), p.assignment), abs=1e-10)


# -- exports ------------------------------------------------------------------


def test_partition_csv_shape():
    n = _net(6, BRIDGE, labels=["a", "b", "c", "d", "e", "f"])
    result = walktrap(n, t=4)
    text = partition_csv(n, result.partition)
    lines = text.strip().split("\n")
    assert lines[0] == "node_id,label,community_id"
    assert len(lines) == 7
    assert lines[1] == "0,a,0"
    assert lines[4] == "3,d,1"


def test_partition_csv_escapes_labels():
    n = _net(2, [(0, 1)], labels=["with,comma", "plain"])
    result = walktrap(n, t=2)
    text = partition_csv(n, result.partition)
    assert '"with,comma"' in text


def test_dendrogram_csv_shape():
    n = _net(6, BRIDGE)
    result = walktrap(n, t=4)
    text = dendrogram_csv(result.merges)
    lines = text.strip().split("\n")
    assert lines[0] == "step,community_a,community_b,delta_sigma"
    assert len(lines) == 6  # 5 merges + header
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[3]) >= 0.0


def test_merge_ids_reference_valid_communities():
    n = _net(6, BRIDGE)
    result = walktrap(n, t=4)
    alive = set(range(6))
    next_id = 6
    for merge in result.merges:
        assert merge.community_a in alive
        assert merge.community_b in alive
        assert merge.community_a < merge.community_b
        alive -= {merge.community_a, merge.community_b}
        alive.add(next_id)
        next_id += 1
