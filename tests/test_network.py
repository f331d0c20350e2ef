import contextlib
import json
import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import adjacency_oracle, collection_doc, op, param
from wsdepnet.community import walktrap
from wsdepnet.errors import CollectionError, DegenerateAnalysisError
from wsdepnet.matching import MatcherKind
from wsdepnet.model import collection_from_dict
from wsdepnet.network import (
    DependencyNetwork,
    build_network,
    export,
    load_network,
    network_from_edges,
    network_summary,
    save_network,
    sidecar_path,
    to_dot,
    to_edgelist,
    to_graphml,
)
from wsdepnet.analysis import analyze
from wsdepnet.report import AnalysisConfig, report_to_json
from wsdepnet.topology import (
    components,
    degree_correlation,
    degree_stats,
    distances,
    giant_subnetwork,
    transitivity,
)

K2_LINKS = sorted(
    [
        ("a", "c"), ("a", "d"), ("a", "e"),
        ("b", "c"), ("b", "d"), ("b", "e"),
        ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f"),
    ]
)


def _labelled_links(n):
    labels = [a.label for a in n.nodes]
    return sorted((labels[s], labels[d]) for s, d in n.links)


def test_k2_network_exact(k2_collection):
    n = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    assert n.node_count == 6
    assert n.link_count == 10
    assert _labelled_links(n) == K2_LINKS
    assert n.self_loop_count == 0


def test_link_weights_count_operation_pairs():
    doc = collection_doc(
        op("o1", [param("a")], [param("b")]),
        op("o2", [param("a")], [param("b")]),
    )
    n = build_network(collection_from_dict(doc), MatcherKind.SYNTACTIC_EQUAL)
    assert n.link_count == 1
    assert n.links[(0, 1)] == ["svc0.op0", "svc0.op1"]


def test_self_loops_suppressed_and_counted():
    doc = collection_doc(op("o", [param("x"), param("y")], [param("x")]))
    n = build_network(collection_from_dict(doc), MatcherKind.SYNTACTIC_EQUAL)
    assert n.self_loop_count == 1
    assert (0, 0) not in n.links
    assert n.link_count == 1  # y -> x survives


def test_isolated_nodes_in_summary():
    doc = collection_doc(
        op("o1", [param("a")], [param("b")]),
        op("o2", [], [param("lonely")]),
        op("o3", [param("alone")], []),
    )
    n = build_network(collection_from_dict(doc), MatcherKind.SYNTACTIC_EQUAL)
    s = network_summary(n)
    assert n.node_count == 4
    assert n.link_count == 1
    assert s.isolated_nodes == 2
    assert s.isolated_fraction == pytest.approx(0.5)


def test_matcher_changes_node_identity():
    doc = collection_doc(
        op("o1", [param("in1", "http://x#C")], [param("out1", "http://x#D")]),
        op("o2", [param("in2", "http://x#C")], [param("out2", "http://x#D")]),
    )
    c = collection_from_dict(doc)
    syntactic = build_network(c, MatcherKind.SYNTACTIC_EQUAL)
    semantic = build_network(c, MatcherKind.SEMANTIC_EXACT)
    assert syntactic.node_count == 4
    assert syntactic.link_count == 2
    assert semantic.node_count == 2
    assert semantic.link_count == 1
    assert len(semantic.links[(0, 1)]) == 2


def test_edgelist_format():
    n = network_from_edges(3, [(2, 0), (0, 1)])
    assert to_edgelist(n) == "0\t1\t1\n2\t0\t1\n"


def test_dot_format_quotes_labels():
    n = network_from_edges(2, [(0, 1)], labels=['say "hi"', "b"])
    dot = to_dot(n)
    assert dot.startswith("digraph dependencies {")
    assert 'n0 [label="say \\"hi\\""];' in dot
    assert "n0 -> n1 [weight=1];" in dot


def test_graphml_is_wellformed_and_escaped(tmp_path):
    names = ["a<&>", "b", "&amp;lt;", "say \"hi\" it's", "größe→ž"]
    n = network_from_edges(len(names), [(0, 1)], labels=names)
    doc = ET.fromstring(to_graphml(n))
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    nodes = doc.findall(".//g:node", ns)
    edges = doc.findall(".//g:edge", ns)
    assert len(nodes) == len(names)
    assert len(edges) == 1
    labels = [node.find("g:data[@key='label']", ns).text for node in nodes]
    assert labels == names
    path = tmp_path / "net.graphml"
    save_network(n, path)
    saved = re.findall(rb'<data key="label">(.*?)</data>', path.read_bytes())
    assert saved == [escape(name).encode("utf-8") for name in names]


def test_export_dispatch_and_unknown_format(k2_collection):
    n = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    assert export(n, "edgelist") == to_edgelist(n)
    with pytest.raises(ValueError, match="unknown export format"):
        export(n, "gexf")


def test_save_load_round_trip(tmp_path, k2_collection):
    n = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    path = tmp_path / "net.graphml"
    save_network(n, path)
    assert sidecar_path(path).exists()
    loaded = load_network(path)
    assert loaded.matcher is n.matcher
    assert loaded.node_count == n.node_count
    assert loaded.self_loop_count == n.self_loop_count
    assert {k: len(v) for k, v in loaded.links.items()} == {k: len(v) for k, v in n.links.items()}
    assert [a.label for a in loaded.nodes] == [a.label for a in n.nodes]
    assert [len(a.members) for a in loaded.nodes] == [len(a.members) for a in n.nodes]
    # saving the loaded network reproduces the bytes exactly
    path2 = tmp_path / "net2.graphml"
    save_network(loaded, path2)
    assert path2.read_bytes() == path.read_bytes()
    assert sidecar_path(path2).read_bytes() == sidecar_path(path).read_bytes()


def test_indented_sidecar_loads_and_resaves_as_one_line(tmp_path, k2_collection):
    # older files and bench/generators.py write the sidecar with indent=2
    n = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    path = tmp_path / "net.graphml"
    save_network(n, path)
    one_line = sidecar_path(path).read_bytes()
    assert one_line.count(b"\n") == 1
    indented = tmp_path / "indented.graphml"
    indented.write_bytes(path.read_bytes())
    meta = json.loads(one_line)
    sidecar_path(indented).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    loaded = load_network(indented)
    assert to_graphml(loaded) == to_graphml(n)
    assert loaded.links == n.links
    assert [a.members for a in loaded.nodes] == [a.members for a in n.nodes]
    resaved = tmp_path / "resaved.graphml"
    save_network(loaded, resaved)
    assert sidecar_path(resaved).read_bytes() == one_line


def test_load_network_requires_sidecar(tmp_path, k2_collection):
    n = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    path = tmp_path / "net.graphml"
    save_network(n, path)
    sidecar_path(path).unlink()
    with pytest.raises(CollectionError, match="sidecar"):
        load_network(path)


def test_load_network_missing_file(tmp_path):
    with pytest.raises(CollectionError, match="not found"):
        load_network(tmp_path / "absent.graphml")


def test_load_network_detects_link_disagreement(tmp_path, k2_collection):
    n = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    path = tmp_path / "net.graphml"
    save_network(n, path)
    meta = sidecar_path(path)
    meta.write_text(meta.read_text().replace('"source": 0,', '"source": 5,', 1))
    with pytest.raises(CollectionError):
        load_network(path)


def test_node_ids_follow_first_appearance(k2_collection):
    n = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    assert [a.label for a in n.nodes] == ["a", "b", "c", "d", "e", "f"]
    nodes = re.findall(r'<node id="n(\d+)"><data key="label">(\w+)<', to_graphml(n))
    assert nodes == [(str(i), label) for i, label in enumerate("abcdef")]


def test_build_is_deterministic(k2_collection):
    a = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    b = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    assert to_graphml(a) == to_graphml(b)
    assert to_edgelist(a) == to_edgelist(b)


def test_links_are_put_in_order_once_and_kept_when_already_in_order(k2_collection):
    n = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    unordered = dict(reversed(n.links.items()))
    rebuilt = DependencyNetwork(nodes=n.nodes, links=unordered, matcher=n.matcher)
    assert list(rebuilt.links) == sorted(unordered) and rebuilt.links is not unordered
    ordered = dict(sorted(unordered.items()))
    assert DependencyNetwork(nodes=n.nodes, links=ordered, matcher=n.matcher).links is ordered


def test_giant_shares_its_archetypes_and_witness_lists():
    n = network_from_edges(6, [(5, 4), (4, 1), (2, 0), (1, 5)])
    giant, id_map = giant_subnetwork(n)
    assert id_map == {1: 0, 4: 1, 5: 2}
    assert all(giant.nodes[new] is n.nodes[old] for old, new in id_map.items())
    assert list(giant.links) == [(0, 2), (1, 0), (2, 1)]
    assert giant.links[(0, 2)] is n.links[(1, 5)]


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40
    )
)
def test_network_from_edges_counts(edges):
    n = network_from_edges(10, edges)
    loops = sum(1 for u, v in edges if u == v)
    distinct = {(u, v) for u, v in edges if u != v}
    assert n.self_loop_count == loops
    assert n.link_count == len(distinct)
    assert sum(len(ops) for ops in n.links.values()) == len(edges) - loops
    assert list(n.links) == sorted(distinct)


# -- the cached adjacency ------------------------------------------------------


@given(
    num_nodes=st.integers(1, 14),
    edges=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=50),
)
@settings(max_examples=40)
def test_cached_adjacency_matches_links_and_survives_analysis(num_nodes, edges):
    n = network_from_edges(num_nodes, [(u % num_nodes, v % num_nodes) for u, v in edges])
    giant, _ = giant_subnetwork(n)
    for net in (n, giant):
        assert net.neighbors == adjacency_oracle(net)[2]
    analyze(n, AnalysisConfig(er_samples=2, bootstrap_n=0))
    # analyze measures its own giant; run every metric on this one too
    for mode in ("directed", "undirected"):
        distances(giant, mode)
    transitivity(giant)
    degree_stats(giant)
    components(giant)
    with contextlib.suppress(DegenerateAnalysisError):
        degree_correlation(giant)
    with contextlib.suppress(DegenerateAnalysisError):
        walktrap(giant)
    for net in (n, giant):
        assert net.neighbors == adjacency_oracle(net)[2]


@pytest.mark.parametrize("seed", range(4))
def test_link_insertion_order_does_not_change_the_report(tmp_path, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(60) for v in range(60) if u != v and rng.random() < 0.05]
    rng.shuffle(edges)
    n = network_from_edges(60, edges)
    path = tmp_path / "net.graphml"
    save_network(n, path)
    config = AnalysisConfig(er_samples=5, bootstrap_n=0)
    assert report_to_json(analyze(n, config)) == report_to_json(analyze(load_network(path), config))
