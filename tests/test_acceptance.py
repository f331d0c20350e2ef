"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run `pytest -sv tests/test_acceptance.py` to see the lines as they pass;
criterion 9 needs a SAWSDL-TC1-style corpus directory in the
WSDEPNET_SAWSDL_TC1 environment variable and is skipped otherwise.
"""

import math
import os
import time

import numpy as np
import pytest

from helpers import (
    adjacency_oracle,
    bfs_lengths,
    block_agreement,
    collection_doc,
    floyd_warshall,
    modularity_definition,
    op,
    param,
    planted_two_block,
    random_directed_network,
    triangle_count_trace,
)
from wsdepnet.analysis import analyze
from wsdepnet.cli import main
from wsdepnet.community import walktrap
from wsdepnet.matching import MatcherKind, build_archetypes
from wsdepnet.model import collection_from_dict
from wsdepnet.network import build_network, network_from_edges
from wsdepnet.powerlaw import _tail_values, fit_power_law
from wsdepnet.report import AnalysisConfig
from wsdepnet.sawsdl import load_sawsdl
from wsdepnet.topology import (
    degree_correlation,
    er_baseline,
    giant_subnetwork,
    transitivity,
)

BRIDGE = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _net(num_nodes, edges):
    return network_from_edges(num_nodes, edges, MatcherKind.SYNTACTIC_EQUAL)


def test_criterion_1_k2_reproduction(k2_collection):
    n = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    labels = [a.label for a in n.nodes]
    links = sorted((labels[s], labels[d]) for s, d in n.links)
    expected = sorted(
        [("a", "c"), ("a", "d"), ("a", "e"), ("b", "c"), ("b", "d"), ("b", "e")]
        + [("c", "e"), ("c", "f"), ("d", "e"), ("d", "f")]
    )
    ok = n.node_count == 6 and links == expected
    _report(1, ok, f"K2 network has {n.node_count} nodes and links {links == expected}")


def test_criterion_2_archetype_semantics():
    author = collection_from_dict(
        collection_doc(
            op("o1", [param("_AUTHOR", "http://books#author")], []),
            op("o2", [param("_AUTHOR1", "http://books#author")], []),
            op("o3", [param("_AUTHOR2", "http://books#author")], []),
        )
    )
    generic = collection_from_dict(
        collection_doc(
            op("o1", [param("PARAMETER", "http://a#Temperature")], []),
            op("o2", [param("PARAMETER", "http://a#Pressure")], []),
            op("o3", [param("PARAMETER", "http://a#Humidity")], []),
        )
    )
    counts = tuple(
        len(build_archetypes(c, kind)[0])
        for c in (author, generic)
        for kind in (MatcherKind.SYNTACTIC_EQUAL, MatcherKind.SEMANTIC_EXACT)
    )
    ok = counts == (3, 1, 1, 3)
    _report(2, ok, f"archetype counts (syn,sem)x(author,generic) = {counts}")


def test_criterion_3_metric_oracles():
    start = time.monotonic()
    checked = 0
    for index in range(50):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=777, spawn_key=(index,)))
        net = random_directed_network(rng, max_n=50)
        out_adj = adjacency_oracle(net)[0]
        oracle = floyd_warshall(out_adj)
        for source in range(net.node_count):
            bfs = bfs_lengths(out_adj, source)
            expected = [
                -1 if math.isinf(d) else int(d) for d in oracle[source]
            ]
            assert bfs == expected, f"graph {index} source {source}"
        und = net.neighbors
        triples = sum(len(ns) * (len(ns) - 1) // 2 for ns in und)
        triangles = triangle_count_trace(und)
        if net.link_count and triples:
            assert transitivity(net) == 3 * triangles / triples, f"graph {index}"
        if net.link_count:
            giant, _ = giant_subnetwork(net)
            result = walktrap(giant)
            edges = sorted({(min(u, v), max(u, v)) for u, v in giant.links})
            for cut, q in enumerate(result.cut_modularities):
                delta = abs(q - modularity_definition(edges, result.assignment_at_cut(cut)))
                assert delta <= 1e-10, f"graph {index} cut {cut} modularity off by {delta}"
        checked += 1
    elapsed = time.monotonic() - start
    _report(3, checked == 50 and elapsed < 30, f"{checked}/50 graphs, {elapsed:.1f}s")


def test_criterion_4_closed_forms():
    star = _net(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    star_r = degree_correlation(star)
    triangle = _net(3, [(0, 1), (1, 2), (2, 0)])
    result = walktrap(_net(6, BRIDGE), t=4)
    one_community_q = result.cut_modularities[-1]
    split = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    split_q = result.cut_modularities[4]  # after 4 of the 5 merges
    recovered = result.partition.assignment
    ok = (
        abs(star_r + 1.0) <= 1e-9
        and transitivity(triangle) == 1.0
        and one_community_q == 0.0
        and result.assignment_at_cut(4) == split
        and abs(split_q - 0.357143) <= 1e-6
        and recovered == split
    )
    _report(
        4,
        ok,
        f"star r={star_r:.10f}, triangle T={transitivity(triangle)}, "
        f"Q1={one_community_q}, Qsplit={split_q:.6f}, walktrap split={recovered == split}",
    )


def test_criterion_5_power_law_fitter():
    start = time.monotonic()
    alpha_hits = 0
    p_hits = 0
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=12345, spawn_key=(seed,)))
        data = _tail_values(2.5, 5, rng.random(5000))
        fit = fit_power_law(data, replicates=1000, seed=seed)
        alpha_hits += 2.4 <= fit.alpha <= 2.6
        p_hits += fit.p_value > 0.1
    elapsed = time.monotonic() - start
    ok = alpha_hits >= 19 and p_hits >= 18 and elapsed <= 300
    _report(5, ok, f"alpha in [2.4,2.6] {alpha_hits}/20, p>0.1 {p_hits}/20, {elapsed:.0f}s")


def test_criterion_6_walktrap_recovery():
    start = time.monotonic()
    hits = 0
    for seed in range(20):
        net, truth = planted_two_block(16, 0.5, 0.02, seed=seed)
        result = walktrap(net, t=4)
        hits += block_agreement(result.partition.assignment, truth) >= 0.9
    elapsed = time.monotonic() - start
    ok = hits >= 18 and elapsed < 60
    _report(6, ok, f"{hits}/20 seeds at >=90% agreement, {elapsed:.1f}s")


def test_criterion_7_er_baseline_sanity():
    start = time.monotonic()
    er = er_baseline(269, 633, 100, 0)
    expected = (2 * 633 / 269) / 269  # <k>/n = 0.0175
    se = er.transitivity_sd / math.sqrt(100)
    gap = abs(er.transitivity_mean - expected)
    elapsed = time.monotonic() - start
    ok = gap <= 3 * se and 0.01 <= er.transitivity_mean <= 0.03 and elapsed < 60
    _report(
        7,
        ok,
        f"MC transitivity {er.transitivity_mean:.5f} vs <k>/n {expected:.5f} "
        f"(gap {gap:.6f} <= 3SE {3 * se:.6f}), {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path, write_collection, k2_doc):
    src = write_collection(k2_doc)
    reports = []
    for run in ("one", "two"):
        net = tmp_path / f"{run}.graphml"
        rep = tmp_path / f"{run}.json"
        assert main(["extract", "--collection", str(src), "--matcher", "syntactic-equal",
                     "--out", str(net)]) == 0
        assert main(["analyze", str(net), "--er-samples", "50", "--bootstrap", "200",
                     "--seed", "11", "--out", str(rep)]) == 0
        reports.append(rep.read_bytes())
    ok = reports[0] == reports[1]
    _report(8, ok, f"two pipeline runs byte-identical={ok} ({len(reports[0])} bytes)")


def test_criterion_9_corpus_table(tmp_path):
    corpus = os.environ.get("WSDEPNET_SAWSDL_TC1")
    if not corpus:
        print("ACCEPTANCE 9: SKIP - set WSDEPNET_SAWSDL_TC1 to a corpus directory")
        pytest.skip("corpus not supplied")
    collection = load_sawsdl(corpus)
    config = AnalysisConfig(er_samples=100, bootstrap_n=1000, walktrap_t=4, seed=0)
    failures = []

    def check(name, value, expected, tol):
        if value is None or abs(value - expected) > tol:
            failures.append(f"{name}={value} want {expected}+-{tol}")

    reports = {}
    for kind in (MatcherKind.SYNTACTIC_EQUAL, MatcherKind.SEMANTIC_EXACT):
        network = build_network(collection, kind)
        reports[kind] = analyze(network, config)
    syn, sem = reports[MatcherKind.SYNTACTIC_EQUAL], reports[MatcherKind.SEMANTIC_EXACT]
    check("syn nodes", syn.nodes, 269, 0)
    check("syn links", syn.links, 633, 0)
    check("sem nodes", sem.nodes, 268, 0)
    check("sem links", sem.links, 621, 0)
    check("syn avg distance", syn.avg_distance_directed, 2.75, 0.05)
    check("sem avg distance", sem.avg_distance_directed, 1.97, 0.05)
    check("syn transitivity", syn.transitivity, 0.039, 0.005)
    check("sem transitivity", sem.transitivity, 0.031, 0.005)
    check("syn degree correlation", syn.degree_correlation, -0.21, 0.03)
    check("sem degree correlation", sem.degree_correlation, -0.22, 0.03)
    check("syn modularity", syn.modularity, 0.62, 0.05)
    check("sem modularity", sem.modularity, 0.62, 0.05)
    for label, rep in (("syn", syn), ("sem", sem)):
        fit = rep.power_law.get("all")
        if fit is None or fit.p_value is None or fit.p_value <= 0.05:
            failures.append(f"{label} p_all={getattr(fit, 'p_value', None)} want > 0.05")
        if rep.communities is None or not 10 <= rep.communities <= 25:
            failures.append(f"{label} communities={rep.communities} want in [10, 25]")
    _report(9, not failures, "corpus reference values reproduced" if not failures else "; ".join(failures))
