import dataclasses
import itertools
import json
import math
import os
import random
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import collection_doc, op, param
from wsdepnet.analysis import analyze, analyze_with_communities
from wsdepnet.errors import DegenerateAnalysisError, HelperProcessError
from wsdepnet.community import walktrap
from wsdepnet.matching import MatcherKind
from wsdepnet.model import collection_from_dict, load_canonical
from wsdepnet.network import build_network, network_from_edges
from wsdepnet.powerlaw import fit_power_law
from wsdepnet.report import (
    _DELTA_FIELDS,
    AnalysisConfig,
    PowerLawFit,
    compare,
    comparison_to_dict,
    comparison_to_json,
    render_comparison_text,
    render_text,
    report_from_json,
    report_to_json,
)
from wsdepnet.stages import _QUEUE_SLOTS, _run_stages

FAST = AnalysisConfig(er_samples=8, bootstrap_n=0, walktrap_t=4, seed=0)


@pytest.fixture
def k2_report(k2_collection):
    net = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    return analyze(net, FAST)


# -- analyze ------------------------------------------------------------------


def test_analyze_k2_topology_fields(k2_report):
    r = k2_report
    assert r.label == "N^Eq"
    assert r.matcher == "syntactic-equal"
    assert (r.network_nodes, r.network_links) == (6, 10)
    assert (r.nodes, r.links) == (6, 10)
    assert r.isolated_fraction == 0.0
    assert r.giant_node_fraction == 1.0
    assert r.giant_link_fraction == 1.0
    # hand-walked shortest paths: sources a,b reach {c,d,e,f}, c,d reach {e,f}
    assert r.avg_distance_directed == pytest.approx(14 / 12)
    assert r.diameter_directed == 2
    assert r.finite_directed_pairs == 12
    assert r.avg_distance_undirected == pytest.approx(40 / 30)
    assert r.diameter_undirected == 2
    # 4 triangles over 25 connected triples
    assert r.transitivity == pytest.approx(12 / 25)
    assert r.avg_in_degree == pytest.approx(10 / 6)
    assert r.avg_out_degree == pytest.approx(10 / 6)
    assert r.avg_total_degree == pytest.approx(20 / 6)
    assert r.max_total_degree == 4
    assert -1.0 <= r.degree_correlation <= 1.0
    assert r.communities >= 1
    assert r.modularity == pytest.approx(max(r.modularity, 0.0))
    assert r.config == FAST


def test_analyze_bipartite_k2_only():
    # just the op2 bipartite block {c,d} -> {e,f}
    doc = collection_doc(op("op2", [param("c"), param("d")], [param("e"), param("f")]))
    net = build_network(collection_from_dict(doc), MatcherKind.SYNTACTIC_EQUAL)
    r = analyze(net, FAST)
    assert (r.nodes, r.links) == (4, 4)
    assert r.diameter_directed == 1
    assert r.diameter_undirected == 2


def test_analyze_degree_invariants(k2_report):
    r = k2_report
    assert r.avg_in_degree == pytest.approx(r.links / r.nodes)
    assert r.avg_out_degree == pytest.approx(r.links / r.nodes)
    assert r.avg_total_degree == pytest.approx(2 * r.links / r.nodes)


def test_analyze_power_law_entries(k2_report):
    fits = k2_report.power_law
    assert set(fits) == {"in", "out", "all"}
    for fit in fits.values():
        assert isinstance(fit, PowerLawFit)
        assert fit.p_value is None  # bootstrap_n=0
        assert fit.n_tail >= 2


def test_analyze_er_baseline_present(k2_report):
    r = k2_report
    assert r.er_avg_distance is not None
    assert r.er_transitivity is not None
    assert r.er_analytic_transitivity == pytest.approx(20 / 6 / 6)


def test_analyze_empty_network_raises():
    empty = network_from_edges(0, [], MatcherKind.SYNTACTIC_EQUAL)
    with pytest.raises(DegenerateAnalysisError, match="empty network"):
        analyze(empty, FAST)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("er_samples", 0, "er_samples must be >= 1, got 0"),
        ("bootstrap_n", 50, "bootstrap_n must be 0 or >= 100, got 50"),
        ("bootstrap_n", -1, "bootstrap_n must be 0 or >= 100, got -1"),
        ("walktrap_t", 0, "walktrap_t must be >= 1, got 0"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ],
)
def test_analyze_rejects_bad_config_before_any_work(k2_collection, monkeypatch, field, value, message):
    net = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)

    def no_work(*_args):
        raise AssertionError("analyze did work before checking its config")

    monkeypatch.setattr("wsdepnet.analysis.network_summary", no_work)
    monkeypatch.setattr("wsdepnet.analysis.giant_subnetwork", no_work)
    with pytest.raises(ValueError, match=message):
        analyze(net, dataclasses.replace(FAST, **{field: value}))


def test_analyze_single_link_records_degenerate_metrics():
    net = network_from_edges(2, [(0, 1)], MatcherKind.SYNTACTIC_EQUAL)
    r = analyze(net, FAST)
    assert r.degree_correlation is None
    assert "degree_correlation" in r.degenerate
    # positive in-degrees collapse to one distinct value: no power-law tail
    assert r.power_law["in"] is None
    assert "power_law_in" in r.degenerate
    assert r.communities == 1
    assert r.modularity == 0.0
    assert r.avg_distance_directed == 1.0


def test_analyze_semantic_default_label():
    doc = collection_doc(
        op("op1", [param("a", concept="http://onto#A")], [param("b", concept="http://onto#B")])
    )
    net = build_network(collection_from_dict(doc), MatcherKind.SEMANTIC_EXACT)
    r = analyze(net, FAST)
    assert r.label == "N^Ex"
    assert r.matcher == "semantic-exact"


def test_analyze_custom_label(k2_collection):
    net = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    assert analyze(net, FAST, label="mine").label == "mine"


def test_analyze_deterministic_bytes(k2_collection):
    net = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    config = AnalysisConfig(er_samples=20, bootstrap_n=100, walktrap_t=4, seed=7)
    first = report_to_json(analyze(net, config))
    second = report_to_json(analyze(net, config))
    assert first == second


# -- the stage queue, drained here and in one forked helper ---------------------


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count analyze sees; 1 keeps every stage in process."""

    def set_count(count):
        monkeypatch.setattr("wsdepnet.stages._usable_cpus", lambda: count)

    return set_count


@pytest.fixture
def forks(monkeypatch):
    """Count the forks analyze makes."""
    made = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr("wsdepnet.stages.os.fork", fork)
    return made


@pytest.fixture
def deadline():
    """Fail a test that is still running after 60 s, rather than hang."""

    def expire(*_args):
        raise TimeoutError("no result after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_stage_queue_refuses_more_stages_than_it_holds(cpus, forks):
    # 128 four-byte indices fill one 512-byte pipe write; the 129th stage
    # is refused before any stage runs or the helper forks
    ran = []
    stages = [lambda i=i: ran.append(i) for i in range(_QUEUE_SLOTS + 1)]
    cpus(2)
    with pytest.raises(ValueError, match="at most 128 stages fit in the queue, got 129"):
        _run_stages(stages)
    assert ran == [] and forks == []


@pytest.mark.parametrize("without", ["second-cpu", "fork"])
def test_without_a_helper_the_stages_run_with_no_pipe_or_fork(k2_collection, monkeypatch, cpus, deadline, without):
    net = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    config = AnalysisConfig(er_samples=20, bootstrap_n=100, walktrap_t=4, seed=7)
    cpus(2)
    forked = report_to_json(analyze(net, config))

    def refuse(*_args):
        raise AssertionError("a pipe or a fork without a helper")

    monkeypatch.setattr("wsdepnet.stages.os.pipe", refuse)
    if without == "fork":
        monkeypatch.delattr("wsdepnet.stages.os.fork")
    else:
        monkeypatch.setattr("wsdepnet.stages.os.fork", refuse)
        cpus(1)
    assert report_to_json(analyze(net, config)) == forked


def _random_tree(nodes, seed):
    """Links parent -> child of a random recursive tree: every in-degree is 1,
    so the in-degree fit is degenerate while the others bootstrap in blocks."""
    rng = random.Random(seed)
    links = [(rng.randrange(child), child) for child in range(1, nodes)]
    return network_from_edges(nodes, links, MatcherKind.SYNTACTIC_EQUAL)


def _heavy_tailed_fit(data, **kwargs):
    # at alpha = 1.1 and xmin = 1 about 1.3% of the draws lie past 2**62
    return dataclasses.replace(fit_power_law(data, **kwargs), alpha=1.1, xmin=1)


def test_bootstrap_draw_past_int64_nulls_only_the_p_value(monkeypatch, cpus, forks, deadline):
    monkeypatch.setattr("wsdepnet.analysis.fit_power_law", _heavy_tailed_fit)
    net = _random_tree(400, seed=3)
    config = AnalysisConfig(er_samples=2, bootstrap_n=100, walktrap_t=4, seed=7)
    cpus(1)
    inline = analyze(net, config)
    assert forks == []
    cpus(2)
    forked = analyze(net, config)
    assert len(forks) == 1
    assert report_to_json(forked) == report_to_json(inline)
    assert render_text(forked) == render_text(inline)
    assert forked.degenerate["power_law_in"] == "fewer than 2 distinct values"
    for tail in ("out", "all"):
        fit = forked.power_law[tail]
        assert (fit.alpha, fit.xmin, fit.p_value, fit.bootstrap_n) == (1.1, 1, None, 100)
        assert fit.ks_statistic > 0
        assert forked.degenerate[f"power_law_{tail}_p_value"] == "a bootstrap draw lies past the int64 range"
    assert forked.communities is not None and forked.er_avg_distance is not None


@pytest.mark.parametrize("case", ["k2", "reciprocal-pair", "degenerate-tail"])
def test_er_baseline_path_leaves_report_bytes_unchanged(k2_collection, cpus, forks, deadline, case):
    config = AnalysisConfig(er_samples=20, bootstrap_n=100, walktrap_t=4, seed=7)
    if case == "k2":
        net = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    elif case == "reciprocal-pair":
        net = network_from_edges(2, [(0, 1), (1, 0)], MatcherKind.SYNTACTIC_EQUAL)
    else:
        # 400 nodes: the all-degree bootstrap is 8 blocks of at most 40 replicates
        net = _random_tree(400, seed=3)
        config = dataclasses.replace(config, bootstrap_n=300)
    cpus(1)
    inline = analyze(net, config)
    assert forks == []
    cpus(2)
    forked = analyze(net, config)
    assert len(forks) == 1
    assert report_to_json(forked) == report_to_json(inline)
    assert render_text(forked) == render_text(inline)
    if case == "reciprocal-pair":
        assert forked.degenerate["er_baseline"] == "infeasible link count: 2 > 1"
        assert forked.er_avg_distance is None
    if case == "degenerate-tail":
        assert forked.power_law["in"] is None
        assert forked.degenerate["power_law_in"] == "fewer than 2 distinct values"
        assert forked.power_law["out"].p_value is not None
        assert forked.power_law["all"].bootstrap_n == 300


def test_walktrap_runs_in_this_process(k2_collection, monkeypatch, cpus, forks, deadline):
    net = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    ran_in = []

    def recorded_walktrap(*args, **kwargs):
        ran_in.append(os.getpid())  # a helper's append never reaches this process
        return walktrap(*args, **kwargs)

    fork = os.fork  # the counting fork of the forks fixture

    def fork_then_wait():
        pid = fork()
        if pid:
            time.sleep(0.2)  # the helper reaches the queue first
        return pid

    monkeypatch.setattr("wsdepnet.analysis.walktrap", recorded_walktrap)
    monkeypatch.setattr("wsdepnet.stages.os.fork", fork_then_wait)
    cpus(2)
    report = analyze(net, FAST)
    assert len(forks) == 1
    assert ran_in == [os.getpid()]
    assert report.communities is not None


def _exit_3(*_args):
    os._exit(3)


def _raise_key_error(*_args):
    raise KeyError("not a ValueError")


def _kill_self(*_args):
    os.kill(os.getpid(), signal.SIGKILL)


def _exit_0(*_args):
    os._exit(0)


@pytest.mark.parametrize(
    "child, status",
    [(_exit_3, 3), (_raise_key_error, 1), (_kill_self, -signal.SIGKILL), (_exit_0, 0)],
)
def test_failed_er_child_fails_analyze_loudly(k2_collection, monkeypatch, cpus, forks, deadline, child, status):
    net = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)

    def walktrap_after_the_helper(*args, **kwargs):
        # stage 0 holds this process until the helper has ended, so the
        # helper alone takes the baseline (stage 1) and fails in it
        os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
        return walktrap(*args, **kwargs)

    monkeypatch.setattr("wsdepnet.analysis.walktrap", walktrap_after_the_helper)
    monkeypatch.setattr("wsdepnet.analysis.er_baseline", child)
    cpus(2)
    if child is _raise_key_error:  # an exception the helper could send back is raised here
        expected = pytest.raises(KeyError, match="not a ValueError")
    else:
        expected = pytest.raises(HelperProcessError, match=f"^helper process ended with exit status {status} ")
    with expected:
        analyze(net, FAST)
    assert len(forks) == 1


@pytest.mark.parametrize("error", [MemoryError("no room"), DegenerateAnalysisError("average-distance", "no path")])
def test_a_stage_failing_in_the_helper_raises_its_own_exception(cpus, forks, deadline, error):
    def after_the_helper():
        # holds this process until the helper has ended, so the helper alone takes stage 1
        os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)

    def bad():
        raise error

    cpus(2)
    with pytest.raises(type(error)) as raised:
        _run_stages([after_the_helper, bad])
    assert str(raised.value) == str(error)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failing_stage_reaps_the_er_child(k2_collection, monkeypatch, cpus, forks, deadline):
    net = build_network(k2_collection, MatcherKind.SYNTACTIC_EQUAL)

    def slow_baseline(*_args):
        time.sleep(60)

    def broken_walktrap(*_args, **_kwargs):
        raise RuntimeError("walktrap broke")

    monkeypatch.setattr("wsdepnet.analysis.er_baseline", slow_baseline)
    monkeypatch.setattr("wsdepnet.analysis.walktrap", broken_walktrap)
    cpus(2)
    with pytest.raises(RuntimeError, match="walktrap broke"):
        analyze(net, FAST)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("matcher", ["syntactic-equal", "semantic-exact"])
def test_analyze_with_communities_hands_back_its_walktrap(cpus, deadline, count, matcher):
    golden = Path(__file__).parent / "data" / "golden" / "collection.json"
    net = build_network(load_canonical(golden), MatcherKind(matcher))
    config = AnalysisConfig(er_samples=5, bootstrap_n=100)
    cpus(count)
    report, giant, result = analyze_with_communities(net, config)
    assert report_to_json(report) == report_to_json(analyze(net, config))
    fresh = walktrap(giant, t=config.walktrap_t)
    assert result.merges == fresh.merges  # MergeStep equality includes each delta_sigma
    assert result.partition == fresh.partition
    assert (result.cut_modularities, result.best_cut) == (fresh.cut_modularities, fresh.best_cut)
    assert (report.communities, report.modularity) == (result.partition.community_count, result.partition.modularity)


@pytest.mark.parametrize("count", [1, 2])
def test_analyze_with_communities_on_a_linkless_giant(cpus, deadline, count):
    net = network_from_edges(3, [], MatcherKind.SYNTACTIC_EQUAL)
    cpus(count)
    report, giant, result = analyze_with_communities(net, FAST)
    assert result is None
    assert (giant.node_count, giant.link_count) == (1, 0)
    assert report.degenerate["communities"] == "no links"
    assert report.communities is None


def _loop_free_digraphs(max_nodes):
    """(nodes, links) of every digraph without self-loops on 1, ..., max_nodes labelled nodes."""
    for nodes in range(1, max_nodes + 1):
        pairs = list(itertools.permutations(range(nodes), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            yield nodes, [pair for pair, keep in zip(pairs, chosen) if keep]


def _reason_keys(name):
    """The `degenerate` keys that may explain a null report field."""
    if name in ("communities", "modularity"):
        return {"communities"}
    if name == "er_analytic_distance":
        return {"er_baseline", "er_analytic_distance"}
    return {"er_baseline"} if name.startswith("er_") else {name}


def test_no_field_is_null_without_a_reason(cpus):
    cpus(1)
    config = AnalysisConfig(er_samples=2, bootstrap_n=100)
    digraphs = list(_loop_free_digraphs(3))
    assert len(digraphs) == 1 + 4 + 64
    for nodes, links in digraphs:
        net = network_from_edges(nodes, links, MatcherKind.SYNTACTIC_EQUAL)
        data = json.loads(report_to_json(analyze(net, config)))
        unexplained = [
            name for name, value in data.items() if value is None and not _reason_keys(name) & set(data["degenerate"])
        ]
        for tail, fit in data["power_law"].items():
            if fit is None and f"power_law_{tail}" not in data["degenerate"]:
                unexplained.append(f"power_law.{tail}")
            elif fit is not None:
                explained = {"p_value"} if f"power_law_{tail}_p_value" in data["degenerate"] else set()
                unexplained += [
                    f"power_law.{tail}.{key}" for key, value in fit.items() if value is None and key not in explained
                ]
        assert unexplained == [], (nodes, links, data["degenerate"])


# -- compare ------------------------------------------------------------------


def test_compare_identical_reports(k2_report):
    c = compare(k2_report, k2_report)
    for name in _DELTA_FIELDS:
        assert c.deltas[name] in (0, 0.0, None)
    assert c.narrative_flags == {
        "smaller_semantic_diameter": False,
        "larger_semantic_giant_fraction": False,
        "fewer_semantic_nodes": False,
    }


def test_compare_deltas_recomputable(k2_report):
    other = dataclasses.replace(
        k2_report,
        label="N^Ex",
        network_nodes=5,
        nodes=5,
        links=8,
        diameter_directed=1,
        transitivity=0.25,
        degree_correlation=None,
    )
    c = compare(k2_report, other)
    for name in _DELTA_FIELDS:
        left = getattr(k2_report, name)
        right = getattr(other, name)
        if left is None or right is None:
            assert c.deltas[name] is None
        else:
            assert c.deltas[name] == right - left
    assert c.deltas["diameter_directed"] == -1
    assert c.deltas["degree_correlation"] is None


def test_compare_headline_flags(k2_report):
    semantic = dataclasses.replace(
        k2_report,
        label="N^Ex",
        network_nodes=k2_report.network_nodes - 1,
        diameter_directed=k2_report.diameter_directed - 2,
        giant_node_fraction=1.0,
    )
    shrunk = dataclasses.replace(k2_report, giant_node_fraction=0.9)
    c = compare(shrunk, semantic)
    assert c.narrative_flags == {
        "smaller_semantic_diameter": True,
        "larger_semantic_giant_fraction": True,
        "fewer_semantic_nodes": True,
    }
    assert c.deltas["diameter_directed"] == -2
    assert c.deltas["network_nodes"] == -1


def test_compare_power_law_deltas(k2_report):
    bumped = {
        k: dataclasses.replace(f, alpha=f.alpha + 0.5) for k, f in k2_report.power_law.items()
    }
    other = dataclasses.replace(k2_report, power_law=bumped)
    c = compare(k2_report, other)
    for key in ("in", "out", "all"):
        assert c.deltas[f"power_law_{key}_alpha"] == pytest.approx(0.5)
        assert c.deltas[f"power_law_{key}_p_value"] is None  # no bootstrap run


def test_one_to_one_concepts_make_matchers_agree():
    def annotated(name):
        return param(name, concept=f"http://onto#{name.upper()}")

    doc = collection_doc(
        op("op1", [annotated("a"), annotated("b")], [annotated(n) for n in ("c", "d", "e")]),
        op("op2", [annotated("c"), annotated("d")], [annotated("e"), annotated("f")]),
    )
    collection = collection_from_dict(doc)
    r_syn = analyze(build_network(collection, MatcherKind.SYNTACTIC_EQUAL), FAST)
    r_sem = analyze(build_network(collection, MatcherKind.SEMANTIC_EXACT), FAST)
    c = compare(r_syn, r_sem)
    for name, delta in c.deltas.items():
        assert delta in (0, 0.0, None), name
    assert not any(c.narrative_flags.values())


# -- serialization ------------------------------------------------------------


def test_report_json_roundtrip(k2_report):
    text = report_to_json(k2_report)
    assert text.endswith("\n")
    restored = report_from_json(text)
    assert restored == k2_report
    assert report_to_json(restored) == text


def test_report_json_sorted_keys(k2_report):
    data = json.loads(report_to_json(k2_report))
    assert list(data) == sorted(data)
    assert data["power_law"]["in"]["p_value"] is None


def test_report_json_scrubs_nonfinite(k2_report):
    broken = dataclasses.replace(k2_report, er_avg_distance=math.nan, modularity=math.inf)
    data = json.loads(report_to_json(broken))
    assert data["er_avg_distance"] is None
    assert data["modularity"] is None


def test_roundtrip_preserves_degenerate_and_none_fields():
    net = network_from_edges(2, [(0, 1)], MatcherKind.SYNTACTIC_EQUAL)
    r = analyze(net, FAST)
    restored = report_from_json(report_to_json(r))
    assert restored.degenerate == r.degenerate
    assert restored.power_law["in"] is None
    assert restored.degree_correlation is None
    assert restored == r


def test_comparison_json_shape(k2_report):
    c = compare(k2_report, k2_report)
    data = json.loads(comparison_to_json(c))
    assert set(data) == {"left", "right", "deltas", "narrative_flags"}
    assert data["left"]["label"] == "N^Eq"
    assert comparison_to_dict(c)["narrative_flags"]["fewer_semantic_nodes"] is False


# -- text rendering -----------------------------------------------------------


def test_render_text_rounds_two_decimals(k2_report):
    text = render_text(k2_report)
    assert text.startswith("Dependency network report: N^Eq (matcher syntactic-equal)")
    assert f"{14 / 12:.2f}" in text  # 1.17
    assert f"{12 / 25:.2f}" in text  # 0.48
    # canonical JSON keeps full precision
    data = json.loads(report_to_json(k2_report))
    assert data["avg_distance_directed"] == 14 / 12


def test_render_text_marks_missing_values():
    net = network_from_edges(2, [(0, 1)], MatcherKind.SYNTACTIC_EQUAL)
    text = render_text(analyze(net, FAST))
    assert "Degree correlation" in text
    assert "n/a" in text
    assert "Degenerate" in text


def test_render_comparison_text(k2_report):
    text = render_comparison_text(compare(k2_report, k2_report))
    assert text.splitlines()[0] == "Comparison: N^Eq vs N^Eq"
    assert "flag smaller_semantic_diameter" in text
    assert "flag larger_semantic_giant_fraction" in text
    assert "flag fewer_semantic_nodes" in text
    assert "false" in text
