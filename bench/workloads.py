"""The three workloads.

Each workload knows how to write its inputs, the CLI commands of one pass,
how to check their outputs, and how to redo the same pass as direct calls
into each module's public functions with one span per call (the traced
pass, one `op.*` span per CLI command). Right after each command the
traced pass replays the work that one public call hides: the stages of
`analyze`, again as direct public calls, and the archetype step of
`build_network`. Replays sit outside the `op.*` spans, so the ops alone
time the same work as a CLI pass, and each replay runs next to the call
it splits, so machine noise affects both alike. The traced pass returns
its `analyze` calls, so the harness can repeat each one and its replay.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

from generators import GRAPHML_NS, write_paper_pair, write_sawsdl_corpus, write_scale_network
from tracer import Tracer
from wsdepnet.community import walktrap
from wsdepnet.errors import DegenerateAnalysisError
from wsdepnet.matching import MatcherKind, build_archetypes
from wsdepnet.model import load_canonical
from wsdepnet.network import build_network, export, load_network, network_summary, save_network, sidecar_path
from wsdepnet.powerlaw import fit_power_law, gof_pvalue
from wsdepnet.report import (
    AnalysisConfig,
    analyze,
    compare,
    render_comparison_text,
    report_from_json,
    report_to_json,
)
from wsdepnet.sawsdl import load_sawsdl
from wsdepnet.topology import degree_correlation, degree_stats, distances, er_baseline, giant_subnetwork, transitivity

MATCHERS = ("syntactic-equal", "semantic-exact")
REL_TOL = 1e-9


@dataclass
class Op:
    """One CLI command of a pass and the files it writes."""

    name: str
    argv: list[str]
    outputs: list[Path]


@dataclass
class Analysis:
    """One `analyze` call of the traced pass, which the coverage rounds repeat."""

    label: str
    net: object
    config: AnalysisConfig


# -- output checks ------------------------------------------------------------

def diff_fields(expected, actual, where: str = "") -> list[str]:
    """Fields of `expected` that `actual` lacks or disagrees with.

    Integers, strings, booleans and nulls must be equal; floats agree
    within REL_TOL relative. Keys only `actual` has are ignored.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object"]
        problems = []
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{where}.{key}: missing")
            else:
                problems += diff_fields(value, actual[key], f"{where}.{key}")
        return problems
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=1e-300):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{where}: expected {expected!r}, got {actual!r}"]


def power_law_problems(report: dict) -> list[str]:
    """Range checks that any correct power-law fit meets."""
    problems = []
    for tail in ("in", "out", "all"):
        fit = (report.get("power_law") or {}).get(tail)
        if not isinstance(fit, dict):
            problems.append(f"power_law.{tail}: no fit")
            continue
        alpha, p, xmin, n_tail = fit.get("alpha"), fit.get("p_value"), fit.get("xmin"), fit.get("n_tail")
        if not (isinstance(alpha, (int, float)) and alpha > 1):
            problems.append(f"power_law.{tail}.alpha: {alpha!r} is not > 1")
        if not (isinstance(p, (int, float)) and 0 <= p <= 1):
            problems.append(f"power_law.{tail}.p_value: {p!r} is not in [0, 1]")
        if not (isinstance(xmin, int) and xmin >= 1):
            problems.append(f"power_law.{tail}.xmin: {xmin!r} is not >= 1")
        if not (isinstance(n_tail, int) and n_tail <= report.get("nodes", -1)):
            problems.append(f"power_law.{tail}.n_tail: {n_tail!r} exceeds nodes")
    return problems


def report_fields(report_path: Path) -> dict:
    """The report's fields that must repeat exactly: all but `power_law`."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    return {k: v for k, v in report.items() if k != "power_law"}


def check_report(report_path: Path, expected: dict) -> list[str]:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    return diff_fields(expected, report, report_path.name) + power_law_problems(report)


def corrupt_report(report_path: Path) -> None:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["nodes"] += 1
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def graphml_counts(path: Path) -> dict:
    graph = ET.parse(path).getroot().find(f"{{{GRAPHML_NS}}}graph")
    return {
        "nodes": len(graph.findall(f"{{{GRAPHML_NS}}}node")),
        "links": len(graph.findall(f"{{{GRAPHML_NS}}}edge")),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- traced calls shared by the workloads ----------------------------------------

def _file_sizes(graphml: Path) -> dict:
    return {
        "network.graphml_bytes": graphml.stat().st_size,
        "network.sidecar_bytes": sidecar_path(graphml).stat().st_size,
    }


def traced_extract(tr: Tracer, collection, matcher: str, out: Path):
    with tr.span("network.build") as counts:
        net = build_network(collection, MatcherKind(matcher))
        counts["network.links"] = net.link_count
    with tr.span("network.save") as counts:
        save_network(net, out)
    counts.update(_file_sizes(out))
    return net


def traced_load(tr: Tracer, graphml: Path):
    with tr.span("network.load") as counts:
        net = load_network(graphml)
        counts["network.links"] = net.link_count
    counts.update(_file_sizes(graphml))
    return net


def traced_analyze(tr: Tracer, graphml: Path, config: AnalysisConfig, out: Path, label: str):
    """`wsdepnet analyze` as direct calls; returns the loaded network."""
    net = traced_load(tr, graphml)
    with tr.span("report.analyze", network=label):
        report = analyze(net, config)
    with tr.span("report.to_json") as counts:
        text = report_to_json(report)
        counts["report.report_bytes"] = len(text.encode("utf-8"))
    out.write_text(text, encoding="utf-8")
    return net


def _stage(tr: Tracer, name: str, call):
    """Run one replayed stage; a degenerate metric is labelled, as analyze records it."""
    with tr.span(name) as counts:
        try:
            return call(), counts
        except (DegenerateAnalysisError, ValueError) as err:
            tr.label("degenerate", str(err))
            return None, counts


def replay_analyze(tr: Tracer, net, config: AnalysisConfig, label: str, **labels) -> None:
    """The stages of `report.analyze`, each a direct call under its own span."""
    with tr.span("replay.analyze", network=label, **labels):
        with tr.span("network.summary"):
            network_summary(net)
        with tr.span("topology.giant") as counts:
            giant, _ = giant_subnetwork(net)
            counts["topology.giant_nodes"] = giant.node_count
            counts["topology.giant_links"] = giant.link_count
        n = giant.node_count
        _, counts = _stage(tr, "topology.distances_directed", lambda: distances(giant, "directed"))
        counts["topology.bfs_sources"] = n
        _, counts = _stage(tr, "topology.distances_undirected", lambda: distances(giant, "undirected"))
        counts["topology.bfs_sources"] = n
        _stage(tr, "topology.degree_correlation", lambda: degree_correlation(giant))
        with tr.span("topology.degree_stats"):
            degrees = degree_stats(giant)
        _, counts = _stage(
            tr,
            "topology.er_baseline",
            lambda: er_baseline(n, giant.link_count, config.er_samples, config.seed),
        )
        counts["topology.er_samples"] = config.er_samples
        counts["topology.er_bfs_sources"] = config.er_samples * n
        for values in (degrees.in_degrees, degrees.out_degrees, degrees.total_degrees):
            positive = [v for v in values if v > 0]
            fit, counts = _stage(
                tr, "powerlaw.select", lambda: fit_power_law(positive, replicates=0, seed=config.seed)
            )
            counts["powerlaw.distinct_values"] = len(set(positive))
            if fit is not None and config.bootstrap_n:
                _, counts = _stage(
                    tr,
                    "powerlaw.bootstrap",
                    lambda: gof_pvalue(positive, fit, replicates=config.bootstrap_n, seed=config.seed),
                )
                counts["powerlaw.replicates"] = config.bootstrap_n
        result, counts = _stage(tr, "community.walktrap", lambda: walktrap(giant, t=config.walktrap_t))
        counts["community.merges"] = len(result.merges) if result else 0
        counts["community.walk_matrix_bytes"] = 8 * n * n
        _stage(tr, "topology.transitivity", lambda: transitivity(giant))


def replay_archetypes(tr: Tracer, collection, matcher: str) -> None:
    """The archetype step `build_network` starts with, as its own call."""
    with tr.span("matching.build_archetypes") as counts:
        archetypes, _ = build_archetypes(collection, MatcherKind(matcher))
        counts["matching.archetypes"] = len(archetypes)


def _config(sizes: dict) -> AnalysisConfig:
    return AnalysisConfig(
        er_samples=sizes["er_samples"], bootstrap_n=sizes["bootstrap_n"], walktrap_t=sizes["walktrap_t"], seed=0
    )


def _analyze_argv(graphml: Path, config: AnalysisConfig, out: Path) -> list[str]:
    return [
        "analyze", str(graphml),
        "--er-samples", str(config.er_samples),
        "--bootstrap", str(config.bootstrap_n),
        "--walktrap-t", str(config.walktrap_t),
        "--seed", str(config.seed),
        "--out", str(out),
    ]


# -- workloads ------------------------------------------------------------------

class PaperPair:
    """The paper's study: both matchers on one canonical collection, then compare."""

    name = "paper-pair"
    coverage_rounds = 4
    profiles = {
        "full": {"nodes": 269, "links": 633, "vocab": 1500, "er_samples": 100, "bootstrap_n": 1000, "walktrap_t": 4},
        "smoke": {"nodes": 60, "links": 140, "vocab": 300, "er_samples": 5, "bootstrap_n": 100, "walktrap_t": 4},
    }

    def generate(self, workdir: Path, seed: int, sizes: dict) -> dict:
        return write_paper_pair(workdir, seed, sizes["nodes"], sizes["links"], sizes["vocab"])

    def operations(self, inputs: dict, out: Path, sizes: dict) -> list[Op]:
        config = _config(sizes)
        ops = []
        for m in MATCHERS:
            graphml = out / f"{m}.graphml"
            argv = ["extract", "--collection", str(inputs["collection"]), "--matcher", m, "--out", str(graphml)]
            ops.append(Op(f"extract {m}", argv, [graphml, sidecar_path(graphml)]))
        for m in MATCHERS:
            report = out / f"{m}.report.json"
            ops.append(Op(f"analyze {m}", _analyze_argv(out / f"{m}.graphml", config, report), [report]))
        reports = [str(out / f"{m}.report.json") for m in MATCHERS]
        text = out / "comparison.txt"
        ops.append(Op("compare", ["compare", *reports, "--report", "text", "--out", str(text)], [text]))
        return ops

    def check(self, op: Op, expected: dict) -> list[str]:
        if op.name.startswith("analyze "):
            return check_report(op.outputs[0], expected[op.name.split()[1]])
        if op.name == "compare":
            first = op.outputs[0].read_text(encoding="utf-8").splitlines()[0]
            return [] if first == "Comparison: N^Eq vs N^Ex" else [f"comparison header {first!r}"]
        return []

    def record(self, out: Path) -> dict:
        return {m: report_fields(out / f"{m}.report.json") for m in MATCHERS}

    def corrupt(self, out: Path) -> None:
        corrupt_report(out / f"{MATCHERS[0]}.report.json")

    def traced_pass(self, tr: Tracer, inputs: dict, out: Path, sizes: dict) -> list[Analysis]:
        config = _config(sizes)
        analyses = []
        for m in MATCHERS:
            with tr.span("op.extract", matcher=m):
                with tr.span("model.load_canonical") as counts:
                    collection = load_canonical(inputs["collection"])
                    counts["model.instances"] = collection.instance_count
                traced_extract(tr, collection, m, out / f"{m}.graphml")
            replay_archetypes(tr, collection, m)
        for m in MATCHERS:
            with tr.span("op.analyze", matcher=m):
                net = traced_analyze(tr, out / f"{m}.graphml", config, out / f"{m}.report.json", m)
            replay_analyze(tr, net, config, m)
            analyses.append(Analysis(m, net, config))
        with tr.span("op.compare"):
            with tr.span("report.compare"):
                left, right = (
                    report_from_json((out / f"{m}.report.json").read_text(encoding="utf-8")) for m in MATCHERS
                )
                comparison = compare(left, right)
            with tr.span("report.render_text"):
                text = render_comparison_text(comparison)
            (out / "comparison.txt").write_text(text, encoding="utf-8")
        # the ROADMAP baseline figure: er_baseline(269, 633, 100, 0) at full size
        with tr.span("topology.er_baseline_ref"):
            er_baseline(sizes["nodes"], sizes["links"], sizes["er_samples"], 0)
        return analyses


class Scale10x:
    """A heavy-tailed network with domains, ten times the paper's giant, analyzed once."""

    name = "scale-10x"
    coverage_rounds = 2  # each round costs two 15 s analyses; a third would near the 180 s run limit
    profiles = {
        "full": {"nodes": 2700, "links": 6300, "groups": 30, "satellites": 20,
                 "er_samples": 2, "bootstrap_n": 100, "walktrap_t": 4},
        "smoke": {"nodes": 80, "links": 190, "groups": 2, "satellites": 2,
                  "er_samples": 2, "bootstrap_n": 100, "walktrap_t": 4},
    }

    def generate(self, workdir: Path, seed: int, sizes: dict) -> dict:
        return write_scale_network(
            workdir, seed, sizes["nodes"], sizes["links"], sizes["groups"], sizes["satellites"]
        )

    def operations(self, inputs: dict, out: Path, sizes: dict) -> list[Op]:
        report = out / "scale.report.json"
        return [Op("analyze", _analyze_argv(inputs["network"], _config(sizes), report), [report])]

    def check(self, op: Op, expected: dict) -> list[str]:
        return check_report(op.outputs[0], expected["report"])

    def record(self, out: Path) -> dict:
        return {"report": report_fields(out / "scale.report.json")}

    def corrupt(self, out: Path) -> None:
        corrupt_report(out / "scale.report.json")

    def traced_pass(self, tr: Tracer, inputs: dict, out: Path, sizes: dict) -> list[Analysis]:
        with tr.span("op.analyze"):
            net = traced_analyze(tr, inputs["network"], _config(sizes), out / "scale.report.json", "scale")
        replay_analyze(tr, net, _config(sizes), "scale")
        return [Analysis("scale", net, _config(sizes))]


class CorpusExtract:
    """The load path: a SAWSDL tree through both matchers, then each network read back."""

    name = "corpus-extract"
    coverage_rounds = 0
    profiles = {"full": {"files": 5000, "vocab": 60}, "smoke": {"files": 40, "vocab": 10}}

    def generate(self, workdir: Path, seed: int, sizes: dict) -> dict:
        return write_sawsdl_corpus(workdir, seed, sizes["files"], sizes["vocab"])

    def operations(self, inputs: dict, out: Path, sizes: dict) -> list[Op]:
        ops = []
        for m in MATCHERS:
            graphml = out / f"{m}.graphml"
            argv = ["extract", "--collection", str(inputs["corpus"]), "--format", "sawsdl", "--matcher", m,
                    "--out", str(graphml)]
            ops.append(Op(f"extract {m}", argv, [graphml, sidecar_path(graphml)]))
        for m in MATCHERS:
            edges = out / f"{m}.edges.tsv"
            argv = ["export", str(out / f"{m}.graphml"), "--format", "edgelist", "--out", str(edges)]
            ops.append(Op(f"export {m}", argv, [edges]))
        return ops

    def check(self, op: Op, expected: dict) -> list[str]:
        kind, m = op.name.split()
        want = expected[m]
        if kind == "extract":
            got = graphml_counts(op.outputs[0])
            return [f"{m}.{k}: expected {want[k]}, got {got[k]}" for k in ("nodes", "links") if got[k] != want[k]]
        digest = sha256(op.outputs[0])
        return [] if digest == want["edgelist_sha256"] else [f"{m}: edge list digest {digest}"]

    def record(self, out: Path) -> dict:
        return {
            m: {**graphml_counts(out / f"{m}.graphml"), "edgelist_sha256": sha256(out / f"{m}.edges.tsv")}
            for m in MATCHERS
        }

    def corrupt(self, out: Path) -> None:
        with open(out / f"{MATCHERS[0]}.edges.tsv", "a", encoding="utf-8") as f:
            f.write("0\t1\t1\n")

    def traced_pass(self, tr: Tracer, inputs: dict, out: Path, sizes: dict) -> list[Analysis]:
        for m in MATCHERS:
            with tr.span("op.extract", matcher=m):
                with tr.span("sawsdl.load") as counts:
                    collection = load_sawsdl(inputs["corpus"])
                    counts["sawsdl.files"] = len(collection.services)
                    counts["sawsdl.bytes_in"] = inputs["bytes"]
                    counts["model.instances"] = collection.instance_count
                traced_extract(tr, collection, m, out / f"{m}.graphml")
            replay_archetypes(tr, collection, m)
        for m in MATCHERS:
            with tr.span("op.export", matcher=m):
                net = traced_load(tr, out / f"{m}.graphml")
                with tr.span("network.export"):
                    text = export(net, "edgelist")
                (out / f"{m}.edges.tsv").write_text(text, encoding="utf-8")
        return []


WORKLOADS = {w.name: w for w in (PaperPair(), Scale10x(), CorpusExtract())}
