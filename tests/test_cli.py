import json
import xml.etree.ElementTree as ET

import pytest

from helpers import collection_doc, op, param
from wsdepnet.cli import main

FAST_ANALYZE = ["--er-samples", "8", "--bootstrap", "0"]

WSDL = """<?xml version="1.0"?>
<wsdl:definitions name="BookPrice"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:sawsdl="http://www.w3.org/ns/sawsdl"
    xmlns:tns="http://example.org/bp">
  <wsdl:message name="Req">
    <wsdl:part name="book" type="xsd:string"
        sawsdl:modelReference="http://onto.example.org#Book"/>
    <wsdl:part name="currency" type="xsd:string"
        sawsdl:modelReference="http://onto.example.org#Currency"/>
  </wsdl:message>
  <wsdl:message name="Resp">
    <wsdl:part name="price" type="xsd:string"
        sawsdl:modelReference="http://onto.example.org#Price"/>
    <wsdl:part name="note" type="xsd:string"/>
  </wsdl:message>
  <wsdl:portType name="Port">
    <wsdl:operation name="getPrice">
      <wsdl:input message="tns:Req"/>
      <wsdl:output message="tns:Resp"/>
    </wsdl:operation>
  </wsdl:portType>
</wsdl:definitions>
"""


@pytest.fixture
def k2_net(tmp_path, write_collection, k2_doc):
    src = write_collection(k2_doc)
    net = tmp_path / "k2.graphml"
    code = main(["extract", "--collection", str(src), "--matcher", "syntactic-equal",
                 "--out", str(net)])
    assert code == 0
    return net


# -- pipeline -----------------------------------------------------------------


def test_extract_reports_summary(tmp_path, write_collection, k2_doc, capsys):
    src = write_collection(k2_doc)
    net = tmp_path / "k2.graphml"
    assert main(["extract", "--collection", str(src), "--matcher", "syntactic-equal",
                 "--out", str(net)]) == 0
    out = capsys.readouterr().out
    assert "extracted 6 nodes, 10 links" in out
    assert net.exists()
    assert net.with_name(net.name + ".meta.json").exists()


def test_extract_analyze_compare_pipeline(tmp_path, k2_net, capsys):
    rep_a = tmp_path / "a.json"
    rep_b = tmp_path / "b.json"
    assert main(["analyze", str(k2_net), *FAST_ANALYZE, "--out", str(rep_a)]) == 0
    assert main(["analyze", str(k2_net), *FAST_ANALYZE, "--label", "N^Ex",
                 "--out", str(rep_b)]) == 0
    assert main(["compare", str(rep_a), str(rep_b)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["left"]["label"] == "N^Eq"
    assert data["right"]["label"] == "N^Ex"
    assert not any(data["narrative_flags"].values())
    assert data["deltas"]["nodes"] == 0


def test_analyze_deterministic_output_files(tmp_path, k2_net):
    rep_1 = tmp_path / "r1.json"
    rep_2 = tmp_path / "r2.json"
    args = ["--er-samples", "20", "--bootstrap", "100", "--seed", "3"]
    assert main(["analyze", str(k2_net), *args, "--out", str(rep_1)]) == 0
    assert main(["analyze", str(k2_net), *args, "--out", str(rep_2)]) == 0
    assert rep_1.read_bytes() == rep_2.read_bytes()


def test_analyze_text_report(k2_net, capsys):
    assert main(["analyze", str(k2_net), *FAST_ANALYZE, "--report", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Dependency network report: N^Eq")
    assert "Transitivity" in out


def test_compare_text_report(tmp_path, k2_net, capsys):
    rep = tmp_path / "r.json"
    assert main(["analyze", str(k2_net), *FAST_ANALYZE, "--out", str(rep)]) == 0
    assert main(["compare", str(rep), str(rep), "--report", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Comparison: N^Eq vs N^Eq")
    assert "flag fewer_semantic_nodes" in out


def test_extract_casefold_merges_names(tmp_path, write_collection, capsys):
    doc = collection_doc(
        op("op1", [param("Alpha")], [param("beta")]),
        op("op2", [param("alpha")], [param("Gamma")]),
    )
    src = write_collection(doc)
    net = tmp_path / "n.graphml"
    assert main(["extract", "--collection", str(src), "--matcher", "syntactic-equal",
                 "--casefold", "--out", str(net)]) == 0
    assert "extracted 3 nodes, 2 links" in capsys.readouterr().out


def test_extract_sawsdl_directory(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    (corpus / "economy").mkdir(parents=True)
    (corpus / "economy" / "bookprice.wsdl").write_text(WSDL, encoding="utf-8")
    net = tmp_path / "sem.graphml"
    assert main(["extract", "--collection", str(corpus), "--format", "sawsdl",
                 "--matcher", "semantic-exact", "--out", str(net)]) == 0
    assert "extracted 4 nodes, 4 links" in capsys.readouterr().out


# -- auxiliary commands -------------------------------------------------------


def test_degree_dist_csv(k2_net, capsys):
    assert main(["degree-dist", str(k2_net), "--which", "all"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "degree,count,ccdf"
    rows = [line.split(",") for line in lines[1:]]
    # total degrees: a=3 b=3 c=4 d=4 e=4 f=2
    assert [(r[0], r[1]) for r in rows] == [("2", "1"), ("3", "2"), ("4", "3")]
    assert float(rows[0][2]) == 1.0


def test_degree_dist_giant_flag(tmp_path, write_collection, capsys):
    doc = collection_doc(
        op("op1", [param("a")], [param("b")]),
        op("op2", [param("b")], [param("c")]),
        op("op3", [param("x")], [param("y")]),
    )
    src = write_collection(doc)
    net = tmp_path / "n.graphml"
    assert main(["extract", "--collection", str(src), "--matcher", "syntactic-equal",
                 "--out", str(net)]) == 0
    capsys.readouterr()
    assert main(["degree-dist", str(net), "--which", "all", "--giant"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    counts = {int(d): int(c) for d, c, _ in (line.split(",") for line in lines[1:])}
    assert counts == {1: 2, 2: 1}  # a-b-c chain only


def test_degree_dist_out_file(tmp_path, k2_net):
    out = tmp_path / "dd.csv"
    assert main(["degree-dist", str(k2_net), "--which", "in", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    # in-degrees: 0,0,2,2,4,2
    assert lines[0] == "degree,count,ccdf"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["0", "2"], ["2", "3"], ["4", "1"]]


def test_communities_outputs(tmp_path, k2_net, capsys):
    part = tmp_path / "part.csv"
    dend = tmp_path / "dend.csv"
    assert main(["communities", str(k2_net), "--out", str(part),
                 "--dendrogram", str(dend)]) == 0
    err = capsys.readouterr().err
    assert "communities=" in err and "modularity=" in err
    part_lines = part.read_text(encoding="utf-8").strip().split("\n")
    assert part_lines[0] == "node_id,label,community_id"
    assert len(part_lines) == 7
    dend_lines = dend.read_text(encoding="utf-8").strip().split("\n")
    assert dend_lines[0] == "step,community_a,community_b,delta_sigma"
    assert len(dend_lines) == 6


def test_communities_stdout_default(k2_net, capsys):
    assert main(["communities", str(k2_net)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("node_id,label,community_id")


def test_export_graphml_stdout(k2_net, capsys):
    assert main(["export", str(k2_net)]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    assert root.tag.endswith("graphml")


def test_export_dot_and_edgelist(tmp_path, k2_net, capsys):
    assert main(["export", str(k2_net), "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    out = tmp_path / "edges.tsv"
    assert main(["export", str(k2_net), "--format", "edgelist", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").strip().split("\n")) == 10


# -- exit codes ---------------------------------------------------------------


def test_usage_errors_exit_1(k2_net, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["extract"]) == 1
    assert main(["analyze", str(k2_net), "--report", "yaml"]) == 1
    assert main(["extract", "--collection", "x", "--matcher", "nope", "--out", "y"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("analyze", "--er-samples", "0"),
        ("analyze", "--bootstrap", "50"),
        ("analyze", "--walktrap-t", "0"),
        ("communities", "--t", "0"),
    ],
)
def test_out_of_range_counts_are_usage_errors(tmp_path, k2_net, capsys, command, flag, value):
    out = tmp_path / "out.txt"
    assert main([command, str(k2_net), flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.graphml")]) == 2
    assert "input error" in capsys.readouterr().err


def test_malformed_collection_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["extract", "--collection", str(bad), "--matcher", "syntactic-equal",
                 "--out", str(tmp_path / "n.graphml")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_schema_violation_exits_2(tmp_path, write_collection, capsys):
    src = write_collection({"services": [{"operations": []}]})
    code = main(["extract", "--collection", str(src), "--matcher", "syntactic-equal",
                 "--out", str(tmp_path / "n.graphml")])
    assert code == 2
    capsys.readouterr()


def test_compare_on_non_report_exits_2(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("also not json {", encoding="utf-8")
    assert main(["compare", str(bogus), str(bogus)]) == 2
    capsys.readouterr()


def _set(key, value):
    def mutate(report):
        report[key] = value
        return report

    return mutate


def _drop(key):
    def mutate(report):
        del report[key]
        return report

    return mutate


def _drop_fit(tail):
    def mutate(report):
        del report["power_law"][tail]
        return report

    return mutate


def _set_fit_entry(tail, fit):
    def mutate(report):
        report["power_law"][tail] = fit
        return report

    return mutate


def _set_fit(tail, key, value):
    def mutate(report):
        report["power_law"][tail][key] = value
        return report

    return mutate


# mutation of a valid report -> text the error must contain
REPORT_MUTATIONS = {
    "top-level-list": (lambda report: [report], "top level: expected an object, got list"),
    "no-power-law": (_drop("power_law"), "top level: missing key 'power_law'"),
    "no-label": (_drop("label"), "'label'"),
    "unknown-key": (_set("colour", "red"), "unexpected keyword argument 'colour'"),
    "power-law-not-object": (_set("power_law", [1]), "power_law: expected an object, got list"),
    "power-law-entry-not-object": (_set("power_law", {"in": 3}), "power_law.in: expected an object"),
    "power-law-entry-missing-key": (_set("power_law", {"in": {"alpha": 2.0}}), "power_law.in: "),
    "config-not-object": (_set("config", "fast"), "config: expected an object, got str"),
    "config-unknown-key": (_set("config", {"er_samples": 8, "speed": 1}), "'speed'"),
    "config-not-integer": (
        _set("config", {"er_samples": "8", "bootstrap_n": 0, "walktrap_t": 4, "seed": 0}),
        "config: er_samples must be an integer",
    ),
    "nodes-string": (_set("nodes", "x"), "top level: nodes must be an integer, got 'x'"),
    "nodes-bool": (_set("nodes", True), "top level: nodes must be an integer, got True"),
    "nodes-float": (_set("nodes", 12.0), "top level: nodes must be an integer, got 12.0"),
    "float-field-null": (_set("transitivity", None), "top level: transitivity must be a number, got None"),
    "float-field-bool": (_set("transitivity", False), "top level: transitivity must be a number, got False"),
    "optional-float-string": (_set("modularity", "high"), "top level: modularity must be a number or null"),
    "label-not-string": (_set("label", 7), "top level: label must be a string, got 7"),
    "power-law-alpha-string": (_set_fit("in", "alpha", "2.5"), "power_law.in: alpha must be a number, got '2.5'"),
    "power-law-xmin-float": (_set_fit("in", "xmin", 1.0), "power_law.in: xmin must be an integer, got 1.0"),
    "power-law-p-value-bool": (_set_fit("in", "p_value", True), "power_law.in: p_value must be a number or null"),
    "power-law-no-all": (_drop_fit("all"), "power_law: missing key 'all'"),
    "power-law-extra-tail": (_set_fit_entry("both", None), "power_law: unknown tail 'both'"),
    "degenerate-not-object": (_set("degenerate", 5), "degenerate: expected an object, got int"),
    "degenerate-reason-number": (_set("degenerate", {"x": 3}), "degenerate: x must be a string, got 3"),
}


@pytest.mark.parametrize("mutation", sorted(REPORT_MUTATIONS))
def test_compare_on_malformed_report_exits_2(tmp_path, k2_net, capsys, mutation):
    mutate, fragment = REPORT_MUTATIONS[mutation]
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    assert main(["analyze", str(k2_net), *FAST_ANALYZE, "--out", str(good)]) == 0
    bad.write_text(json.dumps(mutate(json.loads(good.read_text(encoding="utf-8")))), encoding="utf-8")
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"wsdepnet: input error: {bad}: ")
    assert fragment in err


def test_degenerate_analysis_exits_3(tmp_path, write_collection, capsys):
    src = write_collection({"services": []})
    net = tmp_path / "empty.graphml"
    assert main(["extract", "--collection", str(src), "--matcher", "syntactic-equal",
                 "--out", str(net)]) == 0
    assert main(["analyze", str(net), *FAST_ANALYZE]) == 3
    err = capsys.readouterr().err
    assert "degenerate analysis" in err
    assert "empty network" in err


def test_communities_on_disconnected_network_exits_1(tmp_path, write_collection, capsys):
    # giant of two equally sized components is still connected; force the
    # ValueError path with walktrap t=0 instead
    doc = collection_doc(op("op1", [param("a")], [param("b")]))
    src = write_collection(doc)
    net = tmp_path / "n.graphml"
    assert main(["extract", "--collection", str(src), "--matcher", "syntactic-equal",
                 "--out", str(net)]) == 0
    assert main(["communities", str(net), "--t", "0"]) == 1
    assert "t must be" in capsys.readouterr().err



def _without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def _edited(edit):
    def mutate(meta):
        edit(meta)
        return meta

    return mutate


def _drop_member_name(meta):
    del meta["archetypes"][0]["members"][0]["name"]


# sidecar edit (meta -> new meta), (old, new) text replacement in the
# GraphML, the file the message must name, a fragment naming the key or entry
NETWORK_MUTATIONS = {
    "no-archetypes": (_without("archetypes"), None, "meta.json", "missing key 'archetypes'"),
    "no-links": (_without("links"), None, "meta.json", "missing key 'links'"),
    "no-matcher": (_without("matcher"), None, "meta.json", "missing key 'matcher'"),
    "no-member-name": (_edited(_drop_member_name), None, "meta.json", "archetypes[0]: missing key 'name'"),
    "unknown-role": (_edited(lambda m: m["archetypes"][1]["members"][0].update(role="bogus")), None,
                     "meta.json", "archetypes[1]: unknown role 'bogus'"),
    "unknown-matcher": (_edited(lambda m: m.update(matcher="fuzzy")), None, "meta.json", "unknown matcher 'fuzzy'"),
    "archetypes-not-a-list": (_edited(lambda m: m.update(archetypes=7)), None, "meta.json", "archetypes"),
    "top-level-list": (lambda meta: [meta], None, "meta.json", "top level"),
    "link-out-of-range": (_edited(lambda m: m["links"][0].update(target=9)), ('target="n2"', 'target="n9"'),
                          "k2.graphml:", "edge[0]: link 0 -> 9"),
    "zero-weight": (None, ('<data key="weight">1</data>', '<data key="weight">0</data>'), "k2.graphml:",
                    "weight must be >= 1"),
    "non-integer-weight": (None, ('<data key="weight">1</data>', '<data key="weight">x</data>'), "k2.graphml:",
                           "edge[0]"),
    "edge-without-source": (None, ('source="n0" ', ""), "k2.graphml:", "edge[0]"),
    "missing-node": (None, ('<node id="n5"><data key="label">f</data><data key="instance_count">1</data></node>', ""),
                     "k2.graphml:", "GraphML nodes"),
}


@pytest.mark.parametrize("mutation", sorted(NETWORK_MUTATIONS))
def test_malformed_network_exits_2(tmp_path, k2_net, capsys, mutation):
    mutate_meta, replace_graphml, file_name, fragment = NETWORK_MUTATIONS[mutation]
    meta_path = k2_net.with_name(k2_net.name + ".meta.json")
    if mutate_meta is not None:
        meta = mutate_meta(json.loads(meta_path.read_text(encoding="utf-8")))
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
    if replace_graphml is not None:
        text = k2_net.read_text(encoding="utf-8")
        assert replace_graphml[0] in text
        k2_net.write_text(text.replace(*replace_graphml, 1), encoding="utf-8")
    out = tmp_path / "edges.tsv"
    assert main(["export", str(k2_net), "--format", "edgelist", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("wsdepnet: input error: ")
    assert file_name in err
    assert fragment in err
    assert not out.exists()
