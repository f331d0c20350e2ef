import errno
import json
import os
import signal
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from helpers import collection_doc, fresh_interpreter, op, param
from wsdepnet import stages
from wsdepnet.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

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


def test_extract_sawsdl_empty_directory_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    net = tmp_path / "net.graphml"
    assert main(["extract", "--collection", str(corpus), "--format", "sawsdl",
                 "--matcher", "semantic-exact", "--out", str(net)]) == 2
    assert f"input error: no service description files (.wsdl, .sawsdl) under {corpus}" in capsys.readouterr().err
    assert not net.exists()


@pytest.mark.parametrize("encoding", ["x-nope", "euc-jp"])
def test_extract_sawsdl_undecodable_encoding_exits_2(tmp_path, capsys, encoding):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bad = corpus / "bookprice.wsdl"
    bad.write_text(WSDL.replace('<?xml version="1.0"?>', f'<?xml version="1.0" encoding="{encoding}"?>'),
                   encoding="utf-8")
    net = tmp_path / "sem.graphml"
    assert main(["extract", "--collection", str(corpus), "--format", "sawsdl",
                 "--matcher", "semantic-exact", "--out", str(net)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"wsdepnet: input error: {bad}: malformed XML: ")
    assert not net.exists()


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


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_unwritable_dendrogram_writes_no_partition(tmp_path, k2_net, capsys, to_file):
    partition, dendrogram = tmp_path / "part.csv", tmp_path / "missing" / "d.csv"
    argv = ["communities", str(k2_net), "--dendrogram", str(dendrogram)]
    assert main([*argv, "--out", str(partition)] if to_file else argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not partition.exists()
    assert captured.err == f"wsdepnet: output error: cannot write {dendrogram}: No such file or directory\n"


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


STARTUP_PROBE = """
import json, sys
heavy = ("numpy", "urllib.request", "wsdepnet.powerlaw", "wsdepnet.topology", "wsdepnet.community")
loaded = {}
import wsdepnet.report
loaded["import report"] = [m for m in heavy if m in sys.modules]
from wsdepnet.cli import main
collection, net, edges, left, right, comparison = sys.argv[1:]
codes = [main(["extract", "--collection", collection, "--matcher", "syntactic-equal", "--out", net]),
         main(["export", net, "--format", "edgelist", "--out", edges]),
         main(["compare", left, right, "--out", comparison])]
loaded["extract, export, compare"] = [m for m in heavy if m in sys.modules]
from wsdepnet.report import analyze
codes.append(main(["analyze", net, "--er-samples", "5", "--bootstrap", "0", "--out", net + ".json"]))
loaded["analyze"] = [m for m in heavy if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded, "analyze": analyze.__module__}))
"""


def test_extract_and_export_start_without_numpy_or_urllib(tmp_path):
    """A fresh interpreter imports the report schema and runs extract, export
    and compare without importing numpy, urllib.request or a metric module;
    analyze, still importable from wsdepnet.report, works in the same one."""
    collection = GOLDEN / "collection.json"
    net, edges, comparison = tmp_path / "net.graphml", tmp_path / "edges.tsv", tmp_path / "comparison.json"
    reports = [str(GOLDEN / f"{matcher}.report.json") for matcher in ("syntactic-equal", "semantic-exact")]
    result = fresh_interpreter(STARTUP_PROBE, str(collection), str(net), str(edges), *reports, str(comparison))
    assert result["codes"] == [0, 0, 0, 0]
    assert result["loaded"]["import report"] == []
    assert result["loaded"]["extract, export, compare"] == []
    assert result["analyze"] == "wsdepnet.analysis"
    assert "numpy" in result["loaded"]["analyze"]  # the probe does see what analyze loads
    assert edges.read_text(encoding="utf-8")
    assert comparison.read_bytes() == (GOLDEN / "comparison.json").read_bytes()


# -- the stage queue when the OS refuses a pipe or a process --------------------


def _open_fds() -> int:
    return len(os.listdir("/dev/fd"))


@pytest.fixture(scope="module")
def golden_net(tmp_path_factory):
    net = tmp_path_factory.mktemp("golden") / "syntactic-equal.graphml"
    assert main(["extract", "--collection", str(GOLDEN / "collection.json"),
                 "--matcher", "syntactic-equal", "--out", str(net)]) == 0
    return net


def _refusing(real, errno_, calls_allowed):
    """`real`, refusing with OSError(errno_) once it has been called calls_allowed times."""
    calls = []

    def refuse(*args):
        calls.append(args)
        if len(calls) > calls_allowed:
            raise OSError(errno_, os.strerror(errno_))
        return real(*args)

    return refuse


@pytest.mark.parametrize("errno_", [errno.EAGAIN, errno.ENOMEM, errno.EMFILE], ids=errno.errorcode.get)
@pytest.mark.parametrize("cpus, call, allowed", [
    (2, "fork", 0),
    (2, "pipe", 0),
    (2, "pipe", 1),
    (1, "pipe", 0),
], ids=["fork", "queue-pipe", "result-pipe", "one-cpu-pipe"])
def test_refused_fork_or_pipe_runs_the_stages_here(tmp_path, golden_net, monkeypatch, capsys,
                                                   cpus, call, allowed, errno_):
    monkeypatch.setattr("wsdepnet.stages._usable_cpus", lambda: cpus)
    monkeypatch.setattr(f"wsdepnet.stages.os.{call}", _refusing(getattr(os, call), errno_, allowed))
    report = tmp_path / "report.json"
    before = _open_fds()
    assert main(["analyze", str(golden_net), "--er-samples", "5", "--bootstrap", "100", "--out", str(report)]) == 0
    assert _open_fds() == before
    assert capsys.readouterr().err == ""
    assert report.read_bytes() == (GOLDEN / "syntactic-equal.report.json").read_bytes()


def test_dead_helper_exits_4_naming_its_status(k2_net, monkeypatch, capsys):
    parent, drain = os.getpid(), stages._drain

    def drain_or_die(*args):
        if os.getpid() != parent:  # the helper dies before it takes a stage
            os.kill(os.getpid(), signal.SIGKILL)
        return drain(*args)

    monkeypatch.setattr("wsdepnet.stages._usable_cpus", lambda: 2)
    monkeypatch.setattr("wsdepnet.stages._drain", drain_or_die)
    assert main(["analyze", str(k2_net), *FAST_ANALYZE]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"wsdepnet: analysis error: helper process ended with exit status {-signal.SIGKILL} after sending 0 bytes\n"
    )


def test_memory_error_here_exits_5_in_one_line(k2_net, monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr("wsdepnet.analysis.walktrap", refused)  # stage 0, run in this process
    assert main(["analyze", str(k2_net), *FAST_ANALYZE]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wsdepnet: out of memory: Unable to allocate 7.28 TiB\n"


def test_memory_error_in_the_helper_exits_5_in_one_line(k2_net, monkeypatch, capsys):
    from numpy._core._exceptions import _ArrayMemoryError

    parent, drain = os.getpid(), stages._drain

    def refused(*args, **kwargs):
        assert os.getpid() != parent
        raise _ArrayMemoryError((10**6, 10**6), np.dtype(np.uint64))

    monkeypatch.setattr("wsdepnet.stages._usable_cpus", lambda: 2)
    # this process takes no queued stage, so the helper runs all of them
    monkeypatch.setattr("wsdepnet.stages._drain", lambda *args: {} if os.getpid() == parent else drain(*args))
    monkeypatch.setattr("wsdepnet.analysis.undirected_metrics", refused)
    assert main(["analyze", str(k2_net), *FAST_ANALYZE]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "wsdepnet: out of memory: Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"
        " and data type uint64\n"
    )


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
        ("analyze", "--seed", "-1"),
        ("communities", "--t", "0"),
    ],
)
def test_out_of_range_counts_are_usage_errors(tmp_path, k2_net, capsys, command, flag, value):
    out = tmp_path / "out.txt"
    assert main([command, str(k2_net), flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert f", got {value}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.graphml")]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["export", "{path}"],
    ["analyze", "{path}"],
    ["compare", "{path}", "{path}"],
    ["communities", "{path}"],
    ["degree-dist", "{path}"],
    ["extract", "--collection", "{path}", "--format", "sawsdl", "--matcher", "semantic-exact", "--out", "{out}"],
    ["extract", "--collection", "{path}", "--matcher", "syntactic-equal", "--out", "{out}"],
], ids=["export", "analyze", "compare", "communities", "degree-dist", "extract-sawsdl", "extract-canonical"])
def test_over_long_input_path_exits_2(tmp_path, capsys, argv):
    # a 300-character name fails to open with ENAMETOOLONG, an OSError no subclass of which is more specific
    path, out = tmp_path / ("x" * 300), tmp_path / "n.graphml"
    assert main([arg.format(path=path, out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("wsdepnet: input error: ")
    assert str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["export", "{net}", "--out", "{out}"],
    ["extract", "--collection", "{collection}", "--matcher", "syntactic-equal", "--out", "{out}"],
    ["communities", "{net}", "--dendrogram", "{out}"],
    ["analyze", "{net}", *FAST_ANALYZE, "--out", "{out}"],
    ["compare", "{report}", "{report}", "--out", "{out}"],
    ["degree-dist", "{net}", "--out", "{out}"],
], ids=["export", "extract", "communities-dendrogram", "analyze", "compare", "degree-dist"])
@pytest.mark.parametrize("failure", ["not-a-directory", "disk-full"])
def test_unwritable_output_exits_2_naming_it(tmp_path, k2_net, write_collection, k2_doc, monkeypatch, capsys,
                                             argv, failure):
    report = tmp_path / "k2.report.json"
    assert main(["analyze", str(k2_net), *FAST_ANALYZE, "--out", str(report)]) == 0
    paths = {"net": k2_net, "collection": write_collection(k2_doc), "report": report}
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = tmp_path / "file" / "out"  # below a regular file: ENOTDIR on open
    if failure == "disk-full":
        out = tmp_path / "out"

        def full(self, *_args, **_kwargs):  # ENOSPC at close, where no file name is attached
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full)
    capsys.readouterr()
    assert main([arg.format(out=out, **paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    reason = "Not a directory" if failure == "not-a-directory" else "No space left on device"
    assert err.endswith(f"wsdepnet: output error: cannot write {out}: {reason}\n")


def test_malformed_collection_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["extract", "--collection", str(bad), "--matcher", "syntactic-equal",
                 "--out", str(tmp_path / "n.graphml")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_non_utf8_collection_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"services": [{"name": "caf\u00e9"}]}'.encode("latin-1"))
    code = main(["extract", "--collection", str(bad), "--matcher", "syntactic-equal",
                 "--out", str(tmp_path / "n.graphml")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith(f"wsdepnet: input error: cannot read {bad}: ")
    assert "0xe9" in err


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
    "config-no-er-samples": (
        _set("config", {"er_samples": 0, "bootstrap_n": 0, "walktrap_t": 4, "seed": 0}),
        "config: er_samples must be >= 1, got 0",
    ),
    "config-few-replicates": (
        _set("config", {"er_samples": 8, "bootstrap_n": 50, "walktrap_t": 4, "seed": 0}),
        "config: bootstrap_n must be 0 or >= 100, got 50",
    ),
    "config-no-walk": (
        _set("config", {"er_samples": 8, "bootstrap_n": 0, "walktrap_t": 0, "seed": 0}),
        "config: walktrap_t must be >= 1, got 0",
    ),
    "config-negative-seed": (
        _set("config", {"er_samples": 8, "bootstrap_n": 0, "walktrap_t": 4, "seed": -1}),
        "config: seed must be >= 0, got -1",
    ),
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


def _set_member(key, value):
    return _edited(lambda meta: meta["archetypes"][0]["members"][0].update({key: value}))


def _set_witnesses(value):
    return _edited(lambda meta: meta["links"][0].update(witnesses=value))


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
                          "meta.json", "links[0]: link 0 -> 9 outside a loop-free 6-node network"),
    "zero-weight": (None, ('<data key="weight">1</data>', '<data key="weight">0</data>'), "k2.graphml:",
                    "line 13 differs"),
    "non-integer-weight": (None, ('<data key="weight">1</data>', '<data key="weight">x</data>'), "k2.graphml:",
                           "line 13 differs"),
    "edge-without-source": (None, ('source="n0" ', ""), "k2.graphml:", "line 13 differs"),
    "missing-node": (None, ('<node id="n5"><data key="label">f</data><data key="instance_count">1</data></node>', ""),
                     "k2.graphml:", "line 12 differs"),
    "weight-not-witness-count": (None, ('<data key="weight">1</data>', '<data key="weight">7</data>'), "k2.graphml:",
                                 "line 13 differs"),
    "witnesses-string": (_set_witnesses("abc"), None, "meta.json", "links[0]: witnesses must be a list of strings"),
    "witness-number": (_set_witnesses([5]), None, "meta.json", "links[0]: witnesses must be a list of strings"),
    "member-name-number": (_set_member("name", 5), None, "meta.json",
                           "archetypes[0]: member name and operation must be strings, got 5,"),
    "member-operation-list": (_set_member("operation", ["op"]), None, "meta.json",
                              "archetypes[0]: member name and operation must be strings"),
    "member-type-number": (_set_member("type", 3), None, "meta.json",
                           "archetypes[0]: member type and concept must be strings or null, got 3,"),
    "member-concept-object": (_set_member("concept", {}), None, "meta.json",
                              "archetypes[0]: member type and concept must be strings or null"),
    "archetypes-permuted": (_edited(lambda m: m["archetypes"].insert(0, m["archetypes"].pop(1))), None,
                            "meta.json", "archetypes[0]: id 1 is not its position 0"),
    "archetype-id-bool": (_edited(lambda m: m["archetypes"][0].update(id=False)), None, "meta.json",
                          "archetypes[0]: id must be an integer, got False"),
    "link-source-float": (_edited(lambda m: m["links"][0].update(source=0.0)), None, "meta.json",
                          "links[0]: source and target must be integers, got 0.0, 2"),
    "link-target-bool": (_edited(lambda m: m["links"][1].update(target=True)), None, "meta.json",
                         "links[1]: source and target must be integers, got "),
    "graphml-unknown-encoding": (None, ('encoding="UTF-8"', 'encoding="x-nope"'), "k2.graphml:", "line 1 differs"),
    "graphml-utf-32": (None, ('encoding="UTF-8"', 'encoding="utf-32"'), "k2.graphml:", "line 1 differs"),
    "graphml-edited-label": (None, ('<data key="label">a</data>', '<data key="label">z</data>'), "k2.graphml:",
                             "line 7 differs"),
    "graphml-label-key": (None, ('key="label">a', 'key="l8bel">a'), "k2.graphml:", "line 7 differs"),
    "graphml-no-weight": (None, ('<data key="weight">1</data>', ""), "k2.graphml:", "line 13 differs"),
    "graphml-instance-count": (None, ('<data key="instance_count">1</data>', '<data key="instance_count">2</data>'),
                               "k2.graphml:", "line 7 differs"),
    "link-self-loop": (_edited(lambda m: m["links"][0].update(target=0)), None, "meta.json",
                       "links[0]: link 0 -> 0 outside a loop-free 6-node network"),
    "witnesses-empty": (_set_witnesses([]), None, "meta.json", "links[0]: witnesses must not be empty"),
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
