"""The scripts: one Walktrap per network, the CLI's bytes and exit codes, the benchmark verdict,
the differing JSON values of two outputs."""

import re
import sys
from pathlib import Path

import pytest

from wsdepnet import analysis, community, topology
from wsdepnet.cli import main as cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import bench_pairs  # noqa: E402
import run_demo  # noqa: E402
import run_sawsdl_corpus  # noqa: E402
import same_outputs  # noqa: E402

MATCHERS = ("syntactic-equal", "semantic-exact")

# one operation with an input and no output: two nodes, no links
LINKLESS_WSDL = """<?xml version="1.0"?>
<wsdl:definitions name="Lone" xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/" xmlns:tns="urn:lone">
  <wsdl:message name="In">
    <wsdl:part name="a" type="xsd:string"/>
    <wsdl:part name="b" type="xsd:string"/>
  </wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="op"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
</wsdl:definitions>
"""


# walktrap checks connectivity once per run, and giant_subnetwork decomposes
# once per run, so the last two count runs from any caller, a script included
COUNTED = (
    (analysis, "walktrap"),
    (analysis, "giant_subnetwork"),
    (community, "weak_components_of"),
    (topology, "components"),
)


def test_demo_runs_walktrap_once_per_network_and_writes_the_cli_bytes(tmp_path, monkeypatch):
    calls = dict.fromkeys((name for _, name in COUNTED), 0)
    for module, name in COUNTED:

        def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    out = tmp_path / "demo"
    assert run_demo.main(["--out", str(out), "--er-samples", "2", "--bootstrap", "100"]) == 0
    assert calls == dict.fromkeys(calls, 2)  # one per matcher

    for matcher in MATCHERS:
        graphml, expected = str(out / f"{matcher}.graphml"), tmp_path / matcher
        expected.mkdir()
        analysis = ["analyze", graphml, "--er-samples", "2", "--bootstrap", "100"]
        assert cli([*analysis, "--out", str(expected / "report.json")]) == 0
        assert cli([*analysis, "--report", "text", "--out", str(expected / "report.txt")]) == 0
        assert cli(["communities", graphml, "--out", str(expected / "communities.csv"),
                    "--dendrogram", str(expected / "dendrogram.csv")]) == 0
        for which in ("in", "out", "all"):
            assert cli(["degree-dist", graphml, "--giant", "--which", which,
                        "--out", str(expected / f"degree-{which}.csv")]) == 0
        for path in sorted(expected.iterdir()):
            assert (out / f"{matcher}.{path.name}").read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize(
    "script, argv, message",
    [
        (run_demo, ["--er-samples", "0"], "samples must be >= 1, got 0"),
        (run_demo, ["--er-samples", "abc"], "invalid int value: 'abc'"),
        (run_demo, ["--walktrap-t", "0"], "t must be >= 1, got 0"),
        (run_sawsdl_corpus, ["corpus", "--bootstrap", "50"], "bootstrap_n must be 0 or >= 100, got 50"),
        (run_sawsdl_corpus, ["corpus", "--er-samples", "abc"], "invalid int value: 'abc'"),
        (run_demo, ["--seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_bad_argument_exits_1_and_writes_nothing(tmp_path, capsys, script, argv, message):
    with pytest.raises(SystemExit) as exit_:
        script.main([*argv, "--out", str(tmp_path / "out")])
    assert exit_.value.code == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_corpus_exits_2_and_writes_nothing(tmp_path, capsys):
    assert run_sawsdl_corpus.main([str(tmp_path / "missing"), "--out", str(tmp_path / "out")]) == 2
    assert "cannot read corpus: not a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_empty_corpus_exits_2_and_writes_nothing(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    assert run_sawsdl_corpus.main([str(corpus), "--out", str(tmp_path / "out")]) == 2
    assert f"cannot read corpus: no service description files (.wsdl, .sawsdl) under {corpus}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [corpus]


def test_linkless_collection_exits_3(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "lone.wsdl").write_text(LINKLESS_WSDL, encoding="utf-8")
    out = tmp_path / "out"
    assert run_sawsdl_corpus.main([str(corpus), "--out", str(out), "--er-samples", "2", "--bootstrap", "0"]) == 3
    assert capsys.readouterr().err == "degenerate analysis: walktrap: no links\n"
    assert (out / "syntactic-equal.report.json").is_file()
    assert not (out / "syntactic-equal.communities.csv").exists()


def test_time_walktrap_check_agrees_with_the_heap_reference(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ and tests/ on it
    import time_walktrap

    monkeypatch.setattr(time_walktrap, "NODES", 60)
    assert time_walktrap.main(["--check"]) == 0
    timed, reference = capsys.readouterr().out.splitlines()
    assert timed.startswith("walktrap: 60 nodes, 174 links, t=4: ")
    assert timed.split(", partition sha256 ")[1].split(",")[0] == reference.split("partition sha256 ")[1]
    assert re.fullmatch(r".*, dendrogram sha256 [0-9a-f]{64}, peak RSS \d+\.\d MB", timed)


PARENT = [1.00, 0.98, 1.02, 0.99, 1.01]  # median 1.00, interquartile range 0.02


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        (PARENT, [1.20, 1.22, 1.18, 1.24, 1.21], "lower", "within"),  # +21% against a 25% bound
        (PARENT, [0.60, 0.61, 0.59, 0.62, 0.58], "lower", "within"),  # a gain is no regression
        (PARENT, [1.30, 1.31, 1.29, 1.28, 1.32], "lower", "worse"),  # +30%
        (PARENT, [0.70, 0.71, 0.69, 0.72, 0.68], "higher", "worse"),  # -30% where higher is better
        ([1.0, 0.5, 1.5, 0.6, 1.4], [1.0] * 5, "lower", "unresolved"),  # parent IQR 0.8 > 25% of 1.0
        ([0.0] * 5, [0.0] * 5, "lower", "unresolved"),
    ],
)
def test_bench_pairs_verdict(parent, change, better, expected):
    assert bench_pairs.verdict(parent, change, 0.25, better) == expected


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        (PARENT, [0.60, 0.61, 0.59, 0.62, 0.58], "lower", True),  # 5/5, gap 0.40 > IQR 0.02
        (PARENT, [1.20, 1.22, 1.18, 1.24, 1.21], "lower", False),
        (PARENT, [1.20, 1.22, 1.18, 1.24, 1.21], "higher", True),
        (PARENT, [0.60, 0.61, 0.59, 0.62, 1.50], "lower", False),  # 4/5 pairs won
        (PARENT, [1.00, 0.60, 0.60, 0.60, 0.60], "lower", False),  # a tie counts for neither side
        ([1.0, 0.5, 1.5, 0.6, 1.4], [0.9, 0.4, 1.4, 0.5, 1.3], "lower", False),  # gap 0.1 < IQR 0.8
        ([1.0] * 9 + [0.5], [0.9] * 10, "lower", True),  # 9/10 pairs won, gap 0.1 > IQR 0
    ],
)
def test_bench_pairs_gain(parent, change, better, expected):
    assert bench_pairs.gain(parent, change, better) is expected


REPORT = {"power_law": {"all": {"alpha": 2.1, "p_value": 0.821}, "in": None}, "degenerate": {}, "rows": [1, 2]}


@pytest.mark.parametrize(
    "change, expected",
    [
        (REPORT, []),
        (
            {**REPORT, "power_law": {"all": {"alpha": 2.1, "p_value": 0.816}, "in": None}},
            ["power_law.all.p_value 0.821 -> 0.816"],
        ),
        (
            {**REPORT, "degenerate": {"power_law_all_p_value": "past int64"}},
            ['degenerate.power_law_all_p_value <absent> -> "past int64"'],
        ),
        ({**REPORT, "power_law": {"all": None, "in": None}}, ['power_law.all {"alpha": 2.1, "p_value": 0.821} -> null']),
        ({**REPORT, "rows": [1, 2.0, 3]}, ["rows.1 2 -> 2.0", "rows.2 <absent> -> 3"]),
        ({k: v for k, v in REPORT.items() if k != "rows"}, ["rows [1, 2] -> <absent>"]),
    ],
)
def test_same_outputs_names_differing_json_values(change, expected):
    assert same_outputs.json_differences(REPORT, change) == expected


def test_same_outputs_names_a_differing_document():
    assert same_outputs.json_differences([1], {"a": 1}) == ['(document) [1] -> {"a": 1}']
    assert same_outputs.json_differences(True, 1) == ["(document) true -> 1"]


def test_same_outputs_runs_communities_on_every_analyzed_network(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import WORKLOADS

    pair = WORKLOADS["paper-pair"]
    ops = pair.operations({"collection": tmp_path / "c.json"}, tmp_path, pair.profiles["smoke"])
    extra = same_outputs.community_ops(ops, tmp_path)
    assert [op.name for op in extra] == [f"communities {m}" for m in MATCHERS]
    assert [op.argv[:4] for op in extra] == [["communities", str(tmp_path / f"{m}.graphml"), "--t", "4"] for m in MATCHERS]

    scale = WORKLOADS["scale-10x"]
    sizes = scale.profiles["smoke"]
    inputs = scale.generate(tmp_path, 0, sizes)
    (op,) = same_outputs.community_ops(scale.operations(inputs, tmp_path, sizes), tmp_path / "out")
    (tmp_path / "out").mkdir()
    assert cli(op.argv) == 0
    partition, dendrogram = op.outputs
    assert partition.read_text().startswith("node_id,label,community_id\n")
    assert len(dendrogram.read_text().splitlines()) == sizes["nodes"]  # header + n - 1 merges


@pytest.mark.parametrize("name", ["paper-pair", "scale-10x", "corpus-extract"])
def test_each_workloads_traced_pass_writes_the_cli_bytes(tmp_path, monkeypatch, capsys, name):
    # the traced pass calls the library as the CLI does and replays analyze stage by stage
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    sizes = workload.profiles["smoke"]
    (tmp_path / "input").mkdir()
    inputs = workload.generate(tmp_path / "input", 0, sizes)
    traced, timed = tmp_path / "traced", tmp_path / "timed"
    traced.mkdir()
    timed.mkdir()
    tracer = Tracer(trace_id=name)
    analyses = workload.traced_pass(tracer, inputs, traced, sizes)
    assert len(analyses) == {"paper-pair": 2, "scale-10x": 1, "corpus-extract": 0}[name]
    assert all(span["end"] is not None for span in tracer.spans)
    for op in workload.operations(inputs, timed, sizes):
        assert cli(op.argv) == 0, op.name
        for path in op.outputs:
            assert (traced / path.name).read_bytes() == path.read_bytes(), path.name
    capsys.readouterr()
