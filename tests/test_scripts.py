"""The scripts: one Walktrap per network, the CLI's bytes and exit codes, the benchmark verdict."""

import sys
from pathlib import Path

import pytest

from wsdepnet import community, report, topology
from wsdepnet.cli import main as cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import bench_pairs  # noqa: E402
import run_demo  # noqa: E402
import run_sawsdl_corpus  # noqa: E402

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
    (report, "walktrap"),
    (report, "giant_subnetwork"),
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
        (run_sawsdl_corpus, ["corpus", "--bootstrap", "50"], "replicates must be 0 or >= 100, got 50"),
        (run_sawsdl_corpus, ["corpus", "--er-samples", "abc"], "invalid int value: 'abc'"),
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
