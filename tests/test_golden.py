"""Golden reports: a checked-in collection and its expected JSON, compared byte for byte.

`data/golden/collection.json` is `bench/generators.write_paper_pair(dir,
seed=0, nodes=60, links=140, vocab=300)`; each `<matcher>.report.json` is
its `wsdepnet extract` + `wsdepnet analyze --er-samples 5 --bootstrap 100`.
Any change to a reported number, down to the last bit of a float, fails.
"""

from pathlib import Path

import pytest

from wsdepnet import AnalysisConfig, MatcherKind, analyze, build_network, load_canonical, report_to_json
from wsdepnet.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
MATCHERS = ("syntactic-equal", "semantic-exact")
CONFIG = AnalysisConfig(er_samples=5, bootstrap_n=100)


@pytest.mark.parametrize("matcher", MATCHERS)
def test_cli_report_matches_golden(tmp_path, matcher):
    graphml = tmp_path / "net.graphml"
    report = tmp_path / "report.json"
    assert main(["extract", "--collection", str(GOLDEN / "collection.json"),
                 "--matcher", matcher, "--out", str(graphml)]) == 0
    assert main(["analyze", str(graphml), "--er-samples", "5", "--bootstrap", "100",
                 "--out", str(report)]) == 0
    assert report.read_bytes() == (GOLDEN / f"{matcher}.report.json").read_bytes()


@pytest.mark.parametrize("matcher", MATCHERS)
def test_in_memory_report_matches_golden(matcher):
    """A network analyzed as built gives the bytes of one saved and loaded."""
    network = build_network(load_canonical(GOLDEN / "collection.json"), MatcherKind(matcher))
    text = report_to_json(analyze(network, CONFIG))
    assert text == (GOLDEN / f"{matcher}.report.json").read_text(encoding="utf-8")
