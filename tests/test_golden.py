"""Golden reports: a checked-in collection and its expected JSON, compared byte for byte.

`data/golden/collection.json` is `bench/generators.write_paper_pair(dir,
seed=0, nodes=60, links=140, vocab=300)`; each `<matcher>.report.json` is
its `wsdepnet extract` + `wsdepnet analyze --er-samples 5 --bootstrap 100`.
Each `<matcher>.communities.csv` and `.dendrogram.csv` is `wsdepnet
communities --dendrogram` of that network, and each `.degree-<which>.csv` is
`wsdepnet degree-dist --giant --which <which>`. `comparison.json` and
`comparison.txt` are `wsdepnet compare` of the two reports, syntactic on the
left, in each report format. Any change to a reported number, down to the
last bit of a float, fails.
"""

from pathlib import Path

import pytest

from helpers import fresh_interpreter
from wsdepnet import AnalysisConfig, MatcherKind, analyze, build_network, load_canonical, report_to_json
from wsdepnet.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
MATCHERS = ("syntactic-equal", "semantic-exact")
CONFIG = AnalysisConfig(er_samples=5, bootstrap_n=100)

# analyze of the golden collection under the OpenBLAS kernel named in argv[1]
KERNEL_PROBE = """
import json, os, sys
os.environ["OPENBLAS_CORETYPE"] = sys.argv[1]  # read once, when numpy loads OpenBLAS
from pathlib import Path
from wsdepnet import AnalysisConfig, MatcherKind, analyze, build_network, load_canonical, report_to_json
collection = load_canonical(Path(sys.argv[2]) / "collection.json")
config = AnalysisConfig(er_samples=5, bootstrap_n=100)
print(json.dumps([report_to_json(analyze(build_network(collection, MatcherKind(m)), config)) for m in sys.argv[3:]]))
"""


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


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_report_bytes_do_not_depend_on_the_openblas_kernel(coretype):
    reports = fresh_interpreter(KERNEL_PROBE, coretype, str(GOLDEN), *MATCHERS)
    for matcher, text in zip(MATCHERS, reports, strict=True):
        assert text == (GOLDEN / f"{matcher}.report.json").read_text(encoding="utf-8"), matcher


@pytest.mark.parametrize("matcher", MATCHERS)
def test_cli_csvs_match_golden(tmp_path, matcher):
    graphml = tmp_path / "net.graphml"
    assert main(["extract", "--collection", str(GOLDEN / "collection.json"),
                 "--matcher", matcher, "--out", str(graphml)]) == 0
    assert main(["communities", str(graphml), "--out", str(tmp_path / "communities.csv"),
                 "--dendrogram", str(tmp_path / "dendrogram.csv")]) == 0
    for which in ("in", "out", "all"):
        assert main(["degree-dist", str(graphml), "--giant", "--which", which,
                     "--out", str(tmp_path / f"degree-{which}.csv")]) == 0
    for name in ("communities", "dendrogram", "degree-in", "degree-out", "degree-all"):
        assert (tmp_path / f"{name}.csv").read_bytes() == (GOLDEN / f"{matcher}.{name}.csv").read_bytes(), name


@pytest.mark.parametrize("form, name", [("json", "comparison.json"), ("text", "comparison.txt")])
def test_cli_comparison_matches_golden(tmp_path, form, name):
    out = tmp_path / name
    reports = [str(GOLDEN / f"{matcher}.report.json") for matcher in MATCHERS]
    assert main(["compare", *reports, "--report", form, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
