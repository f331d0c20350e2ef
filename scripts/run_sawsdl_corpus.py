#!/usr/bin/env python3
"""Full corpus study: SAWSDL directory -> two networks -> side-by-side table.

Points at a directory tree of .wsdl/.sawsdl files (e.g. an unpacked
SAWSDL-TC1 corpus), extracts the syntactic and semantic dependency
networks, runs the complete metric battery on both giants, and writes
reports, community partitions, dendrograms, degree distributions, and
the comparison table under --out. Exit codes match the CLI contract:
1 for a bad argument, 2 for unreadable input, 3 for degenerate analysis.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wsdepnet.analysis import analyze_with_communities
from wsdepnet.cli import _config_int, _Parser
from wsdepnet.community import dendrogram_csv, partition_csv
from wsdepnet.errors import CollectionError, DegenerateAnalysisError
from wsdepnet.matching import MatcherKind
from wsdepnet.model import collection_stats
from wsdepnet.network import build_network, save_network
from wsdepnet.powerlaw import degree_distribution_csv
from wsdepnet.report import (
    AnalysisConfig,
    compare,
    comparison_to_json,
    render_comparison_text,
    render_text,
    report_to_json,
)
from wsdepnet.sawsdl import load_sawsdl
from wsdepnet.topology import degree_stats


def run_matcher(collection, kind, config, casefold, out):
    tag = kind.value
    network = build_network(collection, kind, casefold=casefold)
    save_network(network, out / f"{tag}.graphml")

    def write(name: str, text: str) -> None:
        (out / f"{tag}.{name}").write_text(text, encoding="utf-8")

    report, giant, result = analyze_with_communities(network, config)
    write("report.json", report_to_json(report))
    write("report.txt", render_text(report))
    if result is None:
        raise DegenerateAnalysisError("walktrap", report.degenerate["communities"])
    write("communities.csv", partition_csv(giant, result.partition))
    write("dendrogram.csv", dendrogram_csv(result.merges))
    stats = degree_stats(giant)
    for which, series in (("in", stats.in_degrees), ("out", stats.out_degrees), ("all", stats.total_degrees)):
        write(f"degree-{which}.csv", degree_distribution_csv(series))

    print(
        f"{report.label}: network {report.network_nodes}/{report.network_links}, "
        f"giant {giant.node_count}/{giant.link_count}, "
        f"isolated fraction {report.isolated_fraction:.3f}"
    )
    return report


def study(collection, config: AnalysisConfig, casefold: bool, out: Path) -> None:
    """Both networks of `collection`, their artifacts and the comparison, under `out`.

    Raises DegenerateAnalysisError where a network has no Walktrap communities.
    """
    stats = collection_stats(collection)
    print(
        f"collection: {stats.services} services, {stats.operations} operations, "
        f"{stats.instance_count} parameter instances, "
        f"{stats.distinct_names} distinct names, "
        f"{stats.distinct_concepts} distinct concepts"
    )
    syntactic = run_matcher(collection, MatcherKind.SYNTACTIC_EQUAL, config, casefold, out)
    semantic = run_matcher(collection, MatcherKind.SEMANTIC_EXACT, config, casefold, out)

    comparison = compare(syntactic, semantic)
    (out / "comparison.json").write_text(comparison_to_json(comparison), encoding="utf-8")
    text = render_comparison_text(comparison)
    (out / "comparison.txt").write_text(text, encoding="utf-8")
    print()
    print(text, end="")
    print(f"\nartifacts in {out}/")


def analysis_parser(description: str, er_samples: int, bootstrap: int) -> _Parser:
    """A parser with the CLI's `analyze` options and checks; usage errors exit 1."""
    parser = _Parser(description=description)
    parser.add_argument("--er-samples", type=_config_int("er_samples"), default=er_samples)
    parser.add_argument(
        "--bootstrap", type=_config_int("bootstrap_n"), default=bootstrap, help="0 skips the p-value bootstrap"
    )
    parser.add_argument("--walktrap-t", type=_config_int("walktrap_t"), default=4)
    parser.add_argument("--seed", type=_config_int("seed"), default=0)
    return parser


def config_of(args) -> AnalysisConfig:
    return AnalysisConfig(
        er_samples=args.er_samples, bootstrap_n=args.bootstrap, walktrap_t=args.walktrap_t, seed=args.seed
    )


def main(argv=None) -> int:
    parser = analysis_parser(__doc__, er_samples=100, bootstrap=1000)
    parser.add_argument("corpus", help="directory of WSDL/SAWSDL descriptions")
    parser.add_argument("--out", default="corpus_out", help="output directory")
    parser.add_argument("--casefold", action="store_true",
                        help="case-insensitive syntactic matching")
    args = parser.parse_args(argv)

    try:
        collection = load_sawsdl(args.corpus)
    except (CollectionError, OSError) as exc:
        print(f"cannot read corpus: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        study(collection, config_of(args), args.casefold, out)
    except DegenerateAnalysisError as exc:
        print(f"degenerate analysis: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
