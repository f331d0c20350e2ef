"""Command-line surface.

Subcommands: extract, analyze, compare, communities, degree-dist, export.
Exit codes: 0 success, 1 usage error, 2 input/parse error or an output
path that cannot be written, 3 degenerate analysis (metric undefined on
the given network), 4 analysis error (the helper process of `analyze`
ended without its results; the message names its exit status).

The analysis modules are imported by the commands that use them, so
extract, export and compare start without loading numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Sequence

from .errors import CollectionError, DegenerateAnalysisError, HelperProcessError
from .matching import MatcherKind
from .model import load_canonical
from .network import EXPORT_FORMATS, build_network, export, load_network, save_network
from .sawsdl import load_sawsdl


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for input
    # errors, so remap to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _config_int(name: str):
    """argparse type: an int that passes the rule of AnalysisConfig field `name`,
    else a usage error naming the field and its rule."""

    def parse(text: str) -> int:
        from .report import CONFIG_RULES  # here, so extract and export need not load it

        valid, rule = CONFIG_RULES[name]
        value = int(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


class _OutputError(Exception):
    """An output path that the operating system refused to write."""


@contextlib.contextmanager
def _writing(path: str):
    try:
        yield
    except OSError as exc:
        raise _OutputError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with _writing(out):
            Path(out).write_text(text, encoding="utf-8")


def _cmd_extract(args) -> int:
    if args.format == "canonical":
        collection = load_canonical(args.collection)
    else:
        collection = load_sawsdl(args.collection)
    network = build_network(collection, MatcherKind(args.matcher), casefold=args.casefold)
    with _writing(args.out):
        save_network(network, args.out)
    print(
        f"extracted {network.node_count} nodes, {network.link_count} links "
        f"({network.self_loop_count} self-loops suppressed) -> {args.out}"
    )
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import analyze
    from .report import AnalysisConfig, render_text, report_to_json

    network = load_network(args.net_file)
    config = AnalysisConfig(
        er_samples=args.er_samples,
        bootstrap_n=args.bootstrap,
        walktrap_t=args.walktrap_t,
        seed=args.seed,
    )
    report = analyze(network, config, label=args.label)
    text = report_to_json(report) if args.report == "json" else render_text(report)
    _write_output(text, args.out)
    return 0


def _cmd_compare(args) -> int:
    from .report import compare, comparison_to_json, render_comparison_text, report_from_json

    left = report_from_json(Path(args.report_a).read_bytes(), source=args.report_a)
    right = report_from_json(Path(args.report_b).read_bytes(), source=args.report_b)
    comparison = compare(left, right)
    text = comparison_to_json(comparison) if args.report == "json" else render_comparison_text(comparison)
    _write_output(text, args.out)
    return 0


def _cmd_communities(args) -> int:
    from .community import dendrogram_csv, partition_csv, walktrap
    from .topology import giant_subnetwork

    network = load_network(args.net_file)
    giant, _ = giant_subnetwork(network)
    result = walktrap(giant, t=args.t)
    if args.dendrogram:  # first, so a dendrogram that cannot be written leaves no partition
        with _writing(args.dendrogram):
            Path(args.dendrogram).write_text(dendrogram_csv(result.merges), encoding="utf-8")
    _write_output(partition_csv(giant, result.partition), args.out)
    print(
        f"communities={result.partition.community_count} "
        f"modularity={result.partition.modularity:.4f} t={args.t}",
        file=sys.stderr,
    )
    return 0


def _cmd_degree_dist(args) -> int:
    from .powerlaw import degree_distribution_csv
    from .topology import degree_stats, giant_subnetwork

    network = load_network(args.net_file)
    if args.giant:
        network, _ = giant_subnetwork(network)
    stats = degree_stats(network)
    series = {
        "in": stats.in_degrees,
        "out": stats.out_degrees,
        "all": stats.total_degrees,
    }[args.which]
    _write_output(degree_distribution_csv(series), args.out)
    return 0


def _cmd_export(args) -> int:
    network = load_network(args.net_file)
    _write_output(export(network, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wsdepnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="build a dependency network from a collection")
    p.add_argument("--collection", required=True, help="canonical JSON file or SAWSDL directory")
    p.add_argument("--format", choices=("canonical", "sawsdl"), default="canonical")
    p.add_argument("--matcher", choices=tuple(k.value for k in MatcherKind), required=True)
    p.add_argument("--casefold", action="store_true", help="case-insensitive name matching")
    p.add_argument("--out", required=True, help="output network file (GraphML + sidecar)")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("analyze", help="compute the full metric report")
    p.add_argument("net_file")
    p.add_argument("--report", choices=("json", "text"), default="json")
    p.add_argument("--er-samples", type=_config_int("er_samples"), default=100)
    p.add_argument("--bootstrap", type=_config_int("bootstrap_n"), default=1000, help="0 skips the p-value bootstrap")
    p.add_argument("--walktrap-t", type=_config_int("walktrap_t"), default=4)
    p.add_argument("--seed", type=_config_int("seed"), default=0)
    p.add_argument("--label", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="diff two JSON reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--report", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("communities", help="Walktrap partition of the giant component")
    p.add_argument("net_file")
    p.add_argument("--t", type=_config_int("walktrap_t"), default=4, help="random-walk length")
    p.add_argument("--out", default=None, help="partition CSV path (default stdout)")
    p.add_argument("--dendrogram", default=None, help="also write the merge list CSV here")
    p.set_defaults(func=_cmd_communities)

    p = sub.add_parser("degree-dist", help="degree,count,ccdf table")
    p.add_argument("net_file")
    p.add_argument("--which", choices=("in", "out", "all"), default="all")
    p.add_argument("--giant", action="store_true", help="restrict to the giant component")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_degree_dist)

    p = sub.add_parser("export", help="serialize a network")
    p.add_argument("net_file")
    p.add_argument("--format", choices=tuple(EXPORT_FORMATS), default="graphml")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DegenerateAnalysisError as exc:
        print(f"wsdepnet: degenerate analysis: {exc}", file=sys.stderr)
        return 3
    except (CollectionError, OSError) as exc:
        print(f"wsdepnet: input error: {exc}", file=sys.stderr)
        return 2
    except _OutputError as exc:
        print(f"wsdepnet: output error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"wsdepnet: error: {exc}", file=sys.stderr)
        return 1
    except HelperProcessError as exc:
        print(f"wsdepnet: analysis error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
