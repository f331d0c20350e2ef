"""Metric reports and network comparisons, with no numpy or metric module.

A `MetricsReport` holds what `analysis.analyze` measured on the giant
component of a network; `compare` lines two up side by side (conventionally
syntactic on the left, semantic on the right) and evaluates the headline
narrative flags. JSON renderings are canonical (sorted keys, full
precision); text renderings round reals to 2 decimals.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import types
import typing
from dataclasses import asdict, dataclass, field

from .errors import CollectionError

_TAILS = ("in", "out", "all")  # the power-law fits of a report


def __getattr__(name: str):
    # `bench/` imports analyze from here, its home until it moved to `analysis`;
    # it resolves on first use (PEP 562), so importing this loads no numpy
    if name not in ("analyze", "analyze_with_communities"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".analysis", __package__), name)


@dataclass
class AnalysisConfig:
    er_samples: int = 100
    bootstrap_n: int = 1000
    walktrap_t: int = 4
    seed: int = 0


# Each AnalysisConfig field -> (the test its value must pass, that rule in words)
CONFIG_RULES = {
    "er_samples": (lambda v: v >= 1, ">= 1"),
    "bootstrap_n": (lambda v: v == 0 or v >= 100, "0 or >= 100"),
    "walktrap_t": (lambda v: v >= 1, ">= 1"),
    "seed": (lambda v: v >= 0, ">= 0"),
}


def _checked(config: AnalysisConfig) -> AnalysisConfig:
    """Return `config` if analyze accepts it, else raise ValueError naming the field."""
    for name, (valid, rule) in CONFIG_RULES.items():
        if not valid(value := getattr(config, name)):
            raise ValueError(f"{name} must be {rule}, got {value}")
    return config


@dataclass
class PowerLawFit:
    alpha: float
    xmin: int
    ks_statistic: float
    p_value: float | None
    n_tail: int
    bootstrap_n: int


@dataclass
class MetricsReport:
    label: str
    matcher: str
    network_nodes: int
    network_links: int
    isolated_fraction: float
    giant_node_fraction: float
    giant_link_fraction: float
    nodes: int
    links: int
    avg_distance_directed: float | None
    avg_distance_undirected: float | None
    diameter_directed: int
    diameter_undirected: int
    finite_directed_pairs: int
    transitivity: float
    degree_correlation: float | None
    avg_in_degree: float
    avg_out_degree: float
    avg_total_degree: float
    max_total_degree: int
    er_avg_distance: float | None
    er_avg_distance_sd: float | None
    er_transitivity: float | None
    er_transitivity_sd: float | None
    er_analytic_distance: float | None
    er_analytic_transitivity: float | None
    power_law: dict[str, PowerLawFit | None]
    communities: int | None
    modularity: float | None
    degenerate: dict[str, str] = field(default_factory=dict)
    config: AnalysisConfig = field(default_factory=AnalysisConfig)


# Report rows of the text renderings, (title, field), in order.
_TEXT_ROWS = (
    ("Nodes (giant)", "nodes"),
    ("Links (giant)", "links"),
    ("Network nodes", "network_nodes"),
    ("Network links", "network_links"),
    ("Isolated fraction", "isolated_fraction"),
    ("Giant node fraction", "giant_node_fraction"),
    ("Giant link fraction", "giant_link_fraction"),
    ("Avg distance (directed)", "avg_distance_directed"),
    ("Avg distance (undirected)", "avg_distance_undirected"),
    ("Diameter (directed)", "diameter_directed"),
    ("Diameter (undirected)", "diameter_undirected"),
    ("Finite directed pairs", "finite_directed_pairs"),
    ("Transitivity", "transitivity"),
    ("Degree correlation", "degree_correlation"),
    ("Avg in-degree", "avg_in_degree"),
    ("Avg out-degree", "avg_out_degree"),
    ("Avg total degree", "avg_total_degree"),
    ("Max total degree", "max_total_degree"),
    ("ER avg distance", "er_avg_distance"),
    ("ER transitivity", "er_transitivity"),
    ("ER analytic distance", "er_analytic_distance"),
    ("ER analytic transitivity", "er_analytic_transitivity"),
    ("Communities", "communities"),
    ("Modularity", "modularity"),
)

# Scalar fields differenced by compare(); power-law deltas are added per tail.
_DELTA_FIELDS = tuple(
    name
    for _, name in _TEXT_ROWS
    if name not in ("finite_directed_pairs", "er_analytic_distance", "er_analytic_transitivity")
)


@dataclass
class ComparisonReport:
    left: MetricsReport
    right: MetricsReport
    deltas: dict[str, float | None]
    narrative_flags: dict[str, bool]


def compare(a: MetricsReport, b: MetricsReport) -> ComparisonReport:
    """Right-minus-left deltas plus the headline flags.

    The flags read `b` as the semantic network: smaller_semantic_diameter
    compares directed diameters, larger_semantic_giant_fraction the share of
    nodes in the giant, fewer_semantic_nodes the full network node counts.
    """
    deltas: dict[str, float | None] = {}
    for name in _DELTA_FIELDS:
        left, right = getattr(a, name), getattr(b, name)
        deltas[name] = None if left is None or right is None else right - left
    for key in _TAILS:
        for attr in ("alpha", "p_value"):
            va, vb = getattr(a.power_law.get(key), attr, None), getattr(b.power_law.get(key), attr, None)
            deltas[f"power_law_{key}_{attr}"] = None if va is None or vb is None else vb - va
    flags = {
        "smaller_semantic_diameter": b.diameter_directed < a.diameter_directed,
        "larger_semantic_giant_fraction": b.giant_node_fraction > a.giant_node_fraction,
        "fewer_semantic_nodes": b.network_nodes < a.network_nodes,
    }
    return ComparisonReport(left=a, right=b, deltas=deltas, narrative_flags=flags)


def _jsonable(value):
    """`value` with every dict recursed into and every non-finite float made null."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def report_to_dict(r: MetricsReport) -> dict:
    return _jsonable(asdict(r))


def report_to_json(r: MetricsReport) -> str:
    return json.dumps(report_to_dict(r), indent=2, sort_keys=True) + "\n"


def _object(value) -> dict:
    if type(value) is not dict:
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


# JSON types a scalar annotation accepts; a bool is not a number here
_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


@functools.cache
def _scalar_fields(cls) -> list[tuple[str, tuple[type, ...], str]]:
    """(name, accepted JSON types, their description) of each scalar field of a dataclass."""
    fields = []
    for name, hint in typing.get_type_hints(cls).items():
        options = set(typing.get_args(hint)) if isinstance(hint, types.UnionType) else {hint}
        optional = type(None) in options
        options.discard(type(None))
        if len(options) == 1 and (kind := options.pop()) in _SCALARS:
            accepted, noun = _SCALARS[kind]
            if optional:
                accepted, noun = (*accepted, type(None)), f"{noun} or null"
            fields.append((name, accepted, noun))
    return fields


def _typed(instance):
    """Return the dataclass `instance` once each scalar field has its annotated JSON type."""
    for name, accepted, noun in _scalar_fields(type(instance)):
        value = getattr(instance, name)
        if type(value) not in accepted:
            raise TypeError(f"{name} must be {noun}, got {value!r}")
    return instance


def report_from_dict(d: dict, source: str = "report") -> MetricsReport:
    """Inverse of report_to_dict.

    Fails closed: a report that is not an object, lacks a key, has an
    unknown one, a power-law entry that is neither an object nor null, a
    `power_law` whose tails are not exactly in, out and all, a `degenerate`
    that does not map strings to strings, a scalar field whose JSON type
    does not match its annotation (ints where int is declared, ints or
    floats where float is, null only where the type is optional, never a
    bool for a number), or a config that analyze would refuse raises
    CollectionError naming `source` and the key at fault.
    """
    # one try for the whole report, as in load_network: a failure is
    # located by the key reached when it was raised
    where = "top level"
    try:
        data = dict(_object(d))
        fits, config, degenerate = data["power_law"], data["config"], data["degenerate"]
        where = "power_law"
        data["power_law"] = {}
        for tail, fit in _object(fits).items():
            where = f"power_law.{tail}"
            data["power_law"][tail] = None if fit is None else _typed(PowerLawFit(**_object(fit)))
        where = "power_law"
        if missing := [tail for tail in _TAILS if tail not in fits]:
            raise KeyError(missing[0])
        if extra := [tail for tail in fits if tail not in _TAILS]:
            raise TypeError(f"unknown tail {extra[0]!r}")
        where = "degenerate"
        for metric, reason in _object(degenerate).items():
            if type(metric) is not str or type(reason) is not str:
                raise TypeError(f"{metric} must be a string, got {reason!r}")
        where = "config"
        data["config"] = _checked(_typed(AnalysisConfig(**_object(config))))
        where = "top level"
        return _typed(MetricsReport(**data))
    except KeyError as exc:
        raise CollectionError(f"{source}: {where}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CollectionError(f"{source}: {where}: {exc}") from None


def report_from_json(text: str | bytes, source: str = "report") -> MetricsReport:
    """Parse a report written by report_to_json; errors as in report_from_dict."""
    try:
        d = json.loads(text)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise CollectionError(f"{source}: parse error: {exc}") from exc
    return report_from_dict(d, source)


def comparison_to_dict(c: ComparisonReport) -> dict:
    return _jsonable(asdict(c))


def comparison_to_json(c: ComparisonReport) -> str:
    return json.dumps(comparison_to_dict(c), indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _fmt_fit(fit: PowerLawFit | None) -> str:
    if fit is None:
        return "n/a"
    return (
        f"alpha={_fmt(fit.alpha)} xmin={fit.xmin} ks={_fmt(fit.ks_statistic)} "
        f"p={_fmt(fit.p_value)} tail={fit.n_tail}"
    )


def render_text(r: MetricsReport) -> str:
    lines = [f"Dependency network report: {r.label} (matcher {r.matcher})"]
    for title, name in _TEXT_ROWS:
        lines.append(f"  {title:<28}{_fmt(getattr(r, name))}")
    for key in _TAILS:
        lines.append(f"  {'Power law (' + key + ')':<28}{_fmt_fit(r.power_law.get(key))}")
    if r.degenerate:
        notes = "; ".join(f"{k}: {v}" for k, v in sorted(r.degenerate.items()))
        lines.append(f"  {'Degenerate':<28}{notes}")
    cfg = r.config
    lines.append(
        f"  {'Config':<28}er_samples={cfg.er_samples} bootstrap_n={cfg.bootstrap_n} "
        f"walktrap_t={cfg.walktrap_t} seed={cfg.seed}"
    )
    return "\n".join(lines) + "\n"


def render_comparison_text(c: ComparisonReport) -> str:
    width = 28
    lines = [f"Comparison: {c.left.label} vs {c.right.label}"]
    lines.append(f"  {'Metric':<{width}}{c.left.label:>12}{c.right.label:>12}{'delta':>12}")
    for title, name in _TEXT_ROWS:
        left = _fmt(getattr(c.left, name))
        right = _fmt(getattr(c.right, name))
        delta = _fmt(c.deltas.get(name)) if name in c.deltas else ""
        lines.append(f"  {title:<{width}}{left:>12}{right:>12}{delta:>12}")
    for key in _TAILS:
        for attr in ("alpha", "p_value"):
            left = _fmt(getattr(c.left.power_law.get(key), attr, None))
            right = _fmt(getattr(c.right.power_law.get(key), attr, None))
            delta = _fmt(c.deltas.get(f"power_law_{key}_{attr}"))
            lines.append(f"  {f'Power law {key} {attr}':<{width}}{left:>12}{right:>12}{delta:>12}")
    for flag, value in c.narrative_flags.items():
        lines.append(f"  flag {flag:<32}{_fmt(value)}")
    return "\n".join(lines) + "\n"
