"""Metric reports and network comparisons.

`analyze` runs every metric on the giant component of a dependency network
and bundles the results; `compare` lines two such reports up side by side
(conventionally syntactic on the left, semantic on the right) and evaluates
the headline narrative flags. JSON renderings are canonical (sorted keys,
full precision); text renderings round reals to 2 decimals.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
import types
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from .errors import CollectionError, DegenerateAnalysisError
from .community import walktrap
from .network import DependencyNetwork, network_summary
from .powerlaw import PowerLawFit, fit_power_law
from .topology import (
    ERBaseline,
    degree_correlation,
    degree_stats,
    distances,
    er_baseline,
    giant_subnetwork,
    transitivity,
)

_DEFAULT_LABELS = {"syntactic-equal": "N^Eq", "semantic-exact": "N^Ex"}


@dataclass
class AnalysisConfig:
    er_samples: int = 100
    bootstrap_n: int = 1000
    walktrap_t: int = 4
    seed: int = 0


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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _er_baseline_beside(nodes: int, links: int, samples: int, seed: int):
    """Run er_baseline(nodes, links, samples, seed) while the with-block runs.

    Yields a function that returns the ERBaseline, or the message of the
    ValueError that er_baseline raised. The baseline runs in a forked
    child when there is a second CPU to run it on, else in this process
    when the function is called. The child is reaped before the block is
    left, and killed first if the block raised.
    """

    def baseline() -> ERBaseline | str:
        try:
            return er_baseline(nodes, links, samples, seed)
        except ValueError as err:
            return str(err)

    if not hasattr(os, "fork") or _usable_cpus() < 2:
        yield baseline
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child is fork-safe although BLAS threads did not survive the
        # fork: it runs only the numpy RNG, searchsorted and pure Python, so
        # it makes no BLAS call, takes no lock another thread may hold, logs
        # nothing and does no I/O but its pipe. os._exit skips the atexit
        # handlers and the buffered output it shares with the parent.
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(baseline()))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    reaped = False

    def collect() -> ERBaseline | str:
        nonlocal reaped
        data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        result = None
        if code == 0:
            try:
                result = pickle.loads(data)
            except (pickle.UnpicklingError, EOFError):
                pass
        if not isinstance(result, (ERBaseline, str)):
            raise RuntimeError(
                f"er_baseline: child process ended with exit status {code} "
                f"after sending {len(data)} bytes"
            )
        return result

    try:
        yield collect
    finally:
        pipe.close()
        if not reaped:
            import signal  # here, as a run that succeeds need not load it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def analyze(
    n: DependencyNetwork,
    config: AnalysisConfig | None = None,
    label: str | None = None,
) -> MetricsReport:
    """Full metric bundle for the giant component of `n`.

    Metrics that are undefined on the given network (zero degree variance,
    too small a power-law tail, a linkless giant) are reported as None with
    the reason recorded under `degenerate`; an empty network is an error,
    and so is a config with er_samples < 1, bootstrap_n neither 0 nor
    >= 100, or walktrap_t < 1 (ValueError, raised before any work).

    Once the distances are measured, the Erdos-Renyi baseline runs in a
    forked child process while this process fits the power laws, runs
    Walktrap and counts triangles. It runs in this process instead where
    `os.fork` does not exist or the process may use only one CPU. Every
    stage draws from its own seeded RNG stream, so the report does not
    depend on which path ran. The child's memory and CPU time show in
    `resource.RUSAGE_CHILDREN`, not in `RUSAGE_SELF`. If the child fails
    other than by the baseline's ValueError, analyze raises RuntimeError.
    """
    config = config or AnalysisConfig()
    if config.er_samples < 1:
        raise ValueError(f"er_samples must be >= 1, got {config.er_samples}")
    if config.bootstrap_n != 0 and config.bootstrap_n < 100:
        raise ValueError(f"bootstrap_n must be 0 or >= 100, got {config.bootstrap_n}")
    if config.walktrap_t < 1:
        raise ValueError(f"walktrap_t must be >= 1, got {config.walktrap_t}")
    if n.node_count == 0:
        raise DegenerateAnalysisError("analyze", "empty network")
    if label is None:
        label = _DEFAULT_LABELS.get(n.matcher.value, n.matcher.value)
    summary = network_summary(n)
    giant, _ = giant_subnetwork(n)
    degenerate: dict[str, str] = {}

    def guarded(metric: str, compute):
        try:
            return compute()
        except DegenerateAnalysisError as err:
            degenerate[metric] = err.reason
            return None

    def fit_for(values) -> PowerLawFit:
        positive = [v for v in values if v > 0]
        return fit_power_law(positive, replicates=config.bootstrap_n, seed=config.seed)

    directed = distances(giant, "directed")
    undirected = distances(giant, "undirected")
    if directed.average is None:
        degenerate["avg_distance_directed"] = "fewer than 2 nodes"
    if undirected.average is None:
        degenerate["avg_distance_undirected"] = "fewer than 2 nodes"

    # Forked only now: the distance kernel ran 2x slower beside a busy process.
    with _er_baseline_beside(
        giant.node_count, giant.link_count, config.er_samples, config.seed
    ) as er_result:
        correlation = guarded("degree_correlation", lambda: degree_correlation(giant))
        degrees = degree_stats(giant)
        power_law = {
            "in": guarded("power_law_in", lambda: fit_for(degrees.in_degrees)),
            "out": guarded("power_law_out", lambda: fit_for(degrees.out_degrees)),
            "all": guarded("power_law_all", lambda: fit_for(degrees.total_degrees)),
        }
        partition = guarded("communities", lambda: walktrap(giant, t=config.walktrap_t).partition)
        clustering = transitivity(giant)
        er = er_result()
    if isinstance(er, str):
        degenerate["er_baseline"] = er
        er = None

    def _clean(x: float | None) -> float | None:
        return None if x is None or not math.isfinite(x) else x

    return MetricsReport(
        label=label,
        matcher=n.matcher.value,
        network_nodes=summary.nodes,
        network_links=summary.links,
        isolated_fraction=summary.isolated_fraction,
        giant_node_fraction=giant.node_count / summary.nodes,
        giant_link_fraction=giant.link_count / summary.links if summary.links else 1.0,
        nodes=giant.node_count,
        links=giant.link_count,
        avg_distance_directed=directed.average,
        avg_distance_undirected=undirected.average,
        diameter_directed=directed.diameter,
        diameter_undirected=undirected.diameter,
        finite_directed_pairs=directed.finite_pairs,
        transitivity=clustering,
        degree_correlation=correlation,
        avg_in_degree=degrees.avg_in,
        avg_out_degree=degrees.avg_out,
        avg_total_degree=degrees.avg_total,
        max_total_degree=degrees.max_total,
        er_avg_distance=_clean(er.avg_distance_mean) if er else None,
        er_avg_distance_sd=_clean(er.avg_distance_sd) if er else None,
        er_transitivity=_clean(er.transitivity_mean) if er else None,
        er_transitivity_sd=_clean(er.transitivity_sd) if er else None,
        er_analytic_distance=_clean(er.analytic_distance) if er else None,
        er_analytic_transitivity=_clean(er.analytic_transitivity) if er else None,
        power_law=power_law,
        communities=partition.community_count if partition else None,
        modularity=partition.modularity if partition else None,
        degenerate=degenerate,
        config=config,
    )


# Scalar fields differenced by compare(); power-law deltas are added per tail.
_DELTA_FIELDS = (
    "network_nodes",
    "network_links",
    "isolated_fraction",
    "giant_node_fraction",
    "giant_link_fraction",
    "nodes",
    "links",
    "avg_distance_directed",
    "avg_distance_undirected",
    "diameter_directed",
    "diameter_undirected",
    "transitivity",
    "degree_correlation",
    "avg_in_degree",
    "avg_out_degree",
    "avg_total_degree",
    "max_total_degree",
    "er_avg_distance",
    "er_transitivity",
    "communities",
    "modularity",
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
    for key in ("in", "out", "all"):
        fit_a, fit_b = a.power_law.get(key), b.power_law.get(key)
        for attr in ("alpha", "p_value"):
            va = getattr(fit_a, attr) if fit_a else None
            vb = getattr(fit_b, attr) if fit_b else None
            deltas[f"power_law_{key}_{attr}"] = None if va is None or vb is None else vb - va
    flags = {
        "smaller_semantic_diameter": b.diameter_directed < a.diameter_directed,
        "larger_semantic_giant_fraction": b.giant_node_fraction > a.giant_node_fraction,
        "fewer_semantic_nodes": b.network_nodes < a.network_nodes,
    }
    return ComparisonReport(left=a, right=b, deltas=deltas, narrative_flags=flags)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def fit_to_dict(fit: PowerLawFit | None) -> dict | None:
    if fit is None:
        return None
    return {k: _jsonable(v) for k, v in asdict(fit).items()}


def report_to_dict(r: MetricsReport) -> dict:
    out = {}
    for name, value in asdict(r).items():
        out[name] = _jsonable(value)
    out["power_law"] = {k: fit_to_dict(f) for k, f in r.power_law.items()}
    out["config"] = asdict(r.config)
    return out


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
    unknown one, a power-law entry that is neither an object nor null, or
    a scalar field whose JSON type does not match its annotation (ints
    where int is declared, ints or floats where float is, null only where
    the type is optional, never a bool for a number) raises
    CollectionError naming `source` and the key at fault.
    """
    # one try for the whole report, as in load_network: a failure is
    # located by the key reached when it was raised
    where = "top level"
    try:
        data = dict(_object(d))
        fits, config = data["power_law"], data["config"]
        where = "power_law"
        data["power_law"] = {}
        for tail, fit in _object(fits).items():
            where = f"power_law.{tail}"
            data["power_law"][tail] = None if fit is None else _typed(PowerLawFit(**_object(fit)))
        where = "config"
        data["config"] = _typed(AnalysisConfig(**_object(config)))
        where = "top level"
        return _typed(MetricsReport(**data))
    except KeyError as exc:
        raise CollectionError(f"{source}: {where}: missing key {exc}") from None
    except TypeError as exc:
        raise CollectionError(f"{source}: {where}: {exc}") from None


def report_from_json(text: str | bytes, source: str = "report") -> MetricsReport:
    """Parse a report written by report_to_json; errors as in report_from_dict."""
    try:
        d = json.loads(text)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise CollectionError(f"{source}: parse error: {exc}") from exc
    return report_from_dict(d, source)


def comparison_to_dict(c: ComparisonReport) -> dict:
    return {
        "left": report_to_dict(c.left),
        "right": report_to_dict(c.right),
        "deltas": {k: _jsonable(v) for k, v in c.deltas.items()},
        "narrative_flags": dict(c.narrative_flags),
    }


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


def render_text(r: MetricsReport) -> str:
    lines = [f"Dependency network report: {r.label} (matcher {r.matcher})"]
    for title, name in _TEXT_ROWS:
        lines.append(f"  {title:<28}{_fmt(getattr(r, name))}")
    for key in ("in", "out", "all"):
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
    for key in ("in", "out", "all"):
        for attr in ("alpha", "p_value"):
            fit_l, fit_r = c.left.power_law.get(key), c.right.power_law.get(key)
            left = _fmt(getattr(fit_l, attr)) if fit_l else "n/a"
            right = _fmt(getattr(fit_r, attr)) if fit_r else "n/a"
            delta = _fmt(c.deltas.get(f"power_law_{key}_{attr}"))
            lines.append(f"  {f'Power law {key} {attr}':<{width}}{left:>12}{right:>12}{delta:>12}")
    for flag, value in c.narrative_flags.items():
        lines.append(f"  flag {flag:<32}{_fmt(value)}")
    return "\n".join(lines) + "\n"
