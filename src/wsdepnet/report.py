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
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CollectionError, DegenerateAnalysisError
from .community import WalktrapResult, walktrap
from .network import DependencyNetwork, network_summary
from .powerlaw import PowerLawFit, bootstrap_blocks, drop_table, fit_power_law, pvalue_from_replicates
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
_TAILS = ("in", "out", "all")  # the power-law fits of a report


@dataclass
class AnalysisConfig:
    er_samples: int = 100
    bootstrap_n: int = 1000
    walktrap_t: int = 4
    seed: int = 0


def _checked(config: AnalysisConfig) -> AnalysisConfig:
    """Return `config` if analyze accepts it, else raise ValueError naming the field."""
    if config.er_samples < 1:
        raise ValueError(f"er_samples must be >= 1, got {config.er_samples}")
    if config.bootstrap_n != 0 and config.bootstrap_n < 100:
        raise ValueError(f"bootstrap_n must be 0 or >= 100, got {config.bootstrap_n}")
    if config.walktrap_t < 1:
        raise ValueError(f"walktrap_t must be >= 1, got {config.walktrap_t}")
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
    return config


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


# A write of at most _POSIX_PIPE_BUF (512) bytes into an empty pipe neither
# blocks nor splits, so the whole queue of 4-byte indices is written at once.
_QUEUE_SLOTS = 512 // 4


def _drain(stages: list[Callable[[], object]], queue: int, claimed: bytes) -> dict[int, object]:
    """Run the stage whose index is `claimed`, then each stage whose index
    this process reads from `queue`, until the queue is empty; {index: result}.

    Each read takes one whole 4-byte index: reads of a pipe are serialized,
    and every reader asks for 4 bytes of a pipe holding multiples of 4.
    """
    results = {}
    while claimed:
        index = int.from_bytes(claimed, "little")
        results[index] = stages[index]()
        claimed = os.read(queue, 4)
    return results


def _run_stages(stages: list[Callable[[], object]]) -> list[object]:
    """Results of the zero-argument callables `stages`, in stage order.

    The stage indices go into a pipe that is then closed for writing. This
    process takes index 0 first, and then, where `os.fork` exists and a
    second CPU is usable, one forked helper process and this one each take
    the next index until none is left; otherwise this process drains the
    queue alone. The helper sends back its {index: result}, or the
    exception one of its stages raised, pickled through a second pipe; this
    process reaps the helper and raises that exception. A helper that
    fails, or sends anything else, raises RuntimeError naming its exit
    status and the bytes it sent; a stage that raises here kills and reaps
    the helper first.
    """
    if len(stages) > _QUEUE_SLOTS:
        raise ValueError(f"at most {_QUEUE_SLOTS} stages fit in the queue, got {len(stages)}")
    queue, feed = os.pipe()
    try:
        os.write(feed, b"".join(i.to_bytes(4, "little") for i in range(len(stages))))
    finally:
        os.close(feed)
    try:
        claimed = os.read(queue, 4)  # before any fork: stage 0 stays in this process
        if hasattr(os, "fork") and _usable_cpus() >= 2:
            results = _drain_beside_helper(stages, queue, claimed)
        else:
            results = _drain(stages, queue, claimed)
    finally:
        os.close(queue)
    return [results[i] for i in range(len(stages))]


def _drain_beside_helper(stages: list[Callable[[], object]], queue: int, claimed: bytes) -> dict[int, object]:
    """_drain in this process and in one forked helper; their results merged."""
    back, send = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The helper is fork-safe although BLAS threads did not survive the
        # fork: no step of analyze makes a BLAS call, and the stages run only
        # numpy elementwise, gather and sorting kernels, its RNG and pure
        # Python. So the helper takes no lock another thread may hold, logs
        # nothing and does no I/O but its pipes. os._exit skips the atexit
        # handlers and the buffered output it shares with this process.
        status = 1
        try:
            os.close(back)
            try:
                payload = _drain(stages, queue, os.read(queue, 4))
            except Exception as exc:
                payload = exc
            with os.fdopen(send, "wb") as pipe:
                pipe.write(pickle.dumps(payload))
            status = 0
        finally:
            os._exit(status)
    os.close(send)
    reaped = False
    with os.fdopen(back, "rb") as pipe:
        try:
            results = _drain(stages, queue, claimed)
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped = True
        finally:
            if not reaped:
                import signal  # here, as a run that succeeds need not load it

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    theirs = None
    if code == 0:
        try:
            theirs = pickle.loads(data)
        except Exception:  # a truncated pickle, or an exception that cannot be rebuilt
            pass
    if isinstance(theirs, Exception):
        raise theirs
    if not isinstance(theirs, dict) or sorted([*results, *theirs]) != list(range(len(stages))):
        raise RuntimeError(
            f"analyze: helper process ended with exit status {code} after sending {len(data)} bytes"
        )
    return results | theirs


def analyze(
    n: DependencyNetwork,
    config: AnalysisConfig | None = None,
    label: str | None = None,
) -> MetricsReport:
    """Full metric bundle for the giant component of `n`: the report of
    `analyze_with_communities`, which also hands back the giant and its
    Walktrap result."""
    return analyze_with_communities(n, config, label)[0]


def analyze_with_communities(
    n: DependencyNetwork,
    config: AnalysisConfig | None = None,
    label: str | None = None,
) -> tuple[MetricsReport, DependencyNetwork, WalktrapResult | None]:
    """(report, giant, Walktrap result) for the giant component of `n`; the
    result is None where Walktrap was degenerate, as `degenerate["communities"]` says.

    Metrics that are undefined on the given network (zero degree variance,
    too small a power-law tail, a linkless or single-node giant, an ER link
    count beyond n(n - 1)/2, a bootstrap draw past the int64 range for a
    fit's p_value) are reported as None with the reason recorded
    under `degenerate`, so no field is None without one; an empty network
    is an error, and so is a config with er_samples < 1, bootstrap_n
    neither 0 nor >= 100, or walktrap_t < 1 (ValueError, raised before any
    work).

    The summary, the giant, the degrees, the degree correlation and the
    power-law cutoffs take milliseconds and run first, in this process.
    The rest are stages of one queue, in this order: Walktrap, the
    Erdos-Renyi baseline, the bootstrap blocks of the in, out and all fits,
    directed and undirected distances, and transitivity. This process
    takes Walktrap, so its n x n matrices and its result stay here; then
    it and, where `os.fork` exists and a second CPU is usable, one forked
    helper process each take the next stage until none is left. Every
    stage draws from its own seeded RNG stream and results are merged by
    stage index, so the report does not depend on which process ran what.
    The helper's memory and CPU time show in `resource.RUSAGE_CHILDREN`,
    not in `RUSAGE_SELF`. A stage raises its exception in whichever process
    ran it; if the helper itself fails, this raises RuntimeError.
    The CDF table that the bootstrap draws through (`powerlaw.drop_table`)
    is freed before this returns, so it does not outlive the call.
    """
    config = _checked(config or AnalysisConfig())
    if n.node_count == 0:
        raise DegenerateAnalysisError("analyze", "empty network")
    if label is None:
        label = _DEFAULT_LABELS.get(n.matcher.value, n.matcher.value)
    summary = network_summary(n)
    giant, _ = giant_subnetwork(n)
    degrees = degree_stats(giant)
    tails = {"in": degrees.in_degrees, "out": degrees.out_degrees, "all": degrees.total_degrees}
    positive = {tail: np.array([v for v in values if v > 0], dtype=np.int64) for tail, values in tails.items()}
    # metric -> (value, None) or (None, the reason it is undefined)
    outcomes = {"degree_correlation": _outcome(degree_correlation, giant)}
    outcomes |= {f"power_law_{tail}": _outcome(fit_power_law, positive[tail], replicates=0) for tail in _TAILS}

    fits = {tail: outcomes[f"power_law_{tail}"][0] for tail in _TAILS}
    blocks = {  # each fit takes at most a quarter of the queue
        tail: [
            functools.partial(_outcome, call)
            for call in bootstrap_blocks(positive[tail], fit, config.bootstrap_n, config.seed, _QUEUE_SLOTS // 4)
        ]
        for tail, fit in fits.items()
        if fit and config.bootstrap_n
    }
    stages = [
        functools.partial(_outcome, walktrap, giant, t=config.walktrap_t),
        functools.partial(_outcome, _er_baseline, giant, config),
        *(call for calls in blocks.values() for call in calls),
        functools.partial(distances, giant, "directed"),
        functools.partial(distances, giant, "undirected"),
        functools.partial(transitivity, giant),
    ]
    try:
        results = iter(_run_stages(stages))
    finally:
        drop_table()  # up to 8 MiB, which no later call needs
    outcomes["communities"], outcomes["er_baseline"] = next(results), next(results)
    for tail, calls in blocks.items():
        fit = fits[tail]
        fit.bootstrap_n = config.bootstrap_n
        parts, reasons = zip(*(next(results) for _ in calls))
        reason = next(filter(None, reasons), None)
        if reason is None:
            fit.p_value = pvalue_from_replicates(fit.ks_statistic, np.concatenate(parts))
        else:
            outcomes[f"power_law_{tail}_p_value"] = (None, reason)
    directed, undirected, clustering = results

    for mode, stats in (("directed", directed), ("undirected", undirected)):
        outcomes[f"avg_distance_{mode}"] = _outcome(_defined, stats.average, "fewer than 2 nodes")
    walked, er = outcomes["communities"][0], outcomes["er_baseline"][0]
    if er:
        outcomes["er_analytic_distance"] = _outcome(_defined, er.analytic_distance, "mean degree <= 1")
    partition = walked.partition if walked else None
    return MetricsReport(
        label=label,
        matcher=n.matcher.value,
        network_nodes=n.node_count,
        network_links=n.link_count,
        isolated_fraction=summary.isolated_fraction,
        giant_node_fraction=giant.node_count / n.node_count,
        giant_link_fraction=giant.link_count / n.link_count if n.link_count else 1.0,
        nodes=giant.node_count,
        links=giant.link_count,
        avg_distance_directed=outcomes["avg_distance_directed"][0],
        avg_distance_undirected=outcomes["avg_distance_undirected"][0],
        diameter_directed=directed.diameter,
        diameter_undirected=undirected.diameter,
        finite_directed_pairs=directed.finite_pairs,
        transitivity=clustering,
        degree_correlation=outcomes["degree_correlation"][0],
        avg_in_degree=degrees.avg_in,
        avg_out_degree=degrees.avg_out,
        avg_total_degree=degrees.avg_total,
        max_total_degree=degrees.max_total,
        # `er and ...` is None where the baseline is undefined
        er_avg_distance=er and er.avg_distance_mean,
        er_avg_distance_sd=er and er.avg_distance_sd,
        er_transitivity=er and er.transitivity_mean,
        er_transitivity_sd=er and er.transitivity_sd,
        er_analytic_distance=er and outcomes["er_analytic_distance"][0],
        er_analytic_transitivity=er and er.analytic_transitivity,
        power_law=fits,
        communities=partition.community_count if partition else None,
        modularity=partition.modularity if partition else None,
        degenerate={metric: reason for metric, (_, reason) in outcomes.items() if reason is not None},
        config=config,
    ), giant, walked


def _outcome(compute: Callable, *args, **kwargs) -> tuple[object, str | None]:
    """(compute(...), None), or (None, reason) where it raised DegenerateAnalysisError."""
    try:
        return compute(*args, **kwargs), None
    except DegenerateAnalysisError as err:
        return None, err.reason


def _defined(value: float | None, reason: str) -> float:
    """`value` where it is a finite number; else DegenerateAnalysisError(reason)."""
    if value is None or not math.isfinite(value):
        raise DegenerateAnalysisError("analyze", reason)
    return value


def _er_baseline(giant: DependencyNetwork, config: AnalysisConfig) -> ERBaseline:
    """er_baseline of the giant's node and link counts; DegenerateAnalysisError
    on a single node, and for the ValueError of an infeasible link count."""
    if giant.node_count < 2:
        raise DegenerateAnalysisError("er-baseline", "fewer than 2 nodes")
    try:
        return er_baseline(giant.node_count, giant.link_count, config.er_samples, config.seed)
    except ValueError as err:
        raise DegenerateAnalysisError("er-baseline", str(err)) from None


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
