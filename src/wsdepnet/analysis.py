"""`analyze`: every metric on the giant component of a dependency network,
bundled into a `report.MetricsReport`.

The metrics that take milliseconds run first; the rest are stages of one
queue (`stages._run_stages`). This module needs numpy and every metric
module, which `report` does not.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np

from .community import WalktrapResult, walktrap
from .errors import DegenerateAnalysisError
from .network import DependencyNetwork, network_summary
from .powerlaw import bootstrap_blocks, fit_power_law, pvalue_from_replicates
from .report import _TAILS, AnalysisConfig, MetricsReport, _checked
from .stages import _QUEUE_SLOTS, _run_stages
from .topology import (
    ERBaseline,
    degree_correlation,
    degree_stats,
    distances,
    er_baseline,
    giant_subnetwork,
    undirected_metrics,
)

_DEFAULT_LABELS = {"syntactic-equal": "N^Eq", "semantic-exact": "N^Ex"}


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
    is an error, and so is a config that breaks a rule of
    `report.CONFIG_RULES` (ValueError, raised before any work).

    The summary, the giant, the degrees, the degree correlation and the
    power-law cutoffs take milliseconds and run first, in this process.
    The rest are stages of one queue, in this order: Walktrap, the
    Erdos-Renyi baseline, the bootstrap blocks of the in, out and all fits,
    directed distances, and undirected distances with transitivity (one
    BFS, `topology.undirected_metrics`). This process takes Walktrap, so
    its n x n matrix and its result stay here; then it and, where
    `os.fork` exists and a second CPU is usable, one forked
    helper process each take the next stage until none is left. Without a
    helper, or where the OS refuses its pipes or its fork, the stages run
    in a plain loop here. Every stage draws from its own seeded RNG stream
    and results are merged by stage index, so the report does not depend
    on which process ran what. The helper's memory and CPU time show in
    `resource.RUSAGE_CHILDREN`, not in `RUSAGE_SELF`. A stage raises its
    exception in whichever process ran it; if the helper itself fails,
    this raises `errors.HelperProcessError`.
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
        functools.partial(undirected_metrics, giant),
    ]
    results = iter(_run_stages(stages))
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
    directed, (undirected, clustering) = results

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

