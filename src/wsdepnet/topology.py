"""Component structure, distance, transitivity and degree metrics, with
Erdős–Rényi G(n,m) baselines for the small-world comparison.

All metrics treat the network as an unweighted simple graph; distance and
transitivity conventions follow the module contracts (directed averages
cover mutually reachable ordered pairs only, transitivity is the global
triangle ratio of the projection's giant). The average distances,
transitivity and degree correlation of a network are each one division
of integer counts.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAnalysisError
from .network import DependencyNetwork

Adjacency = list[list[int]]


# -- adjacency-level primitives ----------------------------------------------

def weak_components_of(undirected: Adjacency) -> list[list[int]]:
    """Connected components of an undirected adjacency, as sorted id lists."""
    seen = [False] * len(undirected)
    components = []
    for start in range(len(undirected)):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        comp = [start]
        while queue:
            u = queue.popleft()
            for v in undirected[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comp.sort()
        components.append(comp)
    return components


# -- the BFS kernel -----------------------------------------------------------

# uint64 words in one plane of a batch of ER samples (256 KB), at least one
# sample a batch; a batch's BFS holds about seven planes
_PLANE_WORDS = 1 << 15


def _link_pairs(n: DependencyNetwork) -> tuple[np.ndarray, np.ndarray]:
    """(source, target) arrays of the links of n."""
    ends = np.fromiter(itertools.chain.from_iterable(n.links), dtype=np.intp, count=2 * n.link_count)
    return ends[0::2], ends[1::2]


def _pull_columns(src: np.ndarray, dst: np.ndarray, size: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """(row, columns): the in-neighbour lists of the links src -> dst over
    nodes 0..size-1 in jagged-diagonal layout. Node v is row row[v] of a
    plane, rows in descending order of in-degree, so the rows with more
    than k in-neighbours are a prefix; columns[k] holds, for each row of
    that prefix, the row of its k-th in-neighbour (in any order)."""
    degree = np.bincount(dst, minlength=size)
    order = np.argsort(-degree)
    row = np.empty(size, dtype=np.intp)
    row[order] = np.arange(size)
    target = row[dst]
    by_target = np.argsort(target)
    target = target[by_target]
    sorted_degree = degree[order]
    rank = np.arange(target.size) - (np.cumsum(sorted_degree) - sorted_degree)[target]
    longer = size - np.cumsum(np.bincount(degree))[:-1]  # rows with more than k in-neighbours
    start = np.concatenate([[0], np.cumsum(longer)])
    flat = np.empty(target.size, dtype=np.intp)
    flat[start[rank] + target] = row[src[by_target]]
    return row, [flat[a:b] for a, b in zip(start[:-1], start[1:])]


def _source_plane(row: np.ndarray, local: np.ndarray, words: int) -> np.ndarray:
    """(rows, words) uint64 plane in which node v holds bit local[v] alone."""
    plane = np.zeros((row.size, words), dtype=np.uint64)
    plane[row, local >> 6] = np.uint64(1) << (local & 63).astype(np.uint64)
    return plane


def _pull_levels(reach: np.ndarray, columns: list[np.ndarray]):
    """Bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    PVLDB 8(4), 2014) from the bits of the plane `reach`, which grows in
    place: bit s of a row's words means that row has been reached from
    source s. Disjoint graphs stacked in one plane, each numbering its own
    sources, run at once. A level pulls into every row the frontier of its
    in-neighbours, one take and one in-place OR per column of `columns`
    (_pull_columns). Yields, for each level that reaches a new pair, the
    plane of the bits it set; the first is each row's set of in-neighbours.
    """
    frontier = reach.copy()
    spare = np.empty_like(reach)
    while True:
        pulled = np.zeros_like(reach)
        for column in columns:
            gathered, into = spare[: column.size], pulled[: column.size]
            np.take(frontier, column, axis=0, out=gathered, mode="clip")  # "clip" writes `out` unbuffered
            np.bitwise_or(into, gathered, out=into)
        np.bitwise_and(pulled, reach, out=spare)
        pulled ^= spare
        if not pulled.any():
            return
        reach |= pulled
        yield pulled
        frontier = pulled


# -- metric operations over dependency networks ---------------------------------

def components(n: DependencyNetwork) -> list[list[int]]:
    """Weakly connected components, ordered by (size desc, smallest node id)."""
    comps = weak_components_of(n.neighbors)
    comps.sort(key=lambda comp: (-len(comp), comp[0]))
    return comps


def giant_subnetwork(n: DependencyNetwork) -> tuple[DependencyNetwork, dict[int, int]]:
    """Induced subgraph on the giant component: its nodes in id order, so
    they are renumbered from 0, sharing their archetypes and witness lists.

    Returns the subnetwork and the old-id -> new-id translation map.
    """
    if n.node_count == 0:
        raise DegenerateAnalysisError("giant-component", "empty network")
    giant = components(n)[0]
    id_map = {old: new for new, old in enumerate(giant)}
    links = {
        (id_map[src], id_map[dst]): ops
        for (src, dst), ops in n.links.items()
        if src in id_map and dst in id_map
    }
    nodes = [n.nodes[old] for old in giant]
    return DependencyNetwork(nodes=nodes, links=links, matcher=n.matcher, self_loop_count=0), id_map


@dataclass
class DistanceStats:
    average: float | None
    diameter: int
    finite_pairs: int


def distances(n: DependencyNetwork, mode: str = "directed") -> DistanceStats:
    """BFS distances from every node.

    Directed mode averages over ordered pairs at finite distance only and
    reports that pair count; undirected mode is that of undirected_metrics
    (call on a connected component). Single-node networks have an
    undefined average (None) and diameter 0.
    """
    if mode not in ("directed", "undirected"):
        raise ValueError(f"unknown mode {mode!r}")
    size = n.node_count
    if size == 0:
        raise DegenerateAnalysisError("average-distance", "empty network")
    if mode == "undirected":
        return undirected_metrics(n)[0]
    row, columns = _pull_columns(*_link_pairs(n), size)
    reach = _source_plane(row, np.arange(size), -(-size // 64))
    total = finite_pairs = diameter = 0
    for pulled in _pull_levels(reach, columns):
        found = int(np.bitwise_count(pulled).sum())
        diameter += 1
        total += diameter * found
        finite_pairs += found
    if finite_pairs == 0:
        return DistanceStats(average=None, diameter=0, finite_pairs=0)
    return DistanceStats(average=total / finite_pairs, diameter=diameter, finite_pairs=finite_pairs)


def undirected_metrics(n: DependencyNetwork) -> tuple[DistanceStats, float]:
    """(distances, transitivity) of the undirected projection of a connected
    non-empty network, from one BFS: its edges u < v through _er_samples as
    a stack of one. A disconnected n raises DegenerateAnalysisError naming
    the first pair with no path."""
    size = n.node_count
    src = np.repeat(np.arange(size), [len(neighbors) for neighbors in n.neighbors])
    dst = np.fromiter(itertools.chain.from_iterable(n.neighbors), dtype=np.intp, count=src.size)
    once = src < dst
    (giant,), (average,), (clustering,), diameter = _er_samples(size, src[once][None], dst[once][None])
    if giant < size:
        # no component holds every node, so the first unreachable pair starts at 0
        target = min(set(range(size)).difference(weak_components_of(n.neighbors)[0]))
        raise DegenerateAnalysisError("average-distance", f"no path 0 -> {target}")
    return DistanceStats(float(average) if size > 1 else None, diameter, size * (size - 1)), float(clustering)


def transitivity(n: DependencyNetwork) -> float:
    """Transitivity of the giant of the undirected simple projection, as
    undirected_metrics gives it: 3 * triangles / connected triples, 0.0
    when there are no triples."""
    return undirected_metrics(giant_subnetwork(n)[0])[1]


@dataclass
class DegreeStats:
    in_degrees: list[int]
    out_degrees: list[int]
    total_degrees: list[int]
    avg_in: float
    avg_out: float
    avg_total: float
    max_total: int


def degree_stats(n: DependencyNetwork) -> DegreeStats:
    src, dst = _link_pairs(n)
    in_deg = np.bincount(dst, minlength=n.node_count).tolist()
    out_deg = np.bincount(src, minlength=n.node_count).tolist()
    total = [i + o for i, o in zip(in_deg, out_deg)]
    count = n.node_count or 1
    return DegreeStats(
        in_degrees=in_deg,
        out_degrees=out_deg,
        total_degrees=total,
        avg_in=sum(in_deg) / count,
        avg_out=sum(out_deg) / count,
        avg_total=sum(total) / count,
        max_total=max(total, default=0),
    )


def degree_correlation(n: DependencyNetwork) -> float:
    """Pearson correlation of endpoint degrees over links (Newman's r).

    Sums over the edges of the undirected projection, each in both
    orientations, so both ends share their moments, but k is the directed
    total degree, in + out: a reciprocal pair A -> B, B -> A is one edge
    yet adds 2 to k at each end. Over the S edge ends,
    r = (S sum k_u k_v - (sum k)^2) / (S sum k^2 - (sum k)^2)
    (Newman, PRL 89, 208701, 2002), one division of exact integers.
    """
    if n.link_count == 0:
        raise DegenerateAnalysisError("degree-correlation", "no links")
    degree = degree_stats(n).total_degrees
    ends = first = second = cross = 0
    for k, neighbors in zip(degree, n.neighbors):
        ends += len(neighbors)
        first += len(neighbors) * k
        second += len(neighbors) * k * k
        cross += k * sum(degree[v] for v in neighbors)
    variance = ends * second - first * first
    if variance == 0:
        raise DegenerateAnalysisError("degree-correlation", "degree variance is zero")
    return (ends * cross - first * first) / variance


# -- Erdős–Rényi baseline ------------------------------------------------------

@dataclass
class ERBaseline:
    avg_distance_mean: float
    avg_distance_sd: float
    transitivity_mean: float
    transitivity_sd: float
    analytic_distance: float
    analytic_transitivity: float


def _er_samples(nodes: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(giant size, average distance, transitivity) on the giant of each
    graph of a stack on `nodes` nodes, whose edges (rows[i, e], cols[i, e])
    are row i of the (graphs, m) arrays, each once, and the stack's level
    count, the diameter of a connected stack of one; one BFS for all.

    A graph's giant is the component of its first node with the most
    nodes reaching it. Distance totals, pair counts, closed and connected
    triples are integers summed over the giant, then divided.
    """
    count = rows.shape[0]
    base = (np.arange(count) * nodes)[:, None]
    u, v = (rows + base).ravel(), (cols + base).ravel()
    ends = np.concatenate([u, v])
    row, columns = _pull_columns(np.concatenate([v, u]), ends, count * nodes)
    reach = _source_plane(row, np.arange(count * nodes) % nodes, -(-nodes // 64))
    total = np.zeros(reach.shape, dtype=np.int64)  # distance totals per row and word
    level, adjacent = 0, reach[:, :0]  # with no level, no neighbour sets
    for level, pulled in enumerate(_pull_levels(reach, columns), 1):
        if level == 1:
            adjacent = pulled
        total += np.multiply(np.bitwise_count(pulled), level, dtype=np.int64)
    node_row = row.reshape(count, nodes)
    reached = np.bitwise_count(reach).sum(axis=1, dtype=np.int64)[node_row]
    first = np.argmax(reached, axis=1)  # the first node of the first largest component
    bit = (np.uint64(1) << (first & 63).astype(np.uint64))[:, None]
    giant = (reach[node_row, (first >> 6)[:, None]] & bit) != 0
    size = giant.sum(axis=1)
    pairs = size * (size - 1)
    distance = np.where(giant, total.sum(axis=1)[node_row], 0).sum(axis=1)
    degree = np.bincount(ends, minlength=count * nodes).reshape(count, nodes)
    triples = np.where(giant, degree * (degree - 1) // 2, 0).sum(axis=1)
    at_u, at_v = row[u], row[v]
    common = np.zeros(u.size, dtype=np.int64)
    for word in adjacent.T:
        common += np.bitwise_count(word[at_u] & word[at_v])
    edge_in_giant = np.take_along_axis(giant, rows, axis=1)
    closed = np.where(edge_in_giant, common.reshape(rows.shape), 0).sum(axis=1)  # 3 * triangles
    average = np.divide(distance, pairs, out=np.full(count, np.nan), where=pairs > 0)
    return size, average, np.divide(closed, triples, out=np.zeros(count), where=triples > 0), level


def er_baseline(nodes: int, links: int, samples: int, seed: int) -> ERBaseline:
    """Monte Carlo G(n,m) baseline; per-sample metrics on the giant component.

    Sample i draws its links from an RNG stream derived from (seed, i), so
    the result does not depend on evaluation order. The samples go through
    the BFS in batches of at most _PLANE_WORDS words a plane.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    possible = nodes * (nodes - 1) // 2
    if links > possible:
        raise ValueError(f"infeasible link count: {links} > {possible}")
    # row i of the upper triangle starts at i*(n-1) - i*(i-1)/2
    r = np.arange(nodes, dtype=np.int64)
    offsets = r * (nodes - 1) - r * (r - 1) // 2
    distances_mc = np.empty(samples)
    transitivity_mc = np.empty(samples)
    batch = max(1, _PLANE_WORDS // max(1, nodes * -(-nodes // 64)))
    for first in range(0, samples, batch):
        last = min(first + batch, samples)
        chosen = np.stack([
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,))).choice(
                possible, size=links, replace=False
            )
            for i in range(first, last)
        ])
        rows = np.searchsorted(offsets, chosen, side="right") - 1
        cols = rows + 1 + (chosen - offsets[rows])
        _, distances_mc[first:last], transitivity_mc[first:last], _ = _er_samples(nodes, rows, cols)
    mean_degree = 2 * links / nodes if nodes else float("nan")
    analytic_distance = math.log(nodes) / math.log(mean_degree) if mean_degree > 1 else float("nan")
    return ERBaseline(
        avg_distance_mean=float(np.mean(distances_mc)),
        avg_distance_sd=float(np.std(distances_mc, ddof=1)) if samples > 1 else 0.0,
        transitivity_mean=float(np.mean(transitivity_mc)),
        transitivity_sd=float(np.std(transitivity_mc, ddof=1)) if samples > 1 else 0.0,
        analytic_distance=analytic_distance,
        analytic_transitivity=mean_degree / nodes if nodes else float("nan"),
    )
