"""Component structure, distance, transitivity and degree metrics, with
Erdős–Rényi G(n,m) baselines for the small-world comparison.

All metrics treat the network as an unweighted simple graph; distance and
transitivity conventions follow the module contracts (directed averages
cover mutually reachable ordered pairs only, transitivity is the global
triangle ratio).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAnalysisError
from .matching import Archetype
from .network import DependencyNetwork, Link

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


def triangle_ratio(undirected: Adjacency) -> float:
    """3 * triangles / connected triples; 0.0 when there are no triples."""
    neighbor_sets = [set(neighbors) for neighbors in undirected]
    closed = 0  # each triangle counted once per edge, i.e. 3 * triangles
    for u in range(len(undirected)):
        for v in undirected[u]:
            if v > u:
                closed += len(neighbor_sets[u] & neighbor_sets[v])
    triples = sum(d * (d - 1) // 2 for d in (len(ns) for ns in undirected))
    return closed / triples if triples else 0.0


def distance_stats_of(adj: Adjacency, require_all_pairs: bool) -> tuple[float, int, int]:
    """(average over finite ordered pairs, max finite distance, finite pair count).

    Bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    PVLDB 8(4), 2014): bit s of reach[v] means v has been reached from s,
    and each level is one pull sweep over the predecessor lists.

    With require_all_pairs, an unreachable ordered pair raises (undirected
    mode on a connected component never has one); the first such pair in
    (source, target) order is named.
    """
    n = len(adj)
    pred: Adjacency = [[] for _ in range(n)]
    for u, neighbors in enumerate(adj):
        for v in neighbors:
            pred[v].append(u)
    reach = [1 << v for v in range(n)]
    frontier = reach[:]
    total = finite_pairs = diameter = 0
    while True:
        found = 0
        new_frontier = [0] * n
        for v in range(n):
            bits = 0
            for u in pred[v]:
                bits |= frontier[u]
            bits &= ~reach[v]
            if bits:
                new_frontier[v] = bits
                reach[v] |= bits
                found += bits.bit_count()
        if not found:
            break
        diameter += 1
        total += diameter * found
        finite_pairs += found
        frontier = new_frontier
    if require_all_pairs and finite_pairs < n * (n - 1):
        full = (1 << n) - 1
        unreached = [full & ~bits for bits in reach]  # bit s: no path s -> v
        source = min((bits & -bits).bit_length() - 1 for bits in unreached if bits)
        target = next(t for t, bits in enumerate(unreached) if bits >> source & 1)
        raise DegenerateAnalysisError("average-distance", f"no path {source} -> {target}")
    average = total / finite_pairs if finite_pairs else float("nan")
    return average, diameter, finite_pairs


# -- metric operations over dependency networks ---------------------------------

@dataclass
class ComponentDecomposition:
    components: list[list[int]]
    giant_index: int
    sizes: list[tuple[int, int]]  # (nodes, links) per component


def components(n: DependencyNetwork) -> ComponentDecomposition:
    """Weakly connected components, ordered by (size desc, smallest node id)."""
    comps = weak_components_of(n.undirected_adjacency())
    comps.sort(key=lambda comp: (-len(comp), comp[0]))
    link_counts = [0] * len(comps)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for node in comp:
            comp_of[node] = ci
    for src, _dst in n.links:
        link_counts[comp_of[src]] += 1
    sizes = [(len(comp), link_counts[ci]) for ci, comp in enumerate(comps)]
    return ComponentDecomposition(components=comps, giant_index=0 if comps else -1, sizes=sizes)


def giant_subnetwork(n: DependencyNetwork) -> tuple[DependencyNetwork, dict[int, int]]:
    """Induced subgraph on the giant component, ids re-densified.

    Returns the subnetwork and the old-id -> new-id translation map.
    """
    if n.node_count == 0:
        raise DegenerateAnalysisError("giant-component", "empty network")
    decomposition = components(n)
    giant = decomposition.components[decomposition.giant_index]
    id_map = {old: new for new, old in enumerate(giant)}
    nodes = [
        Archetype(id=id_map[old], label=n.nodes[old].label, key=n.nodes[old].key, members=n.nodes[old].members)
        for old in giant
    ]
    links = {
        (id_map[src], id_map[dst]): Link(weight=link.weight, witness_operations=list(link.witness_operations))
        for (src, dst), link in n.links.items()
        if src in id_map and dst in id_map
    }
    sub = DependencyNetwork(nodes=nodes, links=links, matcher=n.matcher, self_loop_count=0)
    return sub, id_map


@dataclass
class DistanceStats:
    average: float | None
    diameter: int
    finite_pairs: int


def distances(n: DependencyNetwork, mode: str = "directed") -> DistanceStats:
    """BFS distances from every node.

    Directed mode averages over ordered pairs at finite distance only and
    reports that pair count; undirected mode averages over all ordered pairs
    u != v (call on a connected component). Single-node networks have an
    undefined average (None) and diameter 0.
    """
    if mode not in ("directed", "undirected"):
        raise ValueError(f"unknown mode {mode!r}")
    if n.node_count == 0:
        raise DegenerateAnalysisError("average-distance", "empty network")
    adj = n.out_adjacency() if mode == "directed" else n.undirected_adjacency()
    average, diameter, finite_pairs = distance_stats_of(adj, require_all_pairs=(mode == "undirected"))
    if finite_pairs == 0:
        return DistanceStats(average=None, diameter=0, finite_pairs=0)
    return DistanceStats(average=average, diameter=diameter, finite_pairs=finite_pairs)


def transitivity(n: DependencyNetwork) -> float:
    """Global triangle density of the undirected simple projection."""
    return triangle_ratio(n.undirected_adjacency())


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
    in_deg = [0] * n.node_count
    out_deg = [0] * n.node_count
    for src, dst in n.links:
        out_deg[src] += 1
        in_deg[dst] += 1
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


def degree_correlation(n: DependencyNetwork, mode: str = "total") -> float:
    """Pearson correlation of endpoint degrees over links (Newman's r).

    The default correlates total degrees on the undirected projection, each
    link contributing both orientations; "out-in" and "in-out" are directed
    variants over the directed links.
    """
    if n.link_count == 0:
        raise DegenerateAnalysisError("degree-correlation", "no links")
    stats = degree_stats(n)
    xs: list[int] = []
    ys: list[int] = []
    if mode == "total":
        seen = set()
        for src, dst in n.links:
            edge = (min(src, dst), max(src, dst))
            if edge in seen:
                continue
            seen.add(edge)
            xs.extend((stats.total_degrees[edge[0]], stats.total_degrees[edge[1]]))
            ys.extend((stats.total_degrees[edge[1]], stats.total_degrees[edge[0]]))
    elif mode == "out-in":
        for src, dst in n.links:
            xs.append(stats.out_degrees[src])
            ys.append(stats.in_degrees[dst])
    elif mode == "in-out":
        for src, dst in n.links:
            xs.append(stats.in_degrees[src])
            ys.append(stats.out_degrees[dst])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DegenerateAnalysisError("degree-correlation", "degree variance is zero")
    return float(np.corrcoef(x, y)[0, 1])


# -- Erdős–Rényi baseline ------------------------------------------------------

@dataclass
class ERBaseline:
    nodes: int
    links: int
    samples: int
    seed: int
    avg_distance_mean: float
    avg_distance_sd: float
    transitivity_mean: float
    transitivity_sd: float
    analytic_distance: float
    analytic_transitivity: float


def sample_gnm_adjacency(n: int, m: int, rng: np.random.Generator) -> Adjacency:
    """Uniform random simple undirected graph with exactly m edges."""
    possible = n * (n - 1) // 2
    if m > possible:
        raise ValueError(f"infeasible link count: {m} > {possible}")
    chosen = rng.choice(possible, size=m, replace=False)
    # row i of the upper triangle starts at i*(n-1) - i*(i-1)/2
    i = np.arange(n, dtype=np.int64)
    offsets = i * (n - 1) - i * (i - 1) // 2
    rows = np.searchsorted(offsets, chosen, side="right") - 1
    cols = rows + 1 + (chosen - offsets[rows])
    adj: Adjacency = [[] for _ in range(n)]
    for u, v in zip(rows.tolist(), cols.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def er_baseline(nodes: int, links: int, samples: int, seed: int) -> ERBaseline:
    """Monte Carlo G(n,m) baseline; per-sample metrics on the giant component.

    Sample i draws from an RNG stream derived from (seed, i), so the result
    does not depend on evaluation order.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    possible = nodes * (nodes - 1) // 2
    if links > possible:
        raise ValueError(f"infeasible link count: {links} > {possible}")
    distances_mc = np.empty(samples)
    transitivity_mc = np.empty(samples)
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        adj = sample_gnm_adjacency(nodes, links, rng)
        giant = max(weak_components_of(adj), key=len)
        index = {old: new for new, old in enumerate(giant)}
        giant_adj: Adjacency = [[] for _ in giant]
        for old in giant:
            giant_adj[index[old]] = [index[v] for v in adj[old]]
        distances_mc[i] = distance_stats_of(giant_adj, require_all_pairs=True)[0]
        transitivity_mc[i] = triangle_ratio(giant_adj)
    mean_degree = 2 * links / nodes if nodes else float("nan")
    analytic_distance = math.log(nodes) / math.log(mean_degree) if mean_degree > 1 else float("nan")
    return ERBaseline(
        nodes=nodes,
        links=links,
        samples=samples,
        seed=seed,
        avg_distance_mean=float(np.mean(distances_mc)),
        avg_distance_sd=float(np.std(distances_mc, ddof=1)) if samples > 1 else 0.0,
        transitivity_mean=float(np.mean(transitivity_mc)),
        transitivity_sd=float(np.std(transitivity_mc, ddof=1)) if samples > 1 else 0.0,
        analytic_distance=analytic_distance,
        analytic_transitivity=mean_degree / nodes if nodes else float("nan"),
    )
