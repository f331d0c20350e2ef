"""Shared oracles and graph generators for the test suite.

Oracles here are deliberately written along different routes than the
implementations they check (matrix powers, Floyd-Warshall, definitional
sums), so agreement is meaningful.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import wsdepnet
from wsdepnet import powerlaw
from wsdepnet.community import CommunityPartition, MergeStep, WalktrapResult, modularity
from wsdepnet.errors import DegenerateAnalysisError
from wsdepnet.matching import MatcherKind
from wsdepnet.model import ParameterInstance
from wsdepnet.network import DependencyNetwork, network_from_edges
from wsdepnet.topology import ERBaseline, weak_components_of

INF = float("inf")


def fresh_interpreter(code: str, *args: str):
    """Run `code` with `args` in a new interpreter that imports this package;
    return its last line of stdout, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(wsdepnet.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def floyd_warshall(adj: list[list[int]]) -> list[list[float]]:
    """Cubic all-pairs shortest paths; INF where unreachable."""
    n = len(adj)
    dist = [[0.0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, neighbors in enumerate(adj):
        for v in neighbors:
            dist[u][v] = min(dist[u][v], 1.0)
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            row = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return dist


def bfs_lengths(adj: list[list[int]], source: int) -> list[int]:
    """Hop counts from source; -1 where unreachable."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def distance_stats_of(pred: list[list[int]], require_all_pairs: bool) -> tuple[float, int, int]:
    """(average over finite ordered pairs, max finite distance, finite pair count)
    of the graph whose predecessor lists are `pred`; an undirected adjacency
    is its own.

    Bit-parallel multi-source BFS over Python ints, the kernel that
    `topology` ran before its numpy planes: bit s of reach[v] means v has
    been reached from s, and each level is one pull sweep over the
    predecessor lists. With require_all_pairs, an unreachable ordered pair
    raises; the first such pair in (source, target) order is named.
    """
    n = len(pred)
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


def triangle_ratio(undirected: list[list[int]]) -> float:
    """3 * triangles / connected triples over neighbour sets; 0.0 when there are no triples."""
    neighbor_sets = [set(neighbors) for neighbors in undirected]
    closed = 0  # each triangle counted once per edge, i.e. 3 * triangles
    for u in range(len(undirected)):
        for v in undirected[u]:
            if v > u:
                closed += len(neighbor_sets[u] & neighbor_sets[v])
    triples = sum(d * (d - 1) // 2 for d in (len(ns) for ns in undirected))
    return closed / triples if triples else 0.0


def sample_gnm_adjacency(n: int, m: int, rng: np.random.Generator) -> list[list[int]]:
    """Uniform random simple undirected graph with exactly m edges, drawn as
    `topology.er_baseline` draws each sample."""
    possible = n * (n - 1) // 2
    if m > possible:
        raise ValueError(f"infeasible link count: {m} > {possible}")
    chosen = rng.choice(possible, size=m, replace=False)
    # row i of the upper triangle starts at i*(n-1) - i*(i-1)/2
    i = np.arange(n, dtype=np.int64)
    offsets = i * (n - 1) - i * (i - 1) // 2
    rows = np.searchsorted(offsets, chosen, side="right") - 1
    cols = rows + 1 + (chosen - offsets[rows])
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(rows.tolist(), cols.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def er_baseline_oracle(nodes: int, links: int, samples: int, seed: int) -> ERBaseline:
    """`topology.er_baseline` one sample at a time: each sample's giant is
    re-indexed and goes through distance_stats_of and triangle_ratio."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    distances_mc = np.empty(samples)
    transitivity_mc = np.empty(samples)
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        adj = sample_gnm_adjacency(nodes, links, rng)
        giant = max(weak_components_of(adj), key=len)
        index = {old: new for new, old in enumerate(giant)}
        giant_adj = [[index[v] for v in adj[old]] for old in giant]
        distances_mc[i] = distance_stats_of(giant_adj, require_all_pairs=True)[0]
        transitivity_mc[i] = triangle_ratio(giant_adj)
    mean_degree = 2 * links / nodes if nodes else float("nan")
    return ERBaseline(
        nodes=nodes,
        links=links,
        samples=samples,
        seed=seed,
        avg_distance_mean=float(np.mean(distances_mc)),
        avg_distance_sd=float(np.std(distances_mc, ddof=1)) if samples > 1 else 0.0,
        transitivity_mean=float(np.mean(transitivity_mc)),
        transitivity_sd=float(np.std(transitivity_mc, ddof=1)) if samples > 1 else 0.0,
        analytic_distance=math.log(nodes) / math.log(mean_degree) if mean_degree > 1 else float("nan"),
        analytic_transitivity=mean_degree / nodes if nodes else float("nan"),
    )


def average_local_clustering(undirected: list[list[int]]) -> float:
    """Mean over nodes of the local clustering coefficient (degree < 2 counts 0)."""
    if not undirected:
        return 0.0
    neighbor_sets = [set(ns) for ns in undirected]
    total = 0.0
    for u, neighbors in enumerate(undirected):
        d = len(neighbors)
        if d < 2:
            continue
        linked = sum(len(neighbor_sets[v] & neighbor_sets[u]) for v in neighbors)
        total += linked / (d * (d - 1))
    return total / len(undirected)


def triangle_count_trace(undirected: list[list[int]]) -> int:
    """tr(A^3)/6 on the symmetric 0/1 adjacency matrix."""
    n = len(undirected)
    a = np.zeros((n, n), dtype=np.int64)
    for u, neighbors in enumerate(undirected):
        for v in neighbors:
            a[u, v] = 1
    return int(np.trace(a @ a @ a) // 6)


def modularity_definition(edges: list[tuple[int, int]], assignment: dict[int, int]) -> float:
    """Literal Q = sum_c [e_c/m - (d_c/2m)^2] over undirected edges."""
    m = len(edges)
    communities = set(assignment.values())
    q = 0.0
    for c in communities:
        e_c = sum(1 for u, v in edges if assignment[u] == c and assignment[v] == c)
        d_c = sum(1 for u, v in edges if assignment[u] == c) + sum(
            1 for u, v in edges if assignment[v] == c
        )
        q += e_c / m - (d_c / (2 * m)) ** 2
    return q


def walktrap_delta_sigma(undirected: list[list[int]], t: int):
    """Delta-sigma between two node sets, from its definition through P^t.

    Pons & Latapy, "Computing communities in large networks using random
    walks", JGAA 10(2), 2006, Thm. 3: (1/n) |C1||C2|/(|C1|+|C2|) r^2, where
    r^2 is the D^-1 weighted squared gap between the member-averaged rows
    of the dense matrix power P^t.
    """
    n = len(undirected)
    degrees = np.array([len(neighbors) for neighbors in undirected], dtype=float)
    transition = np.zeros((n, n))
    for u, neighbors in enumerate(undirected):
        transition[u, neighbors] = 1.0 / degrees[u]
    walk = np.linalg.matrix_power(transition, t)

    def delta_sigma(first: set[int], second: set[int]) -> float:
        gap = walk[sorted(first)].mean(axis=0) - walk[sorted(second)].mean(axis=0)
        r2 = float(np.sum(gap**2 / degrees))
        return len(first) * len(second) / (len(first) + len(second)) / n * r2

    return delta_sigma


def walktrap_delta_sigma_exact(undirected: list[list[int]], t: int):
    """walktrap_delta_sigma in exact rational arithmetic, for long walks."""
    n = len(undirected)
    walk = [[Fraction(int(v in neighbors), len(neighbors)) for v in range(n)] for neighbors in undirected]
    for _ in range(t - 1):
        walk = [[sum((walk[v][j] for v in neighbors), Fraction(0)) / len(neighbors) for j in range(n)]
                for neighbors in undirected]

    def delta_sigma(first: set[int], second: set[int]) -> Fraction:
        r2 = Fraction(0)
        for j in range(n):
            gap = sum(walk[u][j] for u in first) / len(first) - sum(walk[u][j] for u in second) / len(second)
            r2 += gap * gap / len(undirected[j])
        return Fraction(len(first) * len(second), (len(first) + len(second)) * n) * r2

    return delta_sigma


def walktrap_heap_reference(n: DependencyNetwork, t: int = 4) -> WalktrapResult:
    """Walktrap with explicit walk rows and a lazily pruned heap.

    The previous implementation of `community.walktrap`, kept as its oracle:
    each community keeps its degree-normalized t-step walk row, every
    adjacent pair's Delta-sigma is a fresh dot product, and superseded heap
    entries are skipped when popped.

    Requires a connected undirected projection with at least one link.
    Exact ties in the merge criterion go to the pair with the smallest
    (min community id, max community id), making the run deterministic.
    Exact ties in modularity go to the earliest cut.
    """
    if t < 1:
        raise ValueError("walk length t must be >= 1")
    undirected = n.neighbors
    size = len(undirected)
    if size == 0:
        raise DegenerateAnalysisError("walktrap", "empty network")
    if len(weak_components_of(undirected)) > 1:
        raise ValueError("walktrap requires a connected network; pass one component")
    edges = sorted({(min(s, d), max(s, d)) for s, d in n.links})
    if not edges:
        raise DegenerateAnalysisError("walktrap", "no links")
    m = len(edges)
    degrees = [len(neigh) for neigh in undirected]

    # Row u of P^k is the mean of the rows of P^(k-1) over u's neighbours.
    walk = np.zeros((size, size))
    for u, neighbors in enumerate(undirected):
        walk[u, neighbors] = 1.0 / degrees[u]
    spare = np.empty_like(walk)
    for _ in range(t - 1):
        for u, neighbors in enumerate(undirected):
            np.sum(walk[neighbors], axis=0, out=spare[u])
            spare[u] /= degrees[u]
        walk, spare = spare, walk
    del spare
    # Columns scaled by D^-1/2, so the squared walk distance is a plain dot product.
    walk *= 1.0 / np.sqrt(degrees)
    gap = np.empty(size)

    # A community's vector is the size-weighted mean of its nodes' rows,
    # kept in place in walk[row_of[c]]; label maps node -> row. A merge
    # keeps the larger community's row, so only the smaller one's nodes
    # are scanned for crossing links and relabelled.
    comm_size = {i: 1 for i in range(size)}
    row_of = {i: i for i in range(size)}
    comm_degree = {i: degrees[i] for i in range(size)}
    neighbors_of = {i: set(neigh) for i, neigh in enumerate(undirected)}
    members = [[i] for i in range(size)]
    label = list(range(size))

    def delta_sigma(a: int, b: int) -> float:
        np.subtract(walk[row_of[a]], walk[row_of[b]], out=gap)
        sa, sb = comm_size[a], comm_size[b]
        return (sa * sb) / (sa + sb) / size * float(gap @ gap)

    current = {(u, v): delta_sigma(u, v) for u, v in edges}
    heap = [(d, u, v) for (u, v), d in current.items()]
    heapq.heapify(heap)

    # 4m^2 Q = 4m * (intra-community links) - sum of squared community degrees, exactly
    intra = 0
    degree_squares = sum(d * d for d in degrees)
    cut_keys = [-degree_squares]
    merges: list[MergeStep] = []

    for step in range(size - 1):
        while True:
            d, a, b = heapq.heappop(heap)
            if current.get((a, b)) == d:
                break
        del current[(a, b)]
        c = size + step
        sa, sb = comm_size.pop(a), comm_size.pop(b)
        keep, drop = row_of.pop(a), row_of.pop(b)
        if sa < sb:
            keep, drop = drop, keep
        intra += sum(label[other] == keep for node in members[drop] for other in undirected[node])
        degree_a, degree_b = comm_degree.pop(a), comm_degree.pop(b)
        degree_squares += 2 * degree_a * degree_b
        cut_keys.append(4 * m * intra - degree_squares)
        vector = walk[keep]
        vector *= max(sa, sb)
        vector += min(sa, sb) * walk[drop]
        vector /= sa + sb
        for node in members[drop]:
            label[node] = keep
        members[keep] += members[drop]
        comm_size[c], row_of[c], comm_degree[c] = sa + sb, keep, degree_a + degree_b
        new_neighbors = (neighbors_of.pop(a) | neighbors_of.pop(b)) - {a, b}
        neighbors_of[c] = new_neighbors
        for x in new_neighbors:
            neighbors_of[x] -= {a, b}
            neighbors_of[x].add(c)
            current.pop((a, x) if a < x else (x, a), None)
            current.pop((b, x) if b < x else (x, b), None)
            d_new = current[(x, c)] = delta_sigma(c, x)
            heapq.heappush(heap, (d_new, x, c))  # c is the largest id alive
        merges.append(MergeStep(step=step, community_a=a, community_b=b, delta_sigma=d))

    result = WalktrapResult(
        partition=CommunityPartition(assignment={}, community_count=0, modularity=0.0, walktrap_t=t),
        merges=merges,
        cut_modularities=[key / (4 * m * m) for key in cut_keys],
        best_cut=max(range(len(cut_keys)), key=lambda k: (cut_keys[k], -k)),
    )
    assignment = result.assignment_at_cut(result.best_cut)
    result.partition = CommunityPartition(
        assignment=assignment,
        community_count=len(set(assignment.values())),
        modularity=modularity(n, assignment),
        walktrap_t=t,
    )
    return result


def fit_alpha_continuous(data, xmin: int) -> float:
    """Continuous ML exponent, a cross-check for the discrete fit."""
    arr = powerlaw._as_positive_ints(data)
    tail = arr[arr >= xmin]
    if tail.size < 2:
        raise DegenerateAnalysisError("power-law-fit", f"degenerate tail: fewer than 2 observations >= {xmin}")
    log_sum = float(np.sum(np.log(tail / xmin)))
    return 1.0 + tail.size / log_sum


def ks_distance(data, alpha: float, xmin: int) -> float:
    """KS distance between the empirical tail CDF and the model CDF, at the
    distinct tail values, one sample at a time."""
    arr = powerlaw._as_positive_ints(data)
    tail = np.sort(arr[arr >= xmin])
    if tail.size < 1:
        raise DegenerateAnalysisError("power-law-fit", f"empty tail above {xmin}")
    values, counts = np.unique(tail, return_counts=True)
    empirical = np.cumsum(counts) / tail.size
    return float(np.max(np.abs(empirical - powerlaw.model_tail_cdf(alpha, xmin, values))))


def select_xmin_oracle(data, min_tail: int = 10) -> tuple[int, float, float]:
    """KS cutoff selection on one sample, over the full (candidate x distinct
    value) matrix with the pairs below the cutoff masked out."""
    arr = np.sort(np.asarray(data, dtype=np.int64))
    values, first_index = np.unique(arr, return_index=True)
    if values.size < 2:
        raise DegenerateAnalysisError("power-law-fit", "fewer than 2 distinct values")
    n = arr.size
    tail_sizes = n - first_index
    candidate_mask = tail_sizes >= max(min_tail, 2)
    if not candidate_mask.any():
        candidate_mask = tail_sizes >= 2
    cand = np.flatnonzero(candidate_mask)

    log_data = np.log(arr.astype(float))
    suffix_logsum = np.concatenate([np.cumsum(log_data[::-1])[::-1], [0.0]])
    v = values[cand].astype(float)
    n_tail = tail_sizes[cand].astype(float)
    denom = suffix_logsum[first_index[cand]] - n_tail * np.log(v - 0.5)
    alphas = 1.0 + n_tail / denom

    counts = np.diff(np.append(first_index, n))
    cum_counts = np.cumsum(counts)  # number of observations <= values[j]
    a_col = alphas[:, None]
    v_col = v[:, None]
    w_row = values.astype(float)[None, :]
    scaled_norm = powerlaw._scaled_zeta(a_col, v_col, v_col)
    # pairs below the cutoff may overflow, and inf - inf gives nan; they are masked out
    with np.errstate(over="ignore", invalid="ignore"):
        scaled_tail = powerlaw._scaled_zeta(a_col, w_row + 1.0, v_col)
    model = 1.0 - scaled_tail / scaled_norm
    empirical = (cum_counts[None, :] - first_index[cand][:, None]) / n_tail[:, None]
    gaps = np.where(w_row >= v_col, np.abs(empirical - model), -np.inf)
    ks = gaps.max(axis=1)

    best = int(np.argmin(ks))
    return int(values[cand[best]]), float(alphas[best]), float(ks[best])


def quantile_oracle(alpha: float, xmin: int, u: float) -> int:
    """The least x >= xmin with model_tail_cdf(x) >= u, bisected for this
    uniform alone: hi doubles (h -> 2h + 1) until its CDF reaches u, then
    [xmin, hi] is halved, one model_tail_cdf call per step."""
    lo = hi = xmin
    while float(powerlaw.model_tail_cdf(alpha, xmin, [hi])[0]) < u:
        hi = 2 * hi + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if float(powerlaw.model_tail_cdf(alpha, xmin, [mid])[0]) >= u:
            hi = mid
        else:
            lo = mid + 1
    return lo


def sample_discrete_powerlaw_oracle(alpha: float, xmin: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws through a CDF table built for this call alone."""
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    u = rng.random(size)
    norm = float(powerlaw._scaled_zeta(alpha, float(xmin), float(xmin)))
    length = 1024
    u_max = float(u.max())
    while True:
        support = np.arange(xmin, xmin + length, dtype=float)
        cdf = np.cumsum((support / xmin) ** -alpha / norm)
        if cdf[-1] >= u_max or length >= 2**20:
            break
        length *= 4
    out = xmin + np.searchsorted(cdf, u, side="left")
    for i in np.flatnonzero(out >= xmin + length):
        out[i] = quantile_oracle(alpha, xmin, float(u[i]))
    return out.astype(np.int64)


def replicate_ks_oracle(data, fit: powerlaw.PowerLawFit, replicates: int, seed: int, min_tail: int = 10) -> np.ndarray:
    """Bootstrap KS values one replicate at a time (inf where a replicate collapsed)."""
    arr = np.asarray(data, dtype=np.int64)
    n = arr.size
    below = arr[arr < fit.xmin]
    p_tail = (n - below.size) / n
    ks_values = np.empty(replicates)
    for r in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        k = int((rng.random(n) < p_tail).sum())
        parts = [sample_discrete_powerlaw_oracle(fit.alpha, fit.xmin, k, rng)]
        if n - k > 0:
            parts.append(rng.choice(below, size=n - k, replace=True))
        try:
            _, _, ks_values[r] = select_xmin_oracle(np.concatenate(parts), min_tail=min_tail)
        except DegenerateAnalysisError:
            ks_values[r] = np.inf
    return ks_values


class UnionFind:
    """Disjoint sets over dense integer indices, smaller root index wins."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx


def build_archetypes_pairwise(
    instances: list[ParameterInstance],
    predicate: Callable[[ParameterInstance, ParameterInstance], bool],
) -> list[list[int]]:
    """Classes of the transitive closure of `predicate`, by O(n^2) comparison.

    Works for arbitrary (possibly non-transitive) symmetric predicates.
    Returns member index lists, classes ordered by smallest member index.
    """
    uf = UnionFind(len(instances))
    for i in range(len(instances)):
        for j in range(i + 1, len(instances)):
            if predicate(instances[i], instances[j]):
                uf.union(i, j)
    classes: dict[int, list[int]] = {}
    for i in range(len(instances)):
        classes.setdefault(uf.find(i), []).append(i)
    return [classes[root] for root in sorted(classes)]


def random_directed_network(rng: np.random.Generator, max_n: int = 50) -> DependencyNetwork:
    """Random simple directed graph (no self-loops), possibly disconnected."""
    n = int(rng.integers(2, max_n + 1))
    p = float(rng.uniform(0.02, 0.35))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return network_from_edges(n, edges, MatcherKind.SYNTACTIC_EQUAL)


def random_connected_undirected_network(rng: np.random.Generator, max_n: int = 30) -> DependencyNetwork:
    """Connected graph: a random spanning tree plus extra random edges."""
    n = int(rng.integers(2, max_n + 1))
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        u = int(order[i])
        v = int(order[rng.integers(0, i)])
        edges.add((min(u, v), max(u, v)))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return network_from_edges(n, sorted(edges), MatcherKind.SYNTACTIC_EQUAL)


def planted_two_block(
    block_size: int, p_in: float, p_out: float, seed: int
) -> tuple[DependencyNetwork, list[int]]:
    """Two planted communities; resamples within the seed until connected."""
    rng = np.random.default_rng(seed)
    n = 2 * block_size
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                same = (u < block_size) == (v < block_size)
                if rng.random() < (p_in if same else p_out):
                    edges.append((u, v))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        if len(weak_components_of(adj)) == 1:
            truth = [0] * block_size + [1] * block_size
            return network_from_edges(n, edges, MatcherKind.SYNTACTIC_EQUAL), truth


def block_agreement(assignment: dict[int, int], truth: list[int]) -> float:
    """Fraction of nodes correct after mapping each community to its majority block."""
    votes: dict[int, list[int]] = {}
    for node, community in assignment.items():
        votes.setdefault(community, [0, 0])[truth[node]] += 1
    return sum(max(v) for v in votes.values()) / len(truth)


def param(name: str, concept: str | None = None, xsd_type: str | None = None) -> dict:
    p: dict = {"name": name}
    if xsd_type is not None:
        p["type"] = xsd_type
    if concept is not None:
        p["concept"] = concept
    return p


def op(name: str, inputs: list[dict], outputs: list[dict]) -> dict:
    return {"name": name, "inputs": inputs, "outputs": outputs}


def collection_doc(*operations: dict, service: str = "svc", domain: str | None = None) -> dict:
    entry: dict = {"name": service, "operations": list(operations)}
    if domain is not None:
        entry["domain"] = domain
    return {"services": [entry]}


def sawsdl_concept_reference(part: dict, elements: dict[str, dict], types: dict[str, dict]) -> str | None:
    """The concept of a SAWSDL message part, looked up as the reader has
    always done: the part's own annotation, else that of the element the
    part references, else that of the element's type, or of the part's
    type when the part references no declared element. A declared element
    without a type ends the lookup there. Parts and declarations are dicts
    whose optional "element", "type" and "concept" keys hold local names
    and annotations."""
    if part.get("concept") is not None:
        return part["concept"]
    type_name = part.get("type")
    if part.get("element") is not None:
        decl = elements.get(part["element"])
        if decl is not None:
            if decl.get("concept") is not None:
                return decl["concept"]
            type_name = decl.get("type")
    if type_name is not None:
        decl = types.get(type_name)
        if decl is not None:
            return decl.get("concept")
    return None
