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
from wsdepnet.community import MergeStep, WalktrapResult
from wsdepnet.errors import DegenerateAnalysisError
from wsdepnet.matching import MatcherKind, instance_key
from wsdepnet.model import ParameterInstance
from wsdepnet.network import DependencyNetwork, network_from_edges
from wsdepnet.report import PowerLawFit
from wsdepnet.topology import ERBaseline, weak_components_of

INF = float("inf")


def fresh_interpreter(code: str, *args: str):
    """Run `code` with `args` in a new interpreter that imports this package;
    return its last line of stdout, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(wsdepnet.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def adjacency_oracle(n: DependencyNetwork) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(successors, predecessors, neighbors) of each node, ascending, read
    straight off the links."""
    nodes = range(n.node_count)
    successors = [sorted(d for s, d in n.links if s == u) for u in nodes]
    predecessors = [sorted(s for s, d in n.links if d == u) for u in nodes]
    neighbors = [sorted({*successors[u], *predecessors[u]}) for u in nodes]
    return successors, predecessors, neighbors


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


def degree_correlation_corrcoef(n: DependencyNetwork) -> float:
    """Newman's r as np.corrcoef of the total degrees at the two ends of
    each undirected link, the links sorted and deduplicated, each taken in
    both orientations."""
    successors, predecessors, _ = adjacency_oracle(n)
    total = [len(sources) + len(targets) for sources, targets in zip(predecessors, successors)]
    edges = sorted({(min(u, v), max(u, v)) for u, v in n.links})
    x = [total[end] for edge in edges for end in edge]
    y = [total[end] for edge in edges for end in reversed(edge)]
    return float(np.corrcoef(x, y)[0, 1])


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


def walk_gram_oracle(undirected: list[list[int]], t: int) -> np.ndarray:
    """`community.walk_gram` as it was before its rows shared one pool: each
    walk step writes every row, in node order, into a second n x n buffer,
    and the two buffers swap. The rows are the same sums of the same rows in
    the same order, so the two agree bit for bit."""
    degrees = [len(neighbors) for neighbors in undirected]
    pi = np.asarray(degrees) / float(sum(degrees))
    gram = np.empty((len(undirected), len(undirected)))
    gram[:] = -pi
    for u, neighbors in enumerate(undirected):
        gram[u, neighbors] += 1.0 / degrees[u]
    spare = np.empty_like(gram)
    for _ in range(2 * t - 1):
        for u, neighbors in enumerate(undirected):
            row = spare[u]
            np.copyto(row, gram[neighbors[0]])
            for v in neighbors[1:]:
                row += gram[v]
            row /= degrees[u]
        gram, spare = spare, gram
    gram -= np.einsum("u,uv->v", pi, gram)
    gram /= degrees
    return gram


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
        merges.append(MergeStep(community_a=a, community_b=b, delta_sigma=d))

    return WalktrapResult(
        merges=merges,
        cut_modularities=[key / (4 * m * m) for key in cut_keys],
        best_cut=max(range(len(cut_keys)), key=lambda k: (cut_keys[k], -k)),
    )


def fit_alpha_continuous(data, xmin: int) -> float:
    """Continuous ML exponent, a cross-check for the discrete fit."""
    arr = powerlaw._as_positive_ints(data)
    tail = arr[arr >= xmin]
    if tail.size < 2:
        raise DegenerateAnalysisError("power-law-fit", f"degenerate tail: fewer than 2 observations >= {xmin}")
    log_sum = float(np.sum(np.log(tail / xmin)))
    return 1.0 + tail.size / log_sum


def scaled_zeta(alpha, q, scale) -> np.ndarray:
    """powerlaw._scaled_zeta elementwise, with broadcasting: each value alone
    in a group of its own exponent and scale, where q >= scale."""
    arrays = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (alpha, q, scale)))
    alpha, q, scale = (x.ravel() for x in arrays)
    return powerlaw._scaled_zeta(alpha, q, scale, np.arange(q.size)).reshape(arrays[0].shape)


def model_tail_cdf(alpha: float, xmin: int, values) -> np.ndarray:
    """P(X <= v | X >= xmin) of the discrete power law, for integer v >= xmin."""
    values = np.asarray(values, dtype=float)
    return 1.0 - scaled_zeta(alpha, values + 1.0, float(xmin)) / scaled_zeta(alpha, float(xmin), float(xmin))


def ks_distance(data, alpha: float, xmin: int) -> float:
    """KS distance between the empirical tail CDF and the model CDF, at the
    distinct tail values, one sample at a time."""
    arr = powerlaw._as_positive_ints(data)
    tail = np.sort(arr[arr >= xmin])
    if tail.size < 1:
        raise DegenerateAnalysisError("power-law-fit", f"empty tail above {xmin}")
    values, counts = np.unique(tail, return_counts=True)
    empirical = np.cumsum(counts) / tail.size
    return float(np.max(np.abs(empirical - model_tail_cdf(alpha, xmin, values))))


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
    n_tail = tail_sizes[cand].astype(float)
    with np.errstate(divide="ignore"):
        alphas = 1.0 + n_tail / (suffix_logsum[first_index[cand]] - n_tail * np.log(values[cand] - 0.5))
    # a candidate whose exponent rounding puts outside (1, inf) is no law
    law = (alphas > 1) & (alphas < INF)
    if not law.any():
        raise DegenerateAnalysisError("power-law-fit", "no exponent in (1, inf)")
    cand, n_tail, alphas = cand[law], n_tail[law], alphas[law]
    v = values[cand].astype(float)

    counts = np.diff(np.append(first_index, n))
    cum_counts = np.cumsum(counts)  # number of observations <= values[j]
    a_col = alphas[:, None]
    v_col = v[:, None]
    w_row = values.astype(float)[None, :]
    scaled_norm = scaled_zeta(a_col, v_col, v_col)
    # only the pairs at or past the cutoff; the rest are masked out
    inside = np.broadcast_to(w_row >= v_col, (v.size, values.size))
    a_cell, v_cell, w_cell = (np.broadcast_to(x, inside.shape)[inside] for x in (a_col, v_col, w_row))
    scaled_tail = np.ones(inside.shape)
    scaled_tail[inside] = scaled_zeta(a_cell, w_cell + 1.0, v_cell)
    model = 1.0 - scaled_tail / scaled_norm
    empirical = (cum_counts[None, :] - first_index[cand][:, None]) / n_tail[:, None]
    gaps = np.where(inside, np.abs(empirical - model), -np.inf)
    ks = gaps.max(axis=1)

    best = int(np.argmin(ks))
    return int(values[cand[best]]), float(alphas[best]), float(ks[best])


def quantile_oracle(alpha: float, xmin: int, u: float) -> int:
    """The least x >= xmin with model_tail_cdf(x) >= u, bisected for this
    uniform alone: hi doubles (h -> 2h + 1) until its CDF reaches u, then
    [xmin, hi] is halved, one model_tail_cdf call per step."""
    lo = hi = xmin
    while float(model_tail_cdf(alpha, xmin, [hi])[0]) < u:
        hi = 2 * hi + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if float(model_tail_cdf(alpha, xmin, [mid])[0]) >= u:
            hi = mid
        else:
            lo = mid + 1
    return lo


def powerlaw_values_oracle(alpha: float, xmin: int, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws of the uniforms `u` through a CDF table built for them alone."""
    if u.size == 0:
        return np.zeros(0, dtype=np.int64)
    norm = float(scaled_zeta(alpha, float(xmin), float(xmin)))
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


def tail_draws_oracle(
    rng: np.random.Generator, alpha: float, xmin: int, count: int, overdraw: float = 1.45
) -> list[float]:
    """The tail draws of powerlaw._tail_draws, kept one proposal at a time:
    rounds of 2 x m uniforms, m = floor(overdraw r) + 16 for the r draws still
    needed, propose x = min(floor(xmin (1 - w)**(-1/(alpha - 1))), 2**63) and
    keep it where v x g(x) <= xmin g(xmin), g(k) = -expm1((1 - alpha) log1p(1/k));
    a round's proposals past the last draw needed are dropped."""

    def g(k):
        return -np.expm1((1.0 - alpha) * np.log1p(1.0 / k))

    kept: list[float] = []
    while len(kept) < count:
        w, v = rng.random((2, int(overdraw * (count - len(kept))) + 16))
        with np.errstate(over="ignore"):
            x = np.minimum(np.floor(xmin * (1.0 - w) ** (-1.0 / (alpha - 1.0))), 2.0**63)
        for value, keep in zip(x.tolist(), (v * x * g(x) <= xmin * g(np.float64(xmin))).tolist()):
            if keep and len(kept) < count:
                kept.append(value)
    return kept


def replicate_ks_oracle(data, fit: PowerLawFit, replicates: int, seed: int, min_tail: int = 10) -> np.ndarray:
    """Bootstrap KS values one replicate at a time (inf where a replicate collapsed).

    Chunk c makes its RNG calls from the stream (seed, c) in order: the tail
    sizes of its 8 replicates, the rounds of all their tail draws, and all
    their picks below xmin. Each replicate then takes its share of both, tail
    first, and is scanned alone; a tail draw of 2**63 or more raises
    OverflowError.
    """
    arr = np.asarray(data, dtype=np.int64)
    n = arr.size
    below = arr[arr < fit.xmin]
    p_tail = (n - below.size) / n
    ks_values = np.empty(replicates)
    for chunk in range(-(-replicates // 8)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
        sizes = rng.binomial(n, p_tail, 8)
        tail = tail_draws_oracle(rng, fit.alpha, fit.xmin, int(sizes.sum()))
        picks = rng.integers(0, below.size, 8 * n - sizes.sum()) if 8 * n > sizes.sum() else None
        tail_at = pick_at = 0
        for i, k in enumerate(sizes.tolist()):
            r = 8 * chunk + i
            if r == replicates:
                break
            drawn = tail[tail_at : tail_at + k]
            if any(value >= 2**63 for value in drawn):
                raise OverflowError("a tail draw past the int64 range")
            parts = [np.array(drawn, dtype=np.int64)]
            if n > k:
                parts.append(below[picks[pick_at : pick_at + n - k]])
            tail_at, pick_at = tail_at + k, pick_at + n - k
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


def matches(kind: MatcherKind, p1: ParameterInstance, p2: ParameterInstance, casefold: bool = False) -> bool:
    """Binary symmetric match. An instance missing the compared field matches only itself."""
    k1 = instance_key(kind, p1, casefold=casefold)
    k2 = instance_key(kind, p2, casefold=casefold)
    if k1 is None or k2 is None:
        return p1 is p2
    return k1 == k2


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


def heavy_tailed_network(nodes: int = 1200, links: int = 2800, seed: int = 1) -> DependencyNetwork:
    """Connected undirected graph with Pareto(1.5) node weights, so degrees
    are heavy-tailed: each node joins an earlier one drawn by weight, then
    links join weight-drawn pairs until there are `links`."""
    rng = np.random.default_rng(seed)
    weight = rng.pareto(1.5, nodes) + 1.0
    edges = set()
    for new in range(1, nodes):
        old = int(rng.choice(new, p=weight[:new] / weight[:new].sum()))
        edges.add((old, new))
    while len(edges) < links:
        u, v = (int(x) for x in rng.choice(nodes, 2, p=weight / weight.sum()))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return network_from_edges(nodes, sorted(edges), MatcherKind.SYNTACTIC_EQUAL)


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
