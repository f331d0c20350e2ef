"""Shared oracles and graph generators for the test suite.

Oracles here are deliberately written along different routes than the
implementations they check (matrix powers, Floyd-Warshall, definitional
sums), so agreement is meaningful.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from wsdepnet.matching import MatcherKind
from wsdepnet.network import DependencyNetwork, network_from_edges
from wsdepnet.topology import weak_components_of

INF = float("inf")


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
