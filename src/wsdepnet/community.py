"""Random-walk community detection and Newman modularity.

Direction is discarded: both run on the undirected simple projection.
The agglomeration follows the short-random-walk scheme: each node carries
its t-step walk probability row, the distance between communities is the
degree-normalized euclidean gap between their (averaged) rows, and the
merge chosen at each step is the adjacent pair whose fusion least
increases the mean squared node-to-community distance. The reported
partition is the dendrogram cut with maximum modularity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAnalysisError
from .network import DependencyNetwork
from .topology import weak_components_of


def _undirected_edges(n: DependencyNetwork) -> list[tuple[int, int]]:
    return sorted({(min(s, d), max(s, d)) for s, d in n.links})


def modularity(n: DependencyNetwork, assignment: dict[int, int]) -> float:
    """Q = sum_c [e_c/m - (d_c/2m)^2] over the undirected simple projection."""
    edges = _undirected_edges(n)
    if not edges:
        raise DegenerateAnalysisError("modularity", "no links")
    missing = [node.id for node in n.nodes if node.id not in assignment]
    if missing:
        raise ValueError(f"assignment misses nodes {missing[:5]}")
    m = len(edges)
    intra: dict[int, int] = {}
    degree_sum: dict[int, int] = {}
    for u, v in edges:
        cu, cv = assignment[u], assignment[v]
        degree_sum[cu] = degree_sum.get(cu, 0) + 1
        degree_sum[cv] = degree_sum.get(cv, 0) + 1
        if cu == cv:
            intra[cu] = intra.get(cu, 0) + 1
    q = 0.0
    for community, d_c in degree_sum.items():
        q += intra.get(community, 0) / m - (d_c / (2 * m)) ** 2
    return q


@dataclass
class CommunityPartition:
    assignment: dict[int, int]
    community_count: int
    modularity: float
    walktrap_t: int


@dataclass
class MergeStep:
    step: int
    community_a: int
    community_b: int
    delta_sigma: float


@dataclass
class WalktrapResult:
    partition: CommunityPartition
    merges: list[MergeStep]
    cut_modularities: list[float]  # modularity after 0..n-1 merges
    best_cut: int

    def assignment_at_cut(self, cut: int) -> dict[int, int]:
        """Node -> community ids (dense, by smallest member) after `cut` merges."""
        n = len(self.cut_modularities)
        parent = list(range(n + len(self.merges)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for step in range(cut):
            merge = self.merges[step]
            new_id = n + step
            parent[find(merge.community_a)] = new_id
            parent[find(merge.community_b)] = new_id
        roots: dict[int, int] = {}
        assignment = {}
        for node in range(n):
            root = find(node)
            if root not in roots:
                roots[root] = len(roots)
            assignment[node] = roots[root]
        return assignment


def walktrap(n: DependencyNetwork, t: int = 4) -> WalktrapResult:
    """Agglomerate the network and return the maximum-modularity cut.

    Requires a connected undirected projection with at least one link.
    Exact ties in the merge criterion go to the pair with the smallest
    (min community id, max community id), making the run deterministic.
    Exact ties in modularity go to the earliest cut.
    """
    if t < 1:
        raise ValueError("walk length t must be >= 1")
    undirected = n.undirected_adjacency()
    size = len(undirected)
    if size == 0:
        raise DegenerateAnalysisError("walktrap", "empty network")
    if len(weak_components_of(undirected)) > 1:
        raise ValueError("walktrap requires a connected network; pass one component")
    edges = _undirected_edges(n)
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


def partition_csv(n: DependencyNetwork, partition: CommunityPartition) -> str:
    """CSV `node_id,label,community_id`, one row per node."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["node_id", "label", "community_id"])
    for node in n.nodes:
        writer.writerow([node.id, node.label, partition.assignment[node.id]])
    return buffer.getvalue()


def dendrogram_csv(merges: list[MergeStep]) -> str:
    lines = ["step,community_a,community_b,delta_sigma\n"]
    for merge in merges:
        lines.append(f"{merge.step},{merge.community_a},{merge.community_b},{merge.delta_sigma!r}\n")
    return "".join(lines)
