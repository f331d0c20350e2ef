"""Random-walk community detection and Newman modularity.

Direction is discarded: both run on the undirected simple projection.
The agglomeration follows the short-random-walk scheme (Pons & Latapy,
JGAA 10(2), 2006): each node carries its t-step walk probability row, the
distance between communities is the degree-normalized euclidean gap
between their (averaged) rows, and the merge chosen at each step is the
adjacent pair whose fusion least increases the mean squared
node-to-community distance, Delta-sigma. The reported partition is the
dendrogram cut with maximum modularity.

Walktrap never forms those rows. With P = D^-1 A and W = P^t D^-1/2, the
Gram matrix G = W W^T equals P^2t D^-1 (as D P = P^T D), which 2t - 1
sparse walk steps build in place of one. The rows of P^t tend to the
stationary distribution pi = d / 2m, so the steps start from P - 1 pi^T,
whose powers are P^k - 1 pi^T: that shifts G by the constant 1/2m, which
cancels in

    Delta-sigma(C, X) = s_C s_X / (s_C + s_X) / n * (G_CC + G_XX - 2 G_CX),

and keeps G's entries about as small as the gaps between rows. A
difference below 2^-6 of G_CC + G_XX has lost too many digits (twin
nodes, nodes with the same closed neighbourhood, long walks), so such a
pair is recomputed from t sparse steps of the difference of its two mean
rows, whose rounding is relative to that difference. A merge updates G
by Lance-Williams: G[C] = (s_A G[A] + s_B G[B]) / (s_A + s_B), a row and
a column (Lance & Williams, Comput. J. 9(4), 1967). Every community keeps
its nearest neighbour; a merge is one argmin over communities in id order
and recomputes only the new community and the neighbours whose nearest it
absorbed. Ties go to the smallest (min id, max id). Memory is one n x n
matrix, plus a spare one during the walk steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DegenerateAnalysisError
from .network import DependencyNetwork
from .topology import weak_components_of

# A Gram difference G_CC + G_XX - 2 G_CX below this share of G_CC + G_XX
# is recomputed from the walk of the row difference.
_RECOMPUTE_BELOW = 2.0**-6


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
    degrees = [len(neigh) for neigh in undirected]
    m = sum(degrees) // 2
    if not m:
        raise DegenerateAnalysisError("walktrap", "no links")

    # G = (P^2t - 1 pi^T) D^-1 from 2t - 1 walk steps: row u of the next
    # power is the mean of the rows of the last over u's neighbours.
    pi = np.asarray(degrees) / (2.0 * m)
    gram = np.empty((size, size))
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
    del spare
    # the rows' pi-weighted mean is 0 but for rounding, which would not
    # cancel in Delta-sigma
    gram -= np.einsum("u,uv->v", pi, gram)
    gram /= degrees
    diag = gram.diagonal()

    # Row r of gram belongs to the community ids[r]; a merge keeps one of
    # the two rows. links[r] maps each adjacent row to the number of links
    # between the two communities, and degrees[r] becomes the community's
    # degree sum. For a community of id c, best[c] is its smallest
    # Delta-sigma to a neighbour and partner[c] that neighbour's row, the
    # one of smallest id among exact ties; best is inf for ids not alive.
    sizes = np.ones(size)
    members = [[u] for u in range(size)]
    ids = np.arange(size)
    row_of = np.arange(2 * size - 1)
    links = [dict.fromkeys(neighbors, 1) for neighbors in undirected]
    best = np.full(2 * size - 1, np.inf)
    partner = np.empty(2 * size - 1, dtype=np.intp)

    inverse_degrees = 1.0 / np.array(degrees, dtype=float)
    flat_neighbors = np.fromiter(chain.from_iterable(undirected), dtype=np.intp, count=2 * m)
    neighbor_starts = np.cumsum(degrees) - degrees

    def delta_sigma(xs, ys: np.ndarray, g_xy: np.ndarray) -> np.ndarray:
        # symmetric in x and y to the last bit, as IEEE + and * commute
        sx, sy = sizes[xs], sizes[ys]
        terms = diag[xs] + diag[ys]
        gap = terms - 2 * g_xy
        d = sx * sy / (sx + sy) / size * gap
        lossy = gap <= _RECOMPUTE_BELOW * terms
        if lossy.any():
            xs = np.broadcast_to(xs, d.shape)
            for i in np.flatnonzero(lossy):
                d[i] = walked_delta_sigma(xs[i], ys[i])
        return d

    def walked_delta_sigma(x: int, y: int) -> float:
        """Delta-sigma of rows x and y from t steps of their mean rows' difference."""
        walk = np.zeros(size)
        walk[members[x]] = 1.0 / sizes[x]
        walk[members[y]] = -1.0 / sizes[y]
        for _ in range(t):
            # (walk P)_v = sum over neighbours u of v of walk_u / d_u
            walk = np.add.reduceat((walk * inverse_degrees)[flat_neighbors], neighbor_starts)
        return sizes[x] * sizes[y] / (sizes[x] + sizes[y]) / size * float((walk * walk * inverse_degrees).sum())

    def nearest(rows: np.ndarray) -> None:
        """Set best and partner of `rows` from all their neighbours."""
        neighbors = [links[r].keys() for r in rows]
        counts = np.fromiter(map(len, neighbors), dtype=np.intp, count=len(rows))
        ys = np.fromiter(chain.from_iterable(neighbors), dtype=np.intp, count=int(counts.sum()))
        xs = np.repeat(rows, counts)
        # G is read as G[min, max]: the walk steps leave it symmetric only
        # up to rounding, and a pair must get one value from either side.
        d = delta_sigma(xs, ys, gram[np.minimum(xs, ys), np.maximum(xs, ys)])
        starts = np.cumsum(counts) - counts
        low = np.minimum.reduceat(d, starts)
        tied_ids = np.where(d == np.repeat(low, counts), ids[ys], 2 * size)
        best[ids[rows]] = low
        partner[ids[rows]] = row_of[np.minimum.reduceat(tied_ids, starts)]

    nearest(np.arange(size))

    # 4m^2 Q = 4m * (intra-community links) - sum of squared community degrees, exactly
    intra = 0
    degree_squares = sum(d * d for d in degrees)
    cut_keys = [-degree_squares]
    merges: list[MergeStep] = []

    for step in range(size - 1):
        # best is indexed by id, so its first minimum a is the smallest id
        # of a pair of least Delta-sigma, and a's partner b the smallest id
        # paired with a at that value: b > a, or b would come first.
        a = int(best.argmin())
        d = float(best[a])
        first, other = int(row_of[a]), int(partner[a])
        b = int(ids[other])
        keep, drop = (first, other) if len(links[first]) >= len(links[other]) else (other, first)
        c = size + step

        # Lance-Williams: G[c] = (s_a G[a] + s_b G[b]) / (s_a + s_b).
        sa, sb = sizes[keep], sizes[drop]
        row = gram[keep]
        row *= sa
        row += sb * gram[drop]
        row /= sa + sb
        gram[:, keep] = row
        gram[keep, keep] = (sa * row[keep] + sb * row[drop]) / (sa + sb)
        sizes[keep] = sa + sb
        if len(members[keep]) < len(members[drop]):
            members[keep], members[drop] = members[drop], members[keep]
        members[keep] += members[drop]
        best[a] = best[b] = np.inf
        ids[keep], row_of[c] = c, keep

        kept, dropped = links[keep], links[drop]
        links[drop] = {}
        intra += kept.pop(drop)
        del dropped[keep]
        for y, count in dropped.items():
            neighbor = links[y]
            del neighbor[drop]
            neighbor[keep] = kept[y] = kept.get(y, 0) + count
        degree_squares += 2 * degrees[keep] * degrees[drop]
        degrees[keep] += degrees[drop]
        cut_keys.append(4 * m * intra - degree_squares)
        merges.append(MergeStep(step=step, community_a=a, community_b=b, delta_sigma=d))
        if not kept:
            break

        # Only pairs with c changed; c's come from one gather out of its
        # row. A neighbour keeps its partner unless c is strictly closer (c
        # has the largest id, so it loses ties), or its partner was a or b:
        # then it is recomputed over all its neighbours.
        ys = np.fromiter(kept, dtype=np.intp, count=len(kept))
        y_ids = ids[ys]
        previous = partner[y_ids]
        d_c = delta_sigma(keep, ys, row[ys])  # row and column c of G agree
        low = d_c.min()
        best[c] = low
        partner[c] = row_of[y_ids[d_c == low].min()]
        closer = d_c < best[y_ids]
        best[y_ids[closer]] = d_c[closer]
        partner[y_ids[closer]] = keep
        stale = ys[~closer & ((previous == keep) | (previous == drop))]
        if len(stale):
            nearest(stale)

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
