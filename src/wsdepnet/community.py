"""Random-walk community detection scored by Newman modularity.

Direction is discarded: Walktrap runs on the undirected simple projection.
The agglomeration follows the short-random-walk scheme (Pons & Latapy,
JGAA 10(2), 2006): each node carries its t-step walk probability row, the
distance between communities is the degree-normalized euclidean gap
between their (averaged) rows, and the merge chosen at each step is the
adjacent pair whose fusion least increases the mean squared
node-to-community distance, Delta-sigma. The reported partition is the
dendrogram cut with maximum modularity, whose Q is the cut's exact key
4m^2 Q = 4m (intra-community links) - sum_c d_c^2 divided by 4m^2.
A result holds the merges, in order (the merge at index k forms
community n + k), and the modularity of every cut; its partition is
derived from them on first read.

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
by Lance-Williams: G[C] = (s_A G[A] + s_B G[B]) / (s_A + s_B) (Lance &
Williams, Comput. J. 9(4), 1967), written to C's row alone. Of two
communities, the one formed later holds their G in its row, so before a
merge the rows of A and B each take their G with the communities formed
since, out of those rows; that moves a few percent of what a column write
to every row would. Every community keeps its nearest neighbour; a merge
is one argmin over communities in id order, then one batch that
evaluates the new community and the neighbours whose nearest it absorbed,
each over all its neighbours. Ties go to the smallest (min id, max id).
The floating-point operations and their operands are those of a row and
column update, so merges and Delta-sigma do not depend on this
bookkeeping. Memory is one n x n matrix, plus fewer than n side rows
during the walk steps (walk_gram).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .errors import DegenerateAnalysisError
from .network import DependencyNetwork
from .topology import weak_components_of

# A Gram difference G_CC + G_XX - 2 G_CX below this share of G_CC + G_XX
# is recomputed from the walk of the row difference.
_RECOMPUTE_BELOW = 2.0**-6


@dataclass
class CommunityPartition:
    assignment: dict[int, int]
    community_count: int
    modularity: float


@dataclass
class MergeStep:
    community_a: int
    community_b: int
    delta_sigma: float


@dataclass
class WalktrapResult:
    merges: list[MergeStep]
    cut_modularities: list[float]  # modularity after 0..n-1 merges
    best_cut: int

    @functools.cached_property
    def partition(self) -> CommunityPartition:
        """The cut after `best_cut` merges."""
        assignment = self.assignment_at_cut(self.best_cut)
        return CommunityPartition(assignment, len(set(assignment.values())), self.cut_modularities[self.best_cut])

    def assignment_at_cut(self, cut: int) -> dict[int, int]:
        """Node -> community ids (dense, by smallest member) after `cut` merges."""
        n = len(self.cut_modularities)
        parent = list(range(n + len(self.merges)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for new_id, merge in enumerate(self.merges[:cut], n):
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


def _visit_order(undirected: list[list[int]]) -> tuple[int, list[int], list[list[int]]]:
    """(k, order, dies): the nodes by descending degree; k < n, the most rows
    alive beyond n during a walk step that visits them in that order; dies[i],
    the nodes whose last neighbour is visit i."""
    order = sorted(range(len(undirected)), key=lambda u: -len(undirected[u]))
    position = np.argsort(order).tolist()
    dies: list[list[int]] = [[] for _ in order]
    for v, neighbors in enumerate(undirected):
        dies[max(map(position.__getitem__, neighbors))].append(v)
    # visit i writes new row i + 1 while the old rows not freed before it live
    k = max(i + 1 - freed for i, freed in enumerate(accumulate(map(len, dies), initial=0)))
    return k, order, dies


def walk_gram(undirected: list[list[int]], t: int) -> np.ndarray:
    """G = (P^2t - 1 pi^T) D^-1 from 2t - 1 walk steps: row u of a power is
    the sum of the last power's rows over u's neighbours, ascending, over d_u.
    All rows share one pool, G and the k side rows of _visit_order: a new row
    takes a free slot, and a row of the last power frees its slot after its
    last neighbour's visit. Then the rows move into node order in place: each
    chain that ends in a free row of G, then each cycle, through a side row."""
    size = len(undirected)
    degrees = [len(neighbors) for neighbors in undirected]
    pi = np.asarray(degrees) / float(sum(degrees))
    k, order, dies = _visit_order(undirected)
    gram = np.full((size, size), -pi)
    for u, neighbors in enumerate(undirected):
        gram[u, neighbors] += 1.0 / degrees[u]
    pool = [*gram, *np.empty((k, size))]  # a view per row
    slot, free = list(range(size)), list(range(size, size + k))
    for _ in range(2 * t - 1):
        was, slot = slot, [0] * size
        rows = [pool[s] for s in was]  # the last power, by node
        for u, neighbors, dead in zip(order, map(undirected.__getitem__, order), dies):
            slot[u] = s = free.pop()
            row = pool[s]
            np.copyto(row, rows[neighbors[0]])
            for v in neighbors[1:]:
                row += rows[v]
            row /= degrees[u]
            free += map(was.__getitem__, dead)
    held = dict(zip(slot, range(size)))  # slot -> node
    for u in [u for u in range(size) if u not in held] + list(range(size)):  # chains from free rows of G first
        if held.get(u, u) != u:  # another node's row: a cycle, and the chains have freed every side row
            np.copyto(pool[size], pool[u])
            slot[held[u]] = size
        while u < size and held.get(u) != u:
            np.copyto(pool[u], pool[slot[u]])
            held[u], u = u, slot[u]
    # the rows' pi-weighted mean is 0 but for rounding, which would not
    # cancel in Delta-sigma
    gram -= np.einsum("u,uv->v", pi, gram)
    gram /= degrees
    return gram


def walktrap(n: DependencyNetwork, t: int = 4) -> WalktrapResult:
    """Agglomerate the network and return the maximum-modularity cut.

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
    degrees = [len(neigh) for neigh in undirected]
    m = sum(degrees) // 2
    if not m:
        raise DegenerateAnalysisError("walktrap", "no links")

    gram = walk_gram(undirected, t)
    diag = gram.diagonal().copy()

    # Row r of gram belongs to the community ids[r]; a merge keeps one of
    # the two rows. links[r] maps each adjacent row to the number of links
    # between the two communities, and degrees[r] becomes the community's
    # degree sum. For a community of id c, best[c] is its smallest
    # Delta-sigma to a neighbour and partner[c] that neighbour's row, the
    # one of smallest id among exact ties; best is inf for ids not alive.
    # diag is G's diagonal, which gram holds too for the merges' reads.
    # G of a pair is read from the row of larger stamp: a merged row's
    # stamp is its id, so the later of two merged rows holds their G; a row
    # never merged has stamp -1 - r, so two of them read G[min, max], as the
    # walk steps leave G symmetric only up to rounding; a dropped row has
    # the stamp -1 - n, below all.
    sizes = np.ones(size)
    members = [[u] for u in range(size)]
    ids = np.arange(size)
    row_of = np.arange(2 * size - 1)
    links = [dict.fromkeys(neighbors, 1) for neighbors in undirected]
    best = np.full(2 * size - 1, np.inf)
    partner = np.empty(2 * size - 1, dtype=np.intp)
    stamp = -1 - np.arange(size)

    inverse_degrees = 1.0 / np.array(degrees, dtype=float)
    flat_neighbors = np.fromiter(chain.from_iterable(undirected), dtype=np.intp, count=2 * m)
    neighbor_starts = np.cumsum(degrees) - degrees

    def walked_delta_sigma(x: int, y: int) -> float:
        """Delta-sigma of rows x and y from t steps of their mean rows' difference."""
        walk = np.zeros(size)
        walk[members[x]] = 1.0 / sizes[x]
        walk[members[y]] = -1.0 / sizes[y]
        for _ in range(t):
            # (walk P)_v = sum over neighbours u of v of walk_u / d_u
            walk = np.add.reduceat((walk * inverse_degrees)[flat_neighbors], neighbor_starts)
        return sizes[x] * sizes[y] / (sizes[x] + sizes[y]) / size * float((walk * walk * inverse_degrees).sum())

    def nearest(rows: np.ndarray, counts: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Set best and partner of `rows` from all their neighbours: the
        first counts[0] of `ys` for rows[0], and so on. Return the
        Delta-sigma of each (row, neighbour) pair."""
        xs = rows.repeat(counts)
        # symmetric in x and y to the last bit, as IEEE + and * commute, so
        # a pair gets the same Delta-sigma from either of its rows
        sx, sy = sizes[xs], sizes[ys]
        terms = diag[xs] + diag[ys]
        later = stamp[xs] > stamp[ys]
        gap = terms - 2 * gram[np.where(later, xs, ys), np.where(later, ys, xs)]
        d = sx * sy / (sx + sy) / size * gap
        walked: dict[tuple[int, int], float] = {}  # a pair may come from both its rows
        for i in (gap <= _RECOMPUTE_BELOW * terms).nonzero()[0]:
            pair = (min(xs[i], ys[i]), max(xs[i], ys[i]))
            if pair not in walked:
                walked[pair] = walked_delta_sigma(*pair)
            d[i] = walked[pair]
        starts = counts.cumsum() - counts
        low = np.minimum.reduceat(d, starts)
        at = ids[rows]
        best[at] = low
        hits = (d == low.repeat(counts)).nonzero()[0]
        if len(hits) == len(rows):  # no exact ties
            partner[at] = ys[hits]
        else:
            tied_ids = np.full(len(ys), 2 * size)
            tied_ids[hits] = ids[ys[hits]]
            partner[at] = row_of[np.minimum.reduceat(tied_ids, starts)]
        return d

    nearest(np.arange(size), np.array(degrees), flat_neighbors)

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

        # Lance-Williams: G[c] = (s_a G[a] + s_b G[b]) / (s_a + s_b), into
        # row keep only. It reads all of rows keep and drop, so first each
        # takes its G with every community formed after it (a stamp above
        # its own and above -1) out of that community's row.
        for r in (keep, drop):
            newer = (stamp > max(stamp[r], -1)).nonzero()[0]
            gram[r][newer] = gram[:, r][newer]
        sa, sb = sizes[keep], sizes[drop]
        row = gram[keep]
        row *= sa
        row += sb * gram[drop]
        row /= sa + sb
        diag[keep] = gram[keep, keep] = (sa * row[keep] + sb * row[drop]) / (sa + sb)
        sizes[keep] = sa + sb
        stamp[keep], stamp[drop] = c, -1 - size
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
        merges.append(MergeStep(community_a=a, community_b=b, delta_sigma=d))
        if not kept:
            break

        # Only pairs with c changed. c and every neighbour whose partner was
        # a or b are evaluated over all their neighbours in one batch. (Where
        # c is strictly closer to such a neighbour than its old partner, it
        # is closer than all its other neighbours too, so this settles on c
        # as a separate test against c would.) Any other neighbour keeps its
        # partner unless c is strictly closer (c has the largest id, so it
        # loses ties).
        ys = np.fromiter(kept, dtype=np.intp, count=len(kept))
        y_ids = ids[ys]
        previous = partner[y_ids]
        stale = ys[(previous == keep) | (previous == drop)]
        neighbors = [links[y].keys() for y in stale.tolist()]
        counts = np.fromiter(chain((len(ys),), map(len, neighbors)), dtype=np.intp, count=len(neighbors) + 1)
        around = np.fromiter(chain.from_iterable(neighbors), dtype=np.intp, count=counts.sum() - len(ys))
        d_c = nearest(np.concatenate(([keep], stale)), counts, np.concatenate((ys, around)))[: len(ys)]
        closer = d_c < best[y_ids]  # false where y was evaluated: its best is at most d_c
        if closer.any():
            best[y_ids[closer]] = d_c[closer]
            partner[y_ids[closer]] = keep

    return WalktrapResult(
        merges=merges,
        cut_modularities=[key / (4 * m * m) for key in cut_keys],
        best_cut=max(range(len(cut_keys)), key=lambda k: (cut_keys[k], -k)),
    )


def partition_csv(n: DependencyNetwork, partition: CommunityPartition) -> str:
    """CSV `node_id,label,community_id`, one row per node."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["node_id", "label", "community_id"])
    for i, node in enumerate(n.nodes):
        writer.writerow([i, node.label, partition.assignment[i]])
    return buffer.getvalue()


def dendrogram_csv(merges: list[MergeStep]) -> str:
    lines = ["step,community_a,community_b,delta_sigma\n"]
    for step, merge in enumerate(merges):
        lines.append(f"{step},{merge.community_a},{merge.community_b},{merge.delta_sigma!r}\n")
    return "".join(lines)
