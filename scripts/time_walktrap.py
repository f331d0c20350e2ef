#!/usr/bin/env python3
"""Time Walktrap on a seeded preferential-attachment graph.

Builds one undirected preferential-attachment graph: a triangle, then
each new node links to 3 distinct earlier nodes drawn with probability
proportional to their degree, up to 3,000 nodes and 8,994 links (seed 0).
Prints the wall time of `community.walktrap` at t = 4, a SHA-256 of its
partition (node -> community id, in node order), best cut and merge count,
and a SHA-256 of its dendrogram CSV (`community.dendrogram_csv`), which
also carries the exact Delta-sigma of every merge, then the process's peak
RSS so far (`ru_maxrss`, in MB of 2^20 bytes). With --check it also
runs the heap implementation kept as the test oracle (`tests/helpers.py`;
tens of seconds) and exits 1 if its partition hash differs; the heap
version's Delta-sigma values differ in their last bits, so only the
partitions are compared.

    python3 scripts/time_walktrap.py [--check]
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wsdepnet.community import WalktrapResult, dendrogram_csv, walktrap
from wsdepnet.matching import MatcherKind
from wsdepnet.network import DependencyNetwork, network_from_edges

NODES, LINKS, SEED, T = 3000, 3, 0, 4


def preferential_attachment() -> DependencyNetwork:
    """The seeded preferential-attachment graph, grown from a triangle."""
    rng = np.random.default_rng(SEED)
    edges = [(0, 1), (0, 2), (1, 2)]
    # every link end once: drawing from it is drawing by degree
    ends = [0, 1, 0, 2, 1, 2]
    for new in range(3, NODES):
        targets: set[int] = set()
        while len(targets) < LINKS:
            targets.add(ends[int(rng.integers(len(ends)))])
        for old in sorted(targets):
            edges.append((old, new))
            ends += [old, new]
    return network_from_edges(NODES, edges, MatcherKind.SYNTACTIC_EQUAL)


def partition_hash(result: WalktrapResult) -> str:
    assignment = result.partition.assignment
    text = ",".join(str(assignment[node]) for node in range(len(assignment)))
    text += f";cut={result.best_cut};merges={len(result.merges)}"
    return hashlib.sha256(text.encode()).hexdigest()


def dendrogram_hash(result: WalktrapResult) -> str:
    return hashlib.sha256(dendrogram_csv(result.merges).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true", help="also run the heap reference and compare")
    args = parser.parse_args(argv)

    net = preferential_attachment()
    start = time.perf_counter()
    result = walktrap(net, t=T)
    elapsed = time.perf_counter() - start
    digest = partition_hash(result)
    print(
        f"walktrap: {net.node_count} nodes, {net.link_count} links, t={T}: {elapsed:.2f} s, "
        f"{result.partition.community_count} communities, modularity {result.partition.modularity:.6f}, "
        f"partition sha256 {digest}, dendrogram sha256 {dendrogram_hash(result)}, "
        f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB"
    )
    if not args.check:
        return 0
    sys.path.insert(0, str(ROOT / "tests"))
    from helpers import walktrap_heap_reference

    start = time.perf_counter()
    reference = walktrap_heap_reference(net, t=T)
    elapsed = time.perf_counter() - start
    expected = partition_hash(reference)
    print(f"reference: {elapsed:.2f} s, partition sha256 {expected}")
    if expected != digest:
        print("partitions differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
