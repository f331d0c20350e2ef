#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload scale-10x --seeds 301..310

Runs `bench/run.py --workload W --seed S --trace 0` once in each checkout
for every seed S of the inclusive range, alternating which side runs first
(the parent on the first seed). It prints each pair's `run_s`, `setup_s`
and `peak_rss_mb`, then per metric each side's median and quartiles, the
change in the medians and the pairs the change won (lower is better; ties
count for neither side). A gain stands when the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range.

Each metric also gets a no-regression verdict against its `bound` in
PARENT's `BENCHMARK.json`, a fraction of the parent's median: `unresolved`
where the parent's interquartile range exceeds that fraction of its median,
else `worse` where the change's median is worse than the parent's by more
than the bound, else `within`.

The same figures go to `BENCH_<workload>.json` at the root of CHANGE: the
seeds, which side ran first in each pair, per side and metric the per-seed
values, their median and quartiles, for the change the pairs it won and
lost, and per metric the bound and the verdict.

Both trees are byte-compiled first (`python -m compileall -q src`): with
PYTHONDONTWRITEBYTECODE set, a fresh copy has no bytecode cache, and each
start-up then compiles the package again, which reads as 20-40 ms more
`setup_s`. Nothing under `bench/` is written but what `bench/run.py`
itself writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("run_s", "setup_s", "peak_rss_mb")


def seed_range(text: str) -> range:
    first, sep, last = text.partition("..")
    if not sep or not first.isdigit() or not last.isdigit() or int(last) < int(first):
        raise argparse.ArgumentTypeError(f"expected S..T with S <= T, got {text!r}")
    return range(int(first), int(last) + 1)


def bench_once(tree: Path, workload: str, seed: int) -> dict[str, float]:
    """One `bench/run.py` run in `tree`; its end-to-end metrics."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: seed {seed}: bench/run.py exited {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: result["metrics"][name]["value"] for name in METRICS}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], bound: float, better: str = "lower") -> str:
    """`unresolved`, `worse` or `within`: the change's median against the
    parent's, with `bound` a fraction of the parent's median."""
    p1, pm, p3 = quartiles(parent)
    if pm <= 0 or (p3 - p1) / pm > bound:
        return "unresolved"
    worse_by = (quartiles(change)[1] - pm) / pm * (1 if better == "lower" else -1)
    return "worse" if worse_by > bound else "within"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=("paper-pair", "scale-10x", "corpus-extract"))
    parser.add_argument("--seeds", required=True, type=seed_range, help="inclusive range S..T")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{tree} has no bench/run.py")
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
    declared = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    bounds = {metric["name"]: metric for metric in declared}

    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    first: list[str] = []
    print(f"{args.workload}: " + "  ".join(f"{m} parent -> change" for m in METRICS))
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            runs[side].append(bench_once(trees[side], args.workload, seed))
        cells = [f"{runs['parent'][-1][m]:.3f} -> {runs['change'][-1][m]:.3f}" for m in METRICS]
        print(f"seed {seed} ({order[0]} first): " + "  ".join(cells), flush=True)

    pairs = len(runs["parent"])
    trend = {
        "workload": args.workload, "seeds": list(args.seeds), "first": first, "parent": {}, "change": {}, "verdict": {}
    }
    for m in METRICS:
        parent = [run[m] for run in runs["parent"]]
        change = [run[m] for run in runs["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum(c < p for p, c in zip(parent, change))
        losses = sum(c > p for p, c in zip(parent, change))
        trend["parent"][m] = {"runs": parent, "median": pm, "q1": p1, "q3": p3}
        trend["change"][m] = {"runs": change, "median": cm, "q1": c1, "q3": c3, "lower_in": wins, "higher_in": losses}
        bound = bounds[m]["bound"]
        judged = verdict(parent, change, bound, bounds[m]["better"])
        trend["verdict"][m] = {"bound": bound, "verdict": judged}
        print(
            f"{m}: parent {pm:.3f} [{p1:.3f}, {p3:.3f}], change {cm:.3f} [{c1:.3f}, {c3:.3f}], "
            f"{(cm - pm) / pm:+.1%}; change lower in {wins}/{pairs}, higher in {losses}/{pairs}; "
            f"|median gap| {abs(cm - pm):.3f} vs parent IQR {p3 - p1:.3f}; "
            f"{judged} (bound {bound:.0%})"
        )
    out = trees["change"] / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(trend, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
