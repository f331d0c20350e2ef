#!/usr/bin/env python3
"""Byte comparison of the benchmark's outputs between two checkouts.

    python3 scripts/same_outputs.py PARENT CHANGE
    python3 scripts/same_outputs.py PARENT CHANGE --workload corpus-extract --variants 0..3

For each workload and input variant (all three workloads and variants
0..15 by default) it writes the inputs once with PARENT's
`bench/workloads.py` and `bench/generators.py` at the benchmark's full
sizes, then runs the workload's CLI commands, the argv that `bench/run.py`
times, as `python -m wsdepnet` in each tree. After them, for the network of
every `analyze` command (each paper-pair and scale-10x network), it runs
`communities --dendrogram` at the same walk length, so the Walktrap
partition and every merge with its exact Delta-sigma are compared too. It
lists every output file
whose bytes differ between the trees and every command whose exit status
differs, and exits 1 if there is any. Under a `.json` output whose bytes
differ it prints each differing value as a dotted path with both sides,
e.g. `power_law.all.p_value 0.821 -> 0.816`, and after them each
differing p-value's ratio to the bound of a declared change to the
bootstrap's draws (`pvalue_bound_ratios`), e.g. `power_law.all.p_value
|dp|/bound 0.065`. Inputs and outputs go to one temporary directory,
removed at the end; neither tree is written to.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import seed_range

WORKLOADS = ("paper-pair", "scale-10x", "corpus-extract")
_ABSENT = object()  # the side of a key or list item that one document lacks


def json_differences(parent, change, path: str = "") -> list[str]:
    """Each value where two decoded JSON documents differ, as `dotted.path
    parent -> change` in JSON notation (list items by index); a key or item
    that one side lacks reads `<absent>` there. Values of different types
    differ, so 1 and 1.0 do."""
    if isinstance(parent, dict) and isinstance(change, dict):
        keys = [*parent, *(key for key in change if key not in parent)]
        pairs = [(key, parent.get(key, _ABSENT), change.get(key, _ABSENT)) for key in keys]
    elif isinstance(parent, list) and isinstance(change, list):
        pad = [_ABSENT] * abs(len(parent) - len(change))
        pairs = list(zip(range(max(len(parent), len(change))), parent + pad, change + pad))
    else:
        if type(parent) is type(change) and parent == change:
            return []
        return [f"{path or '(document)'} {_shown(parent)} -> {_shown(change)}"]
    return [line for key, p, c in pairs for line in json_differences(p, c, f"{path}.{key}" if path else str(key))]


def pvalue_bound_ratios(parent, change) -> list[str]:
    """For each tail whose `power_law.<tail>.p_value` differs between two
    decoded reports, |dp| / (4 sqrt(2 p (1 - p) / R) + 2 / R), with p the
    mean of both sides and R the change's `bootstrap_n`: the bound of a
    declared change to the bootstrap's draws, so a ratio above 1 breaks it."""
    lines = []
    for tail, fit in (change.get("power_law") or {}).items():
        before = ((parent.get("power_law") or {}).get(tail) or {}).get("p_value")
        after = (fit or {}).get("p_value")
        if isinstance(before, float | int) and isinstance(after, float | int) and before != after:
            p, replicates = (before + after) / 2, fit["bootstrap_n"]
            bound = 4 * math.sqrt(2 * p * (1 - p) / replicates) + 2 / replicates
            lines.append(f"power_law.{tail}.p_value |dp|/bound {abs(after - before) / bound:.3g}")
    return lines


def _shown(value) -> str:
    return "<absent>" if value is _ABSENT else json.dumps(value)


def community_ops(ops, out: Path) -> list:
    """A `communities --dendrogram` command for the network of each `analyze`
    command of `ops`, at its walk length, writing its two CSVs into `out`."""
    from workloads import Op

    extra = []
    for op in ops:
        if op.argv[0] == "analyze":
            net = Path(op.argv[1])
            t = op.argv[op.argv.index("--walktrap-t") + 1]
            partition, dendrogram = out / f"{net.stem}.communities.csv", out / f"{net.stem}.dendrogram.csv"
            argv = ["communities", str(net), "--t", t, "--out", str(partition), "--dendrogram", str(dendrogram)]
            extra.append(Op(f"communities {net.stem}", argv, [partition, dendrogram]))
    return extra


def run_ops(tree: Path, ops, env: dict[str, str]) -> list[int]:
    """Exit status of each CLI command, run in order with `tree`'s package."""
    env = {**env, "PYTHONPATH": str(tree / "src")}
    return [
        subprocess.run([sys.executable, "-m", "wsdepnet", *op.argv], env=env, capture_output=True).returncode
        for op in ops
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default all")
    parser.add_argument("--variants", type=seed_range, default=range(16), help="inclusive range S..T")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "wsdepnet" / "__init__.py").is_file():
            parser.error(f"{tree} has no src/wsdepnet package")
    # the thread limits of bench/run.py, set before numpy loads here or in a command
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = env[var] = threads
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(trees["parent"] / "bench"), str(trees["parent"] / "src")]
    from workloads import WORKLOADS as BENCH_WORKLOADS

    compared = differing = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for name in args.workload or WORKLOADS:
            workload = BENCH_WORKLOADS[name]
            sizes = workload.profiles["full"]
            for variant in args.variants:
                workdir = Path(tmp) / f"{name}-{variant}"
                (workdir / "input").mkdir(parents=True)
                inputs = workload.generate(workdir / "input", variant, sizes)
                ops, codes = {}, {}
                for side, tree in trees.items():
                    (workdir / side).mkdir()
                    ops[side] = workload.operations(inputs, workdir / side, sizes)
                    ops[side] += community_ops(ops[side], workdir / side)
                    codes[side] = run_ops(tree, ops[side], env)
                problems = [
                    f"{op.name}: exit {p} -> {c}"
                    for op, p, c in zip(ops["parent"], codes["parent"], codes["change"]) if p != c
                ]
                files = [path.relative_to(workdir / "parent") for op in ops["parent"] for path in op.outputs]
                details = []
                for rel in files:
                    left, right = workdir / "parent" / rel, workdir / "change" / rel
                    if not (left.is_file() and right.is_file() and left.read_bytes() == right.read_bytes()):
                        problems.append(f"{rel}: bytes differ")
                        if rel.suffix == ".json" and left.is_file() and right.is_file():
                            docs = json.loads(left.read_bytes()), json.loads(right.read_bytes())
                            found = json_differences(*docs)
                            if all(isinstance(doc, dict) for doc in docs):
                                found += pvalue_bound_ratios(*docs)
                            details += [f"  {rel}: {line}" for line in found]
                compared += len(files)
                differing += len(problems)
                print(f"{name} variant {variant}: {len(files)} files, "
                      + ("identical" if not problems else "; ".join(problems)), flush=True)
                for line in details:
                    print(line, flush=True)
                shutil.rmtree(workdir)
    print(f"{compared} output files compared, {differing} differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
