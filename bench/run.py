#!/usr/bin/env python3
"""Pipeline benchmark for wsdepnet.

    python3 bench/run.py --workload paper-pair --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --smoke
    python3 bench/run.py --record-expected scale-10x

Run from the root of a checkout; the package is imported from `src/`.
The seed picks one of 16 input variants; `bench/expected/` holds each
variant's expected outputs, which `--record-expected` rewrites from the
current program (only for a change meant to alter the outputs).
A run writes its inputs under `bench/work/` (removed at the end), then
repeats the workload's CLI pass until `--seconds` of pass time have been
measured, checking every output. Between operations it times fresh
interpreter starts (set-up time: the fastest of 30). `--trace 1` adds
one traced pass and writes its spans to `bench/out/`. A readable
summary goes to stderr; the last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under `--trace 0` and the per-layer metrics
under `--trace 1`, each as {"value": ..., "unit": ...}.

The process uses at most two threads: OpenBLAS and OpenMP are limited
before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-pair", "scale-10x", "corpus-extract")


def limit_threads() -> None:
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def smoke(harness) -> list[str]:
    """Tiny runs of every workload; returns the problems found."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in WORKLOAD_NAMES:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = harness.execute(name, 0, 1.0, trace, profile="smoke")["result"]
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} {section}: emitted {got}, BENCHMARK.json lists {want}")
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{name}: non-finite {bad}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} operations failed")
        corrupted = harness.execute(name, 0, 1.0, True, profile="smoke", corrupt=True)["result"]
        if not corrupted["metrics"]["error_rate"]["value"] > 0 or corrupted["correct"]:
            problems.append(f"{name}: a corrupted output did not raise error_rate")
        print(f"smoke {name}: checked", file=sys.stderr, flush=True)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny runs that check the benchmark itself")
    parser.add_argument("--record-expected", choices=WORKLOAD_NAMES, help="rewrite a workload's expected outputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wsdepnet" / "__init__.py").is_file():
        print(f"bench: no wsdepnet package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # numpy loads here, after the thread limits are set

    if args.smoke:
        problems = smoke(harness)
        for p in problems:
            print(f"smoke: {p}", file=sys.stderr)
        print(json.dumps({"smoke": "failed" if problems else "ok", "problems": len(problems)}))
        return 1 if problems else 0
    if args.record_expected:
        harness.record(args.record_expected, "smoke", range(1))
        harness.record(args.record_expected, "full", range(harness.VARIANTS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    run = harness.execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(run["summary"]), file=sys.stderr)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
