"""The benchmark's own tests: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from workloads import diff_fields  # noqa: E402


def test_diff_fields_rules():
    expected = {"nodes": 10, "avg": 2.5, "config": {"seed": 0}, "label": "N^Eq"}
    assert diff_fields(expected, {**expected, "new_field": 1}) == []
    assert diff_fields(expected, {**expected, "avg": 2.5 * (1 + 1e-12)}) == []
    assert diff_fields(expected, {**expected, "avg": 2.5 * (1 + 1e-8)})
    assert diff_fields(expected, {**expected, "nodes": 11})
    assert diff_fields(expected, {**expected, "nodes": 10.0})
    assert diff_fields(expected, {**expected, "config": {"seed": 1}})
    assert diff_fields(expected, {k: v for k, v in expected.items() if k != "label"})


def test_smoke_emits_every_metric_and_catches_corruption():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok", "problems": 0}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "paper-pair", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
