"""One benchmark run: inputs, set-up timing, timed CLI passes, checks, traced pass.

Timed passes call `wsdepnet.cli.main` in process with the argv a user
would type, with tracing off. Each CLI command is one operation; it fails
on a non-zero exit or a failed output check. With trace on, one more pass
makes the same calls directly into each module under spans, then the
replay splits each `analyze` into its stages; a few rounds of each call
and its replay give the share of `analyze` the stages account for.
Untraced runs also time fresh interpreter starts between operations.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS, Op, replay_analyze
from wsdepnet import cli
from wsdepnet.report import analyze

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected"

# The seed picks one of VARIANTS input sets, each with recorded expected outputs.
VARIANTS = 16
SETUP_SAMPLES = 30

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Seconds are summed span durations; counts are summed span counts.
PER_LAYER_SECONDS = (
    "model.load_canonical_s",
    "sawsdl.load_s",
    "matching.build_archetypes_s",
    "network.build_s",
    "network.save_s",
    "network.load_s",
    "topology.giant_s",
    "topology.distances_directed_s",
    "topology.distances_undirected_s",
    "topology.transitivity_s",
    "topology.degree_correlation_s",
    "topology.er_baseline_s",
    "topology.er_baseline_ref_s",
    "powerlaw.select_s",
    "powerlaw.bootstrap_s",
    "community.walktrap_s",
    "report.analyze_s",
    "report.to_json_s",
    "report.render_text_s",
    "report.compare_s",
)
PER_LAYER_COUNTS = {
    "model.instances": "count",
    "sawsdl.files": "count",
    "sawsdl.bytes_in": "bytes",
    "matching.archetypes": "count",
    "network.links": "count",
    "network.graphml_bytes": "bytes",
    "network.sidecar_bytes": "bytes",
    "topology.giant_nodes": "count",
    "topology.giant_links": "count",
    "topology.bfs_sources": "count",
    "topology.er_samples": "count",
    "topology.er_bfs_sources": "count",
    "powerlaw.replicates": "count",
    "powerlaw.distinct_values": "count",
    "community.merges": "count",
    "community.walk_matrix_bytes": "bytes",
    "report.report_bytes": "bytes",
}
PER_LAYER_RUN = {
    "report.unaccounted_s": "s",
    "run.cpu_s": "s",
    "run.untraced_s": "s",
    "run.traced_s": "s",
    "run.trace_overhead_s": "s",
    "run.passes": "count",
    "run.threads": "count",
    "error_rate": "fraction",
}
PER_LAYER = {**{name: "s" for name in PER_LAYER_SECONDS}, **PER_LAYER_COUNTS, **PER_LAYER_RUN}
# counts derived from input sizes rather than counted in the program
COMPUTED = {"topology.bfs_sources", "topology.er_bfs_sources", "powerlaw.distinct_values", "community.walk_matrix_bytes"}


def expected_outputs(workload: str, profile: str, variant: int) -> dict:
    data = json.loads((EXPECTED / f"{workload}.json").read_text(encoding="utf-8"))
    return data[profile][str(variant)]


class SetupClock:
    """Start-up samples: a fresh interpreter reaching a usable `wsdepnet.cli`.

    Samples are taken between the operations of the timed passes, in step
    with the pass time measured so far, so they spread over the whole run.
    The machine's slow spells only ever add time, so the run reports the
    fastest sample.

    The child confines itself to one CPU before the import. Unconfined,
    the hand-over to OpenBLAS's second thread as numpy loads cost 0 to
    65 ms on a 2-vCPU VM, depending on how busy the host was; that term
    belongs to the host, not to the program's set-up.
    """

    def __init__(self, samples: int):
        self.wanted = samples
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cpu = min(os.sched_getaffinity(0))
        self.argv = [sys.executable, "-c", f"import os; os.sched_setaffinity(0, {{{cpu}}}); import wsdepnet.cli"]
        self.times: list[float] = []
        self._start()  # untimed, so no sample pays for a cold file cache

    def _start(self) -> None:
        subprocess.run(self.argv, env=self.env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)

    def keep_pace(self, share: float) -> None:
        """Take samples until they are `share` of the total, plus one."""
        while len(self.times) < min(self.wanted, 1 + int(share * self.wanted)):
            start = perf_counter()
            self._start()
            self.times.append(perf_counter() - start)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_cli(argv: list[str]) -> int:
    """`wsdepnet <argv>` in process; its stdout is discarded, its stderr kept."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: " + "; ".join(problems[:3]))


def same_bytes(op: Op, reference: dict[str, bytes]) -> list[str]:
    return [f"{p.name} differs from the first pass" for p in op.outputs if p.read_bytes() != reference.get(p.name)]


def check_op(workload, op: Op, code: int, expected: dict, reference: dict[str, bytes]) -> list[str]:
    """Why the operation failed: its exit code, its output check, or bytes unlike the first pass."""
    if code:
        return [f"exit {code}"]
    try:
        return workload.check(op, expected) + (same_bytes(op, reference) if reference else [])
    except Exception as err:  # an unreadable output fails this operation, not the run
        return [f"output check raised {err!r}"]


def execute(name: str, seed: int, seconds: float, trace: bool, profile: str = "full", corrupt: bool = False) -> dict:
    """One run; returns the result object and the lines of a readable summary."""
    workload = WORKLOADS[name]
    sizes = workload.profiles[profile]
    variant = seed % VARIANTS
    expected = expected_outputs(name, profile, variant)
    workdir = BENCH / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        (workdir / "input").mkdir(parents=True)
        inputs = workload.generate(workdir / "input", variant, sizes)
        # set-up time is an end-to-end metric, so only an untraced run samples it
        setup = None if trace else SetupClock(SETUP_SAMPLES)
        out = workdir / "out"
        out.mkdir(parents=True)
        ops = workload.operations(inputs, out, sizes)
        tally = Tally()
        pass_s: list[float] = []
        pass_cpu: list[float] = []
        reference: dict[str, bytes] = {}
        # `seconds` of pass time; set-up samples in the gaps between operations are not counted
        while not pass_s or sum(pass_s) < seconds:
            gc.collect()
            cpu, took, codes = cpu_seconds(), 0.0, []
            for op in ops:
                start = perf_counter()
                codes.append(run_cli(op.argv))
                took += perf_counter() - start
                if setup:
                    setup.keep_pace((sum(pass_s) + took) / seconds)
            pass_s.append(took)
            pass_cpu.append(cpu_seconds() - cpu)
            if corrupt and len(pass_s) == 1:
                workload.corrupt(out)
            for op, code in zip(ops, codes):
                tally.record(op.name, check_op(workload, op, code, expected, reference))
            if not reference:
                reference = {p.name: p.read_bytes() for op in ops for p in op.outputs if p.exists()}
        if setup:
            setup.keep_pace(1.0)
        metrics: dict[str, float] = {}
        summary = [
            f"workload {name} seed {seed} (input variant {variant}, {profile} sizes), "
            f"threads {os.environ.get('OPENBLAS_NUM_THREADS')}",
            f"inputs: {', '.join(f'{k}={v}' for k, v in inputs.items() if not isinstance(v, Path))}",
            "passes (s): " + " ".join(f"{t:.3f}" for t in pass_s),
        ]
        if setup:
            summary.append("setup (s): " + " ".join(f"{t:.3f}" for t in setup.times))
        if trace:
            metrics.update(traced_metrics(workload, inputs, workdir, profile, tally, ops, expected, reference, summary))
            metrics["run.cpu_s"] = statistics.median(pass_cpu)
            metrics["run.untraced_s"] = statistics.median(pass_s)
            metrics["run.trace_overhead_s"] = metrics["run.traced_s"] - metrics["run.untraced_s"]
            metrics["run.passes"] = len(pass_s)
            metrics["run.threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
            metrics["error_rate"] = len(tally.failures) / tally.attempted
            units = PER_LAYER
        else:
            metrics["run_s"] = statistics.median(pass_s)
            metrics["setup_s"] = min(setup.times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary.append(
        f"operations: {tally.attempted} attempted, {len(tally.failures)} failed "
        f"(error_rate {len(tally.failures) / tally.attempted:.4f})"
    )
    summary += [f"FAILED {f}" for f in tally.failures]
    summary += [f"{k:<34}{metrics[k]:>16.6g} {units[k]}{' (computed)' if k in COMPUTED else ''}" for k in units]
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return {"result": result, "summary": summary}


def traced_metrics(workload, inputs, workdir: Path, profile, tally: Tally, ops, expected, reference, summary) -> dict:
    """The traced pass and the replay; per-layer metrics, trace files written at the end."""
    tr = Tracer(trace_id=workdir.name)
    traced_out = workdir / "traced"
    traced_out.mkdir()
    gc.collect()
    analyses = workload.traced_pass(tr, inputs, traced_out, workload.profiles[profile])
    # the traced pass writes the same files as a timed pass: they must match byte for byte
    for op in ops:
        moved = Op(op.name, op.argv, [traced_out / p.name for p in op.outputs])
        tally.record(f"traced {op.name}", check_op(workload, moved, 0, expected, reference))

    metrics: dict[str, float] = {name: tr.seconds(name[:-2]) for name in PER_LAYER_SECONDS}
    metrics.update({name: tr.count(name) for name in PER_LAYER_COUNTS})
    metrics["run.traced_s"] = sum(tr.duration(s) for s in tr.spans if s["name"].startswith("op."))

    rounds = coverage_rounds(workload.coverage_rounds, analyses, workdir.name)
    metrics["report.unaccounted_s"] = coverage(tr, rounds, summary)
    stem = f"{workdir.name.rsplit('-', 1)[0]}-{profile}.json"
    tr.write(BENCH / "out" / f"trace-{stem}")
    rounds.write(BENCH / "out" / f"coverage-{stem}")
    return metrics


def coverage_rounds(count: int, analyses, trace_id: str) -> Tracer:
    """Repeat each traced `analyze` call and its replay, to `count` rounds in all.

    The traced pass is round 0, whole call first; later rounds alternate
    which of the two runs first, so a drift in the machine's speed favours
    neither. Their spans go to a tracer of their own, so the per-layer
    metrics still time a single pass.
    """
    tr = Tracer(trace_id=f"{trace_id}-coverage")

    def whole(a, k):
        with tr.span("report.analyze", network=a.label, round=k):
            analyze(a.net, a.config)

    def replay(a, k):
        replay_analyze(tr, a.net, a.config, a.label, round=k)

    for k in range(1, count):
        for a in analyses:
            for call in (replay, whole) if k % 2 else (whole, replay):
                gc.collect()
                call(a, k)
    return tr


def coverage(tr: Tracer, rounds: Tracer, summary) -> float:
    """Seconds of `analyze` its replayed stages leave out, from medians over the rounds."""
    unaccounted = 0.0
    for first in tr.named("report.analyze"):
        label = first["labels"]["network"]
        wholes = [
            Tracer.duration(s) for t in (tr, rounds) for s in t.named("report.analyze")
            if s["labels"]["network"] == label
        ]
        replays = [
            t.children(r) for t in (tr, rounds) for r in t.named("replay.analyze")
            if r["labels"]["network"] == label
        ]
        stage_s = [sum(Tracer.duration(s) for s in stages) for stages in replays]
        whole, staged = statistics.median(wholes), statistics.median(stage_s)
        unaccounted += whole - staged
        summary.append(
            f"analyze {label}: median {whole:.3f} s whole, {staged:.3f} s in replayed stages "
            f"({100 * staged / whole:.1f}%) over {len(wholes)} rounds; "
            f"whole {' '.join(f'{x:.3f}' for x in wholes)}, stages {' '.join(f'{x:.3f}' for x in stage_s)}"
        )
        for s in replays[0]:
            share = 100 * Tracer.duration(s) / stage_s[0]
            summary.append(f"    {s['name']:<32}{Tracer.duration(s):9.3f} s {share:5.1f}%")
    return unaccounted


def record(name: str, profile: str, variants: range) -> None:
    """Write expected outputs for each input variant from one pass on this code."""
    workload = WORKLOADS[name]
    sizes = workload.profiles[profile]
    path = EXPECTED / f"{name}.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for variant in variants:
        workdir = BENCH / "work" / f"record-{name}-{variant}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (workdir / "input").mkdir(parents=True)
            inputs = workload.generate(workdir / "input", variant, sizes)
            out = workdir / "out"
            out.mkdir(parents=True)
            for op in workload.operations(inputs, out, sizes):
                code = run_cli(op.argv)
                if code:
                    raise RuntimeError(f"{name} variant {variant}: {op.name} exited {code}")
            data.setdefault(profile, {})[str(variant)] = workload.record(out)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"recorded {name} {profile} variant {variant}", file=sys.stderr, flush=True)
    EXPECTED.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
