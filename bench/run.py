"""mfcat benchmark: three seeded workloads through ``mfcat.cli.main``.

One run::

    python3 bench/run.py --workload suite-epowers --seed 0 --seconds 50 --trace 0

prints a line per metric and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run (see ``bench/layertrace.py``).  Everything at once, each workload in
its own process, with the traced run made twice to check that its counts
repeat::

    python3 bench/run.py --all --seed 0 --seconds 50

Exit codes: 0 every verdict and output correct, 1 something wrong, 2 the
program or an argument is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layertrace import PER_LAYER, Tracer
from speed import Sampler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 15

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "verdicts_per_s": "1/s",
    "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup(workload_cls, seed: int, workdir: Path):
    """Import mfcat and build the inputs ``SETUP_REPEATS`` times; keep the last.

    Returns the workload and the median set-up time at the reference speed.
    """
    times = []
    sampler = Sampler(end_probes=5)
    for _ in range(SETUP_REPEATS):
        sampler.start()
        watch = workloads.Stopwatch()
        program = workloads.load_program()
        workload = workload_cls(program, seed, workdir)
        seconds, _ = watch.read()
        times.append(seconds * sampler.stop())
    return workload, statistics.median(times)


def measure(workload, seconds: float, tracer=None) -> list:
    """Make one pass, then more while the next is expected to end within ``seconds``.

    Each pass carries its ``scale`` to the reference speed (see ``speed.py``).
    """
    passes = []
    start = time.perf_counter()
    sampler = Sampler()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.begin_pass()
        sampler.start()
        result = workload.run_pass()
        result.scale = sampler.stop()
        if tracer is not None:
            result.summary = tracer.summary()
        passes.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + result.seconds > seconds:
            return passes


class Tally:
    """Attempted and failed ops over every pass of a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.verdict_rates: list[float] = []

    def add(self, workload, passes, reference=None):
        for result in passes:
            attempted, failed, verdicts, problems = workload.check(result, reference)
            reference = reference or result
            self.attempted += attempted
            self.failed += failed
            self.problems += problems
            if workload.unit == "pass":
                self.verdict_rates.append(verdicts[0] / (result.seconds * result.scale))
            else:
                self.verdict_rates += [v / (r.seconds * result.scale)
                                       for v, r in zip(verdicts, result.records)]
        return reference


def end_to_end(workload, setup_s: float, passes, tally: Tally) -> dict:
    """Medians over verdict units: whole passes, or single ``suite all`` runs.

    Every time is scaled to the reference speed by its pass's ``scale``.  Op
    latency percentiles are taken within each pass and their median over
    passes is reported, so a burst of load on the machine that slows one pass
    does not move them.  A suite workload has too few commands per pass for
    that, so its percentiles are taken over every command of the run.
    """
    def ops(p):
        return [r.seconds * p.scale for r in p.records]

    if workload.unit == "pass":
        units = [(p.seconds * p.scale, p.cpu * p.scale) for p in passes]
        op_p50 = statistics.median(percentile(ops(p), 50) for p in passes)
        op_p90 = statistics.median(percentile(ops(p), 90) for p in passes)
    else:
        units = [(r.seconds * p.scale, r.cpu * p.scale) for p in passes for r in p.records]
        every_op = [t for p in passes for t in ops(p)]
        op_p50 = percentile(every_op, 50)
        op_p90 = percentile(every_op, 90)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall for wall, _ in units),
        "cpu_s": statistics.median(cpu for _, cpu in units),
        "verdicts_per_s": statistics.median(tally.verdict_rates),
        "op_p50_ms": 1000 * op_p50,
        "op_p90_ms": 1000 * op_p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced, untraced) -> tuple[dict, list[str]]:
    """Per-layer metrics: counts of the first traced pass, medians of times."""
    metrics, problems = {}, []
    for name, (unit, _, extract) in PER_LAYER.items():
        values = [extract(p.summary) for p in traced]
        if unit != "s":
            if any(v != values[0] for v in values[1:]):
                problems.append(f"{name} differs between traced passes: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    ratio = (statistics.median(p.seconds * p.scale for p in traced)
             / statistics.median(p.seconds * p.scale for p in untraced))
    metrics["trace_overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics, problems


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        workload, setup_s = setup(workload_cls, args.seed, workdir)
        tally = Tally()
        if not args.trace:
            passes = measure(workload, args.seconds)
            tally.add(workload, passes)
            metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in end_to_end(workload, setup_s, passes, tally).items()}
            summary = (f"passes={len(passes)} raw_wall_s={statistics.median(p.seconds for p in passes)}"
                       f" median_scale={statistics.median(p.scale for p in passes)}")
        else:
            # A quarter of the time untraced, as the base of trace_overhead_ratio.
            untraced = measure(workload, args.seconds / 4)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds - sum(p.seconds for p in untraced), tracer)
            finally:
                tracer.uninstall()
            tally.problems += [f"wrapper left installed: {n}" for n in Tracer.leftover_wrappers()]
            reference = tally.add(workload, untraced)
            tally.add(workload, traced, reference)
            metrics, problems = per_layer(traced, untraced)
            tally.problems += problems
            trace_dir = WORK_ROOT / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_tree(trace_dir / f"{args.workload}-seed{args.seed}.json")
            summary = f"untraced_passes={len(untraced)} traced_passes={len(traced)}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally.failed == 0 and not tally.problems
    for problem in tally.problems[:50]:
        print(f"PROBLEM {problem}")
    print(f"{args.workload} seed={args.seed} {summary} attempted={tally.attempted} "
          f"failed={tally.failed} op_fail_ratio={tally.failed / max(tally.attempted, 1)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("".join(f"    {line}\n" for line in lines if line.startswith("PROBLEM")))
    if proc.returncode not in (0, 1) or not lines:
        print(f"    {workload} trace={trace} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    return json.loads(lines[-1])


def run_all(args) -> int:
    ok = True
    for name in workloads.WORKLOADS:
        print(f"== {name} (seed {args.seed}, {args.seconds} s per run)")
        plain = run_child(name, args.seed, args.seconds, 0)
        traced = [run_child(name, args.seed, args.seconds, 1) for _ in range(2)]
        if plain is None or None in traced:
            ok = False
            continue
        ok &= plain["correct"] and all(t["correct"] for t in traced)
        ratio = plain["failed"] / plain["attempted"]
        print(f"  op_fail_ratio = {ratio} (failed {plain['failed']} of {plain['attempted']} ops)")
        for metric, value in plain["metrics"].items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}")
        first, second = (t["metrics"] for t in traced)
        for metric, (unit, _, _) in PER_LAYER.items():
            print(f"  [trace] {metric} = {first[metric]['value']:.6g} {unit}")
            if unit != "s" and first[metric]["value"] != second[metric]["value"]:
                print(f"  COUNT MISMATCH {metric}: {first[metric]['value']} vs {second[metric]['value']}")
                ok = False
        print(f"  [trace] trace_overhead_ratio = {first['trace_overhead_ratio']['value']:.3f}")
    print("ALL CORRECT" if ok else "SOMETHING WRONG")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and not")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mfcat" / "cli.py").is_file():
        print(f"error: mfcat sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
