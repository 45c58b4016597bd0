"""Self-tests of the benchmark itself: inputs, gate, oracle and tracer.

Run from the repository root with ``python3 -m unittest discover -s bench``
(or ``python3 -m pytest bench``).  Faults are injected into the benchmark's
copies of outputs, never into ``src/``.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from layertrace import PER_LAYER, TRACE_MARK, Tracer  # noqa: E402

WORK = ROOT / ".bench_work" / f"selftest-{os.getpid()}"


class SmallSuite(workloads._Suite):
    """``suite all`` at a size that runs in a fraction of a second."""

    name = "small-suite"
    maxpow = 2
    samples = 2

    def __init__(self, program, seed, workdir):
        super().__init__(program, seed, workdir)
        self.commands = [self.suite_argv(seed)]


def verdicts(stdout: str) -> list[tuple[str, str]]:
    return [tuple(line.split(" ", 2)[:2]) for line in stdout.splitlines()]


class BenchTest(unittest.TestCase):
    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def program(self):
        return workloads.load_program()

    # -- inputs ---------------------------------------------------------------

    def test_same_seed_gives_identical_inputs(self):
        program = self.program()
        a = workloads.CliFiles(program, 7, WORK / "a")
        b = workloads.CliFiles(program, 7, WORK / "b")
        texts_a = [p.read_text() for p in sorted((WORK / "a" / "inputs").iterdir())]
        texts_b = [p.read_text() for p in sorted((WORK / "b" / "inputs").iterdir())]
        self.assertEqual(texts_a, texts_b)
        self.assertEqual(len(a.commands), len(b.commands))
        self.assertGreaterEqual(len(a.commands), 100)
        self.assertEqual(workloads.SuiteMf1Pool.sub_seeds(7), workloads.SuiteMf1Pool.sub_seeds(7))

    def test_different_seed_gives_different_inputs(self):
        program = self.program()
        workloads.CliFiles(program, 7, WORK / "c")
        workloads.CliFiles(program, 8, WORK / "d")
        texts_c = [p.read_text() for p in sorted((WORK / "c" / "inputs").iterdir())]
        texts_d = [p.read_text() for p in sorted((WORK / "d" / "inputs").iterdir())]
        self.assertNotEqual(texts_c, texts_d)
        pool_7 = set(workloads.SuiteMf1Pool.sub_seeds(7))
        pool_8 = set(workloads.SuiteMf1Pool.sub_seeds(8))
        self.assertFalse(pool_7 & pool_8)

    def test_same_seed_gives_identical_verdicts(self):
        first = SmallSuite(self.program(), 5, WORK).run_pass().records[0]
        second = SmallSuite(self.program(), 5, WORK).run_pass().records[0]
        self.assertEqual(verdicts(first.stdout), verdicts(second.stdout))
        _, problems = gate.gate_suite(first.stdout, first.rc, 2, 2)
        self.assertEqual(problems, [])

    # -- gate -----------------------------------------------------------------

    def suite_output(self):
        record = SmallSuite(self.program(), 0, WORK).run_pass().records[0]
        return record.stdout, record.rc

    def test_gate_rejects_flipped_verdict(self):
        stdout, rc = self.suite_output()
        for old, new in (("PASS rm-ax5[e]", "FAIL rm-ax5[e]"),
                         ("XFAIL-OK rm-ax3[e^1,e^1]", "PASS rm-ax3[e^1,e^1]"),
                         ("FAIL counterexample-mf1", "XFAIL-OK counterexample-mf1")):
            self.assertIn(old, stdout)
            _, problems = gate.gate_suite(stdout.replace(old, new), rc, 2, 2)
            self.assertTrue(problems, old)

    def test_gate_rejects_missing_verdict(self):
        stdout, rc = self.suite_output()
        lines = stdout.splitlines()
        dropped = "\n".join(lines[:3] + lines[4:]) + "\n"
        _, problems = gate.gate_suite(dropped, rc, 2, 2)
        self.assertTrue(any(p.startswith("missing ") for p in problems), problems)

    def test_gate_rejects_wrong_exit_code(self):
        stdout, _ = self.suite_output()
        _, problems = gate.gate_suite(stdout, 0, 2, 2)
        self.assertIn("exit code 0", problems)

    # -- oracle ---------------------------------------------------------------

    def test_oracle_accepts_real_outputs_and_rejects_corrupted_ones(self):
        workload = workloads.CliFiles(self.program(), 1, WORK / "oracle")
        result = workload.run_pass()
        attempted, failed, _, problems = workload.check(result, None)
        self.assertEqual((failed, problems), (0, []))
        self.assertEqual(attempted, len(workload.commands))

        path = next(p for p in result.outputs if "yoshino" in p)
        text = result.outputs[path].decode()
        start = text.index("phi = [[") + len("phi = [[")
        corrupted = text[:start] + "x + " + text[start:]
        potential_changed = text.replace("potential = ", "potential = 3 + ", 1)
        for bad in (corrupted, potential_changed):
            result.outputs[path] = bad.encode()
            _, failed, _, problems = workload.check(result, None)
            self.assertGreaterEqual(failed, 1)
            self.assertTrue(any(Path(path).name in p for p in problems), problems)

    def test_repeat_pass_must_match_first_pass(self):
        workload = workloads.CliFiles(self.program(), 2, WORK / "repeat")
        first = workload.run_pass()
        second = workload.run_pass()
        self.assertEqual(workload.check(second, first)[1], 0)
        path = next(iter(second.outputs))
        second.outputs[path] = b"potential = 1\n"
        self.assertEqual(workload.check(second, first)[1], 1)

    # -- tracer ---------------------------------------------------------------

    def traced_counts(self, seed: int) -> dict:
        workload = SmallSuite(self.program(), seed, WORK)
        tracer = Tracer()
        tracer.install()
        try:
            passes = run.measure(workload, 0, tracer)
        finally:
            tracer.uninstall()
        summary = passes[0].summary
        return {name: extract(summary) for name, (unit, _, extract) in PER_LAYER.items()
                if unit != "s"}, summary

    def test_trace_counts_repeat_exactly(self):
        first, summary = self.traced_counts(3)
        second, _ = self.traced_counts(3)
        self.assertEqual(first, second)
        self.assertEqual(first["axiom_suites.pentagon_calls"], 2 * 2 ** 4)
        self.assertGreater(first["polynomials.mul_calls"], 0)
        for layer, seconds in summary.self_s.items():
            self.assertGreaterEqual(seconds, -1e-6, layer)

    def test_wrappers_cover_every_namespace_and_are_removed(self):
        program = self.program()
        modules = {name: sys.modules[name] for name in ("mfcat", "mfcat.axiom_suites",
                                                        "mfcat.t_subcategory", "mfcat.tensor_products")}
        original = modules["mfcat.tensor_products"].mult_tensor
        tracer = Tracer()
        tracer.install()
        try:
            for name, module in modules.items():
                self.assertTrue(getattr(module.mult_tensor, TRACE_MARK, False), name)
            poly = sys.modules["mfcat.polynomials"].Polynomial
            self.assertTrue(getattr(poly.__mul__, TRACE_MARK, False))
            self.assertTrue(getattr(poly.__rmul__, TRACE_MARK, False))
            self.assertEqual(workloads.run_command(program, ["epower", "2"]).rc, 0)
        finally:
            tracer.uninstall()
        self.assertEqual(Tracer.leftover_wrappers(), [])
        for module in modules.values():
            self.assertIs(module.mult_tensor, original)

    # -- speed scaling --------------------------------------------------------

    def test_sampler_probes_during_a_span_and_stopwatch_excludes_it(self):
        sampler = speed.Sampler(end_probes=2)
        sampler.start()
        watch = workloads.Stopwatch()
        start, spent = time.perf_counter(), speed.spent()
        while time.perf_counter() - start < 4.5 * speed.INTERVAL_S:
            sum(range(1000))
        seconds, _ = watch.read()
        in_span = speed.spent() - spent
        factor = sampler.stop()
        self.assertGreaterEqual(len(sampler.samples), 3 + 2)  # timer, then stop
        self.assertAlmostEqual(in_span, sum(sampler.samples[:-2]))
        self.assertAlmostEqual(seconds, 4.5 * speed.INTERVAL_S - in_span, delta=0.002)
        self.assertAlmostEqual(factor, speed.REFERENCE_S / statistics.fmean(sampler.samples))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)

    def test_end_to_end_times_are_scaled(self):
        records = [workloads.Record([], 0, "", "", t, t) for t in (0.1, 0.2, 0.3)]
        result = workloads.PassResult(records, 0.6, 0.6, None)
        result.scale = 0.5
        tally = run.Tally()
        tally.verdict_rates = [3 / 0.3]
        metrics = run.end_to_end(workloads.CliFiles, 0.01, [result], tally)
        self.assertAlmostEqual(metrics["wall_s"], 0.3)
        self.assertAlmostEqual(metrics["cpu_s"], 0.3)
        self.assertAlmostEqual(metrics["op_p50_ms"], 100.0)

    # -- the command ----------------------------------------------------------

    def test_run_refuses_without_sources(self):
        bare = WORK / "bare"
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-files",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
