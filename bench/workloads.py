"""The three benchmark workloads: inputs from a seed, passes, and checks.

Every workload drives the public entry point ``mfcat.cli.main`` in-process,
as one closed-loop client: each command starts when the previous one has
returned.  A *pass* is one closed loop over the workload's commands.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import gate
import oracle
import speed
from oracle import Mf, padd, pconst, pmul, pneg

MODULES = ("cli", "polynomials", "matrices", "errors")


def load_program() -> SimpleNamespace:
    """Import mfcat afresh (dropping any earlier import) and return its modules."""
    for name in [n for n in sys.modules if n == "mfcat" or n.startswith("mfcat.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"mfcat.{m}") for m in MODULES})


class Record:
    """One command as run: exit code, captured output and latency."""

    __slots__ = ("argv", "rc", "stdout", "error", "seconds", "cpu")

    def __init__(self, argv, rc, stdout, error, seconds, cpu):
        self.argv, self.rc, self.stdout, self.error = argv, rc, stdout, error
        self.seconds, self.cpu = seconds, cpu


class Stopwatch:
    """Wall and CPU time of a span, less the speed probes run inside it."""

    def __init__(self):
        self.cpu = time.process_time()
        self.wall = time.perf_counter()
        self.probes = speed.spent()

    def read(self) -> tuple[float, float]:
        probes = speed.spent() - self.probes
        wall = time.perf_counter() - self.wall - probes
        return wall, time.process_time() - self.cpu - probes


def run_command(program, argv: list[str]) -> Record:
    out, err = io.StringIO(), io.StringIO()
    watch = Stopwatch()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = program.cli.main(argv)  # looked up per call, so tracing sees it
        error = err.getvalue()
    except (Exception, SystemExit) as exc:  # a crash is a failed op, not a crashed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds, cpu = watch.read()
    return Record(argv, rc, out.getvalue(), error, seconds, cpu)


class PassResult:
    """The records of one pass plus what the checks need afterwards."""

    __slots__ = ("records", "seconds", "cpu", "outputs", "summary", "failed_ops", "scale")

    def __init__(self, records, seconds, cpu, outputs):
        self.records, self.seconds, self.cpu, self.outputs = records, seconds, cpu, outputs
        self.scale = 1.0  # to the reference speed, set by the runner (see speed.py)
        self.summary = None  # the tracer's PassSummary, in a traced pass
        self.failed_ops = set()  # indices of commands that failed their check


class Workload:
    """Base: ``commands`` is the closed loop of one pass."""

    name = ""
    why = ""
    # What one verdict unit is: "command" (one ``suite all`` run) or "pass".
    unit = "command"

    def __init__(self, program, seed: int, workdir: Path):
        self.program = program
        self.commands: list[list[str]] = []

    def run_pass(self) -> PassResult:
        watch = Stopwatch()
        records = [run_command(self.program, argv) for argv in self.commands]
        seconds, cpu = watch.read()
        return PassResult(records, seconds, cpu, self.collect_outputs())

    def collect_outputs(self):
        return None

    def check(self, result: PassResult, reference: PassResult | None):
        """Return ``(attempted, failed, verdicts, problems)`` for one pass;
        ``verdicts`` lists the verdicts delivered per unit of the pass."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# suite workloads


class _Suite(Workload):
    maxpow = 0
    samples = 0

    def suite_argv(self, seed: int) -> list[str]:
        return ["suite", "all", "--maxpow", str(self.maxpow),
                "--samples", str(self.samples), "--seed", str(seed)]

    def check(self, result, reference):
        attempted = failed = 0
        verdicts, problems = [], []
        for record in result.records:
            expected, issues = gate.gate_suite(record.stdout, record.rc, self.maxpow, self.samples)
            if record.rc is None:
                issues = [f"crashed: {record.error}"]
            wrong = min(expected, len(issues))
            attempted += expected
            failed += wrong
            verdicts.append(expected - wrong)
            problems += [f"{' '.join(record.argv)}: {issue}" for issue in issues]
        return attempted, failed, verdicts, problems


class SuiteEpowers(_Suite):
    name = "suite-epowers"
    why = ("e-power sweeps on identity and 0/1 matrices up to side 1024, constants only: "
           "where caching, validation, matmul and sweep dedup show")
    maxpow = 5
    samples = 0

    def __init__(self, program, seed, workdir):
        super().__init__(program, seed, workdir)
        self.commands = [self.suite_argv(seed)]


class SuiteMf1Pool(_Suite):
    name = "suite-mf1-pool"
    why = ("pseudo-monoidal and syzygy checks over seeded random MF(1) pools: "
           "multi-term polynomial arithmetic, little shared between objects")
    maxpow = 1
    # Not in BENCHMARK.json: a pool's cost is heavy-tailed in its seed
    # (coefficient of variation about 0.5 at 12 samples), so no metric of a
    # 40-second run is steady across seeds; see bench/README.md.  12 samples
    # per pool gave the lowest spread per second of work among 3..30.
    samples = 12
    pools = 24

    def __init__(self, program, seed, workdir):
        super().__init__(program, seed, workdir)
        self.commands = [self.suite_argv(s) for s in self.sub_seeds(seed)]

    @classmethod
    def sub_seeds(cls, seed: int) -> list[int]:
        """Consecutive sub-seeds in a block of their own for each seed."""
        return [seed * cls.pools + k for k in range(cls.pools)]


# ---------------------------------------------------------------------------
# cli-files: generated `.mf` files through validate / tensor / syzygy

VARS = ("x", "y", "z")


def _rand_poly(rng: random.Random, monomials: tuple) -> dict:
    """The given monomials with random nonzero coefficients in -3..3."""
    return {mono: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for mono in monomials}


def _var(name: str) -> tuple:
    return ((name, 1),)


def _eye(n: int) -> list:
    return [[pconst(int(i == j)) for j in range(n)] for i in range(n)]


def random_unimodular(rng: random.Random, size: int, steps: int) -> Mf:
    """(M, M^-1) with M a product of ``steps`` elementary unimodular matrices.

    The positions of the row transvections and the variable of each
    multiplier ``a*v + b`` follow a fixed cycle, so the seed draws only the
    coefficients and the cost depends on ``size`` and ``steps`` alone.  A
    size-1 object is a product of -1 scalings.
    """
    m, m_inv = _eye(size), _eye(size)
    for k in range(steps):
        step, inv = _eye(size), _eye(size)
        if size == 1:
            step[0][0] = inv[0][0] = pconst(-1)
        else:
            i = k % size
            j = (i + 1 + (k // size) % (size - 1)) % size
            p = _rand_poly(rng, (_var(VARS[k % len(VARS)]), ()))
            step[i][j], inv[i][j] = p, pneg(p)
        m, m_inv = oracle.mmul(step, m), oracle.mmul(m_inv, inv)
    return Mf(m, m_inv, pconst(1))


def random_determinantal(rng: random.Random) -> Mf:
    """The 2x2 family of ``samples/intro.mf``: phi = [[p, q], [r, s]],
    psi = adj(phi), a factorization of det(phi) = ps - qr."""
    while True:
        p, q, r, s = (_rand_poly(rng, (_var(v), ())) for v in ("x", "y", "z", "x"))
        det = padd(pmul(p, s), pneg(pmul(q, r)))
        if det:
            return Mf([[p, q], [r, s]], [[s, pneg(q)], [pneg(r), p]], det)


def random_rank_one(rng: random.Random) -> Mf:
    """([a], [b]), a factorization of a*b."""
    a = _rand_poly(rng, ((("x", 1), ("y", 1)), _var("z")))
    b = _rand_poly(rng, (_var("y"), ()))
    return Mf([[a]], [[b]], pmul(a, b))


# Fixed shape of the input set: sizes, step counts and monomials are fixed
# and the seed draws the coefficients, so the cost of a pass barely depends
# on the seed (with random monomials it varied by about 20 %).
# Entries: ("mf1", size, steps) | ("det",) | ("rank1",).
INPUT_PLAN = (
    [("mf1", size, steps) for steps in (1, 2, 3, 2) for size in (1, 2, 3)]
    + [("det",), ("rank1",)] * 3
)
# Pairs of INPUT_PLAN indices run through both tensor products.
PAIR_PLAN = ((0, 3), (1, 4), (2, 5), (4, 7), (5, 8), (7, 10),
             (13, 15), (12, 14), (12, 16), (1, 12), (13, 2), (16, 11))


PRODUCERS = ("syzygy", "yoshino", "mult")  # commands that write --output


class CliFiles(Workload):
    name = "cli-files"
    why = ("validate, both tensor products and syzygy over seeded .mf files: parsing, "
           "canonical printing and file I/O; the only workload running yoshino_tensor")
    unit = "pass"
    points_per_output = 2

    def __init__(self, program, seed, workdir):
        super().__init__(program, seed, workdir)
        rng = random.Random(seed)
        self.inputs: list[Mf] = []
        in_dir, out_dir = workdir / "inputs", workdir / "outputs"
        in_dir.mkdir(parents=True, exist_ok=True)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for index, spec in enumerate(INPUT_PLAN):
            if spec[0] == "mf1":
                mf = random_unimodular(rng, spec[1], spec[2])
            elif spec[0] == "det":
                mf = random_determinantal(rng)
            else:
                mf = random_rank_one(rng)
            path = in_dir / f"in_{index:02d}.mf"
            path.write_text(f"# generated input {index}: {spec[0]}\n" + mf.text(), encoding="utf-8")
            self.inputs.append(mf)
            paths.append(str(path))
        # (argv, check) pairs; check = (kind, payload) for the oracle.
        self.plan: list[tuple[list[str], tuple]] = []
        for index, mf in enumerate(self.inputs):
            self.plan.append((["validate", paths[index]], ("validate", mf)))
        for index, mf in enumerate(self.inputs):
            out = str(out_dir / f"syz_{index:02d}.mf")
            self.plan.append((["syzygy", paths[index], "--output", out], ("syzygy", mf, out)))
            self.plan.append((["validate", out], ("validate-out", out)))
        for k, (a, b) in enumerate(PAIR_PLAN):
            for mode in ("yoshino", "mult"):
                out = str(out_dir / f"{mode}_{k:02d}.mf")
                self.plan.append((["tensor", "--mode", mode, paths[a], paths[b], "--output", out],
                                  (mode, self.inputs[a], self.inputs[b], out)))
                self.plan.append((["validate", out], ("validate-out", out)))
        self.commands = [argv for argv, _ in self.plan]
        self.output_paths = [spec[-1] for _, spec in self.plan if spec[0] in PRODUCERS]
        point_rng = random.Random(seed ^ 0x9E3779B9)
        self.points = [
            [{v: Fraction(point_rng.randint(-4, 4)) for v in VARS} for _ in range(self.points_per_output)]
            for _ in self.plan
        ]

    def collect_outputs(self):
        return {path: Path(path).read_bytes() if Path(path).exists() else None
                for path in self.output_paths}

    def check(self, result, reference):
        if reference is not None:
            return self._check_repeat(result, reference)
        problems = []
        result.failed_ops = set()
        produced: dict[str, Mf] = {}  # output path -> the checked output
        for index, ((argv, spec), record) in enumerate(zip(self.plan, result.records)):
            try:
                self._check_one(spec, record, self.points[index], result.outputs, produced)
            except oracle.OracleError as exc:
                result.failed_ops.add(index)
                problems.append(f"{' '.join(argv)}: {exc}")
        failed = len(result.failed_ops)
        return len(self.plan), failed, [len(self.plan) - failed], problems

    def _check_one(self, spec, record, points, outputs, produced):
        if record.rc != 0:
            raise oracle.OracleError(f"exit code {record.rc}: {record.error.strip()}")
        kind = spec[0]
        if kind in ("validate", "validate-out"):
            if kind == "validate":
                mf, path = spec[1], record.argv[1]
            else:
                path = spec[1]
                mf = produced.get(path)
                if mf is None:
                    raise oracle.OracleError("its input was not produced")
            self._check_validate_line(record.stdout, path, mf)
            return
        x, out = spec[1], spec[-1]
        text = outputs.get(out)
        if text is None:
            raise oracle.OracleError("no output file")
        text = text.decode("utf-8")
        if record.stdout:
            raise oracle.OracleError("unexpected stdout with --output")
        if kind == "syzygy":
            got = oracle.check_output(self.program, text, x.potential, x.size, points)
            if got.phi != x.psi or got.psi != x.phi:
                raise oracle.OracleError("syzygy did not swap the factors exactly")
        else:
            y = spec[2]
            combine, expected = ((padd, oracle.expected_yoshino) if kind == "yoshino"
                                 else (pmul, oracle.expected_mult))
            got = oracle.check_output(self.program, text, combine(x.potential, y.potential),
                                      2 * x.size * y.size, points,
                                      functools.partial(expected, x, y))
        produced[out] = got

    def _check_validate_line(self, stdout: str, path: str, mf: Mf):
        prefix = f"PASS validate {path} size={mf.size} potential="
        if not stdout.startswith(prefix) or not stdout.endswith("\n") or stdout.count("\n") != 1:
            raise oracle.OracleError(f"unexpected validate output {stdout!r}")
        text = stdout[len(prefix):-1]
        try:
            printed = oracle.from_terms(self.program.polynomials.parse_polynomial(text).terms)
        except self.program.errors.MfcatError as exc:
            raise oracle.OracleError(f"unparseable potential {text!r}: {exc}") from exc
        if printed != mf.potential:
            raise oracle.OracleError(f"validate printed potential {text!r}")

    def _check_repeat(self, result, reference):
        """A later pass must reproduce the checked first pass byte for byte."""
        problems = []
        result.failed_ops = set(reference.failed_ops)
        for index, (record, ref) in enumerate(zip(result.records, reference.records)):
            if (record.rc, record.stdout) != (ref.rc, ref.stdout):
                result.failed_ops.add(index)
                problems.append(f"{' '.join(record.argv)}: differs from the first pass")
            spec = self.plan[index][1]
            out = spec[-1]
            if spec[0] in PRODUCERS and result.outputs[out] != reference.outputs[out]:
                result.failed_ops.add(index)
                problems.append(f"{out}: output differs from the first pass")
        failed = len(result.failed_ops)
        return len(self.plan), failed, [len(self.plan) - failed], problems


WORKLOADS = {w.name: w for w in (SuiteEpowers, SuiteMf1Pool, CliFiles)}
