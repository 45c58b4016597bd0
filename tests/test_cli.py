import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mfcat.cli import main
from mfcat.factorizations import factorization_from_text

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_intro(capsys):
    code, out, _ = run_cli(capsys, "validate", str(SAMPLES / "intro.mf"))
    assert code == 0
    assert out.startswith("PASS validate")
    assert "size=2" in out and "x^2 + y^2" in out


def test_validate_structured(capsys):
    code, out, _ = run_cli(
        capsys, "validate", str(SAMPLES / "e.mf"), "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass" and doc["size"] == 1


def test_validate_rejects_bad_product(tmp_path, capsys):
    bad = tmp_path / "bad.mf"
    bad.write_text("potential = x\nphi = [[x]]\npsi = [[x]]\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "error:" in err


def test_validate_rejects_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-file.mf")
    assert code == 2
    assert "error:" in err


def test_validate_rejects_invalid_utf8_at_its_line(tmp_path, capsys):
    bad = tmp_path / "latin1.mf"
    bad.write_bytes(b"potential = 1\nphi = [[1]]\npsi = [[1]] # caf\xff\n")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: line 3: invalid UTF-8 byte 0xff\n"


def test_validate_locates_shape_errors(tmp_path, capsys):
    cases = [
        (
            "potential = 1\nphi = [[1, 2]]\npsi = [[1]]\n",
            "line 2: phi is 1x2, not square",
        ),
        (
            "psi = [[1, 0], [0, 1]]\n\nphi = [[1]]\npotential = 1\n",
            "line 3: phi is 1x1 but the other factor is 2x2",
        ),
    ]
    for text, message in cases:
        path = tmp_path / "shape.mf"
        path.write_text(text)
        code, _, err = run_cli(capsys, "validate", str(path))
        assert (code, err) == (2, f"error: {message}\n")


# Inputs biased towards the .mf grammar, next to arbitrary bytes: key lines
# built from valid and broken values reach the parser's error paths, and
# complete files with mismatched factors reach validation (and exit 0).
_MF_MATRICES = [
    "[[1]]", "[[-1]]", "[[x]]", "[[1, 0], [0, 1]]", "[[x, y], [-y, x]]",
    "[[x, -y], [y, x]]",
]
_MF_VALUES = st.sampled_from(
    [
        "1", "x", "x^2 + y^2", "-1/2*x", "x^99999999", "1/0", "x^", "(x", "",
        "[[1]]", "[[x]]", "[[-1]]", "[[1, 0], [0, 1]]", "[[x, y], [-y, x]]",
        "[[x, -y], [y, x]]", "[[1, 2]]", "[[1], [2]]", "[[1,]]", "[[ ]]", "[[",
        "[[1]] ]]", "[[1/0]]", "[[x^99999999]]", "# note", "\xff", "\u00e9",
    ]
)
_MF_LINE = st.builds(
    lambda key, sep, value: f"{key}{sep}{value}",
    st.sampled_from(["potential", "phi", "psi", " phi ", "other", ""]),
    st.sampled_from([" = ", "=", " "]),
    _MF_VALUES,
)
_MF_FILE = st.one_of(
    st.binary(max_size=200),
    st.lists(_MF_LINE, max_size=5).map(
        lambda lines: "\n".join(lines).encode("utf-8")[:200]
    ),
    st.tuples(
        st.sampled_from(["1", "-1", "x", "x^2 + y^2"]),
        st.sampled_from(_MF_MATRICES),
        st.sampled_from(_MF_MATRICES),
    )
    .flatmap(
        lambda t: st.permutations(
            [f"potential = {t[0]}", f"phi = {t[1]}", f"psi = {t[2]}"]
        )
    )
    .map(lambda lines: "\n".join(lines).encode("utf-8")),
)
# Valid files (the shipped samples and a unit with phi != psi), so that the
# two-file tensor fuzz reaches the product and its printing.
_VALID_MF_FILE = st.sampled_from(
    [path.read_bytes() for path in sorted(SAMPLES.glob("*.mf"))]
    + [b"potential = 1\nphi = [[1, x], [0, 1]]\npsi = [[1, -x], [0, 1]]\n"]
)
# A located error names a line of the file, a character position within a
# value, or the first mismatching entry of a factor product.
_LOCATED = re.compile(r"^error: .*(line \d+|position \d+|entry \(\d+, \d+\))")


def _run_on_fuzzed_files(command, files):
    """Run ``mfcat`` on the given file contents; return (code, out, err)."""
    with tempfile.TemporaryDirectory() as workdir:
        paths = []
        for index, data in enumerate(files):
            path = Path(workdir) / f"fuzz{index}.mf"
            path.write_bytes(data)
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, *paths])
    assert code in (0, 1, 2)
    if code:
        assert _LOCATED.match(err.getvalue()), err.getvalue()
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_MF_FILE)
def test_validate_fuzzed_files_exit_cleanly(data):
    code, out, _ = _run_on_fuzzed_files(["validate"], [data])
    if not code:
        assert out.startswith("PASS validate")


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.sampled_from(["mult", "yoshino"]),
    st.one_of(_VALID_MF_FILE, _MF_FILE),
    st.one_of(_VALID_MF_FILE, _MF_FILE),
)
def test_tensor_fuzzed_files_exit_cleanly(mode, first, second):
    code, out, _ = _run_on_fuzzed_files(["tensor", "--mode", mode], [first, second])
    if not code:
        x, y = (factorization_from_text(data.decode()) for data in (first, second))
        product = factorization_from_text(out)
        assert product.size == 2 * x.size * y.size
        if mode == "mult":
            assert product.potential == x.potential * y.potential
        else:
            assert product.potential == x.potential + y.potential


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.one_of(_VALID_MF_FILE, _MF_FILE))
def test_syzygy_fuzzed_files_exit_cleanly(data):
    code, out, _ = _run_on_fuzzed_files(["syzygy"], [data])
    if not code:
        assert factorization_from_text(out) == factorization_from_text(data.decode()).syzygy()


def test_tensor_mult_of_e_with_itself(capsys):
    code, out, _ = run_cli(
        capsys, "tensor", "--mode", "mult", str(SAMPLES / "e.mf"), str(SAMPLES / "e.mf")
    )
    assert code == 0
    assert out == (
        "potential = 1\n"
        "phi = [[1, 0], [0, 1]]\n"
        "psi = [[1, 0], [0, 1]]\n"
    )


def test_tensor_yoshino_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "sum.mf"
    code, _, _ = run_cli(
        capsys,
        "tensor",
        "--mode",
        "yoshino",
        str(SAMPLES / "e.mf"),
        str(SAMPLES / "e.mf"),
        "--output",
        str(out_path),
    )
    assert code == 0
    result = factorization_from_text(out_path.read_text())
    assert result.size == 2
    assert str(result.potential) == "2"


def test_tensor_refuses_output_the_reader_would_reject(tmp_path, capsys):
    # x^1000000 is the largest exponent a file may hold; the product with
    # itself has x^2000000, so nothing may be printed or written.
    big = tmp_path / "big.mf"
    big.write_text("potential = x^1000000\nphi = [[x^1000000]]\npsi = [[1]]\n")
    code, out, _ = run_cli(capsys, "validate", str(big))
    assert code == 0
    out_path = tmp_path / "product.mf"
    for extra in ([], ["--output", str(out_path)]):
        code, out, err = run_cli(capsys, "tensor", str(big), str(big), *extra)
        assert (code, out) == (2, "")
        assert err == (
            "error: an exponent of 2000000 exceeds the .mf reader's limit (1000000)\n"
        )
    assert not out_path.exists()


def test_tensor_names_the_file_that_fails(tmp_path, capsys):
    good = str(SAMPLES / "e.mf")
    mismatch = tmp_path / "mismatch.mf"
    mismatch.write_text("potential = x\nphi = [[x]]\npsi = [[x]]\n")
    syntax = tmp_path / "syntax.mf"
    syntax.write_text("potential = 1\nphi = [[1,]]\npsi = [[1]]\n")
    cases = [
        (mismatch, "phi*psi != potential*I, first mismatch at entry (0, 0)"),
        (syntax, "line 2: bad entry: expected a term (at position 4)"),
    ]
    for bad, message in cases:
        for files in ([good, str(bad)], [str(bad), good]):
            for mode in ("mult", "yoshino"):
                code, out, err = run_cli(capsys, "tensor", "--mode", mode, *files)
                assert (code, out) == (2, "")
                assert err == f"error: {bad}: {message}\n"
        # validate keeps its message without the file name.
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert (code, err) == (2, f"error: {message}\n")


def test_validate_rejects_an_overlong_numeral_at_its_position(tmp_path, capsys):
    numeral = "9" * 5000
    cases = [
        (f"potential = {numeral}\nphi = [[1]]\npsi = [[1]]\n", "line 1", 0),
        (f"potential = 1\nphi = [[1, {numeral}]]\npsi = [[1]]\n", "line 2", 5),
    ]
    for text, line, position in cases:
        path = tmp_path / "long.mf"
        path.write_text(text)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {line}: ")
        assert "numeral of 5000 digits exceeds the limit" in err
        assert err.count("(at position") == 1
        assert err.endswith(f"(at position {position})\n")


def test_validate_of_a_long_potential_takes_linear_time(tmp_path, capsys):
    # 12,000 terms: folding them one by one took minutes (quadratic).
    potential = " + ".join(f"x^{k}" for k in range(1, 12001))
    path = tmp_path / "long.mf"
    path.write_text(f"potential = {potential}\nphi = [[1]]\npsi = [[{potential}]]\n")
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "validate", str(path))
    elapsed = time.perf_counter() - start
    assert code == 0 and out.startswith("PASS validate") and "size=1" in out
    assert elapsed < 10, elapsed


def _dense(side: int, entry: str) -> str:
    return "[" + ", ".join(["[" + ", ".join([entry] * side) + "]"] * side) + "]"


@pytest.mark.parametrize(
    "phi, psi",
    [
        pytest.param(_dense(30, "x+1"), _dense(30, "x+1"), id="dense-30x30"),
        pytest.param(
            "[[" + " + ".join(f"x^{k}" for k in range(1, 101)) + "]]",
            "[[" + " + ".join(f"y^{k}" for k in range(1, 101)) + "]]",
            id="one-by-one-100-terms",
        ),
    ],
)
def test_untrusted_products_that_miss_the_potential_exit_2_at_entry_0_0(
    tmp_path, capsys, phi, psi
):
    # small versions of the dense and the many-term probe files: each
    # validates by forming phi*psi, whose first entry is not the potential
    path = tmp_path / "probe.mf"
    path.write_text(f"potential = 1\nphi = {phi}\npsi = {psi}\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "error: phi*psi != potential*I, first mismatch at entry (0, 0)\n"


def test_syzygy_swaps_factors(capsys):
    code, out, _ = run_cli(capsys, "syzygy", str(SAMPLES / "intro.mf"))
    assert code == 0
    swapped = factorization_from_text(out)
    original = factorization_from_text((SAMPLES / "intro.mf").read_text())
    assert swapped.phi == original.psi and swapped.psi == original.phi


def test_epower(capsys):
    code, out, _ = run_cli(capsys, "epower", "3")
    assert code == 0
    assert factorization_from_text(out).size == 4


def test_epower_beyond_size_guard(capsys):
    # The side 2^14999 must be rejected before it is built or printed.
    code, out, err = run_cli(capsys, "epower", "15000")
    assert code == 2 and out == ""
    assert "size guard" in err


def test_epower_output_beyond_print_budget(capsys):
    # Side 2^20 passes the side guard, but its dense literal (2^40 entries)
    # must be refused before any row is built.
    code, out, err = run_cli(capsys, "epower", "21")
    assert code == 2 and out == ""
    assert "size guard" in err


def test_printed_factorizations_match_pinned_output(capsys):
    # syzygy and both tensor modes on every ordered pair of samples, byte for
    # byte, so the stored coefficient form cannot leak into printing.
    names = sorted(path.name for path in SAMPLES.glob("*.mf"))
    commands = [["syzygy", name] for name in names] + [
        ["tensor", "--mode", mode, first, second]
        for first in names
        for second in names
        for mode in ("mult", "yoshino")
    ]
    chunks = []
    for argv in commands:
        real = [str(SAMPLES / arg) if arg.endswith(".mf") else arg for arg in argv]
        code, out, _ = run_cli(capsys, *real)
        assert code == 0
        chunks.append(f"$ mfcat {' '.join(argv)}\n{out}")
    expected = (DATA / "cli_factorizations_samples.txt").read_bytes()
    assert "".join(chunks).encode("utf-8") == expected


def test_cancellation_heavy_fixture_matches_pinned_output(tmp_path, monkeypatch):
    # phi*psi = psi*phi = I with Fraction entries: nearly every entry sum of
    # the validating products cancels to zero or comes out integral.  Run in
    # tmp_path with bare file names: validate, syzygy, both tensor modes with
    # intro.mf and with itself, and validate of each tensor output.
    fixture, intro = "unimodular3_fraction.mf", "intro.mf"
    (tmp_path / fixture).write_bytes((DATA / fixture).read_bytes())
    (tmp_path / intro).write_bytes((SAMPLES / intro).read_bytes())
    monkeypatch.chdir(tmp_path)
    commands = [
        ["validate", fixture],
        ["validate", "--format", "structured", fixture],
        ["syzygy", fixture],
    ]
    for mode in ("mult", "yoshino"):
        for first, second in ((fixture, intro), (intro, fixture), (fixture, fixture)):
            product = f"{mode}_{first[:5]}_{second[:5]}.mf"
            commands.append(["tensor", "--mode", mode, first, second])
            commands.append(["tensor", "--mode", mode, first, second, "--output", product])
            commands.append(["validate", product])
    chunks = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        chunks.append(f"$ mfcat {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}[exit {code}]\n")
    expected = (DATA / "unimodular3_fraction_cli.txt").read_bytes()
    assert "".join(chunks).encode("utf-8") == expected


def test_shipped_samples_round_trip(capsys):
    from mfcat.factorizations import factorization_to_text

    for name in ("intro.mf", "e.mf", "unimodular.mf", "scaled.mf"):
        x = factorization_from_text((SAMPLES / name).read_text())
        assert factorization_from_text(factorization_to_text(x)) == x
        code, _, _ = run_cli(capsys, "validate", str(SAMPLES / name))
        assert code == 0


def test_suite_text_output_and_exit_code(capsys):
    # the ambient-category counterexample check reports FAIL (its predicted
    # failure does not occur; see that check's detail), so the aggregate is 1
    code, out, _ = run_cli(
        capsys, "suite", "all", "--maxpow", "2", "--samples", "4", "--seed", "1"
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[-1].startswith("AGGREGATE: fail")
    body = lines[:-1]
    assert all(line.split()[0] in {"PASS", "FAIL", "XFAIL-OK"} for line in body)
    ids = [line.split()[1] for line in body]
    assert ids == sorted(ids)
    failing = [line for line in body if line.startswith("FAIL")]
    assert len(failing) == 1 and "counterexample-mf1-not-semiunital" in failing[0]


def test_suite_structured_output(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "suite",
        "all",
        "--maxpow",
        "2",
        "--samples",
        "4",
        "--seed",
        "1",
        "--format",
        "structured",
        "--output",
        str(out_path),
    )
    assert code == 1
    doc = json.loads(out_path.read_text())
    assert doc["aggregate"] == "fail"
    assert doc["maxpow"] == 2 and doc["seed"] == 1
    verdicts = {c["check_id"]: c["verdict"] for c in doc["checks"]}
    assert verdicts["rm-ax5[e]"] == "pass"
    assert verdicts["counterexample-e-not-pseudo-idempotent"] == "expected-fail-confirmed"


def test_suite_is_deterministic(capsys):
    args = ("suite", "all", "--maxpow", "2", "--samples", "4", "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_suite_output_matches_pinned_report(capsys):
    expected = (DATA / "suite_all_maxpow2_samples3_seed0.txt").read_bytes()
    code, out, _ = run_cli(
        capsys, "suite", "all", "--maxpow", "2", "--samples", "3", "--seed", "0"
    )
    assert code == 1  # the mf1 counterexample reports FAIL (see README)
    assert out.encode("utf-8") == expected


def test_epower_sweeps_to_maxpow4_match_pinned_report(capsys):
    # The larger e-power sweeps (pentagon, rm-axioms, semi-unit diagrams up
    # to e^4), which the maxpow-2 fixtures do not reach.
    expected = (DATA / "suite_all_maxpow4_samples0_seed0.txt").read_bytes()
    code, out, err = run_cli(
        capsys, "suite", "all", "--maxpow", "4", "--samples", "0", "--seed", "0"
    )
    assert code == 1
    assert err == ""
    assert out.encode("utf-8") == expected


def test_epower_sweeps_to_maxpow5_match_pinned_report(capsys):
    # The one pass of the suite-epowers benchmark workload (at seed 0): the
    # e-power sweeps up to e^5, where identity matrices reach side 2**19.
    expected = (DATA / "suite_all_maxpow5_samples0_seed0.txt").read_bytes()
    code, out, err = run_cli(
        capsys, "suite", "all", "--maxpow", "5", "--samples", "0", "--seed", "0"
    )
    assert code == 1
    assert err == ""
    assert out.encode("utf-8") == expected


def test_default_suite_matches_pinned_report(capsys):
    # The defaults (maxpow 5, 50 samples, seed 0) are the only configuration
    # with a 51-object pool and 28 size >= 2 triangles in rpm-7.
    expected = (DATA / "suite_all_maxpow5_samples50_seed0.txt").read_bytes()
    code, out, err = run_cli(capsys, "suite", "all")
    assert code == 1
    assert err == ""
    assert out.encode("utf-8") == expected


def test_structured_suite_output_matches_pinned_report(capsys):
    # Only the structured form renders the witnesses (the rearrangement's P,
    # the triangle's lhs_alpha/rhs_alpha), so this pins them byte for byte.
    fixture = DATA / "suite_all_maxpow2_samples3_seed0_structured.json"
    expected = fixture.read_bytes()
    code, out, _ = run_cli(
        capsys, "suite", "all", "--maxpow", "2", "--samples", "3", "--seed", "0",
        "--format", "structured",
    )
    assert code == 1
    assert out.encode("utf-8") == expected


def test_structured_suite_with_a_random_pool_matches_pinned_report(capsys):
    # A larger random MF(1) pool than the maxpow-2 fixtures: its swap and
    # scale steps and the rpm and rearrangement witnesses are 0/1 matrices
    # multiplied with general ones, so this pins those products byte for byte.
    fixture = DATA / "suite_all_maxpow3_samples10_seed1_structured.json"
    code, out, _ = run_cli(
        capsys, "suite", "all", "--maxpow", "3", "--samples", "10", "--seed", "1",
        "--format", "structured",
    )
    assert code == 1
    assert out.encode("utf-8") == fixture.read_bytes()


def test_default_structured_suite_matches_pinned_report(capsys):
    # The defaults are the only configuration whose witnesses reach e^4 and
    # e^5 (the rm-ax2 and triangle sides) next to the 51-object pool.
    fixture = DATA / "suite_all_maxpow5_samples50_seed0_structured.json"
    code, out, _ = run_cli(capsys, "suite", "all", "--format", "structured")
    assert code == 1
    assert out.encode("utf-8") == fixture.read_bytes()


def _subprocess_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_suite_output_is_unchanged_under_python_O():
    # -O strips assert statements, so no check may rest on one.
    result = subprocess.run(
        [sys.executable, "-O", "-m", "mfcat", "suite", "all", "--maxpow", "2",
         "--samples", "3", "--seed", "0"],
        capture_output=True,
        env=_subprocess_env(),
    )
    assert result.returncode == 1
    assert result.stderr == b""
    assert result.stdout == (DATA / "suite_all_maxpow2_samples3_seed0.txt").read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("suite", "all", "--maxpow", "0"), "maxpow must be at least 1"),
        (("suite", "all", "--maxpow", "6"), "maxpow 6 exceeds the size guard (largest supported is 5)"),
        (("suite", "all", "--maxpow", "9"), "maxpow 9 exceeds the size guard (largest supported is 5)"),
        (("suite", "all", "--samples", "-1"), "samples must be non-negative"),
        (("epower", "0"), "e_power requires n >= 1"),
    ],
    ids=["maxpow0", "maxpow6", "maxpow9", "samples-1", "epower0"],
)
def test_out_of_range_argument_exits_2(capsys, argv, message):
    # The library function each command calls owns the rule; the CLI only
    # reports its error.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "mfcat", "validate", str(SAMPLES / "intro.mf")],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert result.returncode == 0
    assert result.stdout.startswith("PASS validate")


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
