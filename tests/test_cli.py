import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    code, _, err = run_cli(capsys, "epower", "0")
    assert code == 2 and "error:" in err


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


def test_suite_maxpow_guard(capsys):
    code, _, err = run_cli(capsys, "suite", "all", "--maxpow", "9")
    assert code == 2
    assert "size guard" in err


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "mfcat", "validate", str(SAMPLES / "intro.mf")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("PASS validate")


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
