"""Command-line front end.

Commands::

    mfcat validate FILE               check a factorization file
    mfcat tensor --mode MODE A B      tensor two factorizations (mult|yoshino)
    mfcat syzygy FILE                 swap the two factors
    mfcat epower N                    the N-th tensor power of ([1],[1])
    mfcat suite all [options]         run the full check suite

Factorization files use the line-oriented format ``potential = ...``,
``phi = [[...]]``, ``psi = [[...]]`` with ``#`` comments.  Suite reports are
one line per check (``PASS|FAIL|XFAIL-OK <check_id> <detail>``) or, with
``--format structured``, a JSON document with the same content.

Exit codes: 0 all passed, 1 at least one FAIL verdict, 2 bad input, out-of-range
arguments included: the library functions the commands call reject those.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .axiom_suites import suite_all
from .errors import MfcatError
from .factorizations import (
    MatrixFactorization,
    factorization_from_text,
    factorization_to_text,
)
from .reporting import aggregate_ok
from .t_subcategory import e_power
from .tensor_products import mult_tensor, yoshino_tensor


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfcat",
        description="Exact matrix factorizations of polynomials, their tensor "
        "products, and categorical check suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="validate a factorization file")
    validate.add_argument("file", type=Path)
    validate.add_argument("--format", choices=("text", "structured"), default="text")
    validate.set_defaults(run=_cmd_validate)

    tensor = sub.add_parser("tensor", help="tensor two factorization files")
    tensor.add_argument("--mode", choices=("mult", "yoshino"), default="mult")
    tensor.add_argument("first", type=Path)
    tensor.add_argument("second", type=Path)
    tensor.add_argument("--output", type=Path)
    tensor.set_defaults(run=_cmd_tensor)

    syz = sub.add_parser("syzygy", help="swap the two factors of a factorization")
    syz.add_argument("file", type=Path)
    syz.add_argument("--output", type=Path)
    syz.set_defaults(run=_cmd_syzygy)

    epw = sub.add_parser("epower", help="emit the n-th tensor power of ([1],[1])")
    epw.add_argument("n", type=int)
    epw.add_argument("--output", type=Path)
    epw.set_defaults(run=_cmd_epower)

    suite = sub.add_parser("suite", help="run the check suites")
    suite.add_argument("which", choices=("all",))
    suite.add_argument("--maxpow", type=int, default=5)
    suite.add_argument("--samples", type=int, default=50)
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--format", choices=("text", "structured"), default="text")
    suite.add_argument("--output", type=Path)
    suite.set_defaults(run=_cmd_suite)

    return parser


def _read_factorization(path: Path) -> MatrixFactorization:
    return factorization_from_text(path.read_bytes())


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def _cmd_validate(args) -> int:
    x = _read_factorization(args.file)
    if args.format == "structured":
        doc = {
            "file": str(args.file),
            "verdict": "pass",
            "size": x.size,
            "potential": str(x.potential),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"PASS validate {args.file} size={x.size} potential={x.potential}")
    return 0


def _cmd_tensor(args) -> int:
    factors = []
    for path in (args.first, args.second):
        try:
            factors.append(_read_factorization(path))
        except MfcatError as exc:
            raise MfcatError(f"{path}: {exc}") from exc
    x, y = factors
    product = mult_tensor(x, y) if args.mode == "mult" else yoshino_tensor(x, y)
    _emit(factorization_to_text(product), args.output)
    return 0


def _cmd_syzygy(args) -> int:
    x = _read_factorization(args.file)
    _emit(factorization_to_text(x.syzygy()), args.output)
    return 0


def _cmd_epower(args) -> int:
    _emit(factorization_to_text(e_power(args.n)), args.output)
    return 0


def _cmd_suite(args) -> int:
    reports = suite_all(maxpow=args.maxpow, samples=args.samples, seed=args.seed)
    passed = aggregate_ok(reports)
    if args.format == "structured":
        doc = {
            "suite": args.which,
            "maxpow": args.maxpow,
            "samples": args.samples,
            "seed": args.seed,
            "aggregate": "pass" if passed else "fail",
            "checks": [r.to_json_dict() for r in reports],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        lines = [r.line() for r in reports]
        lines.append(
            f"AGGREGATE: {'pass' if passed else 'fail'} ({len(reports)} checks)"
        )
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (MfcatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
