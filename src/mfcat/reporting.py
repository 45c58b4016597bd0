"""Check reports: the outcome of one diagram, axiom or counterexample check.

Verdicts:

* ``pass``: every asserted equality held exactly.
* ``fail``: an asserted equality failed, or an expected failure did not occur.
* ``expected-fail-confirmed``: the check encodes a known negative result and
  the failure happened as predicted.  Kept distinct from ``pass`` so that a
  regression which makes a counterexample "succeed" is loudly visible.

The one-line rendering is ``PASS|FAIL|XFAIL-OK <check_id> <detail>``.
"""

from __future__ import annotations

from typing import NamedTuple

from .matrices import PolyMatrix, matrix_literal

PASS = "pass"
FAIL = "fail"
XFAIL_OK = "expected-fail-confirmed"

_LINE_TOKEN = {PASS: "PASS", FAIL: "FAIL", XFAIL_OK: "XFAIL-OK"}

# Witness matrices above this entry count are summarized instead of printed.
_RENDER_LIMIT = 256


class CheckReport(NamedTuple):
    check_id: str
    verdict: str
    detail: str
    witnesses: tuple[tuple[str, PolyMatrix], ...] = ()

    @property
    def ok(self) -> bool:
        """True unless the verdict is a genuine failure."""
        return self.verdict != FAIL

    def line(self) -> str:
        return f"{_LINE_TOKEN[self.verdict]} {self.check_id} {self.detail}"

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "verdict": self.verdict,
            "detail": self.detail,
            "witnesses": {name: _render(value) for name, value in self.witnesses},
        }


def _render(value: PolyMatrix) -> str:
    """A witness matrix as a literal, or a summary above ``_RENDER_LIMIT``."""
    if value.rows * value.cols > _RENDER_LIMIT:
        return f"<matrix {value.rows}x{value.cols}, {value.nnz()} nonzero>"
    return matrix_literal(value)


def aggregate_ok(reports) -> bool:
    """All positive checks passed and all expected failures were confirmed."""
    return all(report.ok for report in reports)
