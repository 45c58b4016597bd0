"""Known-answer verdicts for ``mfcat suite all``.

One rule per check family, written by hand from the README and the
docstrings of ``mfcat.axiom_suites``.  The gate compares check ids and
verdicts only, never detail strings, so rewording a detail does not trip it.

Where a docstring and the computed verdict disagree, the table holds the
computed verdict and the disagreement is listed in ``bench/README.md``:

* ``rm-ax3``: ``check_right_monoidal_axioms`` says Ax.3 holds exactly when
  the relevant left object is e, but every pair, (e, e) included, reports
  XFAIL-OK.
* ``counterexample-mf1-not-semiunital``: the docstring predicts a confirmed
  failure (XFAIL-OK); the README documents the computed FAIL as a known red
  finding, so FAIL is the expected verdict and the suite exits 1.
"""

from __future__ import annotations

PASS, FAIL, XFAIL = "PASS", "FAIL", "XFAIL-OK"

# (family, rule(i, j)) for the checks run on every pair of e-powers e^i, e^j.
PAIR_RULES = {
    "semiunit-diagram1": lambda i, j: PASS,
    "semiunit-diagram2": lambda i, j: PASS,
    "semiunit-diagram3": lambda i, j: PASS,
    # README: the triangle commutes exactly when the left object has size 1.
    "triangle": lambda i, j: PASS if i == 1 else XFAIL,
    # Ax.2 must fail for every pair, sides row-permutation equivalent.
    "rm-ax2": lambda i, j: XFAIL,
    # Computed XFAIL-OK everywhere; see the module docstring.
    "rm-ax3": lambda i, j: XFAIL,
    # Ax.4 holds exactly when the left object is e.
    "rm-ax4": lambda i, j: PASS if i == 1 else XFAIL,
}

# Checks run once per suite; ``{maxpow}`` and ``{pairs}`` are filled in.
SINGLE_RULES = {
    "pentagon[e-powers,maxpow={maxpow}]": PASS,
    "rm-ax1[maxpow={maxpow}]": PASS,
    "rm-ax5[e]": PASS,
    "rpm-1-zeta-right-inverse": PASS,
    "rpm-2-lambda-naturality": PASS,
    "rpm-3-gamma-naturality": PASS,
    "rpm-4-lambda-gamma-identity": PASS,
    "rpm-5-rho-equals-lambda": PASS,
    "rpm-6-triangle-at-e": PASS,
    # The triangle fails (confirmed) for every sampled object of size >= 2.
    "rpm-7-triangle-beyond-e": XFAIL,
    "counterexample-e-not-pseudo-idempotent": XFAIL,
    # The documented red finding (acceptance criterion 9).
    "counterexample-mf1-not-semiunital": FAIL,
    "syzygy-identity[random,pairs={pairs}]": PASS,
}


def expected_verdicts(maxpow: int, samples: int) -> dict[str, str]:
    """Check id -> verdict token for ``suite all --maxpow M --samples N``."""
    expected = {}
    for family, rule in PAIR_RULES.items():
        for i in range(1, maxpow + 1):
            for j in range(1, maxpow + 1):
                expected[f"{family}[e^{i},e^{j}]"] = rule(i, j)
    # The syzygy sweep pairs up a pool of min(samples, 25) objects plus e.
    pairs = min(samples, 25) + 1
    for pattern, verdict in SINGLE_RULES.items():
        expected[pattern.format(maxpow=maxpow, pairs=pairs)] = verdict
    return expected


def gate_suite(stdout: str, exit_code: int, maxpow: int, samples: int) -> tuple[int, list[str]]:
    """Compare one suite run with the table.

    Returns ``(attempted, problems)``: ``attempted`` is the number of
    expected verdicts, and each problem names one wrong, missing or
    unexpected verdict, or a wrong aggregate line or exit code.
    """
    expected = expected_verdicts(maxpow, samples)
    lines = stdout.splitlines()
    problems = []
    seen = {}
    aggregate = None
    for line in lines:
        if line.startswith("AGGREGATE:"):
            aggregate = line
            continue
        token, _, rest = line.partition(" ")
        check_id = rest.split(" ", 1)[0]
        if check_id in seen:
            problems.append(f"duplicate {check_id}")
        seen[check_id] = token
    for check_id, verdict in expected.items():
        got = seen.get(check_id)
        if got is None:
            problems.append(f"missing {check_id}")
        elif got != verdict:
            problems.append(f"{check_id}: {got}, expected {verdict}")
    problems.extend(f"unexpected {cid}" for cid in seen.keys() - expected.keys())
    ids = list(seen)
    if ids != sorted(ids):
        problems.append("reports are not sorted by check id")
    any_fail = FAIL in expected.values()
    want_aggregate = f"AGGREGATE: {'fail' if any_fail else 'pass'} ({len(expected)} checks)"
    if aggregate != want_aggregate:
        problems.append(f"aggregate {aggregate!r}, expected {want_aggregate!r}")
    if exit_code != (1 if any_fail else 0):
        problems.append(f"exit code {exit_code}")
    return len(expected), problems
