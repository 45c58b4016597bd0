"""Independent exact arithmetic for checking `.mf` outputs of the CLI.

Nothing here calls mfcat arithmetic.  Polynomials are plain dicts from a
monomial (a tuple of ``(variable, exponent)`` pairs sorted by variable name)
to a nonzero ``Fraction``; matrices are lists of rows.  mfcat is used only to
*parse* output text (``parse_polynomial``/``parse_matrix``) and to print it
again for the round-trip check; every value is then read through the public
``Polynomial.terms`` mapping and checked with the code in this file.
"""

from __future__ import annotations

from fractions import Fraction

# -- polynomials ------------------------------------------------------------


def padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for mono, c in q.items():
        total = out.get(mono, 0) + c
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
    return out


def pneg(p: dict) -> dict:
    return {mono: -c for mono, c in p.items()}


def _mono_mul(a: tuple, b: tuple) -> tuple:
    exps = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            mono = _mono_mul(ma, mb)
            total = out.get(mono, 0) + ca * cb
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
    return out


def pconst(value) -> dict:
    return {(): Fraction(value)} if value else {}


def peval(p: dict, point: dict) -> Fraction:
    total = Fraction(0)
    for mono, c in p.items():
        term = Fraction(c)
        for var, e in mono:
            term *= point[var] ** e
        total += term
    return total


def ptext(p: dict) -> str:
    """Render in the mfcat polynomial grammar (any term order re-parses)."""
    if not p:
        return "0"
    parts = []
    for index, (mono, c) in enumerate(sorted(p.items())):
        factors = "*".join(f"{v}^{e}" if e > 1 else v for v, e in mono)
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = factors
        else:
            body = f"{mag}*{factors}"
        if index == 0:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(parts)


def from_terms(terms) -> dict:
    """Read an mfcat ``Polynomial.terms`` mapping into this file's form."""
    out: dict = {}
    for mono, c in terms.items():
        key = tuple(sorted((var, e) for var, e in mono if e))
        out = padd(out, {key: Fraction(c)})
    return out


# -- matrices ---------------------------------------------------------------


def mtext(m: list) -> str:
    return "[" + ", ".join("[" + ", ".join(ptext(p) for p in row) + "]" for row in m) + "]"


def mmul(a: list, b: list) -> list:
    return [[_dot(row, b, j) for j in range(len(b[0]))] for row in a]


def _dot(row: list, b: list, j: int) -> dict:
    total: dict = {}
    for k, p in enumerate(row):
        if p and b[k][j]:
            total = padd(total, pmul(p, b[k][j]))
    return total


def meval(m: list, point: dict) -> list:
    return [[peval(p, point) for p in row] for row in m]


def dense_mul(a: list, b: list) -> list:
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def dense_kron(a: list, b: list) -> list:
    n, m = len(b), len(b[0])
    return [
        [a[i // n][j // m] * b[i % n][j % m] for j in range(len(a[0]) * m)]
        for i in range(len(a) * n)
    ]


def dense_blocks(tl: list, tr: list, bl: list, br: list) -> list:
    return [r1 + r2 for r1, r2 in zip(tl, tr)] + [r1 + r2 for r1, r2 in zip(bl, br)]


def dense_eye(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def dense_zero(rows: int, cols: int) -> list:
    return [[Fraction(0)] * cols for _ in range(rows)]


def dense_scale(a: list, c) -> list:
    return [[c * v for v in row] for row in a]


def dense_direct_sum(a: list, b: list) -> list:
    return dense_blocks(a, dense_zero(len(a), len(b[0])), dense_zero(len(b), len(a[0])), b)


# -- factorizations ---------------------------------------------------------


class Mf:
    """A factorization held in this file's dict form: phi, psi, potential."""

    __slots__ = ("phi", "psi", "potential")

    def __init__(self, phi: list, psi: list, potential: dict):
        self.phi, self.psi, self.potential = phi, psi, potential

    @property
    def size(self) -> int:
        return len(self.phi)

    def text(self) -> str:
        return (
            f"potential = {ptext(self.potential)}\n"
            f"phi = {mtext(self.phi)}\n"
            f"psi = {mtext(self.psi)}\n"
        )

    def same(self, other: "Mf") -> bool:
        return (self.phi, self.psi, self.potential) == (other.phi, other.psi, other.potential)


def expected_yoshino(x: Mf, y: Mf, point: dict) -> tuple[list, list]:
    """Both Yoshino factors of x and y evaluated at ``point``."""
    phi, psi = meval(x.phi, point), meval(x.psi, point)
    phi2, psi2 = meval(y.phi, point), meval(y.psi, point)
    eye_n, eye_m = dense_eye(x.size), dense_eye(y.size)
    first = dense_blocks(
        dense_kron(phi, eye_m),
        dense_kron(eye_n, phi2),
        dense_scale(dense_kron(eye_n, psi2), -1),
        dense_kron(psi, eye_m),
    )
    second = dense_blocks(
        dense_kron(psi, eye_m),
        dense_scale(dense_kron(eye_n, phi2), -1),
        dense_kron(eye_n, psi2),
        dense_kron(phi, eye_m),
    )
    return first, second


def expected_mult(x: Mf, y: Mf, point: dict) -> tuple[list, list]:
    """Both multiplicative-tensor factors of x and y evaluated at ``point``."""
    k_phi = dense_kron(meval(x.phi, point), meval(y.phi, point))
    k_psi = dense_kron(meval(x.psi, point), meval(y.psi, point))
    return dense_direct_sum(k_phi, k_phi), dense_direct_sum(k_psi, k_psi)


# -- reading CLI output -----------------------------------------------------


class OracleError(Exception):
    """An output that the independent check rejects."""


def _fields(text: str) -> dict:
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in ("potential", "phi", "psi") or key in fields:
            raise OracleError(f"bad line {raw!r}")
        fields[key] = value.strip()
    if len(fields) != 3:
        raise OracleError(f"expected potential, phi and psi; got {sorted(fields)}")
    return fields


def parse_mf_text(program, text: str) -> Mf:
    """Split the ``key = value`` lines and parse each value with mfcat.

    Validation is deliberately *not* mfcat's: the result is only parsed.
    """
    fields = _fields(text)
    try:
        potential = from_terms(program.polynomials.parse_polynomial(fields["potential"]).terms)
        phi = _read_matrix(program, fields["phi"])
        psi = _read_matrix(program, fields["psi"])
    except program.errors.MfcatError as exc:
        raise OracleError(f"unparseable output: {exc}") from exc
    return Mf(phi, psi, potential)


def _read_matrix(program, text: str) -> list:
    matrix = program.matrices.parse_matrix(text)
    return [[from_terms(p.terms) for p in row] for row in matrix.to_rows()]


def render_with_program(program, text: str) -> str:
    """Parse with mfcat and print again with mfcat's printers."""
    fields = _fields(text)
    poly = program.polynomials.parse_polynomial(fields["potential"])
    phi = program.matrices.parse_matrix(fields["phi"])
    psi = program.matrices.parse_matrix(fields["psi"])
    lit = program.matrices.matrix_literal
    return f"potential = {poly}\nphi = {lit(phi)}\npsi = {lit(psi)}\n"


def check_output(program, text: str, expected_potential: dict, size: int, points: list,
                 expected_factors=None) -> Mf:
    """Check one `.mf` output; raise :class:`OracleError` on the first defect.

    * parse -> print -> parse is a fixed point;
    * the potential equals ``expected_potential`` exactly, the size ``size``;
    * at each integer point, phi*psi = psi*phi = f(pt)*I by dense products;
    * if given, ``expected_factors(point)`` returns the two factors the
      construction must produce, compared entry by entry at that point.
    """
    mf = parse_mf_text(program, text)
    try:
        printed = render_with_program(program, text)
        again = parse_mf_text(program, printed)
        fixed = mf.same(again) and render_with_program(program, printed) == printed
    except program.errors.MfcatError as exc:
        raise OracleError(f"printed output does not parse: {exc}") from exc
    if not fixed:
        raise OracleError("parse -> print -> parse is not a fixed point")
    if mf.potential != expected_potential:
        raise OracleError(
            f"potential {ptext(mf.potential)} != expected {ptext(expected_potential)}"
        )
    n = mf.size
    if n != size:
        raise OracleError(f"size {n} != expected {size}")
    if any(len(row) != n for row in mf.phi + mf.psi) or len(mf.psi) != n:
        raise OracleError("factors are not square of equal size")
    for point in points:
        phi, psi = meval(mf.phi, point), meval(mf.psi, point)
        f_eye = dense_scale(dense_eye(n), peval(mf.potential, point))
        if dense_mul(phi, psi) != f_eye or dense_mul(psi, phi) != f_eye:
            raise OracleError(f"phi*psi != f*I at {point}")
        if expected_factors is not None and (phi, psi) != expected_factors(point):
            raise OracleError(f"factors differ from the construction at {point}")
    return mf
