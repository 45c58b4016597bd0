"""Matrix factorizations of polynomials and their morphisms.

A matrix factorization of a polynomial f is a pair of n x n matrices
(phi, psi) with phi*psi = psi*phi = f*I, checked exactly by the public
constructor.  The library never inverts a matrix symbolically: both factors
are always supplied.  Over the domain Q[x, y, ...] with f != 0, phi*psi =
f*I makes det(phi) nonzero, so psi*phi = f*I follows and validation is one
multiplication; psi*phi is formed only at f = 0.  Each product is compared
entry by entry with f*I without building f*I.

A morphism (phi1, psi1) -> (phi2, psi2) between factorizations of the same f
is a pair (alpha, beta) of n2 x n1 matrices making the two squares commute:

    alpha * phi1 = phi2 * beta        psi2 * alpha = beta * psi1

With f != 0 the first implies the second (multiply it by psi2 on the left and
psi1 on the right: f*(psi2*alpha - beta*psi1) = 0), so the psi-square is
checked only at f = 0.

A closed construction on values that are already valid is valid by
construction, so it wraps its result without re-proving it
(:func:`_make_factorization`, :func:`_make_morphism`): the factor swap, the
identity morphism, the composite ((alpha*alpha')*phi1 = alpha*phi2*beta' =
phi3*(beta*beta'), and likewise for psi) and the tensor products of
:mod:`mfcat.tensor_products`.  Every value a caller chooses goes through the
validating constructors.

Morphism equality is component-wise matrix equality; several of the negative
results checked by this library hinge on matrices that are row-permutation
equivalent without being equal, so no weaker comparison is offered.

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

import random

from .errors import (
    ComposabilityError,
    MfcatError,
    MfFileError,
    NotSquareError,
    PotentialMismatchError,
    ProductMismatchError,
    ShapeMismatchError,
    SizeGuardError,
    SizeMismatchError,
    SquareFailureError,
)
from .matrices import PolyMatrix, matrix_literal, parse_matrix
from .polynomials import MAX_EXPONENT, ONE, Polynomial, parse_polynomial, random_polynomial


def _first_mismatch(product: PolyMatrix, potential: Polynomial) -> tuple[int, int] | None:
    """Row-major coordinates of the first entry of ``product`` that differs
    from ``potential * I``, or None."""
    if product.is_identity():
        return None if potential.is_one() else (0, 0)
    matching, wrong = set(), []  # rows k with product[k, k] == potential; wrong entries
    for i, j, p in product.items():
        if i == j and p == potential:
            matching.add(i)
        else:
            wrong.append((i, j))
    if not potential.is_zero():  # a diagonal entry missing from the sparse product is zero
        wrong += ((k, k) for k in range(product.rows) if k not in matching)
    return min(wrong, default=None)


class MatrixFactorization:
    """A validated pair (phi, psi) with phi*psi = psi*phi = potential*I; psi*phi
    is formed only at potential 0, as phi*psi implies it otherwise."""

    __slots__ = ("potential", "phi", "psi", "size")

    def __init__(self, phi: PolyMatrix, psi: PolyMatrix, potential: Polynomial):
        if not (isinstance(phi, PolyMatrix) and isinstance(psi, PolyMatrix)
                and isinstance(potential, Polynomial)):
            raise TypeError("a factorization takes two PolyMatrix factors and a Polynomial "
                            "potential; Polynomial.constant makes one from a number")
        if phi.rows != phi.cols:
            raise NotSquareError(f"phi is {phi.rows}x{phi.cols}")
        if psi.rows != psi.cols:
            raise NotSquareError(f"psi is {psi.rows}x{psi.cols}")
        if phi.rows != psi.rows:
            raise SizeMismatchError(
                f"phi is {phi.rows}x{phi.cols} but psi is {psi.rows}x{psi.cols}"
            )
        mismatch = _first_mismatch(phi @ psi, potential)
        if mismatch is not None:
            raise ProductMismatchError("phi*psi", mismatch)
        if potential.is_zero() and (mismatch := _first_mismatch(psi @ phi, potential)) is not None:
            raise ProductMismatchError("psi*phi", mismatch)
        self.potential = potential
        self.phi = phi
        self.psi = psi
        self.size = phi.rows

    def syzygy(self) -> "MatrixFactorization":
        """Swap the two factors; an involution preserving potential and size."""
        return _make_factorization(self.psi, self.phi, self.potential)

    def identity_morphism(self) -> "MfMorphism":
        eye = PolyMatrix.identity(self.size)
        return _make_morphism(self, self, eye, eye)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, MatrixFactorization):
            return NotImplemented
        return (
            self.size == other.size
            and self.potential == other.potential
            and self.phi == other.phi
            and self.psi == other.psi
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"MatrixFactorization(size={self.size}, potential={self.potential})"
        )


class MfMorphism:
    """A validated morphism between two factorizations of the same potential;
    the psi-square is checked only at potential 0, as the phi-square implies it
    otherwise."""

    __slots__ = ("source", "target", "alpha", "beta")

    def __init__(
        self,
        source: MatrixFactorization,
        target: MatrixFactorization,
        alpha: PolyMatrix,
        beta: PolyMatrix,
    ):
        if not (isinstance(source, MatrixFactorization) and isinstance(target, MatrixFactorization)
                and isinstance(alpha, PolyMatrix) and isinstance(beta, PolyMatrix)):
            raise TypeError("a morphism takes two MatrixFactorization endpoints and two PolyMatrix "
                            "components; PolyMatrix.from_rows makes one from a list of rows")
        if source.potential != target.potential:
            raise PotentialMismatchError(
                f"source potential {source.potential} != target potential {target.potential}"
            )
        shape = (target.size, source.size)
        if (alpha.rows, alpha.cols) != shape or (beta.rows, beta.cols) != shape:
            raise ShapeMismatchError(
                f"morphism components must be {shape[0]}x{shape[1]}"
            )
        if alpha @ source.phi != target.phi @ beta:
            raise SquareFailureError("phi-square")
        if source.potential.is_zero() and target.psi @ alpha != beta @ source.psi:
            raise SquareFailureError("psi-square")
        self.source = source
        self.target = target
        self.alpha = alpha
        self.beta = beta

    def compose(self, inner: "MfMorphism") -> "MfMorphism":
        """self o inner (apply ``inner`` first)."""
        if inner.target != self.source:
            raise ComposabilityError("inner.target != outer.source")
        return _make_morphism(
            inner.source,
            self.target,
            self.alpha @ inner.alpha,
            self.beta @ inner.beta,
        )

    def is_identity(self) -> bool:
        """Both components are identity matrices."""
        return self.alpha.is_identity() and self.beta.is_identity()

    def is_nonzero(self) -> bool:
        return not (self.alpha.is_zero_matrix() and self.beta.is_zero_matrix())

    def __eq__(self, other: object) -> bool:
        # Component-wise matrix equality only; the stated endpoints do not
        # participate.  Two equal-matrix morphisms with different (equal-sized)
        # endpoints compare equal, which is what the axiom checks compare.
        if self is other:
            return True
        if not isinstance(other, MfMorphism):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"MfMorphism({self.source.size} -> {self.target.size}, "
            f"potential={self.source.potential})"
        )


def _make_factorization(
    phi: PolyMatrix, psi: PolyMatrix, potential: Polynomial
) -> MatrixFactorization:
    """Wrap, unchecked, square factors of one size already known to satisfy
    phi*psi = psi*phi = potential*I."""
    x = object.__new__(MatrixFactorization)
    x.potential = potential
    x.phi = phi
    x.psi = psi
    x.size = phi.rows
    return x


def _make_morphism(
    source: MatrixFactorization, target: MatrixFactorization, alpha: PolyMatrix, beta: PolyMatrix
) -> MfMorphism:
    """Wrap, unchecked, components already known to make both squares commute
    between two factorizations of one potential."""
    m = object.__new__(MfMorphism)
    m.source = source
    m.target = target
    m.alpha = alpha
    m.beta = beta
    return m


# ---------------------------------------------------------------------------
# sampling objects of MF(1)


def _elementary_step(rng: random.Random, n: int) -> tuple[PolyMatrix, PolyMatrix]:
    """A random elementary unimodular matrix together with its inverse."""
    kinds = ["transvection", "swap", "scale"] if n > 1 else ["scale"]
    kind = rng.choice(kinds)
    i = rng.randrange(n)
    eye = {(k, k): ONE for k in range(n)}
    if kind == "scale":
        # scale a row by -1 (the only rational units stable under inversion
        # without leaving integer matrices are +-1)
        scale = PolyMatrix(n, n, {**eye, (i, i): Polynomial.constant(-1)})
        return scale, scale
    j = rng.randrange(n)
    while j == i:
        j = rng.randrange(n)
    if kind == "swap":
        images = list(range(n))
        images[i], images[j] = j, i
        swap = PolyMatrix.permutation(images)
        return swap, swap
    p = random_polynomial(rng, max_degree=2, max_terms=2, allow_zero=False)
    return PolyMatrix(n, n, {**eye, (i, j): p}), PolyMatrix(n, n, {**eye, (i, j): -p})


def random_mf1(seed: int, size: int, num_elementary: int) -> MatrixFactorization:
    """A seeded random object (M, M^-1) of MF(1).

    M is a product of elementary unimodular matrices (row transvections with
    polynomial multipliers, row swaps, -1 scalings); the inverse is
    accumulated as the reversed product of elementary inverses, so the result
    always passes validation.
    """
    rng = random.Random(seed)
    m = PolyMatrix.identity(size)
    m_inv = PolyMatrix.identity(size)
    for _ in range(num_elementary):
        step, step_inv = _elementary_step(rng, size)
        m = step @ m
        m_inv = m_inv @ step_inv
    return MatrixFactorization(m, m_inv, ONE)


# ---------------------------------------------------------------------------
# factorization file format
#
#   # comment
#   potential = x^2 + y^2
#   phi = [[x, -y], [y, x]]
#   psi = [[x, y], [-y, x]]


def factorization_to_text(x: MatrixFactorization) -> str:
    """The file text of ``x``; refused if the reader could not read it back."""
    phi, psi = matrix_literal(x.phi), matrix_literal(x.psi)
    exponent = max(
        [x.potential.max_exponent()]
        + [p.max_exponent() for m in (x.phi, x.psi) for _, _, p in m.items()]
    )
    if exponent > MAX_EXPONENT:
        raise SizeGuardError(
            f"an exponent of {exponent} exceeds the .mf reader's limit "
            f"({MAX_EXPONENT})"
        )
    return f"potential = {x.potential}\nphi = {phi}\npsi = {psi}\n"


def factorization_from_text(text: str | bytes) -> MatrixFactorization:
    """Parse the line-oriented factorization format; validation included.
    Bytes must be UTF-8; the first invalid byte is reported at its line, before any other error."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = len((text[: exc.start].decode("utf-8") + "x").splitlines())
            raise MfFileError(f"invalid UTF-8 byte 0x{text[exc.start]:02x}", lineno) from None
    fields: dict[str, object] = {}
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        last_line = lineno
        if "=" not in line:
            raise MfFileError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("potential", "phi", "psi"):
            raise MfFileError(f"unknown key {key!r}", lineno)
        if key in fields:
            raise MfFileError(f"duplicate key {key!r}", lineno)
        try:
            parse = parse_polynomial if key == "potential" else parse_matrix
            value = parse(value.strip())
        except MfcatError as exc:
            raise MfFileError(str(exc), lineno) from exc
        if key != "potential":
            # Shape errors are reported at the line that causes them; the
            # products are checked by MatrixFactorization below.
            other = fields.get("psi" if key == "phi" else "phi")
            if value.rows != value.cols:
                raise MfFileError(
                    f"{key} is {value.rows}x{value.cols}, not square", lineno
                )
            if other is not None and other.rows != value.rows:
                raise MfFileError(
                    f"{key} is {value.rows}x{value.cols} but the other factor "
                    f"is {other.rows}x{other.cols}",
                    lineno,
                )
        fields[key] = value
    for key in ("potential", "phi", "psi"):
        if key not in fields:
            raise MfFileError(f"missing key {key!r}", max(last_line, 1))
    return MatrixFactorization(fields["phi"], fields["psi"], fields["potential"])
