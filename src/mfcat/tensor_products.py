"""Two tensor products of matrix factorizations.

For X = (phi, psi) of f at size n and X' = (phi', psi') of g at size m, both
constructions produce a factorization of size 2nm, but of different
potentials:

* additive (Yoshino) product, a factorization of f + g::

      ( [ phi (x) I_m    I_n (x) phi' ]   [ psi (x) I_m   -I_n (x) phi' ]
        [-I_n (x) psi'   psi (x) I_m  ] , [ I_n (x) psi'   phi (x) I_m  ] )

* multiplicative product, a factorization of f*g::

      ( (phi (x) phi') (+) (phi (x) phi') , (psi (x) psi') (+) (psi (x) psi') )

  Each doubled block I_2 (x) (a (x) b) is built in one pass, every entry
  product computed once and stored at both block positions.

The multiplicative product also acts on morphisms (one-sided whiskering and a
full pairing), making it a bifunctor; those three constructions are validated
on the nose here.  The syzygy swap distributes over the multiplicative
product as a literal identity, which :func:`check_syzygy_identity` verifies.

Variable disjointness between the two factors is deliberately not enforced;
identifying variables (in particular for potential 1) is a supported use.
"""

from __future__ import annotations

from .factorizations import MatrixFactorization, MfMorphism
from .matrices import PolyMatrix, _guard, _map_kronecker, block2x2, kronecker
from .reporting import FAIL, PASS, CheckReport


def _doubled_kronecker(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """I_2 (x) (a (x) b), i.e. (a (x) b) (+) (a (x) b), each product computed once."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    _guard(rows, cols)  # an oversized a (x) b is reported at its own size
    if a.is_identity() and b.is_identity():
        return PolyMatrix.identity(2 * rows)
    if a.is_sub_permutation01() and b.is_sub_permutation01():
        return _map_kronecker(a, b, 2)
    entries = {}
    for i, j, p in a.items():
        for k, l, q in b.items():
            r, c = i * b.rows + k, j * b.cols + l
            entries[(r, c)] = entries[(rows + r, cols + c)] = p * q
    return PolyMatrix(2 * rows, 2 * cols, entries)


def yoshino_tensor(
    x: MatrixFactorization, y: MatrixFactorization
) -> MatrixFactorization:
    """The additive tensor product, a validated factorization of f + g."""
    eye_n = PolyMatrix.identity(x.size)
    eye_m = PolyMatrix.identity(y.size)
    first = block2x2(
        kronecker(x.phi, eye_m),
        kronecker(eye_n, y.phi),
        kronecker(eye_n, -y.psi),
        kronecker(x.psi, eye_m),
    )
    second = block2x2(
        kronecker(x.psi, eye_m),
        kronecker(eye_n, -y.phi),
        kronecker(eye_n, y.psi),
        kronecker(x.phi, eye_m),
    )
    return MatrixFactorization(first, second, x.potential + y.potential)


def mult_tensor(
    x: MatrixFactorization, y: MatrixFactorization
) -> MatrixFactorization:
    """The multiplicative tensor product, a validated factorization of f*g."""
    return MatrixFactorization(
        _doubled_kronecker(x.phi, y.phi),
        _doubled_kronecker(x.psi, y.psi),
        x.potential * y.potential,
    )


def mult_tensor_morph_left(z: MfMorphism, y: MatrixFactorization) -> MfMorphism:
    """Whisker a morphism on the right by an object: z (x) y."""
    eye = PolyMatrix.identity(y.size)
    return MfMorphism(
        mult_tensor(z.source, y),
        mult_tensor(z.target, y),
        _doubled_kronecker(z.alpha, eye),
        _doubled_kronecker(z.beta, eye),
    )


def mult_tensor_morph_right(x: MatrixFactorization, z: MfMorphism) -> MfMorphism:
    """Whisker a morphism on the left by an object: x (x) z."""
    eye = PolyMatrix.identity(x.size)
    return MfMorphism(
        mult_tensor(x, z.source),
        mult_tensor(x, z.target),
        _doubled_kronecker(eye, z.alpha),
        _doubled_kronecker(eye, z.beta),
    )


def mult_tensor_morph_pair(zf: MfMorphism, zg: MfMorphism) -> MfMorphism:
    """The tensor product of two morphisms."""
    return MfMorphism(
        mult_tensor(zf.source, zg.source),
        mult_tensor(zf.target, zg.target),
        _doubled_kronecker(zf.alpha, zg.alpha),
        _doubled_kronecker(zf.beta, zg.beta),
    )


def check_syzygy_identity(
    x: MatrixFactorization, y: MatrixFactorization
) -> CheckReport:
    """Swap-then-tensor equals tensor-then-swap, as a literal identity."""
    lhs = mult_tensor(x, y).syzygy()
    rhs = mult_tensor(x.syzygy(), y.syzygy())
    equal = lhs == rhs
    return CheckReport(
        check_id="syzygy-identity",
        verdict=PASS if equal else FAIL,
        detail=(
            "syzygy(X (x) Y) == syzygy(X) (x) syzygy(Y)"
            if equal
            else "syzygy identity violated"
        ),
    )
