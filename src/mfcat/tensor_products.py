"""Two tensor products of matrix factorizations.

For X = (phi, psi) of f at size n and X' = (phi', psi') of g at size m, both
constructions produce a factorization of size 2nm, but of different
potentials:

* additive (Yoshino) product, a factorization of f + g::

      ( [ phi (x) I_m    I_n (x) phi' ]   [ psi (x) I_m   -I_n (x) phi' ]
        [-I_n (x) psi'   psi (x) I_m  ] , [ I_n (x) psi'   phi (x) I_m  ] )

* multiplicative product, a factorization of f*g::

      ( (phi (x) phi') (+) (phi (x) phi') , (psi (x) psi') (+) (psi (x) psi') )

  Each doubled block I_2 (x) (a (x) b) is one call of the matrix layer's
  single Kronecker product, ``kronecker(a, b, 2)``: every entry product is
  computed once and stored at both block positions.

The multiplicative product also acts on morphisms, making it a bifunctor.
The tensor of two morphisms is built by one body,
:func:`mult_tensor_morph_pair`; whiskering by an object y is, as in any
monoidal category, pairing with the identity morphism of y.  This module only
builds values: the verdicts on them, such as the syzygy identity, come from
:mod:`mfcat.axiom_suites`.

Each construction here is valid whenever its operands are, by the
mixed-product rule (A (x) B)(C (x) D) = AC (x) BD applied blockwise, so it
wraps its result without forming a product.  For the multiplicative product
(phi (x) phi')(psi (x) psi') = f*I (x) g*I; for the additive one the diagonal
blocks give (f + g)*I and the off-diagonal blocks cancel; for a tensor of
morphisms each square is the Kronecker product of the operands' squares.  At
potential 0 this uses psi*phi = f*I too, which validation checked when each
operand was built.

Variable disjointness between the two factors is deliberately not enforced;
identifying variables (in particular for potential 1) is a supported use.
"""

from __future__ import annotations

from .factorizations import MatrixFactorization, MfMorphism, _make_factorization, _make_morphism
from .matrices import PolyMatrix, block2x2, kronecker


def yoshino_tensor(
    x: MatrixFactorization, y: MatrixFactorization
) -> MatrixFactorization:
    """The additive tensor product, a factorization of f + g."""
    eye_n = PolyMatrix.identity(x.size)
    eye_m = PolyMatrix.identity(y.size)
    phi_block = kronecker(x.phi, eye_m)
    psi_block = kronecker(x.psi, eye_m)
    first = block2x2(
        phi_block,
        kronecker(eye_n, y.phi),
        kronecker(eye_n, -y.psi),
        psi_block,
    )
    second = block2x2(
        psi_block,
        kronecker(eye_n, -y.phi),
        kronecker(eye_n, y.psi),
        phi_block,
    )
    return _make_factorization(first, second, x.potential + y.potential)


def mult_tensor(
    x: MatrixFactorization, y: MatrixFactorization
) -> MatrixFactorization:
    """The multiplicative tensor product, a factorization of f*g."""
    return _make_factorization(
        kronecker(x.phi, y.phi, 2),
        kronecker(x.psi, y.psi, 2),
        x.potential * y.potential,
    )


def mult_tensor_morph_left(z: MfMorphism, y: MatrixFactorization) -> MfMorphism:
    """Whisker a morphism on the right by an object: z (x) y = z (x) id_y."""
    return mult_tensor_morph_pair(z, y.identity_morphism())


def mult_tensor_morph_right(x: MatrixFactorization, z: MfMorphism) -> MfMorphism:
    """Whisker a morphism on the left by an object: x (x) z = id_x (x) z."""
    return mult_tensor_morph_pair(x.identity_morphism(), z)


def mult_tensor_morph_pair(zf: MfMorphism, zg: MfMorphism) -> MfMorphism:
    """The tensor product of two morphisms."""
    return _make_morphism(
        mult_tensor(zf.source, zg.source),
        mult_tensor(zf.target, zg.target),
        kronecker(zf.alpha, zg.alpha, 2),
        kronecker(zf.beta, zg.beta, 2),
    )
