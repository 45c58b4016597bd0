"""Tensor powers of the trivial factorization and their canonical maps.

Inside the factorizations of the constant 1 sits the full subcategory T whose
objects are the multiplicative tensor powers of e = ([1], [1]); the k-th power
is the identity pair (I_{2^(k-1)}, I_{2^(k-1)}).  Its morphisms are pairs
(d, d) where d is a (1,0)-matrix with at most one 1 per row and per column,
which makes T closed under composition and one-step connected: between any
two objects there is a canonical nonzero morphism (:func:`connecting_morphism`).

The canonical natural maps built here, for any object a of size n (not just
e-powers, since the ambient category uses them too):

* ``gamma(a)``:  a -> e (x) a   with both matrices (I_n, 0)^t,
* ``lambda_(a)``: e (x) a -> a  with both matrices (I_n, 0),
* ``rho(a)``:    a (x) e -> a   equal to ``lambda_(a)`` (the two tensor
  products with e coincide literally),
* ``l_iso(a)``:  e (x) a -> a (x) e, the identity pair, its own inverse.

``lambda_(a) o gamma(a)`` is the identity, the reverse composite is not:
the unitors are retractions, not isomorphisms.  These maps, the connecting
morphisms and the associator are all pairs (d, d) of partial identities (ones
on the leading diagonal), built by one constructor as d = u (x) I from public
matrix algebra, so products and tensors of T-morphisms stay index arithmetic
in the matrix layer; all share one e, validated once.
"""

from __future__ import annotations

from .errors import AssociativityMismatchError, MfcatError, NotEquivalentError, SizeGuardError
from .factorizations import MatrixFactorization, MfMorphism
from .matrices import MAX_SIDE, PolyMatrix, kronecker
from .polynomials import ONE
from .tensor_products import mult_tensor


_E = MatrixFactorization(PolyMatrix.identity(1), PolyMatrix.identity(1), ONE)


def e_object() -> MatrixFactorization:
    """The trivial size-1 factorization e = ([1], [1]) of potential 1."""
    return _E


def e_power(n: int) -> MatrixFactorization:
    """The n-th multiplicative tensor power of e: (I_{2^(n-1)}, I_{2^(n-1)}).

    Raises ``MfcatError`` for n < 1, ``SizeGuardError`` for 2^(n-1) > ``MAX_SIDE``."""
    if n < 1:
        raise MfcatError("e_power requires n >= 1")
    # Checked on n itself (n > bit_length means 2^(n-1) > MAX_SIDE): for huge
    # n the side is too large to build, let alone to format in a message.
    if n > MAX_SIDE.bit_length():
        raise SizeGuardError(
            f"e_power({n}) has side 2^{n - 1}, beyond the size guard "
            f"({MAX_SIDE} per side)"
        )
    eye = PolyMatrix.identity(1 << (n - 1))
    return MatrixFactorization(eye, eye, ONE)


def is_e_power(x: MatrixFactorization) -> bool:
    return (
        x.potential == ONE
        and x.size & (x.size - 1) == 0
        and x.phi.is_identity()
        and x.psi.is_identity()
    )


def is_t_morphism(m: MfMorphism) -> bool:
    """Morphism of T: e-power endpoints, equal components, sub-permutation."""
    return (
        is_e_power(m.source)
        and is_e_power(m.target)
        and m.alpha == m.beta
        and m.alpha.is_sub_permutation01()
    )


def _canonical_pair(source: MatrixFactorization, target: MatrixFactorization) -> MfMorphism:
    """(d, d), d of shape target.size x source.size: (I, 0)^t = (1, 0)^t (x) I,
    (I, 0) = (1, 0) (x) I or I = [1] (x) I, i.e. u (x) I for the first unit
    vector u.  In every caller one side divides the other (unitors: n and 2n;
    connecting morphisms: powers of 2; ``l_iso``, the associator: equal);
    any other pair gets a d of the wrong shape, which ``MfMorphism`` refuses."""
    rows, cols = target.size, source.size
    unit = PolyMatrix(max(rows // cols, 1), max(cols // rows, 1), {(0, 0): ONE})
    delta = kronecker(unit, PolyMatrix.identity(min(rows, cols)))
    return MfMorphism(source, target, delta, delta)


def connecting_morphism(m: int, p: int) -> MfMorphism:
    """The canonical nonzero T-morphism from the m-th to the p-th power of e.

    (I, 0) when m > p, the vertical stack (I, 0)^t when m < p, and the
    identity permutation when m = p (any permutation works; the identity is
    the deterministic choice).
    """
    return _canonical_pair(e_power(m), e_power(p))


def gamma(a: MatrixFactorization) -> MfMorphism:
    """The canonical map a -> e (x) a, both components (I, 0)^t."""
    return _canonical_pair(a, mult_tensor(_E, a))


def lambda_(a: MatrixFactorization) -> MfMorphism:
    """The left unitor e (x) a -> a, both components (I, 0); a retraction."""
    return _canonical_pair(mult_tensor(_E, a), a)


def rho(a: MatrixFactorization) -> MfMorphism:
    """The right unitor a (x) e -> a; the same value as ``lambda_(a)``."""
    return _canonical_pair(mult_tensor(a, _E), a)


def l_iso(a: MatrixFactorization) -> MfMorphism:
    """The identity-pair isomorphism e (x) a -> a (x) e (equal objects)."""
    return _canonical_pair(mult_tensor(_E, a), mult_tensor(a, _E))


def associator(
    a: MatrixFactorization, b: MatrixFactorization, c: MatrixFactorization
) -> MfMorphism:
    """The identity-pair morphism (a (x) b) (x) c -> a (x) (b (x) c).

    The two bracketings must be literally equal, which holds whenever the
    leftmost factor's matrices commute with I_2 under the Kronecker product
    (in particular for all e-powers and size-1 objects).  Otherwise
    :class:`AssociativityMismatchError` is raised; callers comparing paths
    whose bracketings differ work at the matrix level instead, where every
    associator component is an identity matrix.
    """
    left = mult_tensor(mult_tensor(a, b), c)
    right = mult_tensor(a, mult_tensor(b, c))
    if left != right:
        raise AssociativityMismatchError(
            "the two bracketings are not literally equal "
            f"(leftmost factor of size {a.size} is not Kronecker-central)"
        )
    return _canonical_pair(left, right)


def find_permutation_witness(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """A permutation P with P @ a == b, for sub-permutation (1,0)-matrices.

    Columns are matched by their unique nonzero row, leftover (zero) rows in
    increasing index order; raises :class:`NotEquivalentError` when no row
    bijection exists.
    """
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise NotEquivalentError(
            f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
        )
    if not a.is_sub_permutation01() or not b.is_sub_permutation01():
        raise NotEquivalentError("inputs must be (1,0) sub-permutation matrices")
    row_of_col_a = {j: i for i, j, _ in a.items()}
    row_of_col_b = {j: i for i, j, _ in b.items()}
    if row_of_col_a.keys() != row_of_col_b.keys():
        raise NotEquivalentError(
            "column supports differ; no row permutation can match them"
        )
    images: dict[int, int] = {}
    for col, row_a in row_of_col_a.items():
        images[row_a] = row_of_col_b[col]
    leftover_src = sorted(set(range(a.rows)) - images.keys())
    leftover_tgt = sorted(set(range(a.rows)) - set(images.values()))
    for src, tgt in zip(leftover_src, leftover_tgt):
        images[src] = tgt
    witness = PolyMatrix.permutation([images[k] for k in range(a.rows)])
    if witness @ a != b:  # guaranteed by construction
        raise NotEquivalentError("the constructed witness does not carry a onto b")
    return witness
