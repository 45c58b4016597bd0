"""Shared generators and independent oracles for the test suite.

The oracles here recompute results by definition expansion (dense loops over
entries, term-by-term convolution) so that the library's sparse fast paths
are checked against something that does not share their code.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mfcat.factorizations import MatrixFactorization, MfMorphism
from mfcat.matrices import PolyMatrix
from mfcat.polynomials import ONE, Polynomial, random_polynomial
from mfcat.t_subcategory import e_power


# ---------------------------------------------------------------------------
# independent oracles


def naive_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    # term-by-term convolution on raw exponent dicts
    out: dict = {}
    for mono_p, coeff_p in p.terms.items():
        for mono_q, coeff_q in q.terms.items():
            exps = dict(mono_p)
            for var, e in mono_q:
                exps[var] = exps.get(var, 0) + e
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, Fraction(0)) + coeff_p * coeff_q
    total = Polynomial.zero()
    for key, coeff in out.items():
        total = total + Polynomial({key: coeff})
    return total


def naive_mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            total = Polynomial.zero()
            for k in range(a.cols):
                total = total + naive_mul(a.entry(i, k), b.entry(k, j))
            row.append(total)
        rows.append(row)
    return PolyMatrix.from_rows(rows)


def naive_kronecker(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    rows = []
    for i in range(a.rows * b.rows):
        row = []
        for j in range(a.cols * b.cols):
            row.append(naive_mul(a.entry(i // b.rows, j // b.cols), b.entry(i % b.rows, j % b.cols)))
        rows.append(row)
    return PolyMatrix.from_rows(rows)


def naive_doubled_kronecker(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """I_2 (x) (a (x) b) densely: a component of the tensor of two morphisms."""
    return naive_kronecker(PolyMatrix.identity(2), naive_kronecker(a, b))


def dense_leading_diagonal(rows: int, cols: int) -> PolyMatrix:
    """The rows x cols 0/1 matrix with ones at (k, k) for k < min(rows, cols),
    from dense rows."""
    return PolyMatrix.from_rows([[int(i == j) for j in range(cols)] for i in range(rows)])


def dense_hstack(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """[a, b] from the dense rows of both blocks."""
    assert a.rows == b.rows
    return PolyMatrix.from_rows([ra + rb for ra, rb in zip(a.to_rows(), b.to_rows())])


def dense_vstack(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """[[a], [b]] from the dense rows of both blocks."""
    assert a.cols == b.cols
    return PolyMatrix.from_rows(a.to_rows() + b.to_rows())


def dense_block2x2(tl: PolyMatrix, tr: PolyMatrix, bl: PolyMatrix, br: PolyMatrix) -> PolyMatrix:
    return dense_vstack(dense_hstack(tl, tr), dense_hstack(bl, br))


# ---------------------------------------------------------------------------
# random generators


def random_matrix(rng: random.Random, rows: int, cols: int, max_degree=1) -> PolyMatrix:
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.7:
                p = random_polynomial(rng, max_degree=max_degree, max_terms=2)
                if not p.is_zero():
                    entries[(i, j)] = p
    return PolyMatrix(rows, cols, entries)


def random_sub_permutation(rng: random.Random, rows: int, cols: int) -> PolyMatrix:
    k = rng.randint(0, min(rows, cols))
    chosen_rows = rng.sample(range(rows), k)
    chosen_cols = rng.sample(range(cols), k)
    return PolyMatrix(rows, cols, {(r, c): ONE for r, c in zip(chosen_rows, chosen_cols)})


def random_t_morphism(rng: random.Random, max_pow: int = 4) -> MfMorphism:
    m = rng.randint(1, max_pow)
    p = rng.randint(1, max_pow)
    delta = random_sub_permutation(rng, 1 << (p - 1), 1 << (m - 1))
    return MfMorphism(e_power(m), e_power(p), delta, delta)


def _constant_unimodular(rng: random.Random, n: int, steps: int = 3):
    """A random integer unimodular matrix and its inverse (constant entries)."""
    m = PolyMatrix.identity(n)
    m_inv = PolyMatrix.identity(n)
    for _ in range(steps):
        if n == 1:
            break
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = Polynomial.constant(rng.choice([-2, -1, 1, 2]))
        eye = {(k, k): ONE for k in range(n)}
        fwd = dict(eye)
        fwd[(i, j)] = c
        back = dict(eye)
        back[(i, j)] = -c
        m = PolyMatrix(n, n, fwd) @ m
        m_inv = m_inv @ PolyMatrix(n, n, back)
    return m, m_inv


def random_valid_mf(
    rng: random.Random, size: int, asymmetric: bool = False
) -> MatrixFactorization:
    """A random factorization of a random product potential u*v.

    Built as a divisor diagonal (each slot multiplies to u*v) conjugated by a
    constant unimodular matrix, so entries stay within degree 2 and at most
    three variables.  With ``asymmetric=True`` the factors u and v live in
    different variables and at least one slot is swapped, forcing phi != psi.
    """
    if asymmetric:
        u = Polynomial.variable("x") + Polynomial.constant(rng.randint(1, 3))
        v = Polynomial.variable("y") + Polynomial.constant(rng.randint(1, 3))
    else:
        u = random_polynomial(rng, max_degree=1, max_terms=2, allow_zero=False)
        v = random_polynomial(rng, max_degree=1, max_terms=2, allow_zero=False)
    f = u * v
    slots = []
    for index in range(size):
        if asymmetric and index == 0:
            slots.append((u, v))
        elif asymmetric and index == 1:
            slots.append((v, u))
        else:
            slots.append(rng.choice([(u, v), (v, u), (f, ONE), (ONE, f)]))
    phi = PolyMatrix(size, size, {(i, i): slots[i][0] for i in range(size)})
    psi = PolyMatrix(size, size, {(i, i): slots[i][1] for i in range(size)})
    t, t_inv = _constant_unimodular(rng, size)
    return MatrixFactorization(t @ phi @ t_inv, t @ psi @ t_inv, f)


def random_mf1_morphism(
    rng: random.Random, src: MatrixFactorization, tgt: MatrixFactorization
) -> MfMorphism:
    """A random valid morphism in MF(1): beta is determined by alpha."""
    alpha = random_matrix(rng, tgt.size, src.size)
    beta = tgt.psi @ alpha @ src.phi
    return MfMorphism(src, tgt, alpha, beta)
