"""Executable verdicts for the coherence diagrams, axioms and counterexamples.

The layers below (polynomials up to the T-subcategory) only build values;
every verdict of the library, the syzygy identity's included, is given here.

Positive checks assert exact matrix equalities and report ``pass``.  Checks
that encode known negative results (the failing triangle and Ax.4 away from
e, the failing Ax.2 and Ax.3, the two counterexamples) report the
distinct verdict ``expected-fail-confirmed`` so that a regression which makes
a counterexample succeed cannot hide inside a green suite.

Associator and swap edges are identity matrix pairs by construction, so the
checks neither build nor compare them, and no check composes a morphism with
one.  What the pentagon and semi-unit diagram (1) compute is the set of
bracketed tensor objects, each a validated factorization, and whether they
coincide literally (always the case for e-powers and for a size-1 leftmost
factor); when they do not, the report says the paths agree only at the matrix
level.  Equal vertices settle the pentagon: by Kronecker cancellation
(X (x) D == Y (x) D with D nonzero gives X == Y) every edge is then an
identity morphism between equal objects.  The remaining checks compare the
non-identity maps (unitors, whiskerings, permutation witnesses) exactly and
test endomorphisms with ``MfMorphism.is_identity()``.  A sweep builds each
e-power and each object's unitors once (:func:`_unitors`) and hands the
per-pair checks the unitors they test; a pentagon sweep passes when all of
its quadruples have literally equal vertices.  Diagrams (2) and (3) and the
mf1 counterexample share one gamma-rearrangement body
(:func:`_semiunit_rearrangement`): it builds gamma(a (x) b), finds the
permutation witness P and validates (P, P) once, and the counterexample
decides from that validation.  Every verdict decided by a comparison
follows one rule, :func:`_report`: the predicted verdict when the check
held, FAIL with a failure detail otherwise; a report over many instances
held exactly when all of its instances held.

Every check is a pure function of its inputs; reports are returned in
deterministic order.
"""

from __future__ import annotations

import itertools
import random

from .errors import MfcatError, SizeGuardError
from .factorizations import MatrixFactorization, MfMorphism, random_mf1
from .matrices import MAX_SIDE, PolyMatrix
from .polynomials import ONE, random_polynomial
from .reporting import FAIL, PASS, XFAIL_OK, CheckReport
from .t_subcategory import (
    e_object,
    e_power,
    find_permutation_witness,
    gamma,
    is_e_power,
    lambda_,
    rho,
)
from .tensor_products import (
    mult_tensor,
    mult_tensor_morph_left,
    mult_tensor_morph_right,
)

__all__ = [
    "check_pentagon",
    "check_semiunit_diagram1",
    "check_semiunit_diagram2",
    "check_semiunit_diagram3",
    "check_syzygy_identity",
    "check_triangle",
    "check_right_monoidal_axioms",
    "check_right_pseudo_monoidal",
    "counterexample_e_not_pseudo_idempotent",
    "counterexample_mf1_not_semiunital",
    "suite_all",
]


# Appended to a coherence detail when the bracketed objects are not literally
# equal: every edge is still an identity matrix pair of the common size, but
# not a morphism between equal objects, so the paths agree as matrices only.
_MATRIX_LEVEL = " (bracketings differ; compared at matrix level)"


def _literal_detail(detail: str, vertices: list[MatrixFactorization]) -> str:
    """``detail``, marked matrix-level unless all vertices are literally equal."""
    return detail + ("" if all(v == vertices[0] for v in vertices[1:]) else _MATRIX_LEVEL)


def _report(
    check_id: str, held: bool, detail: str, verdict: str, fail_detail: str,
    witnesses: tuple[tuple[str, PolyMatrix], ...] = (),
) -> CheckReport:
    """``verdict`` with ``detail`` when the check held, FAIL with
    ``fail_detail`` otherwise."""
    if held:
        return CheckReport(check_id, verdict, detail, witnesses)
    return CheckReport(check_id, FAIL, fail_detail, witnesses)


def _all_held(
    check_id: str, held: int, total: int, detail: str, verdict: str = PASS,
    fail_detail: str | None = None,
) -> CheckReport:
    """:func:`_report` on all ``total`` instances having held; ``detail`` also
    serves a FAIL unless ``fail_detail`` is given, and both may name ``{held}``
    and ``{total}``."""
    fail_detail = (fail_detail or detail).format(held=held, total=total)
    detail = detail.format(held=held, total=total)
    return _report(check_id, held == total, detail, verdict, fail_detail)


def _label(x: MatrixFactorization) -> str:
    if is_e_power(x):
        return f"e^{x.size.bit_length()}"
    return f"mf1(size={x.size})"


# ---------------------------------------------------------------------------
# pentagon


def check_pentagon(
    a: MatrixFactorization,
    b: MatrixFactorization,
    c: MatrixFactorization,
    d: MatrixFactorization,
) -> CheckReport:
    """Both composite paths around the associativity pentagon agree.

    Every edge of the pentagon is an identity pair, so both paths are the
    identity and the verdict is PASS.  What is computed is the five
    bracketings of a (x) b (x) c (x) d as validated objects and whether they
    are literally equal.  When they are, so are the bracketings behind each
    edge: X (x) D == Y (x) D with D nonzero gives X == Y (Kronecker
    cancellation), and likewise on the left, so ((ab)c)d == (a(bc))d yields
    (ab)c == a(bc) and a((bc)d) == a(b(cd)) yields (bc)d == b(cd).  Each edge
    is then an identity morphism between equal objects and the paths are
    equal without being composed.  When the vertices differ, the detail says
    that the paths agree only at the matrix level.

    The cancellation needs nonzero factors.  A quadruple with a zero-matrix
    factor (possible only for potential 0) can have equal vertices and
    unequal inner bracketings; it is reported PASS like any other, where
    composing validated associators would raise
    :class:`~mfcat.errors.AssociativityMismatchError`.
    """
    check_id = f"pentagon[{_label(a)},{_label(b)},{_label(c)},{_label(d)}]"
    ab = mult_tensor(a, b)
    bc = mult_tensor(b, c)
    cd = mult_tensor(c, d)
    vertices = [
        mult_tensor(a, mult_tensor(b, cd)),
        mult_tensor(a, mult_tensor(bc, d)),
        mult_tensor(ab, cd),
        mult_tensor(mult_tensor(a, bc), d),
        mult_tensor(mult_tensor(ab, c), d),
    ]
    detail = f"size {vertices[0].size}; edges are identity pairs; paths equal"
    return CheckReport(check_id, PASS, _literal_detail(detail, vertices))


def _pentagon_sweep(powers: list[MatrixFactorization]) -> tuple[int, int]:
    """(quadruples with literally equal vertices, quadruples checked)."""
    details = [check_pentagon(*q).detail for q in itertools.product(powers, repeat=4)]
    return sum(not d.endswith(_MATRIX_LEVEL) for d in details), len(details)


# The largest maxpow whose pentagon vertices, of side 8 * 16^(maxpow-1), fit MAX_SIDE.
_MAX_MAXPOW = 1 + (MAX_SIDE.bit_length() - 4) // 4


def _e_powers(maxpow: int) -> list[MatrixFactorization]:
    if maxpow < 1:
        raise MfcatError("maxpow must be at least 1")
    if maxpow > _MAX_MAXPOW:
        raise SizeGuardError(
            f"maxpow {maxpow} exceeds the size guard (largest supported is {_MAX_MAXPOW})"
        )
    return [e_power(k) for k in range(1, maxpow + 1)]


def _unitors(objects: list[MatrixFactorization]) -> list[tuple]:
    """(x, gamma(x), lambda_(x), rho(x)) for each object, each map built once."""
    return [(x, gamma(x), lambda_(x), rho(x)) for x in objects]


# ---------------------------------------------------------------------------
# the three semi-unit diagrams


def check_semiunit_diagram1(
    a: MatrixFactorization, b: MatrixFactorization
) -> CheckReport:
    """The hexagon relating the left/right swap l to the associator.

    Top path: (e(x)a)(x)b -> e(x)(a(x)b) -> (a(x)b)(x)e -> a(x)(b(x)e);
    bottom path: (e(x)a)(x)b -> (a(x)e)(x)b -> a(x)(e(x)b) -> a(x)(b(x)e).
    Every edge, the whiskered swaps l_a (x) b and a (x) l_b included, is the
    identity pair of the full size, so both paths are the identity and the
    verdict is PASS.  What is computed is the six vertices as validated
    objects and whether they are literally equal; when they are not, the
    detail says that the paths agree only at the matrix level.
    """
    check_id = f"semiunit-diagram1[{_label(a)},{_label(b)}]"
    e = e_object()
    objects = [
        mult_tensor(mult_tensor(e, a), b),
        mult_tensor(e, ab := mult_tensor(a, b)),
        mult_tensor(ab, e),
        mult_tensor(mult_tensor(a, e), b),
        mult_tensor(a, mult_tensor(e, b)),
        mult_tensor(a, mult_tensor(b, e)),
    ]
    detail = f"six edges all identity pairs of size {objects[0].size}; paths equal"
    return CheckReport(check_id, PASS, _literal_detail(detail, objects))


def _semiunit_rearrangement(check_id: str, top: MfMorphism) -> tuple[CheckReport, bool]:
    """The body of diagrams (2) and (3) and the mf1 counterexample: the report,
    and whether (P, P) failed validation.

    A permutation pair (P, P) must carry ``top``, which leaves a (x) b, onto
    the direct edge gamma(a (x) b): P exists and is a permutation matrix,
    (P, P) validates, and (P, P) o top == direct exactly.  The inverse needs
    no computation: P^t inverts P, and (P^t, P^t) is a morphism whenever
    (P, P) is (multiply its two squares by P^t on both sides).
    """
    direct = gamma(top.source)
    try:
        witness = find_permutation_witness(top.alpha, direct.alpha)
    except MfcatError as exc:
        return CheckReport(check_id, FAIL, f"no permutation witness: {exc}"), False
    witnesses = (("P", witness),)
    try:
        forward = MfMorphism(top.target, direct.target, witness, witness)
    except MfcatError as exc:
        return CheckReport(check_id, FAIL, f"witness pair is not a morphism: {exc}", witnesses), True
    return _report(
        check_id, witness.is_permutation_matrix() and forward.compose(top) == direct,
        f"witness P ({witness.rows}x{witness.cols}) with P*P^t = I; "
        "(P,P) o top edge == direct edge",
        PASS, "rearrangement failed", witnesses,
    ), False


def check_semiunit_diagram2(gamma_a: MfMorphism, b: MatrixFactorization) -> CheckReport:
    """gamma(a) (x) b rearranges onto gamma(a (x) b) through an isomorphism,
    for a the source of ``gamma_a``."""
    return _semiunit_rearrangement(
        f"semiunit-diagram2[{_label(gamma_a.source)},{_label(b)}]",
        mult_tensor_morph_left(gamma_a, b),
    )[0]


def check_semiunit_diagram3(a: MatrixFactorization, gamma_b: MfMorphism) -> CheckReport:
    """a (x) gamma(b) rearranges onto gamma(a (x) b) through an isomorphism,
    for b the source of ``gamma_b``."""
    return _semiunit_rearrangement(
        f"semiunit-diagram3[{_label(a)},{_label(gamma_b.source)}]",
        mult_tensor_morph_right(a, gamma_b),
    )[0]


# ---------------------------------------------------------------------------
# triangle


def check_triangle(rho_a: MfMorphism, lambda_b: MfMorphism) -> CheckReport:
    """rho(a) (x) b composed with the associator versus a (x) lambda(b), for
    a the target of ``rho_a`` and b that of ``lambda_b``.

    Expected to commute exactly when a has size 1; for larger a the two sides
    are different matrices, equal up to a permutation of columns, which is
    recorded as the confirmed expected failure.
    """
    a, b = rho_a.target, lambda_b.target
    check_id = f"triangle[{_label(a)},{_label(b)}]"
    lhs = mult_tensor_morph_left(rho_a, b)
    rhs = mult_tensor_morph_right(a, lambda_b)
    # The associator edge a(x)(e(x)b) -> (a(x)e)(x)b contributes identity
    # matrices, so composing with it leaves the matrices of lhs unchanged.
    equal = lhs == rhs
    witnesses = (("lhs_alpha", lhs.alpha), ("rhs_alpha", rhs.alpha))
    if a.size == 1:
        return _report(
            check_id, equal, "triangle commutes (left object of size 1)", PASS,
            "triangle failed at size-1 left object", witnesses,
        )
    return _report(
        check_id, not equal,
        f"sides differ for left object of size {a.size} "
        "(column-permutation equivalent but not equal), as predicted",
        XFAIL_OK, "triangle held unexpectedly for size >= 2", witnesses,
    )


# ---------------------------------------------------------------------------
# right-monoidal axioms (Ax.1 - Ax.5)


def _ax2_single(gamma_a: MfMorphism, b: MatrixFactorization) -> CheckReport:
    check_id = f"rm-ax2[{_label(gamma_a.source)},{_label(b)}]"
    # The reversed associator e (x) (a (x) b) -> (e (x) a) (x) b after gamma
    # is an identity pair, so it leaves the matrices of gamma(a (x) b) as
    # they are.
    rhs = mult_tensor_morph_left(gamma_a, b)
    lhs = gamma(rhs.source)
    try:
        witness = find_permutation_witness(lhs.alpha, rhs.alpha)
    except MfcatError as exc:
        return CheckReport(
            check_id, FAIL, f"sides differ but are not row-permutation equivalent: {exc}"
        )
    return _report(
        check_id, lhs != rhs, "sides unequal yet row-permutation equivalent, as predicted",
        XFAIL_OK, "Ax.2 held unexpectedly",
        (("lhs_alpha", lhs.alpha), ("rhs_alpha", rhs.alpha), ("P", witness)),
    )


def _ax3_single(m: MatrixFactorization, rho_n: MfMorphism) -> CheckReport:
    check_id = f"rm-ax3[{_label(m)},{_label(rho_n.target)}]"
    # The associator m (x) (n (x) e) -> (m (x) n) (x) e before rho is an
    # identity pair, so it leaves the matrices of rho(m (x) n) as they are.
    rhs = mult_tensor_morph_right(m, rho_n)
    return _report(
        check_id, rho(rhs.target) != rhs,
        "sides unequal: the doubling displaces the second identity block "
        "(reported as computed; non-equality of the axioms is the predicted "
        "behaviour)",
        XFAIL_OK, "Ax.3 held unexpectedly",
    )


def _ax4_single(rho_m: MfMorphism, gamma_n: MfMorphism) -> CheckReport:
    m, n = rho_m.target, gamma_n.source
    check_id = f"rm-ax4[{_label(m)},{_label(n)}]"
    # The associator m (x) (e (x) n) -> (m (x) e) (x) n in the middle is an
    # identity pair; ``compose`` checks that its two endpoints are equal.
    composite = mult_tensor_morph_left(rho_m, n).compose(mult_tensor_morph_right(m, gamma_n))
    if m.size == 1:
        return _report(check_id, composite.is_identity(), "Ax.4 holds", PASS, "Ax.4 failed at e")
    return _report(
        check_id, not composite.is_identity(),
        "composite is not the identity (fails away from e, as predicted)",
        XFAIL_OK, "Ax.4 held unexpectedly away from e",
    )


def check_right_monoidal_axioms(maxpow: int) -> list[CheckReport]:
    """Evaluate the five skew-monoidal axioms over e-powers up to ``maxpow``.

    Ax.1 is the pentagon, passing when all quadruples have literally equal
    vertices; Ax.2 must fail for every pair, with the two sides
    row-permutation equivalent but not equal; Ax.3 must fail on every pair,
    (e, e) included, and Ax.4 hold exactly when the left object is e; Ax.5
    holds.  ``maxpow`` below 1 raises ``MfcatError``, above 5 ``SizeGuardError``.
    """
    powers = _e_powers(maxpow)
    reports = [_all_held(
        f"rm-ax1[maxpow={maxpow}]",
        *_pentagon_sweep(powers),
        "{held}/{total} e-power quadruples satisfy the pentagon-shaped Ax.1",
    )]
    unitors = _unitors(powers)
    for (a, gamma_a, _, rho_a), (b, gamma_b, _, rho_b) in itertools.product(unitors, repeat=2):
        reports += [_ax2_single(gamma_a, b), _ax3_single(a, rho_b), _ax4_single(rho_a, gamma_b)]

    e = e_object()
    reports.append(_report(
        "rm-ax5[e]", rho(e).compose(gamma(e)).is_identity(),
        "rho_e o gamma_e == id_e", PASS, "Ax.5 failed",
    ))
    return reports


# ---------------------------------------------------------------------------
# right pseudo-monoidal structure


def _sample_pool(samples: int, seed: int) -> list[MatrixFactorization]:
    if samples < 0:
        raise MfcatError("samples must be non-negative")
    rng = random.Random(seed)
    pool = [e_object()]
    for _ in range(samples):
        size = rng.randint(1, 3)
        pool.append(random_mf1(rng.randrange(2**30), size, rng.randint(2, 6)))
    return pool


def _random_morphism(
    rng: random.Random, src: MatrixFactorization, tgt: MatrixFactorization
) -> MfMorphism:
    """A random valid morphism src -> tgt in MF(1).

    With src = (M1, M1^-1) and tgt = (M2, M2^-1), any alpha determines
    beta = M2^-1 * alpha * M1, and the resulting pair always satisfies both
    squares.
    """
    entries = {}
    for i in range(tgt.size):
        for j in range(src.size):
            if rng.random() < 0.6:
                p = random_polynomial(rng, max_degree=1, max_terms=2)
                if not p.is_zero():
                    entries[(i, j)] = p
    alpha = PolyMatrix(tgt.size, src.size, entries)
    beta = tgt.psi @ alpha @ src.phi
    return MfMorphism(src, tgt, alpha, beta)


def check_right_pseudo_monoidal(samples: int, seed: int) -> list[CheckReport]:
    """The retraction-unitor structure on MF(1), verified on e plus a seeded
    pool of random objects: the counit zeta has a right inverse, lambda and
    gamma are natural, lambda o gamma is the identity, rho equals lambda, and
    the triangle holds at e while failing confirmed at every larger size.
    A negative ``samples`` raises ``MfcatError``."""
    rng = random.Random(seed ^ 0x5EED)
    pool = _sample_pool(samples, seed)
    e = pool[0]
    unitors = _unitors(pool)
    reports: list[CheckReport] = []

    _, zeta_prime, zeta, rho_e = unitors[0]
    reports.append(_report(
        "rpm-1-zeta-right-inverse", zeta.compose(zeta_prime).is_identity(),
        "zeta o zeta' == id_e, so zeta: e^2 -> e is a retraction", PASS,
        "zeta o zeta' != id_e, so zeta' is no right inverse of zeta: e^2 -> e",
        (("zeta_alpha", zeta.alpha), ("zeta_prime_alpha", zeta_prime.alpha)),
    ))

    lambda_natural = 0
    gamma_natural = 0
    trials = len(pool)
    for _ in range(trials):
        src, gamma_src, lambda_src, _ = rng.choice(unitors)
        tgt, gamma_tgt, lambda_tgt, _ = rng.choice(unitors)
        nu = _random_morphism(rng, src, tgt)
        whiskered = mult_tensor_morph_right(e, nu)
        if nu.compose(lambda_src) == lambda_tgt.compose(whiskered):
            lambda_natural += 1
        if whiskered.compose(gamma_src) == gamma_tgt.compose(nu):
            gamma_natural += 1
    squares = "{held}/{total} random naturality squares commute exactly"
    reports.append(_all_held("rpm-2-lambda-naturality", lambda_natural, trials, squares))
    reports.append(_all_held("rpm-3-gamma-naturality", gamma_natural, trials, squares))

    retraction = sum(lam.compose(g).is_identity() for _, g, lam, _ in unitors)
    reports.append(_all_held(
        "rpm-4-lambda-gamma-identity", retraction, len(pool),
        "lambda o gamma == id on {held}/{total} sampled objects",
    ))

    # pool[0] is e, so "including at e" is part of the count.  The unitors'
    # components agree by construction; their sources a(x)e and e(x)a must too.
    rho_matches = sum(r.source == lam.source and r == lam for _, _, lam, r in unitors)
    reports.append(_all_held(
        "rpm-5-rho-equals-lambda", rho_matches, len(pool),
        "rho == lambda value-wise on {held}/{total} objects, including at e",
    ))

    at_e = sum(check_triangle(rho_e, lam).verdict == PASS for _, _, lam, _ in unitors)
    reports.append(_all_held(
        "rpm-6-triangle-at-e", at_e, len(pool),
        "triangle commutes at a=e against {total} sampled objects",
        fail_detail="triangle commutes at a=e against {held}/{total} sampled objects",
    ))

    larger = [r for obj, _, _, r in unitors if obj.size >= 2]
    away = sum(check_triangle(r, rng.choice(unitors)[2]).verdict == XFAIL_OK for r in larger)
    reports.append(_all_held(
        "rpm-7-triangle-beyond-e", away, len(larger),
        "triangle fails (confirmed) for all {total} sampled objects of size >= 2",
        XFAIL_OK,
        fail_detail="triangle fails (confirmed) for {held}/{total} sampled objects of size >= 2",
    ))
    return reports


# ---------------------------------------------------------------------------
# counterexamples


def counterexample_e_not_pseudo_idempotent() -> CheckReport:
    """No pair of T-morphisms exhibits e and e(x)e as isomorphic.

    Exhaustively enumerates the sub-permutation candidates in both directions
    (three each, including zero) and checks all nine pairs for mutual
    inversibility; also reproduces the two composites of the canonical
    section/retraction pair.
    """
    check_id = "counterexample-e-not-pseudo-idempotent"
    e = e_object()
    e2 = e_power(2)
    ups: list[MfMorphism] = []
    downs: list[MfMorphism] = []
    for rows in ([0, 0], [1, 0], [0, 1]):
        column = PolyMatrix(2, 1, {(i, 0): ONE for i, v in enumerate(rows) if v})
        row = column.transpose()
        ups.append(MfMorphism(e, e2, column, column))
        downs.append(MfMorphism(e2, e, row, row))
    iso_pairs = 0
    for up in ups:
        for down in downs:
            if down.compose(up).is_identity() and up.compose(down).is_identity():
                iso_pairs += 1

    zeta1 = ups[1]  # ((1,0)^t, (1,0)^t)
    zeta2 = downs[1]  # ((1,0), (1,0))
    section_ok = zeta2.compose(zeta1).is_identity()
    wrong_way = zeta1.compose(zeta2)
    expected_defect = PolyMatrix.from_rows([[1, 0], [0, 0]])
    wrong_way_ok = (
        not wrong_way.is_identity()
        and wrong_way.alpha == expected_defect
        and wrong_way.beta == expected_defect
    )

    failed = [fact for fact, held in (
        (f"{iso_pairs}/9 candidate pairs are mutually inverse", iso_pairs == 0),
        ("zeta2 o zeta1 != id_e", section_ok),
        ("zeta1 o zeta2 != the defect ([[1, 0], [0, 0]], [[1, 0], [0, 0]])", wrong_way_ok),
    ) if not held]
    return _report(
        check_id, not failed,
        "0/9 candidate pairs are mutually inverse; "
        "zeta2 o zeta1 == id_e but zeta1 o zeta2 != id",
        XFAIL_OK, "unexpected outcome: " + "; ".join(failed),
        (("zeta1_alpha", zeta1.alpha), ("zeta2_alpha", zeta2.alpha),
         ("zeta1_after_zeta2_alpha", wrong_way.alpha)),
    )


def counterexample_mf1_not_semiunital() -> CheckReport:
    """Diagram (2) was predicted to break outside the e-powers.

    On a = ([[4,3],[1,1]], [[1,-3],[-1,4]]) and b = (I_2, I_2), the canonical
    permutation witness P' rearranges gamma(a) (x) b onto gamma(a (x) b).
    Predicted: P'M != MP' for the tensor object's first matrix M, so (P', P')
    is no morphism (XFAIL-OK).  Computed: P'M == MP', as the block swap
    sigma (x) I commutes with M = I_4 (x) K, so (P', P') validates (FAIL).
    Diagram (2)'s own body supplies P', its verdict and whether (P', P')
    failed validation; this check multiplies nothing.  Both bracketings of
    the tensor object are M = I_4 (x) K at potential 1, so (P', P') is an
    endomorphism whose validation is exactly the test P'M == MP'.
    """
    check_id = "counterexample-mf1-not-semiunital"
    a = MatrixFactorization(
        PolyMatrix.from_rows([[4, 3], [1, 1]]),
        PolyMatrix.from_rows([[1, -3], [-1, 4]]),
        ONE,
    )
    top = mult_tensor_morph_left(gamma(a), e_power(2))
    rearranged, rejected = _semiunit_rearrangement(check_id, top)
    if not rearranged.witnesses:  # no permutation witness
        return rearranged
    refuted = (
        "expected failure did not occur: the canonical witness is the "
        "block swap sigma(x)I, M is the replicated block-diagonal "
        "I_4(x)K, so P'M == MP' and (P',P') is a valid morphism"
    )
    return _report(
        check_id, rejected,
        "P' rearranges the gamma routes but P'M != MP', so (P',P') fails "
        "morphism validation",
        XFAIL_OK, refuted if rearranged.verdict == PASS else "unexpected outcome",
        (("P_prime", rearranged.witnesses[0][1]), ("M", top.target.phi)),
    )


# ---------------------------------------------------------------------------
# syzygy identity


def check_syzygy_identity(
    x: MatrixFactorization, y: MatrixFactorization
) -> CheckReport:
    """Swap-then-tensor equals tensor-then-swap, as a literal identity."""
    lhs = mult_tensor(x, y).syzygy()
    rhs = mult_tensor(x.syzygy(), y.syzygy())
    return _report(
        "syzygy-identity", lhs == rhs, "syzygy(X (x) Y) == syzygy(X) (x) syzygy(Y)",
        PASS, "syzygy identity violated",
    )


# ---------------------------------------------------------------------------
# the full suite


def suite_all(
    maxpow: int = 5, samples: int = 50, seed: int = 0
) -> list[CheckReport]:
    """Run every check over e-powers up to ``maxpow`` and a seeded pool.

    Reports are sorted by check id; the aggregate is a pass exactly when no
    report carries the ``fail`` verdict (see :func:`mfcat.reporting.aggregate_ok`).
    Before any check runs, ``maxpow`` below 1 or a negative ``samples`` raises
    ``MfcatError``, and ``maxpow`` above 5 ``SizeGuardError``.
    """
    reports: list[CheckReport] = []
    powers = _e_powers(maxpow)
    # Built first, so a negative ``samples`` is rejected before any check runs.
    pool = _sample_pool(min(samples, 25), seed + 1)
    unitors = _unitors(powers)
    for (a, gamma_a, _, rho_a), (b, gamma_b, lambda_b, _) in itertools.product(unitors, repeat=2):
        reports += [
            check_semiunit_diagram1(a, b),
            check_semiunit_diagram2(gamma_a, b),
            check_semiunit_diagram3(a, gamma_b),
            check_triangle(rho_a, lambda_b),
        ]
    reports.append(_all_held(
        f"pentagon[e-powers,maxpow={maxpow}]",
        *_pentagon_sweep(powers),
        "{held}/{total} quadruples commute",
    ))

    reports.extend(check_right_monoidal_axioms(maxpow))
    reports.extend(check_right_pseudo_monoidal(samples, seed))
    reports.append(counterexample_e_not_pseudo_idempotent())
    reports.append(counterexample_mf1_not_semiunital())

    rng = random.Random(seed + 2)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(len(pool))]
    syzygy_ok = sum(check_syzygy_identity(x, y).verdict == PASS for x, y in pairs)
    reports.append(_all_held(
        f"syzygy-identity[random,pairs={len(pairs)}]", syzygy_ok, len(pairs),
        "swap distributes over the multiplicative tensor on {held}/{total} random pairs",
    ))

    reports.sort(key=lambda r: r.check_id)
    return reports
