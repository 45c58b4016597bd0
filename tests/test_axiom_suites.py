import itertools
import random

import pytest

from mfcat.axiom_suites import (
    _ax2_single,
    _ax3_single,
    _ax4_single,
    _sample_pool,
    check_pentagon,
    check_right_monoidal_axioms,
    check_right_pseudo_monoidal,
    check_semiunit_diagram1,
    check_semiunit_diagram2,
    check_semiunit_diagram3,
    check_syzygy_identity,
    check_triangle,
    counterexample_e_not_pseudo_idempotent,
    counterexample_mf1_not_semiunital,
    suite_all,
)
from mfcat.errors import MfcatError, NotEquivalentError, SizeGuardError, SquareFailureError
from mfcat.factorizations import MatrixFactorization, MfMorphism, random_mf1
from mfcat.matrices import PolyMatrix, parse_matrix
from mfcat.polynomials import ONE
from mfcat.reporting import FAIL, PASS, XFAIL_OK, aggregate_ok
from mfcat.t_subcategory import (
    associator,
    e_object,
    e_power,
    find_permutation_witness,
    gamma,
    lambda_,
    rho,
)
from mfcat.tensor_products import (
    mult_tensor,
    mult_tensor_morph_left,
    mult_tensor_morph_right,
)

from support import naive_doubled_kronecker


def test_pentagon_on_trivial_quadruple():
    report = check_pentagon(*(e_object(),) * 4)
    assert report.verdict == PASS


def test_pentagon_on_mixed_e_powers():
    report = check_pentagon(e_power(2), e_power(1), e_power(3), e_power(1))
    assert report.verdict == PASS


def test_pentagon_on_random_mf1_quadruple():
    objs = [random_mf1(seed, 2, 4) for seed in (1, 2, 3, 4)]
    report = check_pentagon(*objs)
    assert report.verdict == PASS
    assert "matrix level" in report.detail  # bracketings differ here


def _pentagon_paths(a, b, c, d):
    """Both pentagon paths composed from validated associator morphisms."""
    ab, bc, cd = mult_tensor(a, b), mult_tensor(b, c), mult_tensor(c, d)
    left = associator(a, b, cd).compose(associator(ab, c, d))
    right = mult_tensor_morph_right(a, associator(b, c, d)).compose(
        associator(a, bc, d).compose(
            mult_tensor_morph_left(associator(a, b, c), d)
        )
    )
    return left, right


def test_pentagon_verdict_matches_composed_paths():
    # check_pentagon no longer composes the paths; on every quadruple whose
    # associators exist, the composed paths agree and the check reports PASS
    # with equal vertices (no matrix-level suffix).
    powers = [e_power(k) for k in (1, 2, 3)]
    minus_one = MatrixFactorization(
        PolyMatrix.from_rows([[-1]]), PolyMatrix.from_rows([[-1]]), ONE
    )
    quadruples = list(itertools.product(powers, repeat=4))
    for seed, size in ((11, 2), (12, 3)):
        last = random_mf1(seed, size, 4)
        for first in itertools.product((e_object(), minus_one), repeat=3):
            quadruples.append((*first, last))
    for quadruple in quadruples:
        left, right = _pentagon_paths(*quadruple)
        assert left == right
        report = check_pentagon(*quadruple)
        assert report.verdict == PASS
        assert "matrix level" not in report.detail


def _identity_edge(source, target):
    eye = PolyMatrix.identity(source.size)
    return MfMorphism(source, target, eye, eye)


def _ax_verdicts_through_identity_edges(i, j):
    """Ax.2-Ax.4 verdicts with every associator edge composed explicitly."""
    a, b = e_power(i), e_power(j)
    e = e_object()
    ab = mult_tensor(a, b)
    alpha_rev = _identity_edge(mult_tensor(e, ab), mult_tensor(mult_tensor(e, a), b))
    lhs2 = alpha_rev.compose(gamma(ab))
    rhs2 = mult_tensor_morph_left(gamma(a), b)
    if lhs2 == rhs2:
        ax2 = FAIL
    else:
        try:
            find_permutation_witness(lhs2.alpha, rhs2.alpha)
            ax2 = XFAIL_OK
        except NotEquivalentError:
            ax2 = FAIL

    alpha3 = _identity_edge(mult_tensor(a, mult_tensor(b, e)), mult_tensor(ab, e))
    lhs3 = rho(ab).compose(alpha3)
    ax3 = PASS if lhs3 == mult_tensor_morph_right(a, rho(b)) else XFAIL_OK

    alpha4 = _identity_edge(
        mult_tensor(a, mult_tensor(e, b)), mult_tensor(mult_tensor(a, e), b)
    )
    composite = mult_tensor_morph_left(rho(a), b).compose(
        alpha4.compose(mult_tensor_morph_right(a, gamma(b)))
    )
    ax4 = PASS if composite == ab.identity_morphism() else XFAIL_OK
    return {"rm-ax2": (ax2, lhs2.alpha), "rm-ax3": ax3, "rm-ax4": ax4}


def test_ax2_to_ax4_match_explicit_identity_edges():
    reports = {r.check_id: r for r in check_right_monoidal_axioms(3)}
    for i in range(1, 4):
        for j in range(1, 4):
            oracle = _ax_verdicts_through_identity_edges(i, j)
            ax2 = reports[f"rm-ax2[e^{i},e^{j}]"]
            assert (ax2.verdict, dict(ax2.witnesses)["lhs_alpha"]) == oracle["rm-ax2"]
            for name in ("rm-ax3", "rm-ax4"):
                assert reports[f"{name}[e^{i},e^{j}]"].verdict == oracle[name]


def test_diagram1_on_e_pairs():
    assert check_semiunit_diagram1(e_object(), e_object()).verdict == PASS
    report = check_semiunit_diagram1(e_power(2), e_power(3))
    assert report.verdict == PASS
    assert "size 32" in report.detail
    assert check_semiunit_diagram1(e_power(4), e_power(2)).verdict == PASS


def test_diagram1_reports_differing_bracketings():
    report = check_semiunit_diagram1(random_mf1(0, 2, 4), random_mf1(1000, 2, 4))
    assert report.verdict == PASS
    assert "matrix level" in report.detail


def test_diagram2_small_witness():
    report = check_semiunit_diagram2(gamma(e_object()), e_object())
    assert report.verdict == PASS
    witness = dict(report.witnesses)["P"]
    assert (witness.rows, witness.cols) == (4, 4)
    assert witness @ witness.transpose() == PolyMatrix.identity(4)


def test_diagram2_sixteen_by_sixteen_witness():
    report = check_semiunit_diagram2(gamma(e_power(2)), e_power(2))
    assert report.verdict == PASS
    witness = dict(report.witnesses)["P"]
    assert (witness.rows, witness.cols) == (16, 16)
    assert witness.is_permutation_matrix()


def test_diagram3_cases():
    assert check_semiunit_diagram3(e_object(), gamma(e_object())).verdict == PASS
    report = check_semiunit_diagram3(e_power(3), gamma(e_object()))
    assert report.verdict == PASS
    assert dict(report.witnesses)["P"].is_permutation_matrix()


def test_triangle_passes_only_at_size_one():
    rng = random.Random(42)
    b = random_mf1(5, 2, 4)
    assert check_triangle(rho(e_object()), lambda_(b)).verdict == PASS
    assert check_triangle(rho(e_object()), lambda_(e_object())).verdict == PASS
    for a in (e_power(2), random_mf1(6, 2, 4), random_mf1(7, 3, 4)):
        report = check_triangle(rho(a), lambda_(e_object()))
        assert report.verdict == XFAIL_OK
        names = dict(report.witnesses)
        assert "lhs_alpha" in names and "rhs_alpha" in names
        assert names["lhs_alpha"] != names["rhs_alpha"]
    del rng


def test_right_monoidal_axioms_structure():
    reports = {r.check_id: r for r in check_right_monoidal_axioms(3)}
    assert reports["rm-ax1[maxpow=3]"].verdict == PASS
    # Ax.2 fails for every pair, including (1,1), with a witness found
    for i in range(1, 4):
        for j in range(1, 4):
            report = reports[f"rm-ax2[e^{i},e^{j}]"]
            assert report.verdict == XFAIL_OK
            assert dict(report.witnesses)["P"].is_permutation_matrix()
    # Ax.3 fails for every pair (the doubling displaces the second block,
    # even at M = e); Ax.4 holds exactly when the left object is e
    for j in range(1, 4):
        assert reports[f"rm-ax3[e^1,e^{j}]"].verdict == XFAIL_OK
        assert reports[f"rm-ax4[e^1,e^{j}]"].verdict == PASS
        assert reports[f"rm-ax3[e^2,e^{j}]"].verdict == XFAIL_OK
        assert reports[f"rm-ax4[e^3,e^{j}]"].verdict == XFAIL_OK
    assert reports["rm-ax5[e]"].verdict == PASS


def test_ax2_frozen_instance():
    # the (1,1) instance: lhs = (I2,0)^t pair, rhs = blockdiag((1,0)^t x2) pair
    reports = {r.check_id: r for r in check_right_monoidal_axioms(1)}
    report = reports["rm-ax2[e^1,e^1]"]
    names = dict(report.witnesses)
    assert names["lhs_alpha"] == parse_matrix("[[1, 0], [0, 1], [0, 0], [0, 0]]")
    assert names["rhs_alpha"] == parse_matrix("[[1, 0], [0, 0], [0, 1], [0, 0]]")
    assert names["P"] @ names["lhs_alpha"] == names["rhs_alpha"]


def test_right_pseudo_monoidal_suite():
    reports = {r.check_id: r for r in check_right_pseudo_monoidal(10, 3)}
    assert reports["rpm-1-zeta-right-inverse"].verdict == PASS
    assert reports["rpm-2-lambda-naturality"].verdict == PASS
    assert reports["rpm-3-gamma-naturality"].verdict == PASS
    assert reports["rpm-4-lambda-gamma-identity"].verdict == PASS
    assert reports["rpm-5-rho-equals-lambda"].verdict == PASS
    assert reports["rpm-6-triangle-at-e"].verdict == PASS
    assert reports["rpm-7-triangle-beyond-e"].verdict == XFAIL_OK


def test_counterexample_e_not_pseudo_idempotent():
    report = counterexample_e_not_pseudo_idempotent()
    assert report.verdict == XFAIL_OK
    assert "0/9" in report.detail
    names = dict(report.witnesses)
    assert names["zeta1_after_zeta2_alpha"] == parse_matrix("[[1, 0], [0, 0]]")


def _recorded_instance():
    """The (a, b) of the mf1 counterexample."""
    a = MatrixFactorization(
        parse_matrix("[[4, 3], [1, 1]]"),
        parse_matrix("[[1, -3], [-1, 4]]"),
        ONE,
    )
    return a, e_power(2)


def _diagram2_on_recorded_instance():
    a, b = _recorded_instance()
    return check_semiunit_diagram2(gamma(a), b)


def test_counterexample_mf1_not_semiunital_reports_honestly():
    # The predicted failure does not occur: the canonical block-swap witness
    # commutes with the replicated block-diagonal M, so the check must say so
    # loudly instead of confirming an expected failure.
    report = counterexample_mf1_not_semiunital()
    assert report.verdict == FAIL
    assert "P'M == MP'" in report.detail
    names = dict(report.witnesses)
    witness, m = names["P_prime"], names["M"]
    assert witness @ m == m @ witness
    # and the pair really is a valid morphism: diagram (2) commutes here
    assert _diagram2_on_recorded_instance().verdict == PASS


def test_rearrangement_equation_on_recorded_instance():
    # the first half of the counterexample: the witness does rearrange the
    # two gamma routes
    a, b = _recorded_instance()
    top = mult_tensor_morph_left(gamma(a), b)
    direct = gamma(mult_tensor(a, b))
    witness = find_permutation_witness(top.alpha, direct.alpha)
    assert witness @ top.alpha == direct.alpha


def test_recorded_instance_routes_end_at_one_object():
    # e has size 1, so (e (x) a) (x) b and e (x) (a (x) b) are literally equal
    # and (P', P') is an endomorphism of that object.
    a, b = _recorded_instance()
    top = mult_tensor_morph_left(gamma(a), b)
    direct = gamma(mult_tensor(a, b))
    assert top.target == direct.target


@pytest.mark.parametrize(
    "witness, expected",
    [
        (lambda top, direct: find_permutation_witness(top.alpha, direct.alpha), True),
        (lambda top, direct: _SWAP_0_2, False),
        (lambda top, direct: PolyMatrix.identity(16), True),
    ],
    ids=["canonical", "swap-0-2", "identity"],
)
def test_validating_the_witness_pair_is_the_commutation_test(witness, expected):
    # Both routes of the recorded instance end at the one object with phi =
    # M = I_4 (x) K, at potential 1, so (P, P) validates exactly when
    # P M == M P: the mf1 counterexample decides from that validation.
    a, b = _recorded_instance()
    top = mult_tensor_morph_left(gamma(a), b)
    direct = gamma(top.source)
    assert top.target == direct.target
    p, m = witness(top, direct), top.target.phi
    try:
        MfMorphism(top.target, direct.target, p, p)
        validates = True
    except SquareFailureError as exc:
        assert exc.which == "phi-square"
        validates = False
    assert validates == (p @ m == m @ p) == expected


def test_suite_all_is_deterministic_and_sorted():
    first = suite_all(maxpow=2, samples=5, seed=9)
    second = suite_all(maxpow=2, samples=5, seed=9)
    assert [r.line() for r in first] == [r.line() for r in second]
    ids = [r.check_id for r in first]
    assert ids == sorted(ids)


def test_suite_all_aggregate_reflects_the_known_failed_counterexample():
    reports = suite_all(maxpow=2, samples=5, seed=9)
    failing = [r.check_id for r in reports if r.verdict == FAIL]
    assert failing == ["counterexample-mf1-not-semiunital"]
    assert not aggregate_ok(reports)


def test_suite_verdicts_by_family():
    reports = suite_all(maxpow=2, samples=5, seed=9)
    by_id = {r.check_id: r for r in reports}
    assert by_id["pentagon[e-powers,maxpow=2]"].verdict == PASS
    assert by_id["semiunit-diagram1[e^1,e^2]"].verdict == PASS
    assert by_id["semiunit-diagram2[e^2,e^2]"].verdict == PASS
    assert by_id["semiunit-diagram3[e^2,e^1]"].verdict == PASS
    assert by_id["triangle[e^2,e^2]"].verdict == XFAIL_OK
    assert by_id["counterexample-e-not-pseudo-idempotent"].verdict == XFAIL_OK
    assert by_id[f"syzygy-identity[random,pairs=6]"].verdict == PASS


@pytest.mark.parametrize(
    "run, error, message",
    [
        (lambda: suite_all(0), MfcatError, "maxpow must be at least 1"),
        (
            lambda: suite_all(6),
            SizeGuardError,
            "maxpow 6 exceeds the size guard (largest supported is 5)",
        ),
        (lambda: suite_all(5, -1), MfcatError, "samples must be non-negative"),
        (lambda: check_right_monoidal_axioms(0), MfcatError, "maxpow must be at least 1"),
        (lambda: check_right_pseudo_monoidal(-1, 0), MfcatError, "samples must be non-negative"),
    ],
    ids=["suite-maxpow0", "suite-maxpow6", "suite-samples-1", "rm-maxpow0", "rpm-samples-1"],
)
def test_out_of_range_arguments_raise_before_any_check(monkeypatch, run, error, message):
    # A bad maxpow or samples is rejected up front: no sweep runs first and
    # then stops on an error that does not name the argument.
    import mfcat.axiom_suites as suites

    calls = []

    def counted(name, real):
        def check(*args):
            calls.append(name)
            return real(*args)
        return check

    for name in ("check_pentagon", "check_semiunit_diagram1", "check_triangle"):
        monkeypatch.setattr(suites, name, counted(name, getattr(suites, name)))
    with pytest.raises(error) as info:
        run()
    assert str(info.value) == message
    assert calls == []


def test_pentagon_sweeps_fail_when_a_quadruple_differs_at_matrix_level(monkeypatch):
    # Both sweeps count quadruples with literally equal vertices; one
    # matrix-level quadruple (never the case for e-powers) turns them to FAIL.
    import mfcat.axiom_suites as suites

    real = suites.check_pentagon

    def one_matrix_level(a, b, c, d):
        report = real(a, b, c, d)
        if (a.size, b.size, c.size, d.size) == (2, 1, 1, 2):
            return report._replace(detail=report.detail + suites._MATRIX_LEVEL)
        return report

    monkeypatch.setattr(suites, "check_pentagon", one_matrix_level)
    reports = {r.check_id: r for r in suite_all(maxpow=2, samples=0, seed=0)}
    for check_id, detail in (
        ("pentagon[e-powers,maxpow=2]", "15/16 quadruples commute"),
        ("rm-ax1[maxpow=2]", "15/16 e-power quadruples satisfy the pentagon-shaped Ax.1"),
    ):
        assert (reports[check_id].verdict, reports[check_id].detail) == (FAIL, detail)


def test_rpm5_fails_when_the_unitor_sources_differ(monkeypatch):
    # A right unitor at e with lambda's matrices but a source other than
    # e (x) e: value-wise equal morphisms, so only the source test fails.
    import mfcat.axiom_suites as suites

    real = suites.rho
    other = MatrixFactorization(
        parse_matrix("[[1, 0], [1, 1]]"), parse_matrix("[[1, 0], [-1, 1]]"), ONE
    )
    row = parse_matrix("[[1, 0]]")

    def rho_from_other(a):
        if a == e_object():
            return MfMorphism(other, a, row, row)
        return real(a)

    monkeypatch.setattr(suites, "rho", rho_from_other)
    reports = {r.check_id: r for r in check_right_pseudo_monoidal(0, 0)}
    report = reports["rpm-5-rho-equals-lambda"]
    assert report.verdict == FAIL
    assert report.detail.startswith("rho == lambda value-wise on 0/1 objects")


def _negate_first_nonzero_whiskered_morphism(real):
    # The first nonzero nu of the naturality trials is whiskered as -nu, so
    # both of that trial's squares fail (the unitors are injective and
    # surjective components) and every other trial is left alone.
    negated = []

    def patched(x, z):
        if not negated and z.alpha.nnz() + z.beta.nnz() > 0:
            negated.append(z)
            z = MfMorphism(z.source, z.target, -z.alpha, -z.beta)
        return real(x, z)

    return patched


def _zeroed(morphism):
    # The zero morphism between the same objects.
    zero = PolyMatrix(morphism.alpha.rows, morphism.alpha.cols, {})
    return MfMorphism(morphism.source, morphism.target, zero, zero)


def _zero_at_e(real):
    # The unitor at e becomes the zero morphism between the same objects.
    def patched(a):
        unitor = real(a)
        return _zeroed(unitor) if a is e_object() else unitor

    return patched


def _fail_first_report(applies):
    # The first report whose arguments satisfy ``applies`` reads FAIL.
    def patch(real):
        failed = []

        def patched(*args):
            report = real(*args)
            if not failed and applies(*args):
                failed.append(args)
                return report._replace(verdict=FAIL)
            return report

        return patched

    return patch


@pytest.mark.parametrize(
    "target, patch, run, expected",
    [
        (
            "mult_tensor_morph_right",
            _negate_first_nonzero_whiskered_morphism,
            lambda: check_right_pseudo_monoidal(10, 3),
            {
                "rpm-2-lambda-naturality": "10/11 random naturality squares commute exactly",
                "rpm-3-gamma-naturality": "10/11 random naturality squares commute exactly",
            },
        ),
        (
            "lambda_",
            _zero_at_e,
            lambda: check_right_pseudo_monoidal(10, 3),
            {"rpm-4-lambda-gamma-identity": "lambda o gamma == id on 10/11 sampled objects"},
        ),
        (
            "check_triangle",
            _fail_first_report(lambda rho_a, lambda_b: rho_a.target is e_object()),
            lambda: check_right_pseudo_monoidal(10, 3),
            {"rpm-6-triangle-at-e": "triangle commutes at a=e against 10/11 sampled objects"},
        ),
        (
            "check_triangle",
            _fail_first_report(lambda rho_a, lambda_b: rho_a.target is not e_object()),
            lambda: check_right_pseudo_monoidal(10, 3),
            {
                "rpm-7-triangle-beyond-e":
                    "triangle fails (confirmed) for 6/7 sampled objects of size >= 2",
            },
        ),
        (
            "check_syzygy_identity",
            _fail_first_report(lambda x, y: True),
            lambda: suite_all(maxpow=1, samples=5, seed=0),
            {
                "syzygy-identity[random,pairs=6]":
                    "swap distributes over the multiplicative tensor on 5/6 random pairs",
            },
        ),
    ],
    ids=["rpm-2-and-rpm-3", "rpm-4", "rpm-6", "rpm-7", "syzygy-identity-random"],
)
def test_one_failing_instance_fails_the_all_instances_report(
    monkeypatch, target, patch, run, expected
):
    # Each report over many instances holds only when all of them held: one
    # failing instance turns it to FAIL, and its held count reads n-1/n.
    import mfcat.axiom_suites as suites

    monkeypatch.setattr(suites, target, patch(getattr(suites, target)))
    reports = {r.check_id: r for r in run()}
    for check_id, detail in expected.items():
        assert (reports[check_id].verdict, reports[check_id].detail) == (FAIL, detail)


def _returns(value):
    return lambda real: lambda *args: value


def _raises(exc):
    def patch(real):
        def patched(*args):
            raise exc

        return patched

    return patch


def _zero_components(real):
    # Every morphism is built with zero components instead of its own.
    def patched(source, target, alpha, beta):
        zero = PolyMatrix(alpha.rows, alpha.cols, {})
        return real(source, target, zero, zero)

    return patched


def _reverse_later_calls(real):
    # The first product is taken as asked, every later one in reverse order.
    calls = []

    def patched(x, y):
        calls.append((x, y))
        return real(x, y) if len(calls) == 1 else real(y, x)

    return patched


def _permutation(images):
    """The permutation matrix with a 1 at (i, images[i])."""
    n = len(images)
    return PolyMatrix(n, n, {(i, j): ONE for i, j in enumerate(images)})


def _report_of(check_id, run):
    return lambda: {r.check_id: r for r in run()}[check_id]


# Swaps rows 0 and 2 of the recorded instance's 16x16 objects: it does not
# commute with M = I_4 (x) K, whose diagonal entries 4 and 1 it exchanges.
_SWAP_0_2 = _permutation([2, 1, 0, *range(3, 16)])
_NO_ROW = NotEquivalentError("no row matches")


def _left_whisker_by_lambda(real):
    # f (x) b becomes target(f) (x) lambda(b): the triangle's two sides, and
    # Ax.4's a (x) lambda(b) o a (x) gamma(b) = id, then agree.
    return lambda f, b: mult_tensor_morph_right(f.target, lambda_(b))


@pytest.mark.parametrize(
    "target, patch, run, expected",
    [
        (
            None,
            None,
            lambda: check_triangle(rho(e_object()), _zeroed(lambda_(e_object()))),
            (FAIL, "triangle failed at size-1 left object"),
        ),
        (
            "mult_tensor_morph_left",
            _left_whisker_by_lambda,
            lambda: check_triangle(rho(e_power(2)), lambda_(e_object())),
            (FAIL, "triangle held unexpectedly for size >= 2"),
        ),
        (
            "mult_tensor_morph_right",
            lambda real: lambda m, f: rho(mult_tensor(m, f.target)),
            lambda: _ax3_single(e_object(), rho(e_object())),
            (FAIL, "Ax.3 held unexpectedly"),
        ),
        (
            "mult_tensor_morph_left",
            lambda real: lambda f, b: _zeroed(real(f, b)),
            lambda: _ax4_single(rho(e_object()), gamma(e_power(2))),
            (FAIL, "Ax.4 failed at e"),
        ),
        (
            "mult_tensor_morph_left",
            _left_whisker_by_lambda,
            lambda: _ax4_single(rho(e_power(2)), gamma(e_object())),
            (FAIL, "Ax.4 held unexpectedly away from e"),
        ),
        (
            "find_permutation_witness",
            _raises(_NO_ROW),
            lambda: check_semiunit_diagram2(gamma(e_object()), e_object()),
            (FAIL, "no permutation witness: no row matches"),
        ),
        (
            "find_permutation_witness",
            _returns(_SWAP_0_2),
            _diagram2_on_recorded_instance,
            (
                FAIL,
                "witness pair is not a morphism: morphism condition fails: phi-square",
            ),
        ),
        (
            "find_permutation_witness",
            _returns(PolyMatrix.identity(4)),
            lambda: check_semiunit_diagram2(gamma(e_object()), e_object()),
            (FAIL, "rearrangement failed"),
        ),
        (
            "gamma",
            _zero_at_e,
            _report_of("rm-ax5[e]", lambda: check_right_monoidal_axioms(1)),
            (FAIL, "Ax.5 failed"),
        ),
        (
            "lambda_",
            _zero_at_e,
            _report_of("rpm-1-zeta-right-inverse", lambda: check_right_pseudo_monoidal(0, 0)),
            (FAIL, "zeta o zeta' != id_e, so zeta' is no right inverse of zeta: e^2 -> e"),
        ),
        (
            "mult_tensor",
            _reverse_later_calls,
            lambda: check_syzygy_identity(random_mf1(1, 2, 4), random_mf1(2, 2, 4)),
            (FAIL, "syzygy identity violated"),
        ),
        (
            "MfMorphism",
            _zero_components,
            counterexample_e_not_pseudo_idempotent,
            (
                FAIL,
                "unexpected outcome: zeta2 o zeta1 != id_e; "
                "zeta1 o zeta2 != the defect ([[1, 0], [0, 0]], [[1, 0], [0, 0]])",
            ),
        ),
        (
            "find_permutation_witness",
            _returns(_SWAP_0_2),
            counterexample_mf1_not_semiunital,
            (
                XFAIL_OK,
                "P' rearranges the gamma routes but P'M != MP', so (P',P') fails "
                "morphism validation",
            ),
        ),
        (
            "find_permutation_witness",
            _returns(PolyMatrix.identity(16)),
            counterexample_mf1_not_semiunital,
            (FAIL, "unexpected outcome"),
        ),
        (
            "find_permutation_witness",
            _raises(_NO_ROW),
            counterexample_mf1_not_semiunital,
            (FAIL, "no permutation witness: no row matches"),
        ),
        (
            "mult_tensor_morph_left",
            lambda real: lambda f, b: gamma(real(f, b).source),
            lambda: _ax2_single(gamma(e_object()), e_object()),
            (FAIL, "Ax.2 held unexpectedly"),
        ),
        (
            "find_permutation_witness",
            _raises(_NO_ROW),
            lambda: _ax2_single(gamma(e_object()), e_object()),
            (FAIL, "sides differ but are not row-permutation equivalent: no row matches"),
        ),
    ],
    ids=[
        "triangle-at-size-1",
        "triangle-beyond-size-1",
        "rm-ax3",
        "rm-ax4-at-e",
        "rm-ax4-beyond-e",
        "rearrangement-no-witness",
        "rearrangement-not-a-morphism",
        "rearrangement-failed",
        "rm-ax5",
        "rpm-1",
        "syzygy-identity",
        "counterexample-e",
        "mf1-counterexample-confirmed",
        "mf1-counterexample-unexpected",
        "mf1-counterexample-no-witness",
        "rm-ax2-held",
        "rm-ax2-no-witness",
    ],
)
def test_every_verdict_branch(monkeypatch, target, patch, run, expected):
    # Each single-instance check reaches the verdict and detail of a branch
    # that the pinned data never takes once one step is patched (or, with no
    # target, once it is handed a zero unitor).
    import mfcat.axiom_suites as suites

    if target:
        monkeypatch.setattr(suites, target, patch(getattr(suites, target)))
    report = run()
    assert (report.verdict, report.detail) == expected


def test_pseudo_monoidal_check_builds_each_objects_unitors_once(monkeypatch):
    # The pool is e plus 50 samples; rpm-1 to rpm-5 and the naturality
    # trials read one gamma per object, and rpm-6/rpm-7 never call gamma.
    import mfcat.axiom_suites as suites

    real = suites.gamma
    calls = []

    def counting_gamma(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(suites, "gamma", counting_gamma)
    check_right_pseudo_monoidal(50, 0)
    assert len(calls) == 51


def _unitor_calls(monkeypatch, names, run):
    """How many times ``run()`` calls each unitor of ``mfcat.axiom_suites``
    named in ``names``."""
    import mfcat.axiom_suites as suites

    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(suites, name)

        def unitor(a):
            calls[name] += 1
            return real(a)
        return unitor

    for name in names:
        monkeypatch.setattr(suites, name, counted(name))
    run()
    return calls


def test_right_monoidal_axioms_build_each_powers_unitors_once(monkeypatch):
    # Over e^1..e^3, Ax.2 to Ax.4 read one gamma and one rho per power; on
    # top of those, each of the 9 pairs builds gamma(a (x) b) for Ax.2 and
    # rho(a (x) b) for Ax.3, and Ax.5 one of each at e.
    calls = _unitor_calls(monkeypatch, ("gamma", "rho"), lambda: check_right_monoidal_axioms(3))
    assert calls == {"gamma": 3 + 9 + 1, "rho": 3 + 9 + 1}


def test_suite_builds_each_unitor_of_an_operand_once(monkeypatch):
    # Over e^1..e^5 with the pool {e}, the pair sweep and the rm-axioms each
    # build one table of 5 (gamma, lambda_, rho) and rpm one of 1.  Only the
    # pair object's maps stay per pair: gamma(a (x) b) in diagrams (2) and
    # (3) and Ax.2 (75), rho(a (x) b) in Ax.3 (25).  Ax.5 builds gamma and
    # rho at e, and the mf1 counterexample its two gammas.
    calls = _unitor_calls(monkeypatch, ("gamma", "lambda_", "rho"), lambda: suite_all(5, 0, 0))
    assert calls == {
        "gamma": 5 + 5 + 1 + 75 + 1 + 2,
        "lambda_": 5 + 5 + 1,
        "rho": 5 + 5 + 1 + 25 + 1,
    }


def test_triangle_witnesses_match_pairing_with_identity_morphisms():
    # The triangle's sides rho(a) (x) id_b and id_a (x) lambda(b), against
    # the dense I_2 (x) (rho_a (x) I) and I_2 (x) (I (x) lambda_b).
    objects = [e_object(), e_power(2), random_mf1(6, 2, 4), random_mf1(7, 3, 4)]
    for a, b in itertools.product(objects, repeat=2):
        lhs = naive_doubled_kronecker(rho(a).alpha, PolyMatrix.identity(b.size))
        rhs = naive_doubled_kronecker(PolyMatrix.identity(a.size), lambda_(b).alpha)
        names = dict(check_triangle(rho(a), lambda_(b)).witnesses)
        assert names["lhs_alpha"] == lhs and names["rhs_alpha"] == rhs


def test_triangle_sides_are_column_but_not_row_permutation_equivalent():
    # Beyond size 1 the two sides differ by a permutation of columns,
    # lhs @ Q == rhs, never by one of rows (P @ lhs == rhs), as the XFAIL-OK
    # detail says; e^1..e^5 are the powers that the pinned suite prints.
    objects = [e_power(k) for k in range(1, 6)] + _sample_pool(12, 0)[1:]
    pairs = 0
    for a, b in itertools.product(objects, repeat=2):
        if a.size < 2:
            continue
        names = dict(check_triangle(rho(a), lambda_(b)).witnesses)
        lhs, rhs = names["lhs_alpha"], names["rhs_alpha"]
        q = find_permutation_witness(lhs.transpose(), rhs.transpose()).transpose()
        assert q.is_permutation_matrix() and lhs @ q == rhs
        with pytest.raises(NotEquivalentError):
            find_permutation_witness(lhs, rhs)
        pairs += 1
    assert pairs == 221


def _raise_type_error(*args):
    raise TypeError("a programming error, not a library failure")


@pytest.mark.parametrize(
    "target, run",
    [
        (
            "find_permutation_witness",
            lambda: check_semiunit_diagram2(gamma(e_object()), e_object()),
        ),
        ("MfMorphism", lambda: check_semiunit_diagram2(gamma(e_object()), e_object())),
        ("find_permutation_witness", lambda: _ax2_single(gamma(e_object()), e_object())),
        ("MfMorphism", counterexample_mf1_not_semiunital),
    ],
    ids=["diagram2-witness", "diagram2-morphism", "ax2-witness", "mf1-counterexample-morphism"],
)
def test_programming_errors_are_not_verdicts(monkeypatch, target, run):
    # Only library errors (MfcatError) become FAIL or XFAIL-OK verdicts; a
    # TypeError inside a check propagates instead of reading as "no witness"
    # or "morphism rejected".
    import mfcat.axiom_suites as suites

    monkeypatch.setattr(suites, target, _raise_type_error)
    with pytest.raises(TypeError, match="a programming error"):
        run()
