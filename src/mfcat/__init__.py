"""mfcat: exact matrix factorizations of polynomials and their categories.

A matrix factorization of a polynomial f is a pair of square matrices
(phi, psi) over a polynomial ring with phi*psi = psi*phi = f*I.  This package
provides exact rational arithmetic for such factorizations, the additive and
multiplicative tensor products on them, and machine-checked verdicts for the
coherence diagrams, axioms and counterexamples governing the category of
factorizations of the constant 1.
"""

from .errors import (
    AssociativityMismatchError,
    ComposabilityError,
    DimensionMismatchError,
    ExponentOverflowError,
    MalformedRationalError,
    MatrixSyntaxError,
    MfcatError,
    MfFileError,
    NotEquivalentError,
    NotSquareError,
    PolynomialSyntaxError,
    PotentialMismatchError,
    ProductMismatchError,
    ShapeMismatchError,
    SizeGuardError,
    SizeMismatchError,
    SquareFailureError,
)
from .polynomials import Polynomial, canonical_string, parse_polynomial
from .matrices import (
    MAX_SIDE,
    PolyMatrix,
    direct_sum,
    kronecker,
    matrix_literal,
    parse_matrix,
)
from .factorizations import (
    MatrixFactorization,
    MfMorphism,
    factorization_from_text,
    factorization_to_text,
    random_mf1,
)
from .tensor_products import (
    mult_tensor,
    mult_tensor_morph_left,
    mult_tensor_morph_pair,
    mult_tensor_morph_right,
    yoshino_tensor,
)
from .t_subcategory import (
    associator,
    connecting_morphism,
    e_object,
    e_power,
    find_permutation_witness,
    gamma,
    is_e_power,
    is_t_morphism,
    l_iso,
    lambda_,
    rho,
)
from .axiom_suites import (
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
from .reporting import FAIL, PASS, XFAIL_OK, CheckReport, aggregate_ok

__version__ = "0.1.0"
