"""Exception hierarchy for the mfcat library.

Every error raised by the library derives from :class:`MfcatError`, so callers
(notably the CLI) can distinguish library failures from programming errors.
"""

from __future__ import annotations


class MfcatError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# parsing


class ParseError(MfcatError):
    """Malformed textual input; ``position`` is a 0-based character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class PolynomialSyntaxError(ParseError):
    pass


class MalformedRationalError(ParseError):
    pass


class ExponentOverflowError(ParseError):
    pass


class MatrixSyntaxError(ParseError):
    pass


class MfFileError(MfcatError):
    """Bad factorization file; ``line`` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# matrix algebra


class DimensionMismatchError(MfcatError):
    pass


class SizeGuardError(MfcatError):
    """Result of an operation would exceed the configured size limit."""


# ---------------------------------------------------------------------------
# factorizations and morphisms


class NotSquareError(MfcatError):
    pass


class SizeMismatchError(MfcatError):
    pass


class ProductMismatchError(MfcatError):
    """phi*psi or psi*phi differs from potential*I.

    ``side`` names the offending product, ``coords`` the first entry (row-major)
    where it disagrees with the expected scalar matrix.
    """

    def __init__(self, side: str, coords: tuple[int, int]):
        super().__init__(f"{side} != potential*I, first mismatch at entry {coords}")
        self.side = side
        self.coords = coords


class PotentialMismatchError(MfcatError):
    pass


class ShapeMismatchError(MfcatError):
    pass


class SquareFailureError(MfcatError):
    """One of the two commuting squares of a would-be morphism fails.

    ``which`` is ``"phi-square"`` (alpha*phi1 = phi2*beta) or ``"psi-square"``
    (psi2*alpha = beta*psi1).
    """

    def __init__(self, which: str):
        super().__init__(f"morphism condition fails: {which}")
        self.which = which


class ComposabilityError(MfcatError):
    pass


class AssociativityMismatchError(MfcatError):
    """The two bracketings of a triple tensor product are not literally equal."""


class NotEquivalentError(MfcatError):
    """No row permutation carries one (1,0)-matrix onto the other."""
