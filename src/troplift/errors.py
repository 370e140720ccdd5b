"""Exception types shared across the package."""


class TropliftError(Exception):
    """Base class for all package errors."""


class SizeLimit(TropliftError):
    """Input exceeds the exhaustive-enumeration bound."""


class DimensionMismatch(TropliftError):
    """Matrix dimensions are incompatible for the requested operation."""


class InversionOfZero(TropliftError):
    """Inverse of a series with no known nonzero term."""


class ValuationUnknown(TropliftError):
    """All known terms cancelled but the series is only known up to a finite order."""


class NegativeLeading(TropliftError):
    """Square root of a series whose leading coefficient is negative."""


class NestedRadical(TropliftError):
    """Operation would introduce a second independent square-root radicand."""


class RadicandMismatch(TropliftError):
    """Arithmetic between quadratic-extension values with different radicands."""


class RankTooHigh(TropliftError):
    """Matrix has tropical rank above the level the operation supports."""


class InvalidTree(TropliftError):
    """Leaf-colored tree violates the two-colors-on-each-side condition."""


class NegativeResult(TropliftError):
    """The input provably has no lift of the requested kind (CLI exit 1)."""


class NotBarvinok2(NegativeResult):
    """Matrix has no min-plus factorization through two inner dimensions."""


class NotCaterpillar(NegativeResult):
    """Tree's internal vertices do not lie on a single path."""


class NotRank2(NegativeResult):
    """Matrix does not have (symmetric) tropical rank at most two."""


class NotSingular(NegativeResult):
    """Tropical determinant has a unique minimizing monomial."""


class SameSigns(NegativeResult):
    """Tied minimizing monomials all share one sign, so no positive lift exists."""


class MinorSignsOpposed(NegativeResult):
    """The two row/column-deleted minors certify a negative discriminant."""


class ConstructionExhausted(TropliftError):
    """A seeded construction spent its retries on a well-formed input
    without a valid certificate (CLI exit 2, under its own label)."""


class DegenerateGeneric(ConstructionExhausted):
    """Every seeded attempt of a generic solve hit a cancellation or failed
    verification: the retry budget is spent."""


class GenericRetryExhausted(ConstructionExhausted):
    """All retries of the seeded generic construction failed verification."""


class UnknownFixture(TropliftError):
    """Requested bundled example input does not exist."""
