"""Exception hierarchy shared across the package.

Two families matter to callers: ``InvalidInput`` covers anything a user
could have handed us (bad shapes, dependent rows, non-contractions), while
``NumericalFailure`` flags internal tolerance conflicts that should never
occur on sane inputs.
"""


class BcaError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(BcaError):
    """A caller-supplied value violates a documented precondition."""


class DimensionMismatch(InvalidInput):
    pass


class BadShape(InvalidInput):
    pass


class NonHermitianInput(InvalidInput):
    pass


class DependentRows(InvalidInput):
    pass


class DegenerateSystem(InvalidInput):
    pass


class NotNormalized(InvalidInput):
    pass


class OddOrderUnsupported(InvalidInput):
    """Raised by diagnostics that are only defined for even order."""


class NotDissipative(InvalidInput):
    pass


class NotAContraction(InvalidInput):
    pass


class NumericalFailure(BcaError):
    """Internal numerical inconsistency (tolerance conflict, degeneracy)."""


class RankDeficiency(NumericalFailure):
    pass
