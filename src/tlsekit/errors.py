"""Exception hierarchy for tlsekit.

Everything raised on purpose derives from TlseError so callers can catch one
base class. The CLI maps InputError (and unreadable files) to exit code 2
and the numerical failures (rank, genericity, convergence) to exit code 3.
"""


class TlseError(Exception):
    """Base class for all tlsekit errors."""


class InputError(TlseError, ValueError):
    """Malformed input: bad shapes, non-finite entries, invalid parameters."""


class RankError(TlseError):
    """A matrix required to have full rank is rank deficient."""


class IllPosedError(TlseError):
    """The genericity condition fails or a shifted Gram matrix is singular."""


class NonGenericError(TlseError):
    """The normalizing component of the solution direction vanishes."""


class NumericalError(TlseError):
    """A backend factorization failed to converge or broke down."""


class UndefinedConditionError(TlseError):
    """Condition number requested for a problem with zero solution."""
