"""Exception hierarchy, and the integer validator every entry point shares.

Two families matter to callers: ``InputError`` covers everything a user can
trigger from the command line (bad weights, non-coprime covers, a prime of
the wrong shape), while every other ``WhlinkError`` signals that an internal
cross-check failed and the computation cannot be trusted.  The CLI maps the
former to exit code 1 and the latter to exit code 2.
"""


class WhlinkError(Exception):
    """Base class for every error raised by this package."""


class InputError(WhlinkError, ValueError):
    """The caller supplied data outside an operation's domain."""


class InvalidIndexError(InputError):
    """A divisor generator index was not a positive integer."""


class NotASmoothCurveError(InputError):
    """No quasi-smooth curve has these weights.

    Raised when the genus formula returns a negative or fractional value,
    or the divisor is fractional or has a negative root multiplicity.
    These are proxy filters for the weight system cutting out an actual
    quasi-smooth curve; this package does not verify quasi-smoothness
    itself.
    """


class CoprimalityError(InputError):
    """A branched cover exponent shares a factor with the base degree."""


class FamilyDomainError(InputError):
    """The prime handed to the genus-one family is not of the form 4l - 1."""


class NonIntegralDivisorError(WhlinkError):
    """An operation requiring integer coefficients met a fractional one."""


class UnitValueError(WhlinkError):
    """Evaluating prod (t^j - 1)^{c_j} at t = 1 with unbalanced exponents."""

    def __init__(self, coefficient_sum, message):
        super().__init__(message)
        self.coefficient_sum = coefficient_sum


class ZeroAtOneError(UnitValueError):
    """The product vanishes at t = 1; carries the vanishing multiplicity."""

    def __init__(self, multiplicity):
        super().__init__(
            multiplicity,
            f"value at t = 1 is 0 with multiplicity {multiplicity}",
        )
        self.multiplicity = multiplicity


class PoleAtOneError(UnitValueError):
    """The product has a pole at t = 1; carries the pole order."""

    def __init__(self, order):
        super().__init__(-order, f"pole of order {order} at t = 1")
        self.order = order


class NotAPolynomialError(WhlinkError):
    """A divisor's encoded product is not an honest polynomial.

    Raised when exact division leaves a remainder, which means the divisor
    did not come from the characteristic polynomial of an actual link.
    """


class MalformedDivisorError(WhlinkError):
    """A divisor presented as a link divisor fails a basic sanity bound."""


class ConsistencyError(WhlinkError, RuntimeError):
    """An internal invariant that the theory guarantees failed to hold."""


class TwoPathMismatchError(ConsistencyError):
    """The two independent cover-divisor computations disagree."""


class CrossCheckError(ConsistencyError):
    """Two independent formulas for the same invariant disagree."""


def require_int(value, minimum, message, error=InputError):
    """Raise ``error`` unless ``value`` is an int, not a bool, and >= ``minimum``.

    The message names the offending value; a ``minimum`` of None accepts
    every int.
    """
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        raise error(f"{message}, got {value!r}")
