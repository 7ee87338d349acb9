"""Exception hierarchy, and the integer validators every entry point shares.

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

    Raised by ``WeightSystem.genus`` and ``invariants.link_divisor``.
    """

    def __str__(self):
        # a callable message is formatted when read: the genus scans drop most unread
        message = self.args[0]
        return message() if callable(message) else message


class CoprimalityError(InputError):
    """A branched cover exponent shares a factor with the base degree."""


class FamilyDomainError(InputError):
    """The prime handed to the genus-one family is not of the form 4l - 1."""


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
    if type(value) is int and (minimum is None or value >= minimum):
        return  # the common case, without the isinstance tests below
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        raise error(f"{message}, got {value!r}")


# below the 4300 digits Python converts an int to a string by default, with
# room for the error of a floating-point estimate
MAX_ORDER_DIGITS = 4000


def require_digits(digits: float, what: str) -> None:
    """Raise ``InputError`` when ``what`` has more than MAX_ORDER_DIGITS digits."""
    if digits > MAX_ORDER_DIGITS:
        raise InputError(f"{what} has more than {MAX_ORDER_DIGITS} digits")
