"""Exact arithmetic in the ring spanned by the divisors of t^j - 1.

``lam(j)`` is the divisor of t^j - 1: the multiset of all j-th roots of
unity, each appearing once.  These elements span a subring of the rational
group ring of C*, with multiplication determined bilinearly by

    lam(a) * lam(b) = gcd(a, b) * lam(lcm(a, b))

and with lam(1), the divisor of t - 1, acting as the ring identity.  An
integral combination sum_j c_j lam(j) encodes the rational function
prod_j (t^j - 1)^{c_j}; link invariants downstream are read off that
encoding without ever expanding the polynomial unless asked to.

Coefficients are exact rationals throughout.  Products such as
(lam(7)/2 - 1) * (lam(7)/3 - 1) pass through fractional terms that cancel
only once the full product is assembled, so nothing may be rounded.
Canonical form prunes zero coefficients immediately after every operation;
two divisors are equal exactly when their canonical term maps are equal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    InvalidIndexError,
    NonIntegralDivisorError,
    PoleAtOneError,
    ZeroAtOneError,
    require_int,
)

_Scalar = (int, Fraction)


def _normalized(terms: dict) -> dict:
    """Canonical coefficient storage: no zeros, whole numbers as plain ints."""
    out = {}
    for j, c in terms.items():
        if not c:
            continue
        if not isinstance(c, int) and c.denominator == 1:
            c = c.numerator
        out[j] = c
    return out


class OrlikDivisor:
    """A finitely supported rational combination of the generators lam(j).

    Instances are immutable; every operation returns a fresh canonical
    divisor and is safe to share across threads.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canonical = {}
        if terms is not None:
            items = terms.items() if hasattr(terms, "items") else terms
            for j, c in items:
                require_int(j, 1, "generator index must be a positive integer", InvalidIndexError)
                if not isinstance(c, _Scalar) or isinstance(c, bool):
                    raise TypeError(
                        f"coefficient must be an int or Fraction, got {type(c).__name__}"
                    )
                c = canonical.get(j, 0) + c
                if c:
                    canonical[j] = c
                elif j in canonical:
                    del canonical[j]
        object.__setattr__(self, "_terms", _normalized(canonical))

    @classmethod
    def _raw(cls, terms: dict) -> "OrlikDivisor":
        # trusted fast path for results of arithmetic: indices are already
        # valid, only zero pruning and int demotion are needed
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", _normalized(terms))
        return self

    # -- construction ----------------------------------------------------

    @classmethod
    def one(cls) -> "OrlikDivisor":
        """The ring identity, the divisor of t - 1."""
        return cls({1: 1})

    # -- immutability / equality -----------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("OrlikDivisor is immutable")

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- inspection --------------------------------------------------------

    def items(self):
        """Term pairs (j, coefficient), sorted by descending index."""
        return sorted(self._terms.items(), key=lambda t: -t[0])

    def coefficient(self, j: int):
        """Coefficient of lam(j): an int, or a Fraction when not whole."""
        return self._terms.get(j, 0)

    __getitem__ = coefficient

    def __repr__(self):
        body = ", ".join(f"{j}: {c}" for j, c in self.items())
        return f"OrlikDivisor({{{body}}})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for j, c in self.items():
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            gen = "1" if j == 1 else f"L({j})"
            if j == 1:
                body = str(mag)
            elif mag == 1:
                body = gen
            else:
                body = f"{mag}*{gen}"
            parts.append(f"{sign} {body}" if parts else (f"-{body}" if c < 0 else body))
        return " ".join(parts)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, OrlikDivisor):
            return other
        if isinstance(other, _Scalar) and not isinstance(other, bool):
            return OrlikDivisor({1: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        for j, c in other._terms.items():
            acc[j] = acc.get(j, 0) + c
        return OrlikDivisor._raw(acc)

    __radd__ = __add__

    def __neg__(self):
        return OrlikDivisor._raw({j: -c for j, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, _Scalar) and not isinstance(other, bool):
            return OrlikDivisor._raw({j: c * other for j, c in self._terms.items()})
        if not isinstance(other, OrlikDivisor):
            return NotImplemented
        acc = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                g = gcd(a, b)
                j = a * b // g
                acc[j] = acc.get(j, 0) + ca * cb * g
        return OrlikDivisor._raw(acc)

    __rmul__ = __mul__

    def __truediv__(self, q):
        if not isinstance(q, _Scalar) or isinstance(q, bool):
            return NotImplemented
        return self * (Fraction(1) / q)

    # -- invariants of the encoded product ---------------------------------

    def coefficient_sum(self):
        """Sum of all coefficients, an exact rational.

        For the divisor of an actual characteristic polynomial this is the
        multiplicity of t = 1 as a root, hence a Betti number.
        """
        return sum(self._terms.values())

    def is_integral(self) -> bool:
        # canonical form keeps whole coefficients as plain ints
        return all(isinstance(c, int) for c in self._terms.values())

    def require_integral(self, what):
        """Raise ``NonIntegralDivisorError`` unless every coefficient is whole."""
        if not self.is_integral():
            raise NonIntegralDivisorError(
                f"{what} requires integer coefficients, got {self!r}"
            )

    def polynomial_degree(self) -> int:
        """Degree of prod (t^j - 1)^{c_j}, namely sum_j j * c_j."""
        self.require_integral("polynomial degree")
        return sum(j * int(c) for j, c in self._terms.items())

    def encodes_polynomial(self) -> bool:
        """True when prod (t^j - 1)^{c_j} is a polynomial, not just rational.

        Equivalent to every root-of-unity multiplicity being non-negative.
        The multiplicity of the primitive e-th roots is the sum of c_j over
        the support indices e divides.  It depends only on that set of
        indices, whose gcd divides exactly the same ones, so testing the
        gcds of nonempty subsets of the support is exact at any size of d.
        Divisors produced by actual singularity links always pass; formal
        weight systems that no quasi-smooth polynomial realizes can fail.
        """
        self.require_integral("root multiplicities")
        orders = set()
        for j in self._terms:
            orders |= {gcd(j, e) for e in orders}
            orders.add(j)
        return all(
            sum(c for j, c in self._terms.items() if j % e == 0) >= 0 for e in orders
        )

    def reduced_value_at_one(self) -> Fraction:
        """Value at t = 1 of the encoded product with all t - 1 factors cancelled.

        Each t^j - 1 contributes a simple zero at t = 1 with cofactor j, so
        after dividing out (t - 1)^{coefficient_sum} the value is
        prod_j j^{c_j}.  Defined for every integral divisor.
        """
        self.require_integral("evaluation at t = 1")
        num = den = 1
        for j, c in self._terms.items():
            if c > 0:
                num *= j**c
            else:
                den *= j**-c
        return Fraction(num, den)

    def value_at_one(self) -> Fraction:
        """Value of prod (t^j - 1)^{c_j} at t = 1, when finite and nonzero.

        The coefficient sum must vanish.  A positive sum means the product
        is 0 at t = 1 and raises ``ZeroAtOneError`` tagged with the
        multiplicity, so callers can tell a positive-Betti link apart from
        an arithmetic mistake; a negative sum raises ``PoleAtOneError``.
        """
        self.require_integral("evaluation at t = 1")
        s = int(self.coefficient_sum())
        if s > 0:
            raise ZeroAtOneError(s)
        if s < 0:
            raise PoleAtOneError(-s)
        return self.reduced_value_at_one()

    # -- serialization -----------------------------------------------------

    def as_json(self) -> list:
        """Canonical JSON form: index-sorted terms with num/den strings."""
        return [
            {"j": j, "num": str(c.numerator), "den": str(c.denominator)}
            for j, c in sorted(self._terms.items())
        ]

    @classmethod
    def from_json(cls, data) -> "OrlikDivisor":
        return cls({int(t["j"]): Fraction(int(t["num"]), int(t["den"])) for t in data})


def lam(j: int) -> OrlikDivisor:
    """The divisor of t^j - 1; ``lam(1)`` is the ring identity."""
    return OrlikDivisor({j: 1})


# -- first-principles oracle for the multiplication rule -------------------
#
# The root multiset of t^j - 1 is {m/j : 0 <= m < j}, written as reduced
# fractions in [0, 1) standing for angles.  Multiplying two polynomial
# divisors adds the root multisets pairwise mod 1, so the product rule for
# lam(a) * lam(b) can be checked against nothing but modular arithmetic.


def relation_holds(a: int, b: int) -> bool:
    """Does lam(a) * lam(b) = gcd(a, b) * lam(lcm(a, b)) hold on root multisets?

    Works over the common denominator L = lcm(a, b): the root m/a becomes
    the integer m * L/a mod L, pairwise sums are integer sums mod L, and
    the expected multiset is every residue with multiplicity gcd(a, b).
    """
    g = gcd(a, b)
    lcm = a * b // g
    stride_a, stride_b = lcm // a, lcm // b
    counts = [0] * lcm
    for m in range(a):
        x = m * stride_a
        for n in range(b):
            counts[(x + n * stride_b) % lcm] += 1
    return all(c == g for c in counts)
