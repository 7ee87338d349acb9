"""Exact arithmetic in the ring spanned by the divisors of t^j - 1.

``lam(j)`` is the divisor of t^j - 1: the multiset of all j-th roots of
unity, each appearing once.  Their integer combinations form a subring of
the integral group ring of C*, with multiplication determined bilinearly by

    lam(a) * lam(b) = gcd(a, b) * lam(lcm(a, b))

and with lam(1), the divisor of t - 1, acting as the ring identity.  A
combination sum_j c_j lam(j) encodes the rational function
prod_j (t^j - 1)^{c_j}; link invariants downstream are read off that
encoding without ever expanding the polynomial unless asked to.

Coefficients are ints and nothing else, so a fractional divisor cannot be
represented.  The Milnor-Orlik product of the lam(u)/v - 1, whose factors
carry denominators, is built outside the ring: the product of the integer
factors lam(u) - v is expanded over the subsets of the factors as plain
int coefficients keyed by index, merged as they are formed, over one
common denominator and divided exactly at the end (see
``invariants.milnor_orlik_divisor``).  Canonical
form prunes zero coefficients immediately after every operation; two
divisors are equal exactly when their canonical term maps are equal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvalidIndexError, require_int


def _normalized(terms: dict) -> dict:
    """Canonical coefficient storage: no zero coefficients."""
    return {j: c for j, c in terms.items() if c}


class OrlikDivisor:
    """A finitely supported integer combination of the generators lam(j).

    Instances are immutable; every operation returns a fresh canonical
    divisor and is safe to share across threads.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        terms = terms or {}
        for j, c in terms.items():
            require_int(j, 1, "generator index must be a positive integer", InvalidIndexError)
            require_int(c, None, "coefficient must be an int", TypeError)
        object.__setattr__(self, "_terms", _normalized(terms))

    @classmethod
    def _raw(cls, terms: dict) -> "OrlikDivisor":
        # trusted fast path for results of arithmetic: indices and
        # coefficients are already valid, only zero pruning is needed
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", _normalized(terms))
        return self

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
        if isinstance(other, int) and not isinstance(other, bool):
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
        if isinstance(other, int) and not isinstance(other, bool):
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

    # -- invariants of the encoded product ---------------------------------

    def coefficient_sum(self) -> int:
        """Sum of all coefficients.

        For the divisor of an actual characteristic polynomial this is the
        multiplicity of t = 1 as a root, hence a Betti number.
        """
        return sum(self._terms.values())

    def polynomial_degree(self) -> int:
        """Degree of prod (t^j - 1)^{c_j}, namely sum_j j * c_j."""
        return sum(j * c for j, c in self._terms.items())

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
        orders = set()
        for j in self._terms:
            orders |= {gcd(j, e) for e in orders}
            orders.add(j)
        return all(
            sum(c for j, c in self._terms.items() if j % e == 0) >= 0 for e in orders
        )

    def reduced_value_at_one(self) -> int | Fraction:
        """Value at t = 1 of the encoded product with all t - 1 factors cancelled.

        Each t^j - 1 contributes a simple zero at t = 1 with cofactor j, so
        after dividing out (t - 1)^{coefficient_sum} the value is
        prod_j j^{c_j}, a rational number defined for every divisor.  It is
        returned as an int when it is one, as a ``Fraction`` otherwise.
        """
        num = den = 1
        for j, c in self._terms.items():
            if c > 0:
                num *= j**c
            else:
                den *= j**-c
        quotient, remainder = divmod(num, den)
        return Fraction(num, den) if remainder else quotient

    # -- serialization -----------------------------------------------------

    def as_json(self) -> list:
        """Canonical JSON form: index-sorted terms with num/den strings.

        ``den`` is always "1"; it is kept for format stability.
        """
        return [{"j": j, "num": str(c), "den": "1"} for j, c in sorted(self._terms.items())]


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
