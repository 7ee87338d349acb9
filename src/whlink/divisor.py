"""Exact arithmetic in the ring spanned by the divisors of t^j - 1.

``lam(j)`` is the divisor of t^j - 1: the multiset of all j-th roots of
unity, each appearing once.  Their integer combinations form a subring of
the integral group ring of C*, with multiplication determined bilinearly by

    lam(a) * lam(b) = gcd(a, b) * lam(lcm(a, b))

and with lam(1), the divisor of t - 1, acting as the ring identity.  A
combination sum_j c_j lam(j) encodes the rational function
prod_j (t^j - 1)^{c_j}; link invariants downstream are read off that
encoding without ever expanding the polynomial unless asked to.

Divisors are built from term maps {j: c_j}, the form ``items`` and
``as_json`` print; the class offers the product, equality and read-outs, no
sum or integer coercion.  Coefficients are ints only, so a fractional
divisor cannot be represented: the Milnor-Orlik product of the lam(u)/v - 1,
whose factors carry denominators, is built outside the ring, see
``invariants.milnor_orlik_divisor``.  Zero coefficients are pruned, so two
divisors are equal exactly when their term maps are equal.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import InvalidIndexError, NotAPolynomialError, require_int


class OrlikDivisor:
    """A finitely supported integer combination of the generators lam(j).

    Built from a term map {j: c_j} and immutable, so safe to share across
    threads; equality with anything but a divisor is False.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        terms = terms or {}
        for j, c in terms.items():
            require_int(j, 1, "generator index must be a positive integer", InvalidIndexError)
            require_int(c, None, "coefficient must be an int", TypeError)
        _set_terms(self, {j: c for j, c in terms.items() if c})

    @classmethod
    def _raw(cls, terms: dict) -> "OrlikDivisor":
        # trusted fast path for products and program-built term maps: the
        # caller hands over a fresh map of valid indices and coefficients,
        # which is kept as it is unless it holds a zero to prune; a map
        # that is or prunes to empty gives the one shared ``_ZERO``
        if 0 in terms.values():
            terms = {j: c for j, c in terms.items() if c}
        if not terms:
            return _ZERO
        self = object.__new__(cls)
        _set_terms(self, terms)
        return self

    # -- immutability / equality -----------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("OrlikDivisor is immutable")

    def __eq__(self, other):
        if not isinstance(other, OrlikDivisor):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __len__(self):
        return len(self._terms)

    # -- inspection --------------------------------------------------------

    def items(self):
        """Term pairs (j, coefficient), sorted by descending index."""
        return sorted(self._terms.items(), reverse=True)  # indices are unique

    def __repr__(self):
        body = ", ".join(f"{j}: {c}" for j, c in self.items())
        return f"OrlikDivisor({{{body}}})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for j, c in self.items():
            mag = abs(c)
            body = str(mag) if j == 1 else f"L({j})" if mag == 1 else f"{mag}*L({j})"
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {body}" if parts else (f"-{body}" if c < 0 else body))
        return " ".join(parts)

    # -- ring product ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, OrlikDivisor):
            return NotImplemented
        if not (self._terms and other._terms):
            return _ZERO
        acc = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                g = gcd(a, b)
                j = a * b // g
                acc[j] = acc.get(j, 0) + ca * cb * g
        return OrlikDivisor._raw(acc)

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

    def reduced_value_at_one(self) -> int:
        """Value at t = 1 of the encoded product with all t - 1 factors cancelled.

        Each t^j - 1 contributes a simple zero at t = 1 with cofactor j, so
        after dividing out (t - 1)^{coefficient_sum} the value is
        prod_j j^{c_j}, an int for the divisor of a polynomial.  A product
        that is not an integer raises ``NotAPolynomialError``.
        """
        num = den = 1
        for j, c in self._terms.items():
            if c > 0:
                num *= j**c
            else:
                den *= j**-c
        quotient, remainder = divmod(num, den)
        if remainder:
            raise NotAPolynomialError("the divisor's value at t = 1 is not an integer")
        return quotient

    # -- serialization -----------------------------------------------------

    def as_json(self) -> list:
        """Canonical JSON form: index-sorted terms with num/den strings.

        ``den`` is always "1"; it is kept for format stability.
        """
        return [{"j": j, "num": str(c), "den": "1"} for j, c in sorted(self._terms.items())]


# the slot's own setter, past the class's __setattr__, which refuses every write
_set_terms = OrlikDivisor._terms.__set__

# the one zero divisor ``_raw`` hands out: a linear cone's divisor, every
# product with it, and every product that cancels to nothing
_ZERO = object.__new__(OrlikDivisor)
_set_terms(_ZERO, {})


def lam(j: int) -> OrlikDivisor:
    """The divisor of t^j - 1 for the int j >= 1 its caller built; ``lam(1)`` is the identity."""
    return OrlikDivisor._raw({j: 1})


# -- first-principles oracle for the multiplication rule -------------------
#
# The root multiset of t^j - 1 is {m/j : 0 <= m < j}, written as reduced
# fractions in [0, 1) standing for angles.  Multiplying two polynomial
# divisors adds the root multisets pairwise mod 1, so the ring's product
# lam(a) * lam(b) can be checked against nothing but modular arithmetic.


def relation_holds(a: int, b: int) -> bool:
    """Does the ring's lam(a) * lam(b) have the pairwise sums of the roots as roots?

    Works over a common denominator n of a, b and the product's indices:
    the root m/a becomes the integer m * n/a mod n.  Each pairwise sum is
    counted up, each root of a term c lam(j) of the product counted down c
    times, and the product is right when nothing is left.
    """
    product = lam(a) * lam(b)
    n = lcm(a, b, *(j for j, _c in product.items()))
    counts = [0] * n
    for m in range(0, n, n // a):
        for i in range(0, n, n // b):
            counts[(m + i) % n] += 1
    for j, c in product.items():
        for m in range(0, n, n // j):
            counts[m] -= c
    return not any(counts)
