"""Weight vectors with a degree, and the curve invariants they determine.

A weight system (w_1, ..., w_n; d) records the weights and degree of a
weighted homogeneous polynomial.  The reduced ratios u_i / v_i = d / w_i
drive the divisor calculus; for three variables the Orlik-Wagreich formula
gives the genus of the orbit curve, and the sum of the weights is the Fano
index of the quotient orbifold.
"""

from __future__ import annotations

from math import gcd, log10

from .errors import InputError, NotASmoothCurveError, require_digits, require_int


def genus_formula(w1: int, w2: int, w3: int, d: int) -> int | None:
    """Orlik-Wagreich genus of primitive weights (w_1, w_2, w_3) and degree d,

        1/2 * ( d^2 / (w_1 w_2 w_3)
                - d * sum_{i<j} gcd(w_i, w_j) / (w_i w_j)
                + sum_i gcd(d, w_i) / w_i
                - 1 ),

    the plane-curve count (d-1)(d-2)/2 when all weights are 1: an int when
    it is a non-negative integer, None otherwise.
    """
    # cleared of denominators: each term is the formula's times 2 * w1 * w2 * w3
    product = w1 * w2 * w3
    numerator = (
        d * d
        - d * (gcd(w1, w2) * w3 + gcd(w1, w3) * w2 + gcd(w2, w3) * w1)
        + gcd(d, w1) * w2 * w3
        + gcd(d, w2) * w1 * w3
        + gcd(d, w3) * w1 * w2
        - product
    )
    genus, remainder = divmod(numerator, 2 * product)
    return None if remainder or genus < 0 else genus


class WeightSystem:
    """Ordered positive weights plus a positive integer degree.

    The weight order given by the caller is preserved for reporting, but
    equality and hashing use the sorted weights: every invariant computed
    here is symmetric in the weights.
    """

    __slots__ = ("weights", "degree")

    def __init__(self, weights, degree):
        weights = tuple(weights)
        if len(weights) < 2:
            raise InputError("a weight system needs at least two weights")
        # an exact int >= 1 passes inline; anything else goes to require_int,
        # which accepts an int subclass and raises for the rest
        for w in weights:
            if type(w) is not int or w < 1:
                require_int(w, 1, "weights must be positive integers")
        if type(degree) is not int or degree < 1:
            require_int(degree, 1, "degree must be a positive integer")
        _set_weights(self, weights)
        _set_degree(self, degree)

    def __setattr__(self, name, value):
        raise AttributeError("WeightSystem is immutable")

    @property
    def n(self) -> int:
        return len(self.weights)

    def __eq__(self, other):
        if not isinstance(other, WeightSystem):
            return NotImplemented
        return sorted(self.weights) == sorted(other.weights) and self.degree == other.degree

    def __hash__(self):
        return hash((tuple(sorted(self.weights)), self.degree))

    def __repr__(self):
        return f"WeightSystem({self.weights}, {self.degree})"

    def __str__(self):
        return f"w=({','.join(map(str, self.weights))}; d={self.degree})"

    def reduced_ratios(self) -> list:
        """Pairs (u_i, v_i) with d / w_i = u_i / v_i in lowest terms."""
        out = []
        for w in self.weights:
            g = gcd(self.degree, w)
            out.append((self.degree // g, w // g))
        return out

    def fano_index(self) -> int:
        """Sum of the weights, the base orbifold's positivity index: InputError past 4000 digits."""
        fano = sum(self.weights)
        require_digits(fano.bit_length() * log10(2), "the Fano index")
        return fano

    def genus(self) -> int:
        """Genus of the curve cut out by the weight system, by ``genus_formula``.

        Weights with a common factor, outside the formula's effective circle
        action, raise ``InputError``: divide it out of weights and degree,
        which keeps the ratios and so the divisor.  A fractional or negative
        value raises ``NotASmoothCurveError``; it is never rounded away.
        """
        if self.n != 3:
            raise InputError("the genus formula is defined for exactly three weights")
        w1, w2, w3 = self.weights
        if gcd(w1, w2, w3) != 1:
            raise InputError(
                f"weights of {self} share a common factor; rescale to the "
                "primitive weight system, which has the same link"
            )
        genus = genus_formula(w1, w2, w3, self.degree)
        if genus is None:
            raise NotASmoothCurveError(
                f"genus formula for {self} is not a non-negative integer; "
                "no quasi-smooth curve has these weights"
            )
        return genus

    def as_json(self) -> dict:
        return {"weights": list(self.weights), "degree": self.degree}


# the slots' own setters, past the class's __setattr__, which refuses every write
_set_weights = WeightSystem.weights.__set__
_set_degree = WeightSystem.degree.__set__
