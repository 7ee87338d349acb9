"""The link-invariant pipeline for weighted homogeneous singularities.

Following Milnor and Orlik, the divisor of the characteristic polynomial of
the monodromy acting on the middle homology of the Milnor fiber is

    div = prod_i (lam(u_i) / v_i - 1),        d / w_i = u_i / v_i reduced,

which for a quasi-smooth polynomial collapses to an integer combination
sum_j a_j lam(j) - 1.  Everything else is read off that divisor:

  * the coefficient sum counts the t - 1 factors of the polynomial and is
    the first Betti number of a 3-variable link (twice the curve genus) or
    the second Betti number of a 4-variable one;
  * when the sum is zero the link is a rational homology sphere and the
    value at t = 1 is the order of its H_2 torsion group;
  * the polynomial itself expands to prod_j (t^j - 1)^{c_j}, computed here
    two independent ways so each can police the other.

Two caps bound the work: ``MAX_POLY_DEGREE`` is the largest polynomial
the pipeline expands (larger ones are reported as divisors only), and
``errors.MAX_ORDER_DIGITS`` the most decimal digits of a torsion order or
divisor coefficient it computes and prints (more are rejected as input).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf, log10

from . import polynomials as poly
from .divisor import OrlikDivisor
from .errors import (
    ConsistencyError,
    CrossCheckError,
    MalformedDivisorError,
    NotAPolynomialError,
    NotASmoothCurveError,
    require_digits,
)
from .weights import WeightSystem

MAX_POLY_DEGREE = 10_000


def milnor_orlik_divisor(ws: WeightSystem) -> OrlikDivisor | None:
    """Divisor of the monodromy characteristic polynomial of the link.

    The product prod (lam(u_i) - v_i) of integer factors is expanded over
    the subsets S of the weights.  Since lam(a) lam(b) = gcd(a, b) lam(lcm(a, b)),
    each S contributes the single term

        (-1)^{n-|S|} * (prod_{i in S} u_i / L_S) * prod_{i not in S} v_i * lam(L_S),

    with L_S = lcm{u_i : i in S} and L_{empty} = 1.  Every L_S divides d, so
    the expansion is built one ratio at a time as plain int coefficients
    keyed by index, merged as they are formed: at most tau(d) entries
    whatever the number of weights, without the divisor ring's product.
    The sums are divided exactly by prod v_i.  The quotient is integral for
    an actual quasi-smooth polynomial; for formal weight systems that no
    such polynomial has, such as w=(1,4,6), d=8, a coefficient leaves a
    remainder and the result is None.
    """
    terms = {1: 1}
    denominator = 1
    for u, v in ws.reduced_ratios():
        expanded = {}
        for index, c in terms.items():
            g = gcd(index, u)
            lcm = index // g * u
            expanded[lcm] = expanded.get(lcm, 0) + c * g
            expanded[index] = expanded.get(index, 0) - c * v
        terms = expanded
        denominator *= v
    quotients = {}
    for j, c in terms.items():
        q, r = divmod(c, denominator)
        if r:
            return None
        quotients[j] = q
    return OrlikDivisor._raw(quotients)


def link_divisor(ws: WeightSystem) -> OrlikDivisor:
    """The Milnor-Orlik divisor, for every entry point that takes a weight system.

    A product that is not integral, or has a negative root multiplicity,
    raises ``NotASmoothCurveError``: no quasi-smooth polynomial has it, so
    there is no link.  A coefficient past ``MAX_ORDER_DIGITS`` raises ``InputError``.
    """
    div = milnor_orlik_divisor(ws)
    if div is None or not div.encodes_polynomial():
        raise NotASmoothCurveError(
            f"divisor of {ws} is fractional or has a negative root multiplicity; "
            "no quasi-smooth polynomial realizes these weights"
        )
    largest = max((abs(c) for _j, c in div.items()), default=0)
    require_digits(largest.bit_length() * log10(2), "a divisor coefficient")
    return div


def betti_from_divisor(div: OrlikDivisor) -> int:
    """Multiplicity of t = 1 in the encoded polynomial, read as a Betti number."""
    s = div.coefficient_sum()
    if s < 0:
        raise MalformedDivisorError(
            f"coefficient sum {s} is negative; not the divisor of a link polynomial"
        )
    return s


def char_poly_from_divisor(div: OrlikDivisor) -> list:
    """Expand prod (t^j - 1)^{c_j} exactly, production route.

    Positive powers are folded in through precomputed binomial rows and
    negative ones divided out with the shift recurrence, one factor at a
    time; any remainder aborts with ``NotAPolynomialError``.
    """
    num = [1]
    negatives = []
    for j, c in sorted(div.items()):
        if c > 0:
            num = poly.mul_binomial_power(num, j, c)
        else:
            negatives.append((j, -c))
    for j, c in negatives:
        for _ in range(c):
            num = poly.divexact_shift(num, j)
    return num


def oracle_expand(div: OrlikDivisor) -> list:
    """Expand the same product by brute force, oracle route.

    Builds numerator and denominator through repeated schoolbook products
    of two-term factors and finishes with ordinary long division.  Shares
    no shortcut with ``char_poly_from_divisor``; the two must agree bit for
    bit on every divisor that encodes a polynomial.
    """
    num, den = [1], [1]
    for j, c in sorted(div.items()):
        block = poly.inflate(poly.power([-1, 1], abs(c)), j)
        if c > 0:
            num = poly.mul(num, block)
        else:
            den = poly.mul(den, block)
    quot, rem = poly.long_divmod(num, den)
    if rem:
        raise NotAPolynomialError("divisor does not encode a polynomial")
    return quot


@dataclass(frozen=True)
class LinkInvariants:
    """Everything the divisor pipeline knows about one link.

    ``multiplicity_of_unity`` is the coefficient sum: b_1 for a 3-variable
    link, b_2 for a 4-variable one.  ``delta_at_one`` is present exactly
    when that multiplicity vanishes and is then the order of H_2 torsion.
    ``char_poly`` is populated only when the expanded degree fits under
    ``MAX_POLY_DEGREE``.  ``genus`` is present for 3-variable links only.
    """

    divisor: OrlikDivisor
    multiplicity_of_unity: int
    char_poly: list | None
    delta_at_one: int | None
    genus: int | None

    def as_json(self, system: WeightSystem) -> dict:
        return {
            "weights": list(system.weights),
            "degree": system.degree,
            "divisor": self.divisor.as_json(),
            "betti": self.multiplicity_of_unity,
            "genus": self.genus,
            "delta_poly": None
            if self.char_poly is None
            else [str(c) for c in self.char_poly],
            "delta_at_one": None if self.delta_at_one is None else str(self.delta_at_one),
        }


def invariants_from_divisor(div: OrlikDivisor, *, genus: int | None = None) -> LinkInvariants:
    """Assemble the invariant record for an already computed divisor.

    The torsion order's digits are estimated as sum_j c_j log10 j and
    bounded by ``require_digits`` before any power is computed.
    """
    mult = betti_from_divisor(div)
    if genus is not None and 2 * genus != mult:
        raise CrossCheckError(
            f"genus formula gives {genus} but the divisor gives multiplicity {mult}"
        )
    delta_at_one = None
    if mult == 0:
        try:
            digits = sum(c * log10(j) for j, c in div.items())
        except OverflowError:  # a coefficient past the float range
            digits = inf
        require_digits(digits, "the torsion order")
        value = div.reduced_value_at_one()
        if value.denominator != 1 or value <= 0:
            raise ConsistencyError(
                f"torsion order came out as {value}, not a positive integer"
            )
        delta_at_one = int(value)
    char_poly = None
    if div.polynomial_degree() <= MAX_POLY_DEGREE:
        char_poly = char_poly_from_divisor(div)
        if len(char_poly) - 1 != div.polynomial_degree():
            raise ConsistencyError("expanded polynomial degree disagrees with divisor")
        at_one = sum(char_poly)
        if mult == 0 and at_one != delta_at_one:
            raise CrossCheckError(
                f"polynomial value {at_one} at t = 1 disagrees with divisor value"
            )
        if mult > 0 and at_one != 0:
            raise CrossCheckError("polynomial should vanish at t = 1 but does not")
    return LinkInvariants(
        divisor=div,
        multiplicity_of_unity=mult,
        char_poly=char_poly,
        delta_at_one=delta_at_one,
        genus=genus,
    )


def link_invariants(ws: WeightSystem) -> LinkInvariants:
    """Full invariant record of the link of a weight system.

    The divisor comes from ``link_divisor``.  For three variables the
    genus is computed independently and checked against the divisor's
    multiplicity (first Betti number = twice the genus); a mismatch raises
    ``CrossCheckError``.
    """
    div = link_divisor(ws)
    genus = ws.genus() if ws.n == 3 else None
    return invariants_from_divisor(div, genus=genus)
