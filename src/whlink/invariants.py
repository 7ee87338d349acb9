"""The link-invariant pipeline for weighted homogeneous singularities.

Following Milnor and Orlik, the divisor of the characteristic polynomial of
the monodromy acting on the middle homology of the Milnor fiber is

    div = prod_i (lam(u_i) / v_i - 1),        d / w_i = u_i / v_i reduced,

which for a quasi-smooth polynomial collapses to an integer combination
sum_j a_j lam(j) - 1.  Everything else is read off that divisor:

  * the coefficient sum counts the t - 1 factors of the polynomial and is
    the Betti number b_{n-2} of the (2n - 3)-dimensional link of n
    variables: b_1 for three (twice the curve genus), b_2 for four, and
    b_0 - 1 for two, whose link is b_0 circles;
  * when the sum is zero the link is a rational homology sphere and the
    value at t = 1 is the order of its H_{n-2}; for two variables it is a
    knot, with H_0 free and Alexander polynomial value Delta(1) = 1;
  * the polynomial itself expands to prod_j (t^j - 1)^{c_j}, computed here
    two independent ways so each can police the other.

Four caps bound the work: ``MAX_POLY_DEGREE``, the largest polynomial the
pipeline expands (larger ones are reported as divisors only), and three past
which the input is rejected: ``errors.MAX_ORDER_DIGITS`` digits of a torsion
order or divisor coefficient, ``MAX_DIVISOR_TERMS`` terms of a divisor the
link gate tests, and ``MAX_PRODUCT_DIGITS`` digits of prod_{c_j > 0} j^{c_j},
the product a torsion order is divided out of.
"""

from __future__ import annotations

from math import gcd, inf, log10
from typing import NamedTuple

from . import polynomials as poly
from .divisor import OrlikDivisor
from .errors import (
    CrossCheckError,
    InputError,
    NotAPolynomialError,
    NotASmoothCurveError,
    require_digits,
)
from .weights import WeightSystem

MAX_POLY_DEGREE = 10_000
# On a 2-vCPU Xeon VM the link gate takes 0.12 s at 840 terms and 8 s at 6720,
# and three weights give at most 8 terms, their covers 16; prod j^{c_j} and its
# division take 0.4 s at 10^6 digits and 1.2 s at 2 * 10^6.
MAX_DIVISOR_TERMS = 1000
MAX_PRODUCT_DIGITS = 1_000_000


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

    A weight equal to d gives the ratio 1 / 1 and the factor lam(1) - 1 = 0,
    so such a system, a linear cone, returns the zero divisor at once,
    before any ratio is reduced and whatever the others are: the expansion
    would cancel to zero anyway.
    """
    if ws.degree in ws.weights:  # the ratio d / w_i = 1 / 1
        return OrlikDivisor._raw({})
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
    there is no link.  A divisor past ``MAX_DIVISOR_TERMS`` terms, tested
    first, or a coefficient past ``MAX_ORDER_DIGITS`` raises ``InputError``.
    """
    div = milnor_orlik_divisor(ws)
    if div is not None and len(div) > MAX_DIVISOR_TERMS:
        raise InputError(f"the divisor of {ws} has more than {MAX_DIVISOR_TERMS} terms")
    if div is None or not div.encodes_polynomial():
        raise NotASmoothCurveError(
            f"divisor of {ws} is fractional or has a negative root multiplicity; "
            "no quasi-smooth polynomial realizes these weights"
        )
    largest = max((abs(c) for _j, c in div.items()), default=0)
    require_digits(largest.bit_length() * log10(2), "a divisor coefficient")
    return div


def genus_betti_check(ws: WeightSystem, genus: int, div: OrlikDivisor) -> Exception | None:
    """b_1 = 2g: None when it holds, else the ``CrossCheckError`` built only then."""
    b_1 = div.coefficient_sum()
    if b_1 != 2 * genus:
        return CrossCheckError(f"{ws}: multiplicity {b_1} != 2 * genus {genus}")
    return None


def expansion_check(ws: WeightSystem, div: OrlikDivisor, p: list, value) -> Exception | None:
    """p has degree sum_j j c_j, and p(1) is ``value`` = prod_j j^{c_j} if sum_j c_j = 0, else 0.

    None when both hold, else the ``CrossCheckError`` built only then.
    """
    got = (len(p) - 1, sum(p))
    expected = (div.polynomial_degree(), 0 if div.coefficient_sum() else value)
    template = "{}: expansion has degree {} and value {} at t = 1, the divisor gives {} and {}"
    return None if got == expected else CrossCheckError(template.format(ws, *got, *expected))


def char_poly_from_divisor(div: OrlikDivisor) -> list:
    """Expand prod (t^j - 1)^{c_j} exactly, production route.

    Positive powers are folded in through precomputed binomial rows, then
    each negative one is divided out in one call, largest j first to shorten
    the polynomial soonest; any remainder raises ``NotAPolynomialError``.
    """
    terms = div.items()  # largest j first
    num = [1]
    for j, c in reversed(terms):
        if c > 0:
            num = poly.mul_binomial_power(num, j, c)
    for j, c in terms:
        if c < 0:
            num = poly.divexact_binomial_power(num, j, -c)
    return num


def oracle_expand(div: OrlikDivisor) -> list:
    """Expand the same product by brute force, oracle route.

    Each factor (t^j - 1)^{|c_j|} is a block, the schoolbook power of t - 1
    inflated to stride j.  The positive blocks are multiplied together, then
    each negative one is divided out by long division, largest j first, and
    the first remainder raises ``NotAPolynomialError``: as every block is
    monic, that refuses exactly what one division by their product would.
    The route shares ``char_poly_from_divisor``'s factor order but none of
    its arithmetic; the two must agree bit for bit on every divisor that
    encodes a polynomial.
    """
    terms = div.items()  # largest j first
    num = [1]
    for j, c in reversed(terms):
        if c > 0:
            num = poly.mul(num, poly.inflate(poly.t_minus_one_power(c), j))
    for j, c in terms:
        if c < 0:
            num, rem = poly.long_divmod(num, poly.inflate(poly.t_minus_one_power(-c), j))
            if rem:
                raise NotAPolynomialError("divisor does not encode a polynomial")
    return num


class LinkInvariants(NamedTuple):
    """Everything the divisor pipeline knows about the link of ``system``.

    ``multiplicity_of_unity`` is the coefficient sum, b_{n-2} of the link of
    n variables: b_1 for three, b_2 for four.  ``delta_at_one`` is present
    exactly when that multiplicity vanishes and is then the order of
    H_{n-2}.  ``char_poly`` is populated only when the expanded degree fits
    under ``MAX_POLY_DEGREE``.  ``genus`` is present for 3-variable links only.
    """

    system: WeightSystem
    divisor: OrlikDivisor
    multiplicity_of_unity: int
    char_poly: list | None
    delta_at_one: int | None
    genus: int | None

    def as_json(self) -> dict:
        return {
            **self.system.as_json(),
            "divisor": self.divisor.as_json(),
            "betti": self.multiplicity_of_unity,
            "genus": self.genus,
            "delta_poly": None
            if self.char_poly is None
            else [str(c) for c in self.char_poly],
            "delta_at_one": None if self.delta_at_one is None else str(self.delta_at_one),
        }


def invariants_from_divisor(ws: WeightSystem, div: OrlikDivisor) -> LinkInvariants:
    """Assemble and check the invariant record of ``ws`` for its divisor.

    For three weights ``WeightSystem.genus`` is computed first.  The digits
    of the torsion order (sum_j c_j log10 j) and of the product it is
    divided out of (the terms with c_j > 0) are bounded before any power is
    computed.  An expanded polynomial must pass ``expansion_check``, and
    then the genus, computed without the divisor, ``genus_betti_check``.
    """
    genus = ws.genus() if ws.n == 3 else None
    mult = div.coefficient_sum()
    delta_at_one = None
    if mult == 0:
        try:
            logs = [c * log10(j) for j, c in div.items()]
        except OverflowError:  # a coefficient past the float range
            logs = [inf]
        require_digits(sum(logs), "the torsion order")
        if sum(x for x in logs if x > 0) > MAX_PRODUCT_DIGITS:
            limit = MAX_PRODUCT_DIGITS
            raise InputError(f"the torsion order's numerator has more than {limit} digits")
        delta_at_one = div.reduced_value_at_one()
    char_poly = None
    if div.polynomial_degree() <= MAX_POLY_DEGREE:
        char_poly = char_poly_from_divisor(div)
        if error := expansion_check(ws, div, char_poly, delta_at_one):
            raise error
    if genus is not None and (error := genus_betti_check(ws, genus, div)):
        raise error
    return LinkInvariants(ws, div, mult, char_poly, delta_at_one, genus)


def link_invariants(ws: WeightSystem) -> LinkInvariants:
    """Full invariant record of the link of a weight system.

    The divisor comes from ``link_divisor``, and the checked record from
    ``invariants_from_divisor``.
    """
    return invariants_from_divisor(ws, link_divisor(ws))
