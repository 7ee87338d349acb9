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

from dataclasses import dataclass
from math import gcd, inf, log10

from . import polynomials as poly
from .divisor import OrlikDivisor
from .errors import (
    ConsistencyError,
    CrossCheckError,
    InputError,
    NotAPolynomialError,
    NotASmoothCurveError,
    raise_if_failed,
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
    whatever its other ratios: the expansion would cancel to zero anyway.
    """
    ratios = ws.reduced_ratios()
    if (1, 1) in ratios:
        return OrlikDivisor._raw({})
    terms = {1: 1}
    denominator = 1
    for u, v in ratios:
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


def genus_betti_check(ws: WeightSystem, genus: int, div: OrlikDivisor) -> tuple:
    """b_1 = 2g, as the (ok, error class, template, args) tuple ``verify`` counts."""
    b_1 = div.coefficient_sum()
    args = (ws, b_1, genus)
    return b_1 == 2 * genus, CrossCheckError, "{}: multiplicity {} != 2 * genus {}", args


def expansion_check(ws: WeightSystem, div: OrlikDivisor, p: list, value) -> tuple:
    """p has degree sum_j j c_j, and p(1) is ``value`` = prod_j j^{c_j} if sum_j c_j = 0, else 0.

    Returned as the (ok, error class, template, args) tuple ``verify`` counts.
    """
    got = (len(p) - 1, sum(p))
    expected = (div.polynomial_degree(), 0 if div.coefficient_sum() else value)
    template = "{}: expansion has degree {} and value {} at t = 1, the divisor gives {} and {}"
    return got == expected, CrossCheckError, template, (ws, *got, *expected)


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
    """Assemble the invariant record of ``ws`` for its already computed divisor.

    For three weights ``WeightSystem.genus`` is computed first and stored,
    not checked; ``link_invariants`` checks it.  The digits of the torsion
    order (sum_j c_j log10 j) and of the product it is divided out of (the
    terms with c_j > 0) are bounded before any power is computed.  An
    expanded polynomial must pass ``expansion_check``.
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
        value = div.reduced_value_at_one()
        if value.denominator != 1 or value <= 0:
            raise ConsistencyError(f"torsion order came out as {value}, not a positive integer")
        delta_at_one = int(value)
    char_poly = None
    if div.polynomial_degree() <= MAX_POLY_DEGREE:
        char_poly = char_poly_from_divisor(div)
        raise_if_failed(*expansion_check(ws, div, char_poly, delta_at_one))
    return LinkInvariants(ws, div, mult, char_poly, delta_at_one, genus)


def link_invariants(ws: WeightSystem) -> LinkInvariants:
    """Full invariant record of the link of a weight system.

    The divisor comes from ``link_divisor``, and the record from
    ``invariants_from_divisor``.  For three variables its genus, computed
    independently of the divisor, must then pass ``genus_betti_check``.
    """
    inv = invariants_from_divisor(ws, link_divisor(ws))
    if inv.genus is not None:
        raise_if_failed(*genus_betti_check(ws, inv.genus, inv.divisor))
    return inv
