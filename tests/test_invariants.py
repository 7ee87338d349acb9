"""Unit tests for the link-invariant pipeline."""

from itertools import permutations
from math import comb, gcd

import pytest

from whlink import (
    LinkInvariants,
    NotAPolynomialError,
    NotASmoothCurveError,
    OrlikDivisor,
    WeightSystem,
    build_cover,
    link_invariants,
)
from whlink import polynomials as poly
from whlink.cover import cover_divisor
from whlink.divisor import lam
from whlink.invariants import (
    MAX_POLY_DEGREE,
    char_poly_from_divisor,
    invariants_from_divisor,
    milnor_orlik_divisor,
    oracle_expand,
)
from whlink.verify import build_grid

POINCARE = WeightSystem((15, 10, 6), 30)
POINCARE_DIVISOR = OrlikDivisor({30: 1, 6: -1, 10: -1, 15: -1, 2: 1, 3: 1, 5: 1, 1: -1})
CUBIC_DIVISOR = OrlikDivisor({3: 3, 1: -1})
# (t^2 - 1)(t^3 - 1) / (t - 1)
HAND_DIVISOR = OrlikDivisor({2: 1, 3: 1, 1: -1})
# the 30th cyclotomic polynomial, frozen from the brute-force expansion
POINCARE_POLY = [1, 1, 0, -1, -1, -1, 0, 1, 1]


def test_divisor_cubic():
    assert milnor_orlik_divisor(WeightSystem((1, 1, 1), 3)) == CUBIC_DIVISOR


def test_divisor_family_member_has_rational_intermediates():
    # (lam(7) - 1)(lam(7)/2 - 1)(lam(7)/3 - 1) collapses to integers: the
    # integer product (lam(7) - 1)(lam(7) - 2)(lam(7) - 3) is 18 lam(7) - 6
    assert milnor_orlik_divisor(WeightSystem((1, 2, 3), 7)) == OrlikDivisor({7: 3, 1: -1})


def test_divisor_not_integral_is_none():
    # genus formula integral, but the product has coefficients in thirds
    assert milnor_orlik_divisor(WeightSystem((1, 4, 6), 8)) is None
    assert milnor_orlik_divisor(WeightSystem((7, 1, 1), 3)) is None


def test_divisor_poincare():
    assert milnor_orlik_divisor(POINCARE) == POINCARE_DIVISOR


def test_divisor_association_order_irrelevant():
    # the integer factors lam(u) - v multiply to prod v = 6 times the divisor
    # 3 lam(7) - 1 in any order
    ws = WeightSystem((1, 2, 3), 7)
    assert all(u == 7 for u, _v in ws.reduced_ratios())
    factors = [OrlikDivisor({u: 1, 1: -v}) for u, v in ws.reduced_ratios()]
    reference = OrlikDivisor({7: 18, 1: -6})
    for order in permutations(factors):
        product = lam(1)
        for f in order:
            product = product * f
        assert product == reference


def test_char_poly_cubic():
    # (t^3 - 1)^3 / (t - 1) = (t^2 + t + 1)^3 (t - 1)^2
    assert char_poly_from_divisor(CUBIC_DIVISOR) == [1, 1, 1, -2, -2, -2, 1, 1, 1]


def test_char_poly_identity_divisor():
    assert char_poly_from_divisor(lam(1)) == [-1, 1]


def test_char_poly_hand_expandable():
    # (t^2 - 1)(t^3 - 1) / (t - 1) = t^4 + t^3 - t - 1
    assert char_poly_from_divisor(HAND_DIVISOR) == [-1, -1, 0, 1, 1]


def test_char_poly_poincare():
    p = char_poly_from_divisor(POINCARE_DIVISOR)
    assert p == POINCARE_POLY
    assert sum(p) == 1


def test_char_poly_rejects_non_polynomial():
    with pytest.raises(NotAPolynomialError):
        char_poly_from_divisor(OrlikDivisor({4: 1, 2: -2, 1: 1}))
    with pytest.raises(NotAPolynomialError):
        char_poly_from_divisor(OrlikDivisor({1: -1}))


def test_oracle_matches_pipeline():
    for div in (
        CUBIC_DIVISOR,
        HAND_DIVISOR,
        POINCARE_DIVISOR,
        lam(1),
        OrlikDivisor(),
        OrlikDivisor({4: 7, 1: -1}),
    ):
        assert oracle_expand(div) == char_poly_from_divisor(div)


def test_oracle_matches_pipeline_on_every_small_cover():
    # verify's oracle property sweeps base rows only: here every cell of
    # d <= 8, k <= 8 with gcd(d, k) = 1, the cones' zero divisors included
    grid, _skipped = build_grid(8)
    covers = [
        cover_divisor(div, k)
        for ws, _g, div in grid
        for k in range(2, 9)
        if gcd(ws.degree, k) == 1
    ]
    for div in covers:
        assert oracle_expand(div) == char_poly_from_divisor(div), div
    assert sum(1 for div in covers if div) == 168
    assert max(-c for div in covers for _j, c in div.items()) == 43


@pytest.mark.parametrize(
    "weights, degree, k",
    [
        ((3, 3, 13), 39, 34),
        ((2, 2, 5), 22, 21),
        ((3, 6, 13), 39, 44),
        ((1, 2, 2), 30, None),
        ((1, 1, 1), 11, 2),
    ],
)
def test_oracle_matches_pipeline_on_heavy_queries(weights, degree, k):
    # the longest production expansions of the bench's query mix: covers
    # with terms down to -20, and a base link of degree 5684; the plane
    # curve's cover divides (t^11 - 1)^91 out of a numerator that is zero
    # on 9 of the 11 residue classes
    div = milnor_orlik_divisor(WeightSystem(weights, degree))
    if k is not None:
        div = cover_divisor(div, k)
    assert oracle_expand(div) == char_poly_from_divisor(div)


def test_plane_curve_cover_has_its_closed_form():
    # 91 lam(22) - 91 lam(11) - lam(2) + lam(1) is (t^11 + 1)^91 / (t + 1)
    div = cover_divisor(milnor_orlik_divisor(WeightSystem((1, 1, 1), 11)), 2)
    assert div == OrlikDivisor({22: 91, 11: -91, 2: -1, 1: 1})
    numerator = [0] * 1002
    for m in range(92):
        numerator[11 * m] = comb(91, m)
    quotient = [numerator[0]]  # synthetic division by t + 1, from the bottom
    for a in numerator[1:-1]:
        quotient.append(a - quotient[-1])
    assert quotient[-1] == numerator[-1]  # remainder 0
    assert len(quotient) == 1001
    assert char_poly_from_divisor(div) == quotient


def test_oracle_divides_one_block_at_a_time(monkeypatch):
    # (1,2,2; 24) is (t^24 - 1)^121 / ((t^12 - 1)^10 (t - 1)).  One long
    # division by the product of the denominator blocks takes 2784 steps of
    # its 21 lower terms, 58,464 multiply-subtracts; dividing by each block,
    # largest j first, takes 2785 steps of 10 and then 2784 of 1
    div = milnor_orlik_divisor(WeightSystem((1, 2, 2), 24))
    assert div == OrlikDivisor({24: 121, 12: -10, 1: -1})
    calls = []
    long_divmod = poly.long_divmod

    def recording(num, den):
        calls.append((len(num), den))
        return long_divmod(num, den)

    monkeypatch.setattr(poly, "long_divmod", recording)
    assert oracle_expand(div) == char_poly_from_divisor(div)
    assert [den for _n, den in calls] == [poly.inflate(poly.t_minus_one_power(10), 12), [-1, 1]]
    work = sum((n - len(den) + 1) * (len(den) - den.count(0) - 1) for n, den in calls)
    assert work == 30_634


def test_linear_cone_is_answered_before_any_ratio_is_reduced(monkeypatch):
    # (1,4,6; 8) alone leaves a fractional product, and the weight 8 = d
    # makes (1,4,6,8; 8) a linear cone, whose divisor is zero
    assert milnor_orlik_divisor(WeightSystem((1, 4, 6), 8)) is None

    def refused(ws):
        raise AssertionError(f"reduced_ratios called for {ws}")

    monkeypatch.setattr(WeightSystem, "reduced_ratios", refused)
    div = milnor_orlik_divisor(WeightSystem((1, 4, 6, 8), 8))
    assert div == OrlikDivisor() and len(div) == 0


def test_degree_identity():
    for div in (CUBIC_DIVISOR, POINCARE_DIVISOR, HAND_DIVISOR):
        assert len(char_poly_from_divisor(div)) - 1 == div.polynomial_degree()


def test_link_invariants_family_member():
    inv = link_invariants(WeightSystem((1, 2, 3), 7))
    assert inv.divisor == OrlikDivisor({7: 3, 1: -1})
    assert inv.multiplicity_of_unity == 2
    assert inv.genus == 1
    assert inv.delta_at_one is None
    assert inv.char_poly is not None and len(inv.char_poly) - 1 == 20


def test_link_invariants_poincare():
    inv = link_invariants(POINCARE)
    assert inv.multiplicity_of_unity == 0
    assert inv.delta_at_one == 1
    assert inv.genus == 0
    assert inv.char_poly == POINCARE_POLY


def test_link_invariants_four_variable_cover():
    inv = link_invariants(WeightSystem((3, 2, 2, 2), 6))
    assert inv.multiplicity_of_unity == 0
    assert inv.delta_at_one == 4
    assert inv.genus is None


def test_invariants_from_divisor_stores_the_genus_of_three_weights():
    ws = WeightSystem((1, 2, 3), 7)
    inv = invariants_from_divisor(ws, milnor_orlik_divisor(ws))
    assert inv.system == ws
    assert inv.genus == 1
    assert invariants_from_divisor(POINCARE, POINCARE_DIVISOR).genus == 0


def test_link_invariants_respects_poly_degree_cap():
    # the plane curve of degree 30: polynomial degree 29^3 = 24389 > 10000
    inv = link_invariants(WeightSystem((1, 1, 1), 30))
    assert inv.divisor.polynomial_degree() == 24389 > MAX_POLY_DEGREE
    assert inv.char_poly is None
    assert inv.multiplicity_of_unity == 2 * inv.genus == 812


def test_link_invariants_rejects_unrealizable_system():
    # integral genus and divisor, but a negative root multiplicity
    with pytest.raises(NotASmoothCurveError):
        link_invariants(WeightSystem((4, 10, 27), 40))


def test_json_report_shape():
    ws = WeightSystem((1, 2, 3), 7)
    report = link_invariants(ws).as_json()
    assert report["weights"] == [1, 2, 3]
    assert report["degree"] == 7
    assert report["betti"] == 2
    assert report["genus"] == 1
    assert report["delta_at_one"] is None
    assert report["delta_poly"][-1] == "1"
    assert {"j": 7, "num": "3", "den": "1"} in report["divisor"]


def prints_char_poly(inv) -> bool:
    return inv.as_json()["delta_poly"] == [str(c) for c in inv.char_poly]


def test_json_delta_poly_over_the_grid_and_its_covers():
    # b = 2g for three weights and b = 0 for a cover: every one is a palindrome
    grid, _skipped = build_grid(16)
    records = [invariants_from_divisor(ws, div) for ws, _g, div in grid]
    records += [
        build_cover(ws, k, skip_direct_path=True).invariants
        for ws, _g, _div in grid
        for k in range(2, 13)
        if gcd(ws.degree, k) == 1
    ]
    expanded = [inv for inv in records if inv.char_poly is not None]
    assert len(expanded) == 5277
    assert all(map(prints_char_poly, expanded))


@pytest.mark.parametrize(
    "char_poly",
    [
        [7],  # a mirror that doubles the middle of an odd list makes it [7, 7]
        [-2, -2],
        [3, -5, 3],
        [1, 10**30, 10**30, 1],
        [1, 2, 3],  # not a palindrome
    ],
)
def test_json_delta_poly_of_a_hand_built_record(char_poly):
    inv = LinkInvariants(POINCARE, POINCARE_DIVISOR, 0, char_poly, 1, 0)
    assert prints_char_poly(inv)


@pytest.mark.parametrize("weights", [(1, 1), (1, 1, 1, 1)])
def test_json_delta_poly_with_an_odd_betti_number(weights):
    # t^D p(1/t) = -p(t): the expansion is anti-palindromic
    inv = link_invariants(WeightSystem(weights, 4))
    assert inv.multiplicity_of_unity % 2 == 1
    assert inv.char_poly == [-c for c in reversed(inv.char_poly)]
    assert prints_char_poly(inv)
