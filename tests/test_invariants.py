"""Unit tests for the link-invariant pipeline."""

from itertools import permutations

import pytest

from whlink import (
    MalformedDivisorError,
    NonIntegralDivisorError,
    NotAPolynomialError,
    NotASmoothCurveError,
    OrlikDivisor,
    WeightSystem,
    betti_from_divisor,
    char_poly_from_divisor,
    lam,
    link_invariants,
    milnor_orlik_divisor,
    oracle_expand,
)

POINCARE = WeightSystem((15, 10, 6), 30)
POINCARE_DIVISOR = (
    lam(30) - lam(6) - lam(10) - lam(15) + lam(2) + lam(3) + lam(5) - 1
)
# the 30th cyclotomic polynomial, frozen from the brute-force expansion
POINCARE_POLY = [1, 1, 0, -1, -1, -1, 0, 1, 1]


def test_divisor_cubic():
    assert milnor_orlik_divisor(WeightSystem((1, 1, 1), 3)) == 3 * lam(3) - 1


def test_divisor_family_member_has_rational_intermediates():
    # (lam(7) - 1)(lam(7)/2 - 1)(lam(7)/3 - 1) collapses to integers
    assert milnor_orlik_divisor(WeightSystem((1, 2, 3), 7)) == 3 * lam(7) - 1


def test_divisor_poincare():
    assert milnor_orlik_divisor(POINCARE) == POINCARE_DIVISOR


def test_divisor_association_order_irrelevant():
    ws = WeightSystem((1, 2, 3), 7)
    factors = [lam(u) / v - 1 for u, v in ws.reduced_ratios()]
    reference = milnor_orlik_divisor(ws)
    for order in permutations(factors):
        product = OrlikDivisor.one()
        for f in order:
            product = product * f
        assert product == reference


def test_betti_from_divisor():
    assert betti_from_divisor(3 * lam(3) - 1) == 2
    assert betti_from_divisor(3 * lam(6) - 3 * lam(3) - lam(2) + 1) == 0
    assert betti_from_divisor(lam(1)) == 1


def test_betti_rejects_negative_sum():
    with pytest.raises(MalformedDivisorError):
        betti_from_divisor(lam(3) - 2)


def test_betti_rejects_fractional():
    with pytest.raises(NonIntegralDivisorError):
        betti_from_divisor(lam(3) / 2)


def test_char_poly_cubic():
    # (t^3 - 1)^3 / (t - 1) = (t^2 + t + 1)^3 (t - 1)^2
    assert char_poly_from_divisor(3 * lam(3) - 1) == [1, 1, 1, -2, -2, -2, 1, 1, 1]


def test_char_poly_identity_divisor():
    assert char_poly_from_divisor(lam(1)) == [-1, 1]


def test_char_poly_hand_expandable():
    # (t^2 - 1)(t^3 - 1) / (t - 1) = t^4 + t^3 - t - 1
    assert char_poly_from_divisor(lam(2) + lam(3) - 1) == [-1, -1, 0, 1, 1]


def test_char_poly_poincare():
    p = char_poly_from_divisor(POINCARE_DIVISOR)
    assert p == POINCARE_POLY
    assert sum(p) == 1


def test_char_poly_rejects_non_polynomial():
    with pytest.raises(NotAPolynomialError):
        char_poly_from_divisor(lam(4) - 2 * lam(2) + 1)
    with pytest.raises(NotAPolynomialError):
        char_poly_from_divisor(-lam(1))


def test_oracle_matches_pipeline():
    for div in (
        3 * lam(3) - 1,
        lam(2) + lam(3) - 1,
        POINCARE_DIVISOR,
        lam(1),
        OrlikDivisor(),
        7 * lam(4) - lam(1),
    ):
        assert oracle_expand(div) == char_poly_from_divisor(div)


def test_degree_identity():
    for div in (3 * lam(3) - 1, POINCARE_DIVISOR, lam(2) + lam(3) - 1):
        assert len(char_poly_from_divisor(div)) - 1 == div.polynomial_degree()


def test_link_invariants_family_member():
    inv = link_invariants(WeightSystem((1, 2, 3), 7))
    assert inv.divisor == 3 * lam(7) - 1
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


def test_link_invariants_respects_poly_degree_cap():
    inv = link_invariants(WeightSystem((1, 2, 3), 7), max_poly_degree=10)
    assert inv.char_poly is None
    assert inv.multiplicity_of_unity == 2


def test_link_invariants_rejects_unrealizable_system():
    # integral genus and divisor, but a negative root multiplicity
    with pytest.raises(NotASmoothCurveError):
        link_invariants(WeightSystem((4, 10, 27), 40))


def test_json_report_shape():
    ws = WeightSystem((1, 2, 3), 7)
    report = link_invariants(ws).as_json(ws)
    assert report["weights"] == [1, 2, 3]
    assert report["degree"] == 7
    assert report["betti"] == 2
    assert report["genus"] == 1
    assert report["delta_at_one"] is None
    assert report["delta_poly"][-1] == "1"
    assert {"j": 7, "num": "3", "den": "1"} in report["divisor"]
