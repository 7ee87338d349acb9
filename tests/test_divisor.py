"""Unit tests for the divisor ring."""

from collections import Counter
from fractions import Fraction

import pytest

from whlink import (
    InvalidIndexError,
    NotAPolynomialError,
    OrlikDivisor,
    WeightSystem,
    lam,
    milnor_orlik_divisor,
)
from whlink.divisor import relation_holds
from whlink.errors import require_int


# (t^6 - 1)^3 (t - 1) / ((t^3 - 1)^3 (t^2 - 1)), the cover divisor of the
# cubic at k = 2, and the divisor of the Poincare sphere
BRANCHED_COVER = OrlikDivisor({6: 3, 3: -3, 2: -1, 1: 1})
POINCARE = OrlikDivisor({30: 1, 6: -1, 10: -1, 15: -1, 2: 1, 3: 1, 5: 1, 1: -1})


# first-principles oracle for the multiplication rule: the root multiset of
# t^j - 1 is {m/j : 0 <= m < j}, written as reduced fractions in [0, 1)
# standing for angles, and multiplying two polynomial divisors adds the
# root multisets pairwise mod 1


def unit_root_multiset(j: int) -> Counter:
    """The angle fractions of the j-th roots of unity, as a multiset."""
    require_int(j, 1, "root multiset needs a positive integer", InvalidIndexError)
    return Counter(Fraction(m, j) for m in range(j))


def pairwise_angle_sums(a: Counter, b: Counter) -> Counter:
    """Multiset of x + y mod 1 over all pairs, with multiplicities."""
    out = Counter()
    for x, mx in a.items():
        for y, my in b.items():
            out[(x + y) % 1] += mx * my
    return out


def test_lam_basics():
    assert lam(1) == OrlikDivisor({1: 1})
    assert lam(5) == OrlikDivisor({5: 1})
    assert dict(lam(5).items()) == {5: 1}


@pytest.mark.parametrize("j", [0, -1, -17])
def test_lam_rejects_bad_index(j):
    with pytest.raises(InvalidIndexError):
        lam(j)


def test_lam_rejects_non_integer_index():
    with pytest.raises(InvalidIndexError):
        OrlikDivisor({Fraction(3, 2): 1})


def test_identity_law():
    d = OrlikDivisor({6: 3, 4: -2, 1: 1})
    assert lam(1) * d == d
    assert d * lam(1) == d


def test_mul_coprime_indices():
    assert lam(2) * lam(3) == lam(6)


def test_mul_equal_indices():
    assert lam(3) * lam(3) == OrlikDivisor({3: 3})


def test_mul_general_gcd():
    # gcd 6, lcm 36
    assert lam(12) * lam(18) == OrlikDivisor({36: 6})


def test_cube_of_lam3_minus_one():
    factor = OrlikDivisor({3: 1, 1: -1})
    assert factor * factor * factor == OrlikDivisor({3: 3, 1: -1})


def test_no_sum_negation_or_integer_coercion():
    # the program builds divisors from term maps and multiplies divisors by
    # divisors only; an int is not a divisor, not even the identity
    for operation in (
        lambda: lam(2) + lam(3),
        lambda: lam(2) - lam(3),
        lambda: -lam(2),
        lambda: 2 * lam(3),
        lambda: lam(3) * 2,
        lambda: lam(3) + 1,
        lambda: 1 - lam(3),
    ):
        with pytest.raises(TypeError):
            operation()
    assert not lam(1) == 1
    assert lam(1) != 1
    assert OrlikDivisor() != 0


def test_fractional_coefficients_are_rejected():
    # the ring is integral: a fraction is not a coefficient, and there is no
    # division to make one
    with pytest.raises(TypeError):
        OrlikDivisor({7: Fraction(1, 3)})
    with pytest.raises(TypeError):
        lam(7) / 3
    with pytest.raises(TypeError):
        OrlikDivisor({7: True})


def test_is_integral():
    # the product keeps plain int coefficients
    d = OrlikDivisor({7: 3, 1: -1}) * OrlikDivisor({2: 1, 1: -2})
    assert all(type(c) is int for _, c in d.items())
    assert all(type(c) is int for _, c in OrlikDivisor().items())


def test_fractions_that_cancel_store_as_integers():
    # (lam(7) - 1)(lam(7)/2 - 1)(lam(7)/3 - 1) has halves and thirds that
    # cancel; the product over the common denominator 6 stores ints
    d = milnor_orlik_divisor(WeightSystem((1, 2, 3), 7))
    assert d == OrlikDivisor({7: 3, 1: -1})
    assert all(type(c) is int for _, c in d.items())
    with pytest.raises(TypeError):
        lam(7) / 2 + lam(7) / 2


def test_coefficient_sum():
    assert OrlikDivisor({3: 3, 1: -1}).coefficient_sum() == 2
    assert BRANCHED_COVER.coefficient_sum() == 0
    assert OrlikDivisor().coefficient_sum() == 0


def test_value_at_one_branched_cover_case():
    value = BRANCHED_COVER.reduced_value_at_one()
    assert type(value) is int and value == 4


def test_value_at_one_poincare_case():
    assert POINCARE.reduced_value_at_one() == 1


def test_value_at_one_raises_when_not_integral():
    # (t - 1) / (t^2 - 1) = 1 / (t + 1), whose value 1/2 is no polynomial's
    with pytest.raises(NotAPolynomialError):
        OrlikDivisor({1: 1, 2: -1}).reduced_value_at_one()


def test_value_at_one_empty_product():
    assert OrlikDivisor().reduced_value_at_one() == 1


def test_value_at_one_requires_integrality():
    # a fractional divisor cannot be formed, so it never reaches the value
    assert OrlikDivisor({7: 1, 1: -1}).reduced_value_at_one() == 7
    with pytest.raises(TypeError):
        (lam(7) / 3).reduced_value_at_one()


def test_reduced_value_is_multiplicative():
    a = OrlikDivisor({3: 3, 1: -1})
    # the sum of a and POINCARE, merged term by term
    total = Counter(dict(a.items()))
    total.update(dict(POINCARE.items()))
    assert total == {30: 1, 6: -1, 10: -1, 15: -1, 2: 1, 3: 4, 5: 1, 1: -2}
    assert (
        a.reduced_value_at_one() * POINCARE.reduced_value_at_one()
        == OrlikDivisor(total).reduced_value_at_one()
    )


def test_structural_equality_and_hash():
    a = OrlikDivisor({2: -1, 6: 2, 3: 0})
    b = OrlikDivisor({6: 2, 2: -1})
    assert a == b
    assert hash(a) == hash(b)
    assert a != OrlikDivisor({6: 2})
    assert lam(2) * lam(3) == lam(6)
    assert hash(lam(2) * lam(3)) == hash(lam(6))


def test_canonical_idempotence():
    assert OrlikDivisor(dict(BRANCHED_COVER.items())) == BRANCHED_COVER


def test_repr_and_str_smoke():
    d = OrlikDivisor({6: 3, 2: -1, 1: 1})
    assert "L(6)" in str(d)
    assert "OrlikDivisor" in repr(d)
    assert str(OrlikDivisor()) == "0"


def test_immutability():
    d = lam(3)
    with pytest.raises(AttributeError):
        d._terms = {}
    assert d == lam(3)


def test_a_product_that_cancels_keeps_no_zero():
    # lam(2) lam(2) = 2 lam(2) and -2 lam(1) lam(2) = -2 lam(2)
    product = OrlikDivisor({2: 1, 1: -2}) * lam(2)
    assert product == OrlikDivisor() and len(product) == 0
    assert product._terms == {}
    partly = OrlikDivisor({2: 1, 1: -2, 3: 1}) * lam(2)
    assert partly._terms == {6: 1}


def test_program_built_zeros_are_one_shared_immutable_divisor():
    zero = OrlikDivisor._raw({})
    cancelled = OrlikDivisor({2: 1, 1: -2}) * lam(2)
    cone = milnor_orlik_divisor(WeightSystem((1, 2, 3), 3))
    assert cancelled is zero and cone is zero and OrlikDivisor._raw({4: 0}) is zero
    assert lam(6) * zero is zero and zero * POINCARE is zero
    with pytest.raises(AttributeError):
        zero._terms = {1: 1}
    assert zero._terms == {} and not zero
    # the public constructor still gives a divisor of its own, equal to it
    fresh = OrlikDivisor({})
    assert fresh is not zero
    assert zero == fresh == cancelled
    assert hash(zero) == hash(fresh) == hash(cancelled)


def test_json_round_trip():
    d = OrlikDivisor({6: 3, 2: -1, 1: 1})
    data = d.as_json()
    assert data == [
        {"j": 1, "num": "1", "den": "1"},
        {"j": 2, "num": "-1", "den": "1"},
        {"j": 6, "num": "3", "den": "1"},
    ]
    assert OrlikDivisor({t["j"]: int(t["num"]) for t in data}) == d


def test_encodes_polynomial():
    # (t^6-1)^3 / ((t^3-1)^3 (t^2-1)) * (t-1): primitive 6th roots thrice,
    # primitive 2nd roots twice
    assert BRANCHED_COVER.encodes_polynomial()
    assert not OrlikDivisor({4: 1, 2: -2, 1: 1}).encodes_polynomial()
    # every support index has a non-negative multiplicity, but order 2,
    # the gcd of 4 and 6, has 1 - 1 - 1 = -1: t = -1 is a pole
    assert not OrlikDivisor({12: 1, 4: -1, 6: -1, 1: 1}).encodes_polynomial()
    assert OrlikDivisor({12: 1, 4: -1, 6: -1, 2: 1}).encodes_polynomial()
    assert OrlikDivisor().encodes_polynomial()


def test_encodes_polynomial_requires_integrality():
    # a fractional divisor cannot be formed, so it is never tested
    assert OrlikDivisor({7: 3, 1: -1}).encodes_polynomial()
    with pytest.raises(TypeError):
        (lam(7) / 3).encodes_polynomial()


def test_encodes_polynomial_huge_indices():
    # the same two shapes scaled by m = d / 12, d near 10^18: the test may
    # not depend on the size of the indices
    m = 83333333333333333
    assert not OrlikDivisor({12 * m: 1, 4 * m: -1, 6 * m: -1, m: 1}).encodes_polynomial()
    assert OrlikDivisor({12 * m: 1, 4 * m: -1, 6 * m: -1, 2 * m: 1}).encodes_polynomial()


def test_unit_root_multiset():
    roots = unit_root_multiset(4)
    assert roots == {
        Fraction(0): 1,
        Fraction(1, 4): 1,
        Fraction(1, 2): 1,
        Fraction(3, 4): 1,
    }
    assert sum(roots.values()) == 4


def test_pairwise_angle_sums_match_relation():
    # lam(2) * lam(4): gcd 2 copies of the 4th roots of unity
    sums = pairwise_angle_sums(unit_root_multiset(2), unit_root_multiset(4))
    assert sums == {root: 2 for root in unit_root_multiset(4)}


@pytest.mark.parametrize("a,b", [(2, 3), (4, 6), (12, 18), (5, 5), (1, 9)])
def test_relation_holds_small(a, b):
    assert relation_holds(a, b)
