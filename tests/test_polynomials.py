"""Unit tests for the integer polynomial helpers."""

import math
import random
from itertools import accumulate

import pytest

from whlink import NotAPolynomialError
from whlink import polynomials as poly


def test_trim():
    assert poly.trim([1, 2, 0, 0]) == [1, 2]
    assert poly.trim([0, 0]) == []


def test_mul():
    # (1 + t)(1 - t) = 1 - t^2
    assert poly.mul([1, 1], [1, -1]) == [1, 0, -1]
    assert poly.mul([], [1, 2]) == []
    assert poly.mul([3], [1, 2]) == [3, 6]


def test_power_is_pascal():
    assert poly.power([-1, 1], 4) == [1, -4, 6, -4, 1]
    assert poly.power([-1, 1], 0) == [1]


def test_inflate():
    assert poly.inflate([1, -2, 1], 3) == [1, 0, 0, -2, 0, 0, 1]
    assert poly.inflate([5], 4) == [5]
    assert poly.inflate([], 2) == []


def test_long_divmod_exact():
    num = poly.mul([1, 1, 1], [-1, 1])  # (1 + t + t^2)(t - 1) = t^3 - 1
    assert num == [-1, 0, 0, 1]
    quot, rem = poly.long_divmod(num, [-1, 1])
    assert quot == [1, 1, 1]
    assert rem == []


def test_long_divmod_remainder():
    quot, rem = poly.long_divmod([1, 0, 1], [1, 1])  # t^2 + 1 by t + 1
    assert quot == [-1, 1]
    assert rem == [2]


def test_long_divmod_short_numerator():
    quot, rem = poly.long_divmod([5], [0, 0, 1])
    assert quot == []
    assert rem == [5]


def test_long_divmod_requires_monic():
    with pytest.raises(ValueError):
        poly.long_divmod([1, 0, 1], [1, 2])
    with pytest.raises(ZeroDivisionError):
        poly.long_divmod([1], [])


def test_mul_binomial_power_matches_generic():
    for j in (1, 2, 5):
        for c in (0, 1, 2, 7):
            factor = poly.inflate(poly.power([-1, 1], c), j)
            seed = [3, 0, -1, 2]
            assert poly.mul_binomial_power(seed, j, c) == poly.mul(seed, factor)


def test_divexact_binomial_power_round_trips():
    base = [2, -1, 0, 4, 1]
    for j in (1, 2, 3, 7):
        for c in range(1, 6):
            grown = poly.mul_binomial_power(base, j, c)
            assert poly.divexact_binomial_power(grown, j, c) == base
    assert poly.divexact_binomial_power(base, 3, 0) == base


def test_divexact_binomial_power_detects_remainder():
    with pytest.raises(NotAPolynomialError, match=r"^division by t\^1 - 1 leaves a remainder$"):
        poly.divexact_binomial_power([1, 0, 0, 1], 1, 1)  # t^3 + 1 not divisible by t - 1
    degree_too_small = r"^degree 1 polynomial is not divisible by t\^3 - 1$"
    with pytest.raises(NotAPolynomialError, match=degree_too_small):
        poly.divexact_binomial_power([1, 1], 3, 1)


def test_divexact_binomial_power_divisible_once_not_twice():
    once = poly.mul_binomial_power([1, 0, 1], 2, 1)  # (t^2 + 1)(t^2 - 1), degree 4
    assert poly.divexact_binomial_power(once, 2, 1) == [1, 0, 1]
    with pytest.raises(NotAPolynomialError, match=r"^division by \(t\^2 - 1\)\^2 leaves"):
        poly.divexact_binomial_power(once, 2, 2)


def test_divexact_binomial_power_remainder_in_one_residue_class():
    base = [0, 1, 0, 0, 0, 1]
    grown = poly.mul_binomial_power(base, 3, 2)
    for r in range(3):  # one more t^r leaves a remainder in the class of r mod 3 alone
        bumped = list(grown)
        bumped[r] += 1
        with pytest.raises(NotAPolynomialError, match="leaves a remainder"):
            poly.divexact_binomial_power(bumped, 3, 2)
        bumped[r + 3] -= 1  # t^r - t^(r+3) = -t^r (t^3 - 1) divides once, not twice
        once = poly.mul_binomial_power(base, 3, 1)
        once[r] -= 1
        assert poly.divexact_binomial_power(bumped, 3, 1) == once
        with pytest.raises(NotAPolynomialError, match="leaves a remainder"):
            poly.divexact_binomial_power(bumped, 3, 2)


def test_divexact_binomial_power_remainder_in_an_all_zero_class():
    # (t + 3 t^8)(t^4 - 1)^2 has length 17 and only zeros in the classes 2
    # and 3 mod 4, each four slots long
    grown = poly.mul_binomial_power([0, 1, 0, 0, 0, 0, 0, 0, 3], 4, 2)
    assert not any(grown[2::4]) and not any(grown[3::4])
    for r in (2, 3):
        for inner in (r + 4, r + 8):  # one t^inner, neither first nor last in its class
            bumped = list(grown)
            bumped[inner] += 1
            with pytest.raises(NotAPolynomialError, match="leaves a remainder"):
                poly.divexact_binomial_power(bumped, 4, 2)
        bumped = list(grown)  # t^r - t^(r+8) = -t^r (t^4 - 1)(t^4 + 1): the class sums to 0
        bumped[r] += 1
        bumped[r + 8] -= 1
        with pytest.raises(NotAPolynomialError, match="leaves a remainder"):
            poly.divexact_binomial_power(bumped, 4, 2)


def test_divexact_binomial_power_skips_all_zero_classes(monkeypatch):
    # (t - 1)(t^22 - 1)^91 lives in the classes 0 and 1 mod 11: dividing out
    # (t^11 - 1)^91 takes 91 running-sum passes over each, none over the other 9
    passes = []

    def counting(values):
        passes.append(len(values))
        return accumulate(values)

    grown = poly.mul_binomial_power([-1, 1], 22, 91)
    monkeypatch.setattr(poly, "accumulate", counting)
    quotient = poly.divexact_binomial_power(grown, 11, 91)
    assert len(passes) == 2 * 91
    assert poly.mul_binomial_power(quotient, 11, 91) == grown and len(quotient) == 1003


def test_divexact_binomial_power_degree_below_j_c():
    grown = poly.mul_binomial_power([5, 1], 4, 2)  # degree 9
    with pytest.raises(NotAPolynomialError, match="^degree 9 polynomial is not divisible by"):
        poly.divexact_binomial_power(grown, 4, 3)  # needs degree 12
    with pytest.raises(NotAPolynomialError, match="^degree 9 polynomial is not divisible by"):
        poly.divexact_binomial_power(grown, 5, 2)


def test_divexact_binomial_power_of_the_empty_polynomial():
    assert poly.divexact_binomial_power([], 1, 1) == []
    assert poly.divexact_binomial_power([], 6, 5) == []


def test_shifted_coefficient_strips_unit_roots():
    # p = (t - 1)^2 (t + 2): value of p / (t - 1)^2 at 1 is 3
    p = poly.mul(poly.power([-1, 1], 2), [2, 1])
    assert poly.shifted_coefficient(p, 2) == 3
    assert poly.shifted_coefficient(p, 0) == 0  # p(1) = 0
    assert poly.shifted_coefficient([7], 0) == 7


def test_shifted_coefficient_agrees_with_division():
    div3 = poly.power([-1, 1], 3)
    p = poly.mul(div3, [5, 0, 2, 1])
    quot = p
    for _ in range(3):
        quot, rem = poly.long_divmod(quot, [-1, 1])
        assert rem == []
    assert poly.shifted_coefficient(p, 3) == sum(quot)


def binomial_sum(p, m):
    return sum(c * math.comb(i, m) for i, c in enumerate(p))


@pytest.mark.parametrize("excess", [-1, 0, 1, 15, 16, 17, 33])
def test_shifted_coefficient_matches_binomial_sum(excess):
    # len(p) = m + excess, so m >= len(p) for excess <= 0; m = 0 included.
    # The read-out walks the nonzero first differences p_{i-1} - p_i at
    # i > m and steps C(i, m + 1) across the gaps between them: a run of
    # equal coefficients has no difference inside it, a zero gap longer
    # than m is one long step, and trailing zeros (a list not trimmed) end
    # in a difference of -p_top.  Coefficients are zero, small, negative or
    # of about 500 digits
    rng = random.Random(excess)
    big = 10**500

    def coefficients(count):
        return [rng.choice((0, rng.randint(-9, 9), rng.randint(-big, big))) for _ in range(count)]

    for m in (0, 1, 2, 15, 16, 40):
        n = max(0, m + excess)
        for _ in range(5):
            dense = coefficients(n)
            runs = [c for c in coefficients(n) for _ in range(rng.randint(1, 30))]
            gaps = [v for c in coefficients(n) for v in [c] + [0] * (m + rng.randint(1, 9))]
            trailing = dense + [0] * rng.randint(1, m + 3)
            for p in (dense, runs[:n], gaps[:n], trailing):
                assert poly.shifted_coefficient(p, m) == binomial_sum(p, m)


def test_shifted_coefficient_edge_cases():
    assert poly.shifted_coefficient([], 0) == 0
    assert poly.shifted_coefficient([], 3) == 0
    assert poly.shifted_coefficient([4, -1, 2], 3) == 0  # len(p) <= m
    assert poly.shifted_coefficient([4, -1, 2], 0) == 5  # m = 0 is p(1)
    assert poly.shifted_coefficient([0] * 40, 5) == 0
    with pytest.raises(ValueError):
        poly.shifted_coefficient([1, 1], -1)
