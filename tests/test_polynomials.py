"""Unit tests for the integer polynomial helpers."""

import math
import random

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


def test_divexact_shift_round_trips():
    base = [2, -1, 0, 4, 1]
    for j in (1, 2, 3):
        grown = poly.mul_binomial_power(base, j, 1)
        assert poly.divexact_shift(grown, j) == base


def test_divexact_shift_detects_remainder():
    with pytest.raises(NotAPolynomialError):
        poly.divexact_shift([1, 0, 0, 1], 1)  # t^3 + 1 not divisible by t - 1
    with pytest.raises(NotAPolynomialError):
        poly.divexact_shift([1, 1], 3)  # degree too small


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
    # len(p) - m on both sides of the 16-index blocks, with zero, negative
    # and ~500-digit coefficients
    rng = random.Random(excess)
    big = 10**500
    for m in (0, 1, 2, 15, 16, 40):
        for _ in range(10):
            p = [
                rng.choice((0, rng.randint(-9, 9), rng.randint(-big, big)))
                for _ in range(max(0, m + excess))
            ]
            assert poly.shifted_coefficient(p, m) == binomial_sum(p, m)


def test_shifted_coefficient_edge_cases():
    assert poly.shifted_coefficient([], 0) == 0
    assert poly.shifted_coefficient([], 3) == 0
    assert poly.shifted_coefficient([4, -1, 2], 3) == 0  # len(p) <= m
    assert poly.shifted_coefficient([4, -1, 2], 0) == 5  # m = 0 is p(1)
    assert poly.shifted_coefficient([0] * 40, 5) == 0
    with pytest.raises(ValueError):
        poly.shifted_coefficient([1, 1], -1)
