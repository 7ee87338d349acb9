"""Unit tests for the integer polynomial helpers."""

import math
import random
from itertools import accumulate

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from whlink import NotAPolynomialError
from whlink import polynomials as poly
from whlink.verify import build_grid, check_oracle_agreement


def test_trim():
    assert poly.trim([1, 2, 0, 0]) == [1, 2]
    assert poly.trim([0, 0]) == []


def test_mul():
    # (1 + t)(1 - t) = 1 - t^2
    assert poly.mul([1, 1], [1, -1]) == [1, 0, -1]
    assert poly.mul([], [1, 2]) == []
    assert poly.mul([3], [1, 2]) == [3, 6]


def test_power_is_pascal():
    assert poly.t_minus_one_power(4) == [1, -4, 6, -4, 1]
    assert poly.t_minus_one_power(0) == [1]


def every_product_square(a):
    """a^2 with every product a_i a_k formed, i and k each running over all of a."""
    out = [0] * (2 * len(a) - 1) if a else []
    for i, ai in enumerate(a):
        for k, ak in enumerate(a):
            out[i + k] += ai * ak
    return poly.trim(out)


coefficient = st.integers(min_value=-99, max_value=99)
nonzero = coefficient.filter(bool)
# no trailing zero, as every power of t - 1 that is squared has none
polynomials = st.lists(coefficient, max_size=30).map(poly.trim)
zero_constant_term = st.builds(lambda a, top: [0, *a, top], st.lists(coefficient), nonzero)


@st.composite
def mirrored(draw):
    """A palindrome or an antipalindrome, of odd or even length."""
    half = [draw(nonzero), *draw(st.lists(coefficient, max_size=15))]
    sign = draw(st.sampled_from((1, -1)))
    middle = [draw(coefficient) if sign == 1 else 0] if draw(st.booleans()) else []
    return half + middle + [sign * c for c in reversed(half)]


@given(polynomials | zero_constant_term | mirrored())
@example([7])
@example([-3])
@example([2, -5])
@example([0, 4])
@example([-1, 1])
@example([6, 6])
def test_square_by_halves_forms_every_product(a):
    # the bottom half-square holds for any a, not only the mirrored ones
    assert poly._low_square(a) == every_product_square(a)[: len(a)]


@given(mirrored())
@example([7])
@example([-1, 1])
@example([6, 6])
def test_mirrored_half_square_is_the_full_square(a):
    low = poly._low_square(a)
    assert low + low[-2::-1] == every_product_square(a)


def test_power_of_t_minus_one_is_signed_binomials():
    for n in [*range(65), 127, 128, 129, 255, 256, 257, 511, 512, 513, 599, 600]:
        signed = [(-1) ** (n - i) * math.comb(n, i) for i in range(n + 1)]
        assert poly.t_minus_one_power(n) == signed


def test_power_of_t_minus_one_takes_one_half_square_per_bit(monkeypatch):
    calls = []
    low_square = poly._low_square

    def recording(a):
        calls.append(a)
        return low_square(a)

    monkeypatch.setattr(poly, "_low_square", recording)
    poly.t_minus_one_power(600)
    assert len(calls) == (600).bit_length()


def every_product(a, b):
    """a b with every product a_i b_k formed, zero or not."""
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for k, bk in enumerate(b):
            out[i + k] += ai * bk
    return poly.trim(out)


def comb_expansion(p, j, c):
    """p (t^j - 1)^c with the binomial factor written out by math.comb."""
    factor = [0] * (j * c + 1)
    for m in range(c + 1):
        factor[j * m] = (-1) ** (c - m) * math.comb(c, m)
    return every_product(p, factor)


# sparse operands: runs of zeros before, between and after the nonzero terms,
# as in the inflated blocks and padded quotients the routes list the terms of
zero_run = st.lists(st.just(0), max_size=6)
sparse = st.lists(st.tuples(zero_run, nonzero), max_size=6).flatmap(
    lambda runs: zero_run.map(lambda tail: [x for zeros, c in runs for x in (*zeros, c)] + tail)
)
monic = sparse.map(lambda low: [*low, 1])


def added(p, q):
    out = [0] * max(len(p), len(q))
    for addend in (p, q):
        for i, x in enumerate(addend):
            out[i] += x
    return poly.trim(out)


@given(sparse, sparse)
@example([0, 0, 5], [3, 0, 0, -1, 0])
@example([], [1])
def test_mul_lists_every_nonzero_term(a, b):
    assert poly.mul(a, b) == every_product(a, b)


@given(sparse, st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=6))
@example([0, 0, 4, 0, 0], 3, 2)
def test_mul_binomial_power_lists_every_nonzero_term(p, j, c):
    assert poly.mul_binomial_power(p, j, c) == comb_expansion(p, j, c)


@given(sparse.map(poly.trim), monic, sparse)
@example([0, 0, 2], [3, 0, 0, 7, 0, 1], [5])
@example([1], [0, 0, 1], [])
def test_long_divmod_by_sparse_monic_divisors_multiplies_back(quotient, den, rem):
    # num = quotient * den + rem, rem cut below den's degree: long division
    # gives both back
    rem = poly.trim(rem[: len(den) - 1])
    num = added(every_product(quotient, den), rem)
    assert poly.long_divmod(num, den) == (quotient, rem)


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


def test_mul_binomial_power_matches_generic():
    for j in (1, 2, 5):
        for c in (0, 1, 2, 7):
            factor = poly.inflate(poly.t_minus_one_power(c), j)
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
    p = poly.mul(poly.t_minus_one_power(2), [2, 1])
    assert poly.shifted_coefficient(p, 2) == 3
    assert poly.shifted_coefficient(p, 0) == 0  # p(1) = 0
    assert poly.shifted_coefficient([7], 0) == 7


def test_shifted_coefficient_agrees_with_division():
    div3 = poly.t_minus_one_power(3)
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
    assert poly.shifted_coefficient([4, -1, 2], 2) == 2  # len(p) = m + 1: the top alone
    assert poly.shifted_coefficient([1, 5, 5, 5], 1) == 30  # a run of 5s ends at the top
    assert poly.shifted_coefficient([0] * 40, 5) == 0


def test_oracle_agreement_keeps_every_helper_precondition(monkeypatch):
    # The helpers do not check their arguments: both routes promise a
    # nonempty monic divisor, non-negative exponents and orders, and
    # strides of at least 1.  Each call of the d <= 16 sweep is recorded
    calls = {}

    def record(name, index):
        helper = getattr(poly, name)

        def recording(*args):
            calls.setdefault(name, []).append(args[index])
            return helper(*args)

        monkeypatch.setattr(poly, name, recording)

    record("long_divmod", 1)
    record("inflate", 1)
    record("shifted_coefficient", 1)
    for name in ("t_minus_one_power", "mul_binomial_power", "divexact_binomial_power"):
        record(name, -1)
    assert check_oracle_agreement(build_grid(16)[0]).ok
    assert len(calls) == 6
    assert all(den and den[-1] == 1 for den in calls.pop("long_divmod"))
    assert min(calls.pop("inflate")) >= 1
    assert min(min(values) for values in calls.values()) >= 0
