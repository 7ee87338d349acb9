"""Property-based tests for the algebraic laws the pipeline leans on."""

from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whlink import NotAPolynomialError, OrlikDivisor, WeightSystem
from whlink import polynomials as poly
from whlink.cover import cover_divisor, cover_weights
from whlink.divisor import lam
from whlink.invariants import milnor_orlik_divisor, oracle_expand

divisors = st.dictionaries(
    keys=st.integers(min_value=1, max_value=60),
    values=st.integers(min_value=-6, max_value=6).filter(bool),
    max_size=5,
).map(OrlikDivisor)


@given(divisors, divisors)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(divisors, divisors, divisors)
@settings(max_examples=60)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(divisors)
def test_lam1_is_identity(d):
    assert lam(1) * d == d
    assert d * lam(1) == d


@given(divisors, divisors, divisors)
@settings(max_examples=60)
def test_mul_distributes_over_add(a, b, c):
    # the ring has no sum: b + c and a b + a c are merged term maps
    b_plus_c = Counter(dict(b.items()))
    b_plus_c.update(dict(c.items()))
    ab_plus_ac = Counter(dict((a * b).items()))
    ab_plus_ac.update(dict((a * c).items()))
    assert a * OrlikDivisor(b_plus_c) == OrlikDivisor(ab_plus_ac)


@given(divisors)
def test_canonical_idempotence(d):
    assert OrlikDivisor(dict(d.items())) == d
    assert all(c != 0 for _, c in d.items())


@given(divisors, st.integers(min_value=2, max_value=50))
def test_cover_divisor_is_the_lam_k_minus_one_product(d, k):
    # lam(k) d - lam(1) d, the difference merged term by term
    expected = Counter(dict((lam(k) * d).items()))
    expected.subtract(dict(d.items()))
    assert cover_divisor(d, k) == OrlikDivisor(expected)


@given(divisors)
@example(OrlikDivisor({6: 2, 2: -1, 3: -1}))  # 36 / 6 = 6
@example(OrlikDivisor({2: 1, 4: -1}))  # 1/2
def test_reduced_value_matches_fraction_product(d):
    # prod_j j^{c_j}: an int where it is an integer, a refusal everywhere else
    value = prod(Fraction(j) ** c for j, c in d.items())
    if value.denominator == 1:
        result = d.reduced_value_at_one()
        assert type(result) is int and result == value
    else:
        with pytest.raises(NotAPolynomialError):
            d.reduced_value_at_one()


# indices among the divisors of 120, so that gcds of support indices are
# often themselves outside the support
lattice_divisors = st.dictionaries(
    keys=st.sampled_from([j for j in range(1, 121) if 120 % j == 0]),
    values=st.sampled_from([-1, 1]),
    max_size=8,
).map(OrlikDivisor)


@given(st.one_of(divisors, lattice_divisors))
@example(OrlikDivisor({12: 1, 4: -1, 6: -1, 1: 1}))  # fails only at order 2 = gcd(4, 6)
@settings(max_examples=600)
def test_encodes_polynomial_matches_definition(d):
    # every root-of-unity multiplicity is non-negative: for each order e up
    # to the largest index, the coefficients of the multiples of e sum >= 0
    terms = dict(d.items())
    definition = all(
        sum(c for j, c in terms.items() if j % e == 0) >= 0
        for e in range(1, max(terms, default=0) + 1)
    )
    assert d.encodes_polynomial() == definition


weight_systems = st.builds(
    WeightSystem,
    st.lists(st.integers(min_value=1, max_value=24), min_size=2, max_size=4),
    st.integers(min_value=1, max_value=40),
)


@given(weight_systems)
def test_reduced_ratio_law(ws):
    for (u, v), w in zip(ws.reduced_ratios(), ws.weights):
        assert u * w == ws.degree * v
        assert gcd(u, v) == 1


def rational_milnor_orlik(ws):
    """prod (lam(u)/v - 1) on plain {j: Fraction} maps, by the gcd/lcm rule."""
    product = {1: Fraction(1)}
    for u, v in ws.reduced_ratios():
        factor = {u: Fraction(1, v)}
        factor[1] = factor.get(1, 0) - 1
        out = {}
        for a, ca in product.items():
            for b, cb in factor.items():
                g = gcd(a, b)
                out[a * b // g] = out.get(a * b // g, 0) + ca * cb * g
        product = {j: c for j, c in out.items() if c}
    return product


@given(weight_systems)
@example(WeightSystem((1, 4, 6), 8))
@example(WeightSystem((7, 1, 1), 3))
@settings(max_examples=300)
def test_milnor_orlik_matches_rational_product(ws):
    assert_matches_rational_product(ws)


def assert_matches_rational_product(ws):
    # None exactly when the rational product has a fractional coefficient,
    # and otherwise the same coefficients
    reference = milnor_orlik_divisor(ws)
    product = rational_milnor_orlik(ws)
    if any(c.denominator != 1 for c in product.values()):
        assert reference is None
    else:
        assert reference is not None
        assert dict(reference.items()) == {j: int(c) for j, c in product.items()}
    return reference, product


@pytest.mark.parametrize(
    "weights, degree, expected",
    [
        # a weight equal to d: the factor lam(1) - 1 vanishes
        ((1, 2, 3), 3, {}),
        # a weight 2d: u = 1 but v = 2, so the factor is -1/2, not 0, and the
        # product -(lam(3) + 1)/2 is nonzero and fractional
        ((1, 1, 6), 3, None),
        # two weights, x^3 + y^2: the trefoil, t^2 - t + 1
        ((2, 3), 6, {6: 1, 3: -1, 2: -1, 1: 1}),
        # five weights, one with v = 2
        ((1, 1, 1, 1, 2), 3, {3: 3, 1: -1}),
        # 6 / 4 = 3 / 2 is not integral, and with no weight equal to d
        # nothing cancels it: (lam(2) - 1)(lam(3) / 2 - 1) is fractional
        ((3, 4), 6, None),
    ],
)
def test_milnor_orlik_pinned_systems(weights, degree, expected):
    reference, product = assert_matches_rational_product(WeightSystem(weights, degree))
    if expected is None:
        assert reference is None and product
    else:
        assert dict(reference.items()) == expected


@pytest.mark.parametrize(
    "weights, degree",
    [
        ((7, 7), 7),
        ((1, 2, 5), 5),
        ((5, 1, 2), 5),
        ((2, 3, 4, 12), 12),
        # 6 / 4 = 3 / 2 is not integral, yet lam(1) - 1 = 0 kills the product
        ((3, 4, 6), 6),
    ],
)
def test_linear_cone_divisor_is_zero(weights, degree):
    cone = WeightSystem(weights, degree)
    reference, _product = assert_matches_rational_product(cone)
    assert reference == OrlikDivisor({})
    if len(weights) == 3:
        for k in range(2, 13):
            cover, _product = assert_matches_rational_product(cover_weights(cone, k))
            assert cover == OrlikDivisor({})


def test_power_matches_repeated_product():
    product = [1]  # (t - 1)^n, one schoolbook product at a time
    for n in range(71):
        assert poly.t_minus_one_power(n) == product
        product = poly.mul(product, [-1, 1])


@given(st.lists(st.integers(min_value=-8, max_value=8), max_size=8),
       st.lists(st.integers(min_value=-8, max_value=8), max_size=8))
def test_poly_mul_commutative(a, b):
    a, b = poly.trim(list(a)), poly.trim(list(b))
    assert poly.mul(a, b) == poly.mul(b, a)


@given(
    st.lists(st.integers(min_value=-8, max_value=8), max_size=10),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=6),
)
def test_poly_division_round_trip(coeffs, stride, j, c):
    # inflating by the stride leaves whole residue classes of p and of the
    # product all zero, the classes the division skips
    p = poly.inflate(poly.trim(list(coeffs)), stride)
    grown = poly.mul_binomial_power(p, j, c)
    assert poly.divexact_binomial_power(grown, j, c) == p


def one_shot_oracle(div):
    # every negative block multiplied together, then one long division
    num, den = [1], [1]
    for j, c in sorted(div.items()):
        block = poly.inflate(poly.t_minus_one_power(abs(c)), j)
        if c > 0:
            num = poly.mul(num, block)
        else:
            den = poly.mul(den, block)
    quot, rem = poly.long_divmod(num, den)
    if rem:
        raise NotAPolynomialError("divisor does not encode a polynomial")
    return quot


def expansion_or_refusal(expand, div):
    try:
        return expand(div)
    except NotAPolynomialError as exc:
        return type(exc), str(exc)


def quotient_divisor(pairs):
    # the sum of the lam(a b) - lam(a), each the divisor of (t^{ab} - 1) / (t^a - 1):
    # a polynomial's divisor, with negative terms whenever some b > 1
    terms = Counter()
    for a, b in pairs:
        terms[a * b] += 1
        terms[a] -= 1
    return OrlikDivisor(dict(terms))


quotient_divisors = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=6)),
    max_size=5,
).map(quotient_divisor)


@given(st.one_of(divisors, lattice_divisors, quotient_divisors))
@example(OrlikDivisor({6: 1, 3: -1, 2: -1}))  # t^3 + 1 is left, and t^2 - 1 does not divide it
@example(OrlikDivisor({12: 1, 6: -1, 4: -1, 1: 1}))  # t^4 - 1 leaves a remainder after t^6 - 1
@example(OrlikDivisor({4: 1, 3: -1}))  # t^3 - 1, the first block, leaves t - 1
@example(OrlikDivisor({12: 2, 6: -2, 4: -2, 2: 2, 1: 1}))  # Phi_12^2 Phi_1
@settings(max_examples=300)
def test_oracle_divides_as_one_long_division_would(div):
    # dividing block by block, largest j first, against one division by the
    # product of the blocks: the same quotient, or both refuse
    expected = expansion_or_refusal(one_shot_oracle, div)
    assert expansion_or_refusal(oracle_expand, div) == expected
    assert isinstance(expected, list) == div.encodes_polynomial()
