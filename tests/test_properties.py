"""Property-based tests for the algebraic laws the pipeline leans on."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from whlink import OrlikDivisor, WeightSystem, lam
from whlink import polynomials as poly

coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
    ).filter(bool),
)

divisors = st.dictionaries(
    keys=st.integers(min_value=1, max_value=60),
    values=coefficients,
    max_size=5,
).map(OrlikDivisor)

integral_divisors = st.dictionaries(
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
    assert a * (b + c) == a * b + a * c


@given(divisors)
def test_add_negation_cancels(d):
    assert d + (-d) == OrlikDivisor()


@given(divisors)
def test_canonical_idempotence(d):
    assert OrlikDivisor(dict(d.items())) == d
    assert all(c != 0 for _, c in d.items())


@given(integral_divisors, integral_divisors)
def test_reduced_value_multiplicative(a, b):
    assert (
        a.reduced_value_at_one() * b.reduced_value_at_one()
        == (a + b).reduced_value_at_one()
    )


@given(integral_divisors)
def test_value_at_one_defined_when_balanced(d):
    # rebalance the lam(1) coefficient so the sum vanishes
    balanced = d - int(d.coefficient_sum()) * lam(1)
    assert balanced.value_at_one() == balanced.reduced_value_at_one()


# indices among the divisors of 120, so that gcds of support indices are
# often themselves outside the support
lattice_divisors = st.dictionaries(
    keys=st.sampled_from([j for j in range(1, 121) if 120 % j == 0]),
    values=st.sampled_from([-1, 1]),
    max_size=8,
).map(OrlikDivisor)


@given(st.one_of(integral_divisors, lattice_divisors))
@example(lam(12) - lam(4) - lam(6) + lam(1))  # fails only at order 2 = gcd(4, 6)
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
        from math import gcd

        assert gcd(u, v) == 1


@given(st.lists(st.integers(min_value=-8, max_value=8), max_size=8),
       st.lists(st.integers(min_value=-8, max_value=8), max_size=8))
def test_poly_mul_commutative(a, b):
    a, b = poly.trim(list(a)), poly.trim(list(b))
    assert poly.mul(a, b) == poly.mul(b, a)


@given(
    st.lists(st.integers(min_value=-8, max_value=8), max_size=10),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
)
def test_poly_division_round_trip(coeffs, j, c):
    p = poly.trim(list(coeffs))
    grown = poly.mul_binomial_power(p, j, c)
    shrunk = grown
    for _ in range(c):
        shrunk = poly.divexact_shift(shrunk, j) if shrunk else []
    assert shrunk == p
