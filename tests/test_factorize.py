"""Factorization against the plain trial-division factorizer it replaced.

``trial_division_factorize`` is that factorizer, kept verbatim as the
reference: ``factorize`` must give the same pairs, or raise the same error
class with the same message, on every input.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import nextprime, prevprime

from whlink import InputError, factorize, is_prime
from whlink.errors import require_int

_TRIAL_LIMIT = 10**6
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def trial_division_factorize(k: int) -> list:
    """Prime factorization as ascending (prime, exponent) pairs.

    Trial division up to 10**6 with a primality test on the cofactor; a
    composite cofactor past that bound is out of supported range.
    """
    require_int(k, 1, "factorization is defined for positive integers")
    out = []
    rest = k
    f = 2
    while f * f <= rest and f < _TRIAL_LIMIT:
        if rest % f == 0:
            e = 0
            while rest % f == 0:
                rest //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if rest > 1:
        if rest < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(rest):
            out.append((rest, 1))
        else:
            raise InputError(f"cannot factor {k}: cofactor {rest} is out of range")
    return out


def outcome(factorizer, k):
    try:
        return factorizer(k)
    except InputError as exc:
        return type(exc), str(exc)


def assert_same_as_trial_division(ks):
    for k in ks:
        assert outcome(factorize, k) == outcome(trial_division_factorize, k), k


def random_primes(rng, lo, hi, count):
    return [prevprime(rng.randrange(lo, hi)) for _ in range(count)]


def test_every_small_k():
    assert_same_as_trial_division(range(1, 5001))


def test_random_k_below_1e13():
    rng = random.Random(20260917)
    assert_same_as_trial_division(rng.randrange(1, 10**13) for _ in range(2000))


def test_semiprimes_straddling_the_trial_limit():
    rng = random.Random(11)
    ps = random_primes(rng, 5 * 10**5 + 100, 10**6, 300)
    qs = [nextprime(rng.randrange(10**6, 2 * 10**6 - 100)) for _ in ps]
    assert_same_as_trial_division(p * q for p, q in zip(ps, qs))


def test_primes_below_1e12():
    rng = random.Random(12)
    assert_same_as_trial_division(random_primes(rng, 10**11 + 100, 10**12, 300))


def test_powers_of_primes_past_the_trial_limit():
    p = _TRIAL_LIMIT
    for _ in range(5):
        p = nextprime(p)
        assert_same_as_trial_division([p**2, p**3])


@pytest.mark.parametrize(
    "k",
    [
        PSI_12,
        1031**10,
        999983 * 1000003 * 1000033,
        999983 * nextprime(10**30),
        2 * nextprime(PSI_13),
        prevprime(10**13) * nextprime(10**7),
        nextprime(10**13) * prevprime(10**7),
    ],
)
def test_edge_shapes(k):
    assert_same_as_trial_division([k])


def test_composite_cofactor_is_named():
    with pytest.raises(InputError) as exc:
        factorize(999983 * 1000003 * 1000033)
    assert str(exc.value) == (
        "cannot factor 1000018999486998317: cofactor 1000036000099 is out of range"
    )


@given(st.integers(min_value=1, max_value=10**13 - 1))
@settings(deadline=None)
def test_agrees_with_trial_division(k):
    assert outcome(factorize, k) == outcome(trial_division_factorize, k)


def test_trial_division_worst_cases_are_fast():
    # 48 inputs trial division takes about 5 s over: the smaller prime just
    # under its 10**6 limit, or a prime just under 10**12
    rng = random.Random(13)
    ps = random_primes(rng, 9 * 10**5 + 100, 10**6, 24)
    semiprimes = [p * nextprime(rng.randrange(10**6, 2 * 10**6)) for p in ps]
    primes = random_primes(rng, 9 * 10**11 + 100, 10**12, 24)
    start = time.perf_counter()
    results = [factorize(k) for k in semiprimes + primes]
    elapsed = time.perf_counter() - start
    assert results == [[(p, 1), (k // p, 1)] for p, k in zip(ps, semiprimes)] + [
        [(p, 1)] for p in primes
    ]
    assert elapsed < 1.0, f"{elapsed:.2f} s"
