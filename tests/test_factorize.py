"""Factorization against the rule README states for it, computed by sympy.

Let s be k with its prime factors below 2**10 divided out, and r with those
below 10**6 divided out.  ``factorize`` splits an s below psi_13 with
Brent's rho, trial-divides what rho cannot split and any s past psi_13 up
to 10**6, and accepts k iff every prime it finds is certified.  So an r at
or past psi_13 gets ``is_prime``'s range error, an r that is 1 or prime is
always accepted, and a composite r is accepted when rho splits it and
rejected as an out-of-range cofactor when rho cannot, as for every s past
psi_13.  ``stated_rule`` computes the outcomes that leaves from
``sympy.factorint`` and ``sympy.isprime``, which share no code with
whlink, and every test here requires ``factorize`` to give one of them:
exactly the same pairs, or the same error class with the same message.
``test_planted_faults_are_reported`` shows that the comparison can fail:
three wrong factorizers each depart from the rule on the inputs used here.
"""

import random
import time
from functools import cache
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime, prevprime

from whlink import InputError, primes
from whlink.primes import factorize

_TRIAL_LIMIT = 10**6
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
# Brent's rho, with the budget factorize gives it, split off the smaller
# prime of each of 21,000 sampled products p * q, p prime and uniform in
# (10**6, 5 * 10**7), q a larger prime below 10**13, and first failed near
# 5.1 * 10**7: so a composite r is taken to be split when every prime factor
# of s but its largest is below this, and every k below 2.5 * 10**15 is.
RHO_REACH = 50_000_000


def stated_rule(k: int) -> list:
    """What ``factorize(k)`` may give: its pairs, and/or (error class, message)."""
    pairs = sorted(factorint(k).items())
    r = prod(p**e for p, e in pairs if p >= _TRIAL_LIMIT)
    if r >= PSI_13:
        return [(InputError, f"{r} exceeds the deterministically proven primality range")]
    if r == 1 or isprime(r):
        return [pairs]
    rejected = (InputError, f"cannot factor {k}: cofactor {r} is out of range")
    s_primes = [p for p, e in pairs if p >= 2**10 for _ in range(e)]
    if prod(s_primes) >= PSI_13:
        return [rejected]  # trial division alone, which leaves r whole
    if s_primes[-2] < RHO_REACH:
        return [pairs]
    return [pairs, rejected]


def outcome(factorizer, k):
    try:
        return factorizer(k)
    except InputError as exc:
        return type(exc), str(exc)


def mismatches(ks):
    """The k in ``ks`` on which ``primes.factorize`` departs from the rule."""
    return [k for k in ks if outcome(primes.factorize, k) not in stated_rule(k)]


def random_primes(rng, lo, hi, count):
    return [prevprime(rng.randrange(lo, hi)) for _ in range(count)]


@cache
def semiprimes():
    # the smaller prime below the trial limit, the larger one past it
    rng = random.Random(11)
    ps = random_primes(rng, 5 * 10**5 + 100, 10**6, 300)
    qs = [nextprime(rng.randrange(10**6, 2 * 10**6 - 100)) for _ in ps]
    return [p * q for p, q in zip(ps, qs)]


@cache
def prime_powers():
    # p**2 and p**3 for the first five primes past the trial limit
    ps = [nextprime(_TRIAL_LIMIT)]
    while len(ps) < 5:
        ps.append(nextprime(ps[-1]))
    return [p**e for p in ps for e in (2, 3)]


EDGE_SHAPES = [
    PSI_12,
    1031**10,
    999983 * 1000003 * 1000033,
    999983 * nextprime(10**30),
    2 * nextprime(PSI_13),
    prevprime(10**13) * nextprime(10**7),
    nextprime(10**13) * prevprime(10**7),
    # on both sides of 1025**2, below which what is left after the primes
    # under 2**10 are stripped is taken for a prime
    1021 * 1031,
    2 * 3 * 5 * prevprime(1025**2),
    1031 * 1033,
    1031**2,
]


def test_every_small_k():
    assert mismatches(range(1, 5001)) == []


def test_random_k_below_1e13():
    rng = random.Random(20260917)
    assert mismatches([rng.randrange(1, 10**13) for _ in range(2000)]) == []


def test_semiprimes_straddling_the_trial_limit():
    assert mismatches(semiprimes()) == []


def test_primes_below_1e12():
    rng = random.Random(12)
    assert mismatches(random_primes(rng, 10**11 + 100, 10**12, 300)) == []


def test_powers_of_primes_past_the_trial_limit():
    assert mismatches(prime_powers()) == []


@pytest.mark.parametrize("k", EDGE_SHAPES)
def test_edge_shapes(k):
    assert mismatches([k]) == []


def test_certified_composite_cofactors_are_accepted():
    assert factorize(1000006000009) == [(1000003, 2)]
    assert factorize(999983 * 1000003 * 1000033) == [(999983, 1), (1000003, 1), (1000033, 1)]
    # rho must split off a prime past 4 * 10**6 here
    assert factorize(85319556368507) == [(4121561, 1), (20700787, 1)]
    assert factorize(91305213098051) == [(9421591, 1), (9691061, 1)]


def test_composite_cofactor_is_named():
    # rho cannot split psi_12 = 399165290221 * 798330580441, and trial
    # division up to 10**6 leaves it whole
    with pytest.raises(InputError) as exc:
        factorize(6 * PSI_12)
    assert str(exc.value) == (
        "cannot factor 1911995147004186907004766: cofactor 318665857834031151167461 is out of range"
    )


@cache
def past_psi_13():
    # a prime between 10**5 and the trial limit times one past psi_13: rho
    # never runs, and trial division must reach the smaller prime
    rng = random.Random(14)
    return [p * nextprime(PSI_13) for p in random_primes(rng, 10**5 + 100, 10**6, 4)]


def test_trial_division_past_psi_13():
    assert mismatches(past_psi_13()) == []


@given(st.integers(min_value=1, max_value=10**13 - 1))
@settings(deadline=None)
def test_agrees_with_stated_rule(k):
    assert outcome(factorize, k) in stated_rule(k)


def prime_cofactor_only(k):
    # the rule before every certified prime was accepted: r must be 1, below
    # 10**12 or a prime, so a certified prime power past 10**6 is refused
    pairs = factorize(k)
    r = prod(p**e for p, e in pairs if p >= _TRIAL_LIMIT)
    if r >= _TRIAL_LIMIT * _TRIAL_LIMIT and not isprime(r):
        raise InputError(f"cannot factor {k}: cofactor {r} is out of range")
    return pairs


def test_planted_faults_are_reported(monkeypatch):
    # each wrong factorizer departs from the rule on a test's own inputs
    with monkeypatch.context() as m:
        m.setattr(primes, "factorize", prime_cofactor_only)
        assert mismatches(prime_powers()) == prime_powers()
    with monkeypatch.context() as m:
        m.setattr(primes, "_TRIAL_LIMIT", 10**5)
        assert mismatches(past_psi_13()) == past_psi_13()
    with monkeypatch.context() as m:
        # is_prime without its range error
        m.setattr(primes, "_MR_PROVEN_BOUND", 10**100)
        assert mismatches(EDGE_SHAPES) == [999983 * nextprime(10**30), 2 * nextprime(PSI_13)]


def test_trial_division_worst_cases_are_fast():
    # 48 inputs trial division takes about 5 s over: the smaller prime just
    # under its 10**6 limit, or a prime just under 10**12
    rng = random.Random(13)
    ps = random_primes(rng, 9 * 10**5 + 100, 10**6, 24)
    products = [p * nextprime(rng.randrange(10**6, 2 * 10**6)) for p in ps]
    large = random_primes(rng, 9 * 10**11 + 100, 10**12, 24)
    start = time.perf_counter()
    results = [factorize(k) for k in products + large]
    elapsed = time.perf_counter() - start
    assert results == [[(p, 1), (k // p, 1)] for p, k in zip(ps, products)] + [
        [(p, 1)] for p in large
    ]
    assert elapsed < 1.0, f"{elapsed:.2f} s"
