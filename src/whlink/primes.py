"""Deterministic primality and the family primes congruent to 3 mod 4.

A certificate-producing tool cannot afford probabilistic primality, so
``is_prime`` runs a fixed strong-pseudoprime witness battery, the first 13
primes {2, 3, ..., 41}.  Sorenson and Webster (Math. Comp. 86, 2017) prove
it correct for every n below 3317044064679887385961981, the least strong
pseudoprime to all 13 bases; the first 12 alone already fail at
318665857834031151167461 = 399165290221 * 798330580441.  Larger n is
rejected outright rather than answered with less than certainty.
"""

from __future__ import annotations

from math import isqrt

from .errors import InputError, require_int

_TRIAL_LIMIT = 10**6
# largest limit primes_4l_minus_1 sieves up to: a 10 MB flag table
MAX_SIEVE_LIMIT = 10**7
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int, a: int) -> bool:
    # is_prime calls this only for n > 41 with no witness prime dividing it,
    # so the base a is a unit mod n
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below the proven witness bound."""
    require_int(n, None, "primality is defined for integers")
    if n < 2:
        return False
    if n >= _MR_PROVEN_BOUND:
        raise InputError(f"{n} exceeds the deterministically proven primality range")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    return all(_strong_probable_prime(n, a) for a in _MR_WITNESSES)


def sieve(limit: int) -> bytearray:
    """Primality flags for 0..limit inclusive, one byte each: 1 prime, 0 not."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = bytes(len(flags[:2]))
    for p in range(2, isqrt(max(limit, 0)) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def primes_4l_minus_1(limit: int) -> list:
    """All primes p <= limit with p congruent to 3 mod 4, ascending.

    These are the degrees available to the genus-one family; there are
    infinitely many, so any bound on the forbidden factors of a target
    order can be escaped.  Limits below 3 yield the empty list; limits
    above ``MAX_SIEVE_LIMIT`` are rejected rather than sieved.
    """
    require_int(limit, 0, "limit must be a non-negative integer")
    if limit > MAX_SIEVE_LIMIT:
        raise InputError(f"limit must be at most {MAX_SIEVE_LIMIT}, got {limit}")
    flags = sieve(limit)
    return [p for p in range(3, limit + 1, 4) if flags[p]]


def family_prime_candidates():
    """Yield primes congruent to 3 mod 4 in increasing order, unboundedly."""
    p = 3
    while True:
        if is_prime(p):
            yield p
        p += 4


def factorize(k: int) -> list:
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
