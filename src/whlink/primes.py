"""Deterministic primality, factorization, and the family primes 3 mod 4.

A certificate-producing tool cannot afford probabilistic primality.  Let
psi_t be the least strong pseudoprime to each of the first t prime bases
(OEIS A014233), so that those t bases prove primality below psi_t:
Pomerance, Selfridge and Wagstaff (Math. Comp. 35, 1980) and Jaeschke
(Math. Comp. 61, 1993) give psi_t for t <= 8, Jiang and Deng (Math. Comp.
83, 2014) psi_9 = psi_10 = psi_11, and Sorenson and Webster (Math. Comp.
86, 2017) psi_12 = 318665857834031151167461 and psi_13 =
3317044064679887385961981.  ``is_prime`` tests n to the first t of the
bases 2, 3, ..., 41 for the least t with n < psi_t: 5 bases below psi_5 =
2152302898747.  n at or past psi_13 is rejected outright rather than
answered with less than certainty.

``factorize`` strips the primes below 2**10 with one gcd against their
product, splits what is left with Pollard's rho in Brent's form (BIT 20,
1980) wherever ``is_prime`` can certify the pieces, and trial-divides up to
10**6 where it cannot.  A number is accepted when ``is_prime`` certifies
every piece that neither the gcd nor trial division divided out.
"""

from __future__ import annotations

from functools import cache
from math import gcd, isqrt, prod

from .errors import ConsistencyError, InputError, require_int

_TRIAL_LIMIT = 10**6
# factorize strips the primes below this before anything else: every k up
# to 2**20 is done there
_SMALL_PRIME_LIMIT = 2**10
_RHO_CONSTANTS = (1, 3)
# pairs Brent's rho compares per constant: a factor below 10**6 takes about
# 1300, the smaller prime of each of 21,000 sampled products with it below
# 5 * 10**7 was found within it, and a piece rho cannot split costs both
# constants about a third of the trial division that follows
_RHO_BUDGET = 2**14
_RHO_BATCH = 128
# largest limit primes_4l_minus_1 sieves up to: a 10 MB flag table
MAX_SIEVE_LIMIT = 10**7
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_t, the least strong pseudoprime to the first t witnesses (OEIS A014233):
# those t bases are exact below it
_MR_PSI = (
    2047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
_MR_PROVEN_BOUND = _MR_PSI[-1]


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
    """Deterministic primality test for n below psi_13.

    After trial division by the 13 witness primes, n gets a strong
    probable-prime test to each of the first t of them, where t is the
    least index with n < psi_t: 1 base below 2047, 5 below psi_5 =
    2152302898747, all 13 below psi_13.  ``InputError`` for n >= psi_13.
    n is an int: ``family_member`` checks it, ``realize`` and ``factorize`` build it.
    """
    if n < 2:
        return False
    if n >= _MR_PROVEN_BOUND:
        raise InputError(f"{n} exceeds the deterministically proven primality range")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    for a, psi in zip(_MR_WITNESSES, _MR_PSI):
        if not _strong_probable_prime(n, a):
            return False
        if n < psi:
            return True
    # reached only when _MR_PROVEN_BOUND is moved past psi_13
    return True


def sieve(limit: int) -> bytearray:
    """Primality flags for 0..limit inclusive, limit >= 0, one byte each: 1 prime, 0 not."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = bytes(len(flags[:2]))
    for p in range(2, isqrt(limit) + 1):
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


def _divide_out(n: int, p: int):
    """n with every factor p divided out, and how many there were."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def _trial_divide(rest: int):
    """Divide each odd f from 1025 on below 10**6 out of ``rest``, free of primes below 2**10.

    Stops once f * f > rest.  Returns the (factor, exponent) pairs found and
    what is left, which ``factorize`` hands to ``is_prime``.
    """
    out = []
    f = _SMALL_PRIME_LIMIT + 1
    while f * f <= rest and f < _TRIAL_LIMIT:
        if rest % f == 0:
            rest, e = _divide_out(rest, f)
            out.append((f, e))
        f += 2
    return out, rest


def _brent_rho(n: int):
    """A proper divisor of the odd composite n, or None if rho finds none.

    Brent's cycle search on x -> x^2 + c from x = 2, for c = 1 then 3, with
    the gcd taken once per ``_RHO_BATCH`` steps; each c compares at most
    ``_RHO_BUDGET`` pairs before giving up.
    """
    for c in _RHO_CONSTANTS:
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and r < _RHO_BUDGET:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - done)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                done += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


@cache
def _small_primes() -> tuple:
    """The primes below 2**10, ascending, and their product."""
    flags = sieve(_SMALL_PRIME_LIMIT - 1)
    small = tuple(p for p in range(2, _SMALL_PRIME_LIMIT) if flags[p])
    return small, prod(small)


def _strip_small_primes(k: int):
    """Divide every prime below 2**10 out of k: (pairs found, what is left).

    k is an int >= 1, as ``factorize``'s caller checks.  g = gcd(k, the
    product of those primes) is squarefree, and each prime dividing it is
    divided out of k as it is found.  ``factorize`` certifies what is left.
    """
    small, primorial = _small_primes()
    g = gcd(k, primorial)
    found = []
    for p in small:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            k, e = _divide_out(k, p)
            found.append((p, e))
    if g > 1:
        # squarefree, with no prime factor up to its square root: a prime
        k, e = _divide_out(k, g)
        found.append((g, e))
    return found, k


def factorize(k: int) -> list:
    """Prime factorization as ascending (prime, exponent) pairs.

    The primes below 2**10 are stripped with one gcd first; what is left is
    split by Brent's rho into pieces ``is_prime`` certifies.  A piece rho
    cannot split, or one past ``is_prime``'s range, is trial-divided up to
    10**6, and what that leaves of it must be 1 or a prime ``is_prime``
    certifies.  The pairs must multiply back to k, else ``ConsistencyError``.
    Let r be k with every prime factor below 10**6 divided out: a composite
    that is left is rejected as an out-of-range cofactor r, and one past
    ``is_prime``'s range gets its error.  k is an int >= 1, as
    ``smale_decompositions`` checks.
    """
    found, rest = _strip_small_primes(k)
    pieces = [rest] if rest > 1 else []
    unsplit = []
    while pieces:
        n = pieces.pop()
        certifiable = n < _MR_PROVEN_BOUND
        if certifiable and is_prime(n):
            found.append((n, 1))
            continue
        d = _brent_rho(n) if certifiable else None
        if d is not None:
            pieces += (d, n // d)
            continue
        # every prime below 2**10 is already out of n
        more, n = _trial_divide(n)
        found += more
        if n > 1:
            # trial division left n, which is certified below
            found.append((n, 1))
            unsplit.append(n)
    exponents = {}
    for p, e in found:
        exponents[p] = exponents.get(p, 0) + e
    out = sorted(exponents.items())
    if prod(p**e for p, e in out) != k:
        raise ConsistencyError(f"factorizing {k} gave {out}, whose product is not {k}")
    if not all(map(is_prime, unsplit)):
        r = prod(p**e for p, e in out if p >= _TRIAL_LIMIT)
        raise InputError(f"cannot factor {k}: cofactor {r} is out of range")
    return out
