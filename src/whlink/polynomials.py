"""Dense integer polynomials, plus fast helpers for t^j - 1 factors.

A polynomial is a plain list of arbitrary-precision ints, constant term
first, with no trailing zeros; the zero polynomial is the empty list.

Two deliberately separate tool sets live here.  The generic routines
(``mul``, ``power``, ``long_divmod``) do schoolbook arithmetic and back the
brute-force oracle only; ``power`` squares and multiplies over the bits of
the exponent and never uses a binomial recurrence.  The shaped routines
(``mul_binomial_power``, ``divexact_binomial_power``) exploit the
two-term structure of t^j - 1 and back the production pipeline: the product
walks only p's nonzero terms, and the division works residue class by
residue class mod j, skipping the classes that are all zero.  Keeping both
lets the test suite compare the pipeline against arithmetic that shares
none of its shortcuts.

``shifted_coefficient`` is the oracle's read-out of the value at t = 1.  It
shares nothing with ``OrlikDivisor.reduced_value_at_one``, the product of
the j^{c_j} it is checked against: it reads sum_i p_i * C(i, m) off the
first differences of the oracle's coefficients, which vanish along the
long runs that a divided-out (t - 1) leaves, and steps the one big
binomial across each gap between the nonzero ones.
"""

from __future__ import annotations

from itertools import accumulate, compress, count
from math import prod
from operator import sub

from .errors import NotAPolynomialError


def trim(p: list) -> list:
    """Drop trailing zeros in place and return the list."""
    end = len(p)
    while end and p[end - 1] == 0:
        end -= 1
    del p[end:]
    return p


def mul(a: list, b: list) -> list:
    """Schoolbook product, skipping zero coefficients."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bk in enumerate(b):
                if bk:
                    out[i + k] += ai * bk
    return trim(out)


def _square(a: list) -> list:
    """Schoolbook square: each cross product a_i a_k, i < k, formed once and doubled."""
    n = len(a)
    out = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            out[2 * i] += ai * ai
            twice = 2 * ai
            for k in range(i + 1, n):
                ak = a[k]
                if ak:
                    out[i + k] += twice * ak
    return trim(out)


def power(base: list, n: int) -> list:
    """base^n by square-and-multiply over the bits of n, schoolbook products only."""
    if n < 0:
        raise ValueError("power expects a non-negative exponent")
    out = [1]
    for bit in bin(n)[2:]:
        out = _square(out)
        if bit == "1":
            out = mul(out, base)
    return out


def inflate(p: list, j: int) -> list:
    """Substitute t^j for the variable: coefficient i moves to slot j*i."""
    if j < 1:
        raise ValueError("inflate expects a positive stride")
    if not p or j == 1:
        return list(p)
    out = [0] * (j * (len(p) - 1) + 1)
    for i, c in enumerate(p):
        out[j * i] = c
    return out


def long_divmod(num: list, den: list) -> tuple:
    """Quotient and remainder by a monic divisor, ordinary long division."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if den[-1] != 1:
        raise ValueError("long_divmod expects a monic divisor")
    rem = list(num)
    dn = len(den) - 1
    if len(rem) - 1 < dn:
        return [], trim(rem)
    quot = [0] * (len(rem) - dn)
    support = [(i, c) for i, c in enumerate(den) if c and i != dn]
    for k in range(len(quot) - 1, -1, -1):
        coef = rem[k + dn]
        if coef:
            quot[k] = coef
            for i, c in support:
                rem[k + i] -= coef * c
    del rem[dn:]
    return trim(quot), trim(rem)


def shifted_coefficient(p: list, m: int):
    """Coefficient of s^m in p(1 + s), namely sum_i p_i * C(i, m).

    When (t - 1)^m divides p this is the value of p(t) / (t - 1)^m at
    t = 1, read off in a single pass instead of m long divisions.  As
    (t - 1) p(t) is s p(1 + s) at t = 1 + s, the sum is also
    sum_i (p_{i-1} - p_i) * C(i, m + 1), over the first differences of p,
    of which only the nonzero ones at i > m count.  C(i, m + 1) is stepped
    from one such index a to the next i by the exact ratio
    prod_{a<k<=i} k / (k - m - 1).
    """
    if m < 0:
        raise ValueError("shifted_coefficient expects a non-negative order")
    tail = p[m:]
    diffs = list(map(sub, tail, tail[1:] + [0]))  # p_{i-1} - p_i for i = m + 1, m + 2, ...
    total = 0
    a = m + 1
    binom = 1  # C(a, m + 1)
    for i, d in zip(compress(count(a), diffs), filter(None, diffs)):
        if i > a:
            binom = binom * prod(range(a + 1, i + 1)) // prod(range(a - m, i - m))
            a = i
        total += d * binom
    return total


def mul_binomial_power(p: list, j: int, c: int) -> list:
    """Multiply p by (t^j - 1)^c using the expanded binomial directly.

    The factor is sum_m (-1)^{c-m} C(c, m) t^{jm}; the binomials are built
    by the multiplicative recurrence, so this route never performs a
    polynomial-by-polynomial product.  p's nonzero terms are listed once,
    and each of the c + 1 binomial rows walks only those.
    """
    if c < 0:
        raise ValueError("mul_binomial_power expects a non-negative exponent")
    if not p:
        return []
    out = [0] * (len(p) + j * c)
    terms = [(i, pi) for i, pi in enumerate(p) if pi]
    binom = 1
    for m in range(c + 1):
        coef = binom if (c - m) % 2 == 0 else -binom
        base = j * m
        for i, pi in terms:
            out[base + i] += coef * pi
        binom = binom * (c - m) // (m + 1)
    return trim(out)


def divexact_binomial_power(p: list, j: int, c: int) -> list:
    """Exact division of p by (t^j - 1)^c, residue class by residue class mod j.

    As p = q * (t^j - 1) gives p_i = q_{i-j} - q_i, q's class is the running
    sum of p's from the top, and the last sum, the remainder, must vanish:
    one ``accumulate`` pass over each class for each of the c factors.  A
    class of p that is all zero has an all-zero quotient class and no
    remainder, so it is skipped, and ``out`` keeps its zeros there.
    """
    if c < 0:
        raise ValueError("divexact_binomial_power expects a non-negative exponent")
    if not p:
        return []
    factor = f"t^{j} - 1" if c == 1 else f"(t^{j} - 1)^{c}"
    if len(p) <= j * c:
        raise NotAPolynomialError(f"degree {len(p) - 1} polynomial is not divisible by {factor}")
    out = [0] * (len(p) - j * c)
    for r in range(j):
        sums = p[r::j]
        if not any(sums):
            continue
        sums.reverse()
        for _ in range(c):
            sums = list(accumulate(sums))
            if sums.pop():
                raise NotAPolynomialError(f"division by {factor} leaves a remainder")
        out[r::j] = sums[::-1]
    return out
