"""Dense integer polynomials, plus fast helpers for t^j - 1 factors.

A polynomial is a plain list of arbitrary-precision ints, constant term
first, with no trailing zeros; the zero polynomial is the empty list.

Two deliberately separate tool sets live here.  The generic routines
(``mul``, ``power``, ``long_divmod``) do schoolbook arithmetic and back the
brute-force oracle only; ``power`` squares and multiplies over the bits of
the exponent and never uses a binomial recurrence.  The shaped routines
(``mul_binomial_power``, ``divexact_shift``) exploit the two-term
structure of t^j - 1 and back the production pipeline.  Keeping both
lets the test suite compare the pipeline against arithmetic that shares
none of its shortcuts.

``shifted_coefficient`` is the oracle's read-out of the value at t = 1.  It
shares nothing with ``OrlikDivisor.reduced_value_at_one``, the product of
the j^{c_j} it is checked against: it sums p_i * C(i, m) over the oracle's
coefficients in blocks of 16 indices, summing each block over a small
common denominator and multiplying by the big binomial once per block.
"""

from __future__ import annotations

from math import prod

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


_BLOCK = 16  # indices per block of ``shifted_coefficient``; 16 to 64 time within 15%, 8 slower


def shifted_coefficient(p: list, m: int):
    """Coefficient of s^m in p(1 + s), namely sum_i p_i * C(i, m).

    When (t - 1)^m divides p this is the value of p(t) / (t - 1)^m at
    t = 1, read off in a single pass instead of m long divisions.  The
    indices i >= m go in blocks of ``_BLOCK`` starting at a = m, where
    C(i, m) = C(a, m) * prod_{a<k<=i} k / (k - m): each block's terms are
    summed by Horner over the small denominator prod (k - m), and the big
    binomial C(a, m) multiplies that sum once, with one exact division.
    """
    if m < 0:
        raise ValueError("shifted_coefficient expects a non-negative order")
    n = len(p)
    total = 0
    binom = 1
    for a in range(m, n, _BLOCK):
        b = min(a + _BLOCK, n)
        # sum_{a<=i<b} p_i prod_{a<k<=i} k / (k - m) as num / den, from the top
        num = p[b - 1]
        den = 1
        for i in range(b - 2, a - 1, -1):
            den *= i + 1 - m
            num *= i + 1
            if p[i]:
                num += p[i] * den
        total += binom * num // den
        if b < n:  # step to C(b, m); den is prod_{a<k<b} (k - m) by now
            binom = binom * prod(range(a + 1, b + 1)) // (den * (b - m))
    return total


def mul_binomial_power(p: list, j: int, c: int) -> list:
    """Multiply p by (t^j - 1)^c using the expanded binomial directly.

    The factor is sum_m (-1)^{c-m} C(c, m) t^{jm}; the binomials are built
    by the multiplicative recurrence, so this route never performs a
    polynomial-by-polynomial product.
    """
    if c < 0:
        raise ValueError("mul_binomial_power expects a non-negative exponent")
    if not p:
        return []
    out = [0] * (len(p) + j * c)
    binom = 1
    for m in range(c + 1):
        coef = binom if (c - m) % 2 == 0 else -binom
        base = j * m
        for i, pi in enumerate(p):
            if pi:
                out[base + i] += coef * pi
        binom = binom * (c - m) // (m + 1)
    return trim(out)


def divexact_shift(p: list, j: int) -> list:
    """Exact division by t^j - 1 via the shift recurrence.

    If p = q * (t^j - 1) then p_i = q_{i-j} - q_i, so q is recovered top
    down in one pass; the lowest j coefficients then pin the remainder,
    which must vanish.
    """
    if not p:
        return []
    n = len(p) - 1
    if n < j:
        raise NotAPolynomialError(f"degree {n} polynomial is not divisible by t^{j} - 1")
    q = [0] * (n - j + 1)
    for i in range(n, j - 1, -1):
        qi = q[i] if i <= n - j else 0
        q[i - j] = p[i] + qi
    for i in range(j):
        qi = q[i] if i <= n - j else 0
        if p[i] != -qi:
            raise NotAPolynomialError(f"division by t^{j} - 1 leaves a remainder")
    return trim(q)
