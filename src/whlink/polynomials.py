"""Dense integer polynomials, plus fast helpers for t^j - 1 factors.

A polynomial is a plain list of arbitrary-precision ints, constant term
first, with no trailing zeros; the zero polynomial is the empty list.
No routine checks its arguments: every exponent and order passed is at
least 0, every stride at least 1, and every divisor nonempty and monic.

Two deliberately separate tool sets live here.  The schoolbook routines
(``mul``, ``t_minus_one_power``, ``inflate``, ``long_divmod``) back the
brute-force oracle only; ``mul`` and ``long_divmod`` list the nonzero
terms of their second argument once, by ``compress(enumerate(x), x)`` in
C, and walk only those, and
``t_minus_one_power`` squares and multiplies over the bits of the exponent
and never uses a binomial recurrence.  As every power of t - 1 reads the
same backwards up to sign, each square is a palindrome, so only its bottom
half is formed and the top half is that half mirrored.  The shaped routines
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
long runs that a divided-out (t - 1) leaves.  One C-level scan finds the
indices where neighbouring coefficients differ; a difference is formed
only there, the top coefficient closes the sum as the last difference,
and the one big binomial is stepped across each gap by a ratio of two
``math.perm`` falling factorials.
"""

from __future__ import annotations

from itertools import accumulate, compress, count, islice
from math import perm
from operator import ne

from .errors import NotAPolynomialError


def trim(p: list) -> list:
    """Drop trailing zeros in place and return the list."""
    end = len(p)
    while end and p[end - 1] == 0:
        end -= 1
    del p[end:]
    return p


def mul(a: list, b: list) -> list:
    """Schoolbook product: b's nonzero terms are listed once, and each nonzero a_i walks those."""
    out = [0] * (len(a) + len(b) - 1)
    terms = list(compress(enumerate(b), b))
    for i, ai in compress(enumerate(a), a):
        for k, bk in terms:
            out[i + k] += ai * bk
    return trim(out)


def _low_square(a: list) -> list:
    """Coefficients 0 ... len(a) - 1 of a^2, each cross product a_i a_k, i < k, formed once."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a[: (n + 1) // 2]):  # 2 i <= n - 1
        if ai:
            out[2 * i] += ai * ai
            twice = 2 * ai
            for k in range(i + 1, n - i):
                ak = a[k]
                if ak:
                    out[i + k] += twice * ak
    return out


def t_minus_one_power(c: int) -> list:
    """(t - 1)^c by square-and-multiply over the bits of c, schoolbook products only.

    (t - 1)^m reads the same backwards up to the sign (-1)^m, so its square
    is a palindrome: the top half is the bottom half (``_low_square``)
    mirrored.
    """
    out = [1]
    for bit in bin(c)[2:]:
        low = _low_square(out)
        out = low + low[-2::-1]  # all but the middle coefficient, mirrored
        if bit == "1":
            out = mul(out, [-1, 1])
    return out


def inflate(p: list, j: int) -> list:
    """Substitute t^j for the variable, j >= 1: coefficient i moves to slot j*i."""
    out = [0] * (j * (len(p) - 1) + 1)
    out[::j] = p
    return out


def long_divmod(num: list, den: list) -> tuple:
    """Quotient and remainder by a monic divisor, ordinary long division."""
    rem = list(num)
    dn = len(den) - 1
    quot = [0] * (len(rem) - dn)
    support = list(compress(enumerate(den), den))
    del support[-1]  # the leading 1
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
    of which only the nonzero ones at i > m count.  One ``compress`` over
    ``map(ne, ...)`` of two ``islice`` views of p yields the indices
    m < i < len(p) where p_{i-1} and p_i differ, and only there is the
    difference formed; the last difference, p_top - 0 at i = len(p), is
    added after the scan.  C(i, m + 1) is stepped from one such index a to
    the next i by perm(i, i - a) // perm(i - m - 1, i - a).
    """
    n = len(p)
    if n <= m:
        return 0
    total = 0
    a = m + 1
    binom = 1  # C(a, m + 1)
    for i in compress(count(a), map(ne, islice(p, m, n - 1), islice(p, a, None))):
        if i > a:
            binom = binom * perm(i, i - a) // perm(i - m - 1, i - a)
            a = i
        total += (p[i - 1] - p[i]) * binom
    return total + p[-1] * (binom * perm(n, n - a) // perm(n - m - 1, n - a))


def mul_binomial_power(p: list, j: int, c: int) -> list:
    """Multiply p by (t^j - 1)^c using the expanded binomial directly.

    The factor is sum_m (-1)^{c-m} C(c, m) t^{jm}; the binomials are built
    by the multiplicative recurrence, so this route never performs a
    polynomial-by-polynomial product.  p's nonzero terms are listed once,
    and each of the c + 1 binomial rows walks only those.
    """
    out = [0] * (len(p) + j * c)
    terms = list(compress(enumerate(p), p))
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
