"""Spin simply connected rational homology 5-spheres, as multisets of summands.

Smale's classification writes every such manifold uniquely as a connected
sum of building blocks M_{p^s}, one per prime power, where H_2(M_{p^s}) is
Z_{p^s} + Z_{p^s}.  The elementary divisors of H_2 therefore come in equal
pairs, and a manifold with |H_2| = k^2 corresponds to a multiset of prime
powers multiplying to k: one partition of the exponent of each prime
dividing k.  The Barden invariant i(M) vanishes for everything spin, so it
is carried along as a constant 0.
"""

from __future__ import annotations

from itertools import islice, product
from math import log10, prod
from typing import NamedTuple

from .errors import InputError, require_digits, require_int
from .primes import factorize

MAX_CANDIDATES = 10_000


class SmaleManifold(NamedTuple):
    """A connected sum of blocks M_{p^s}, stored as (prime, exponent) pairs.

    The empty multiset is the 5-sphere.  Summands are kept in canonical
    order: primes ascending, exponents descending within a prime.
    """

    summands: tuple
    i_invariant = 0  # a class attribute, not a field

    def orders(self) -> tuple:
        """The block orders p^s, in stored canonical order."""
        return tuple(p**s for p, s in self.summands)

    def h2_order(self) -> int:
        return prod(self.orders()) ** 2

    def elementary_divisors(self) -> tuple:
        """Each block contributes its order twice; sorted ascending."""
        return tuple(sorted(q for q in self.orders() for _ in range(2)))

    def label(self) -> str:
        if not self.summands:
            return "S^5"
        return " # ".join(f"M_{q}" for q in sorted(self.orders()))

    def as_json(self) -> dict:
        return {
            "summands": [
                {"prime": p, "exponent": s, "order": str(p**s)}
                for p, s in self.summands
            ],
            "i_invariant": self.i_invariant,
            "h2_order": str(self.h2_order()),
            "elementary_divisors": [str(q) for q in self.elementary_divisors()],
            "label": self.label(),
        }


def partitions_desc(n: int):
    """All partitions of n, parts descending, in reverse lexicographic order."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def smale_decompositions(k: int) -> list:
    """Every spin rational homology 5-sphere with |H_2| = k^2.

    One candidate per choice of partition of each prime exponent of k,
    ordered deterministically: primes ascending set the digit order, and
    each prime's partitions run in reverse lexicographic order, first
    prime's partition varying slowest.  k = 1 yields the 5-sphere alone.

    A k^2 past ``require_digits``, or more than ``MAX_CANDIDATES``
    candidates, raises ``InputError``; finding the latter out enumerates
    at most ``MAX_CANDIDATES + 1`` partitions per prime.
    """
    require_int(k, 1, "expected a positive integer order")
    require_digits(2 * log10(k), "the torsion order")
    per_prime = [
        [(p, parts) for parts in islice(partitions_desc(e), MAX_CANDIDATES + 1)]
        for p, e in factorize(k)
    ]
    if prod(map(len, per_prime)) > MAX_CANDIDATES:
        raise InputError(
            f"more than {MAX_CANDIDATES} manifolds have |H_2| = k^2 for k = {k}; "
            "enumeration stops there"
        )
    return [
        SmaleManifold(tuple((p, s) for p, parts in combo for s in parts))
        for combo in product(*per_prime)
    ]

