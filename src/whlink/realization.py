"""Realizing every torsion order k^2 by a branched cover of a genus-one link.

The polynomial z_1^p + z_2^2 z_3 + z_3^2 z_1 is weighted homogeneous of
degree p for the weights (1, (p+1)/4, (p-1)/2) whenever p is a prime
congruent to 3 mod 4, and its curve has genus one.  Covering it with
exponent k coprime to p therefore produces a rational homology 5-sphere
whose H_2 has order exactly k^2.  Since the family offers infinitely many
degrees, a coprime one exists for every k, and the realization is
constructive: pick the smallest usable p, build the cover, enumerate which
Smale manifolds carry the resulting order.
"""

from __future__ import annotations

from itertools import count
from math import gcd
from typing import NamedTuple

from .cover import CoverLink, build_cover
from .errors import (
    ConsistencyError,
    CoprimalityError,
    FamilyDomainError,
    InputError,
    NotASmoothCurveError,
    require_int,
)
from .invariants import link_divisor
from .smale import SmaleManifold, smale_decompositions
from .primes import is_prime
from .weights import WeightSystem, genus_formula


class FamilyMember(NamedTuple):
    """One member of the genus-one family: prime p = 4l - 1 and its weights."""

    p: int
    l: int
    system: WeightSystem

    def as_json(self) -> dict:
        return {"p": self.p, "l": self.l, **self.system.as_json()}


def family_member(p: int) -> FamilyMember:
    """The genus-one weight system (1, (p+1)/4, (p-1)/2; p).

    Only primes congruent to 3 mod 4 qualify: otherwise (p+1)/4 is not an
    integer.  The genus is recomputed and must come out 1; the middle and
    last weights are l and 2l - 1, coprime since gcd(l, 2l - 1) = gcd(l, 1).
    """
    require_int(p, None, "family degree must be prime", FamilyDomainError)
    if not is_prime(p):
        raise FamilyDomainError(f"family degree must be prime, got {p!r}")
    if p % 4 != 3:
        raise FamilyDomainError(
            f"family degree must be congruent to 3 mod 4, got {p} = 4*{p // 4} + {p % 4}"
        )
    l = (p + 1) // 4
    system = WeightSystem((1, l, (p - 1) // 2), p)
    g = system.genus()
    if g != 1:
        raise ConsistencyError(f"degree-{p} family member has genus {g}, expected 1")
    return FamilyMember(p, l, system)


class RealizationCertificate(NamedTuple):
    """A verified witness that some 5-manifold with |H_2| = k^2 exists.

    The cover inside carries the full two-path verification.  When k is
    squarefree the order determines the manifold and ``manifold`` holds it;
    otherwise ``manifold`` is None, ``group_undetermined`` is set, and
    ``candidates`` lists every Smale manifold compatible with the order.
    """

    k: int
    chosen_p: int
    family: FamilyMember
    cover: CoverLink
    h2_order: int
    candidates: tuple
    manifold: SmaleManifold | None
    group_undetermined: bool

    def as_json(self) -> dict:
        return {
            "k": self.k,
            "chosen_p": self.chosen_p,
            "family": self.family.as_json(),
            "cover": self.cover.as_json(),
            "h2_order": str(self.h2_order),
            "candidates": [m.as_json() for m in self.candidates],
            "manifold": None if self.manifold is None else self.manifold.as_json(),
            "group_undetermined": self.group_undetermined,
        }


def realize(k: int, *, prime: int | None = None) -> RealizationCertificate:
    """Produce a rational homology 5-sphere with |H_2| = k^2.

    The family degree defaults to the smallest prime p = 3 mod 4 coprime
    to k, recorded in the certificate so a different one can be requested
    explicitly via ``prime``.
    """
    require_int(k, 2, "target order parameter must be an integer > 1")
    if prime is None:
        chosen = next(p for p in count(3, 4) if gcd(k, p) == 1 and is_prime(p))
    else:
        chosen = prime
    family = family_member(chosen)
    if gcd(k, chosen) != 1:
        raise CoprimalityError(f"requested prime {chosen} divides k = {k}")
    cover = build_cover(family.system, k)
    candidates = tuple(smale_decompositions(k))
    undetermined = len(candidates) > 1
    return RealizationCertificate(
        k=k,
        chosen_p=chosen,
        family=family,
        cover=cover,
        h2_order=cover.h2_order,
        candidates=candidates,
        manifold=None if undetermined else candidates[0],
        group_undetermined=undetermined,
    )


def iter_integral_genus_systems(max_degree: int, target_genus: int | None = None):
    """Yield (system, genus, divisor) over sorted 3-variable systems with d <= max_degree.

    Weights run over 1 <= w_1 <= w_2 <= w_3 <= d, restricted to primitive
    triples (non-primitive ones present the same links with the genus
    formula out of its domain).  A system is built only where
    ``weights.genus_formula`` gives a genus, not None, as
    ``WeightSystem.genus`` requires.  With ``target_genus`` given only
    systems of that genus are yielded, and for a positive target the scan
    stops w_3 where the weights sum past the degree, since those systems
    have genus zero.  The divisor is the system's ``link_divisor``, or None
    when that rejects the system: test it with ``is not None``, since a
    linear cone's zero divisor is falsy.
    """
    for d in range(1, max_degree + 1):
        for w1 in range(1, d + 1):
            for w2 in range(w1, d + 1):
                g12 = gcd(w1, w2)
                top = d - w1 - w2 if target_genus else d
                for w3 in range(w2, top + 1):
                    if gcd(g12, w3) != 1:
                        continue
                    g = genus_formula(w1, w2, w3, d)
                    if g is None or (target_genus is not None and g != target_genus):
                        continue
                    ws = WeightSystem((w1, w2, w3), d)
                    try:
                        div = link_divisor(ws)
                    except NotASmoothCurveError:
                        div = None
                    yield ws, g, div


# the scan is O(d^4): genus 0 takes 1.4-1.9 s at d = 60, 1.9-2.3 s at d = 64
# and 4.5-5.6 s at d = 80 on a 2-vCPU Xeon VM with Python 3.11
MAX_SEARCH_DEGREE = 64


def search_weight_systems(target_genus: int, max_degree: int) -> list:
    """All sorted 3-variable systems of the given genus up to max_degree.

    Only systems that pass ``link_divisor`` are listed.  Results are
    ordered by degree, then lexicographically by weights.  A
    ``max_degree`` above ``MAX_SEARCH_DEGREE`` is rejected, not scanned.
    """
    require_int(target_genus, 0, "target genus must be a non-negative integer")
    require_int(max_degree, 3, "max degree must be an integer >= 3")
    if max_degree > MAX_SEARCH_DEGREE:
        raise InputError(f"max degree must be at most {MAX_SEARCH_DEGREE}, got {max_degree}")
    systems = iter_integral_genus_systems(max_degree, target_genus)
    return [ws for ws, _g, div in systems if div is not None]
