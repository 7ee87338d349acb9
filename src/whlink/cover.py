"""Cyclic branched covers of 3-variable links.

Adjoining z_0^k to a 3-variable weighted homogeneous polynomial of degree d
produces a 4-variable one with weights (d, k w_1, k w_2, k w_3) and degree
k d; its link is a k-fold cover of the 5-sphere branched over the base
link.  On divisors the passage is multiplication by lam(k) - 1, and when
gcd(d, k) = 1 the cover is a rational homology sphere whose H_2 has order
k^(2g), g the genus of the base curve.

``build_cover`` computes the cover divisor both ways, from the 4-variable
weight system directly and through the lam(k) - 1 product, and refuses to
return unless the two agree and the order law holds.  The redundancy is the
point: every cover built is a self-test of the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, log10

from .divisor import OrlikDivisor
from .errors import (
    CoprimalityError,
    CrossCheckError,
    InputError,
    TwoPathMismatchError,
    require_digits,
    require_int,
)
from .invariants import (
    LinkInvariants,
    invariants_from_divisor,
    link_divisor,
    link_invariants,
    milnor_orlik_divisor,
)
from .weights import WeightSystem


@dataclass(frozen=True)
class CoverLink:
    """A branched cover together with the invariants of base and cover.

    ``paths_agree`` is True when both divisor computations ran and matched,
    and None when the direct path was skipped on request.
    """

    base: WeightSystem
    k: int
    cover_system: WeightSystem
    base_invariants: LinkInvariants
    invariants: LinkInvariants
    paths_agree: bool | None

    @property
    def h2_order(self) -> int:
        return self.invariants.delta_at_one

    def as_json(self) -> dict:
        return {
            "k": self.k,
            "base": self.base_invariants.as_json(self.base),
            "cover": self.invariants.as_json(self.cover_system),
            "paths_agree": self.paths_agree,
        }


_EXPONENT = "cover exponent must be an integer greater than 1"


def _adjoin_power(base: WeightSystem, k: int) -> WeightSystem:
    """Weight system (d, k w_1, k w_2, k w_3; k d) of base + z_0^k, any k > 1."""
    if base.n != 3:
        raise InputError("covers are built over 3-variable weight systems")
    require_int(k, 2, _EXPONENT)
    d = base.degree
    return WeightSystem((d,) + tuple(k * w for w in base.weights), k * d)


def cover_weights(base: WeightSystem, k: int) -> WeightSystem:
    """Weight system of the k-fold cover, for k coprime to the degree."""
    system = _adjoin_power(base, k)
    if gcd(base.degree, k) != 1:
        raise CoprimalityError(
            f"cover exponent {k} must be coprime to the degree {base.degree}"
        )
    largest = max(system.weights + (system.degree,))
    require_digits(largest.bit_length() * log10(2), "a cover weight or degree")
    return system


def cover_divisor(base_div: OrlikDivisor, k: int) -> OrlikDivisor:
    """Divisor of the cover: (lam(k) - 1) times the base divisor."""
    require_int(k, 2, _EXPONENT)
    # lam(k) - 1 written out as its two terms, distinct since k >= 2
    return OrlikDivisor._raw({k: 1, 1: -1}) * base_div


def build_cover(
    base: WeightSystem, k: int, *, skip_direct_path: bool = False
) -> CoverLink:
    """Construct the k-fold branched cover and verify it two ways.

    The cover divisor is computed from the 4-variable weight system and as
    (lam(k) - 1) times the base divisor; a mismatch, a nonzero second Betti
    number, or a torsion order different from k^(2g) raises one of the
    consistency errors, since each would contradict what the construction
    guarantees for gcd(d, k) = 1.

    ``skip_direct_path`` drops the first computation, leaving ``paths_agree``
    None.  It saves almost nothing, since the direct product has at most
    tau(k d) terms and takes about 15 us even at k = 10**12; it remains only
    as the back end of ``cover --skip-direct-path``.
    """
    system = cover_weights(base, k)
    base_inv = link_invariants(base)
    via_relation = cover_divisor(base_inv.divisor, k)
    paths_agree = None
    if not skip_direct_path:
        direct = milnor_orlik_divisor(system)
        if direct != via_relation:
            raise TwoPathMismatchError(
                f"cover divisor of {system} disagrees with (lam({k}) - 1) "
                f"times the base divisor: {direct!r} vs {via_relation!r}"
            )
        paths_agree = True
    inv = invariants_from_divisor(via_relation)
    if inv.multiplicity_of_unity != 0:
        raise CrossCheckError(
            f"cover of {base} by k={k} has b_2 = {inv.multiplicity_of_unity}, "
            "expected 0 for a coprime cover"
        )
    expected = k ** (2 * base_inv.genus)
    if inv.delta_at_one != expected:
        raise CrossCheckError(
            f"cover torsion order {inv.delta_at_one} differs from "
            f"{k}^(2*{base_inv.genus}) = {expected}"
        )
    return CoverLink(
        base=base,
        k=k,
        cover_system=system,
        base_invariants=base_inv,
        invariants=inv,
        paths_agree=paths_agree,
    )


def diagnose_cover(base: WeightSystem, k: int) -> tuple[WeightSystem, LinkInvariants]:
    """Invariants of z_0^k over a base without the coprimality hypothesis.

    Base and cover system both pass ``link_divisor``.  Beyond that nothing
    is asserted: with gcd(d, k) > 1 the cover need not be a rational
    homology sphere, so the returned record may carry a positive
    multiplicity and no torsion order.
    """
    system = _adjoin_power(base, k)
    link_divisor(base)
    return system, invariants_from_divisor(link_divisor(system))
