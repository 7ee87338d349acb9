"""Cyclic branched covers of 3-variable links.

Adjoining z_0^k to a 3-variable weighted homogeneous polynomial of degree d
produces a 4-variable one with weights (d, k w_1, k w_2, k w_3) and degree
k d; its link is a k-fold cover of the 5-sphere branched over the base
link.  On divisors the passage is multiplication by lam(k) - 1, and when
gcd(d, k) = 1 the cover is a rational homology sphere whose H_2 has order
k^(2g), g the genus of the base curve.

``cover_weights`` builds the cover's weight system for any k > 1, and
``build_cover`` then rejects a k sharing a factor with d.  It assembles the
cover's record from the lam(k) - 1 product, then raises the first error
``cover_checks`` returns, each built only when its check fails: the cover
divisor computed directly from the 4-variable weight system must agree
with it, b_2 must vanish, and the printed |H_2| must be k^(2g).  The
redundancy is the point: every cover built is a self-test of the whole
pipeline, and ``verify`` sweeps the same checks.
"""

from __future__ import annotations

from math import gcd, log10
from typing import NamedTuple

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
    link_invariants,
    milnor_orlik_divisor,
)
from .weights import WeightSystem


class CoverLink(NamedTuple):
    """A branched cover together with the invariant records of base and cover.

    ``paths_agree`` is True when both divisor computations ran and matched,
    and None when the direct path was skipped on request.
    """

    k: int
    base_invariants: LinkInvariants
    invariants: LinkInvariants
    paths_agree: bool | None

    @property
    def h2_order(self) -> int:
        return self.invariants.delta_at_one

    def as_json(self) -> dict:
        return {
            "k": self.k,
            "base": self.base_invariants.as_json(),
            "cover": self.invariants.as_json(),
            "paths_agree": self.paths_agree,
        }


_EXPONENT = "cover exponent must be an integer greater than 1"


def cover_weights(base: WeightSystem, k: int) -> WeightSystem:
    """Weight system (d, k w_1, k w_2, k w_3; k d) of base + z_0^k, any k > 1.

    Coprimality is not tested: ``build_cover`` asks it, ``diagnose_cover``
    goes without it, and the ``verify`` sweep takes coprime k only.  A
    cover weight or degree of more than ``MAX_ORDER_DIGITS`` digits raises
    ``InputError``.
    """
    if len(base.weights) != 3:
        raise InputError("covers are built over 3-variable weight systems")
    require_int(k, 2, _EXPONENT)
    d = base.degree
    w1, w2, w3 = base.weights
    largest = k * max(d, w1, w2, w3)  # of the cover's weights and its degree k d
    require_digits(largest.bit_length() * log10(2), "a cover weight or degree")
    return WeightSystem((d, k * w1, k * w2, k * w3), k * d)


def cover_divisor(base_div: OrlikDivisor, k: int) -> OrlikDivisor:
    """Divisor of the cover: (lam(k) - 1) times the base divisor."""
    require_int(k, 2, _EXPONENT)
    # lam(k) - 1 written out as its two terms, distinct since k >= 2
    return OrlikDivisor._raw({k: 1, 1: -1}) * base_div


def cover_torsion_order(k: int, genus: int) -> int:
    """|H_2| of the k-fold cover of a genus-g base, k coprime to the degree: k^(2g)."""
    return k ** (2 * genus)


def cover_checks(base, genus, k, via_relation, order, system) -> tuple:
    """The cover's cross-checks, one item each: None, or the error it found.

    The direct divisor of ``system`` against ``via_relation`` (left out when
    ``system`` is None), b_2 = 0, and the order law on ``order``, the torsion
    order the caller read off ``via_relation``: ``build_cover`` raises the
    first error, ``verify`` counts them all.
    """
    b_2 = via_relation.coefficient_sum()
    checks = (
        None if b_2 == 0 else CrossCheckError(f"{base}, k={k}: b_2 = {b_2}, expected 0"),
        None if order == cover_torsion_order(k, genus) else CrossCheckError(
            f"{base}, k={k}: torsion order {order} != {k}^(2*{genus})"
        ),
    )
    if system is None:
        return checks
    if milnor_orlik_divisor(system) == via_relation:
        return (None, *checks)
    return (TwoPathMismatchError(f"{base}, k={k}: cover divisor paths disagree"), *checks)


def build_cover(base: WeightSystem, k: int, *, skip_direct_path: bool = False) -> CoverLink:
    """Construct the k-fold branched cover and verify it two ways.

    A k sharing a factor with the base degree raises ``CoprimalityError``.
    The cover's record is assembled from (lam(k) - 1) times the base divisor,
    its torsion-digit bound included, before any check runs.  The first
    error ``cover_checks`` returns is then raised: the divisor computed from
    the 4-variable weight system differs, b_2 is not 0, or the record's
    |H_2| is not k^(2g).  Each would contradict what the construction
    guarantees for gcd(d, k) = 1.

    ``skip_direct_path`` drops the direct computation, leaving ``paths_agree``
    None.  It saves almost nothing, since the direct product has at most
    tau(k d) terms and takes about 15 us even at k = 10**12; it remains only
    as the back end of ``cover --skip-direct-path``.
    """
    system = cover_weights(base, k)
    if gcd(base.degree, k) != 1:
        raise CoprimalityError(f"cover exponent {k} must be coprime to the degree {base.degree}")
    base_inv = link_invariants(base)
    via = cover_divisor(base_inv.divisor, k)
    inv = invariants_from_divisor(system, via)
    direct_system = None if skip_direct_path else system
    for error in cover_checks(base, base_inv.genus, k, via, inv.delta_at_one, direct_system):
        if error:
            raise error
    return CoverLink(k, base_inv, inv, paths_agree=None if skip_direct_path else True)


def diagnose_cover(base: WeightSystem, k: int) -> LinkInvariants:
    """Invariant record of z_0^k over a base without the coprimality hypothesis.

    The base passes ``link_invariants``, the gate ``build_cover`` asks of it,
    and the record is ``link_invariants`` of the cover system, whose four
    weights give no genus and so no duality check.  Nothing more is asserted:
    with gcd(d, k) > 1 the cover need not be a rational homology sphere, so
    the record may carry a positive multiplicity and no torsion order.
    """
    system = cover_weights(base, k)
    link_invariants(base)
    return link_invariants(system)
