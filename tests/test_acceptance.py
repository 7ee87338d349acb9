"""Acceptance suite.

Each test is one acceptance criterion, run at its stated tolerance (all
exact).  The shared verification sweep (degree <= 40, cover exponents
<= 12) backs the grid criteria and runs once per session.  Run with

    pytest tests/test_acceptance.py -v -s

to see one pass line per criterion.
"""

import pytest

from whlink import (
    WeightSystem,
    family_member,
    link_invariants,
    primes_4l_minus_1,
    realize,
    smale_decompositions,
)
from whlink.verify import run_verification


@pytest.fixture(scope="module")
def sweep():
    return run_verification(max_degree=40, max_k=12)


def _passed(n, text):
    print(f"[acceptance] criterion {n}: {text}: PASS")


def test_criterion_1_every_order_realized():
    """|H_2| = k^2 and b_2 = 0 for every 2 <= k <= 200."""
    for k in range(2, 201):
        cert = realize(k)
        assert cert.h2_order == k * k, k
        assert cert.cover.invariants.multiplicity_of_unity == 0, k
        assert cert.cover.paths_agree is True, k
    _passed(1, "realize k yields |H_2| = k^2 and b_2 = 0 for 2 <= k <= 200")


def test_criterion_2_family_genus_one_two_ways():
    """First 20 family primes: genus 1 by the curve formula, b_1 = 2 by divisors."""
    primes = primes_4l_minus_1(163)
    assert len(primes) == 20
    for p in primes:
        member = family_member(p)
        assert member.system.genus() == 1, p
        inv = link_invariants(member.system)
        assert inv.multiplicity_of_unity == 2, p
    _passed(2, "genus 1 and b_1 = 2 agree on the first 20 family primes")


def test_criterion_3_cover_two_path_identity(sweep):
    """Direct cover divisors equal (lam(k) - 1) times the base, d <= 40, k <= 12."""
    check = next(c for c in sweep.checks if c.name == "cover_two_path")
    assert check.checked > 0
    assert check.failed == 0, check.failures
    _passed(3, f"two-path cover identity holds ({check.checked} checks)")


def test_criterion_4_oracle_equivalence(sweep):
    """Pipeline and brute-force expansions agree bit for bit on the grid."""
    check = next(c for c in sweep.checks if c.name == "oracle_agreement")
    assert check.checked > 0
    assert check.failed == 0, check.failures
    _passed(4, f"polynomial oracle equivalence holds ({check.checked} checks)")


def test_criterion_5_intro_orders_36_and_64():
    """Order 36 forces M_2 # M_3; order 64 admits exactly three manifolds."""
    six = smale_decompositions(6)
    assert [m.orders() for m in six] == [(2, 3)]
    assert six[0].label() == "M_2 # M_3"
    assert six[0].elementary_divisors() == (2, 2, 3, 3)
    eight = smale_decompositions(8)
    assert [m.orders() for m in eight] == [(8,), (4, 2), (2, 2, 2)]
    assert [m.label() for m in eight] == ["M_8", "M_2 # M_4", "M_2 # M_2 # M_2"]
    _passed(5, "orders 36 and 64 enumerate to the expected manifolds")


def test_criterion_6_group_ring_relation(sweep):
    """lam(a) lam(b) = gcd lam(lcm) against root multisets, 1 <= a, b <= 40."""
    check = next(c for c in sweep.checks if c.name == "group_ring_relation")
    assert check.checked == 1600
    assert check.failed == 0, check.failures
    _passed(6, "multiplication rule verified against root multisets")


def test_criterion_7_poincare_sphere():
    """w = (15, 10, 6), d = 30 is an integral homology sphere: b_1 = 0, value 1."""
    inv = link_invariants(WeightSystem((15, 10, 6), 30))
    assert inv.multiplicity_of_unity == 0
    assert inv.delta_at_one == 1
    # brute-force expansion agreement is covered by criterion 4; assert the
    # polynomial's own value as the derived check
    assert sum(inv.char_poly) == 1
    _passed(7, "Poincare sphere link has b_1 = 0 and Delta(1) = 1")


def test_criterion_8_classical_genus():
    """genus((1,1,1); d) = (d-1)(d-2)/2 for 3 <= d <= 20."""
    for d in range(3, 21):
        assert WeightSystem((1, 1, 1), d).genus() == (d - 1) * (d - 2) // 2, d
    _passed(8, "plane-curve genus degeneration exact for 3 <= d <= 20")


def test_criterion_grid_duality(sweep):
    """Companion to criteria 3 and 4: b_1 = 2g across the whole grid."""
    check = next(c for c in sweep.checks if c.name == "genus_betti_duality")
    assert check.checked > 0
    assert check.failed == 0, check.failures
    _passed("3/4 companion", f"genus-Betti duality holds ({check.checked} systems)")


def test_criterion_grid_counts(sweep):
    """The grid keeps 9218 systems and skips the 884 that ``link_divisor`` rejects."""
    assert (sweep.systems, sweep.skipped_nonintegral) == (9218, 884)
    checked = {c.name: c.checked for c in sweep.checks}
    assert checked["genus_betti_duality"] == 9218
    assert checked["oracle_agreement"] == 27654
    assert checked["cover_two_path"] == 168717
    _passed("grid", "9218 systems checked, 884 systems without a link skipped")
