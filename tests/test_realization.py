"""Unit tests for realization, the prime family, and Smale enumeration."""

import pytest

from whlink import (
    CoprimalityError,
    FamilyDomainError,
    InputError,
    WeightSystem,
    factorize,
    family_member,
    is_prime,
    link_invariants,
    primes_4l_minus_1,
    realize,
    search_weight_systems,
    smale_decompositions,
)
from whlink.primes import sieve
from whlink.realization import iter_integral_genus_systems
from whlink.smale import partitions_desc

FIRST_20_FAMILY_PRIMES = [
    3, 7, 11, 19, 23, 31, 43, 47, 59, 67,
    71, 79, 83, 103, 107, 127, 131, 139, 151, 163,
]


def test_primes_4l_minus_1():
    assert primes_4l_minus_1(25) == [3, 7, 11, 19, 23]
    assert primes_4l_minus_1(3) == [3]
    assert primes_4l_minus_1(2) == []


def test_first_twenty_family_primes():
    assert primes_4l_minus_1(163) == FIRST_20_FAMILY_PRIMES


def test_is_prime_against_sieve():
    flags = sieve(2000)
    for n in range(2000):
        assert is_prime(n) == flags[n], n


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(10**18 + 9)


def test_factorize():
    assert factorize(1) == []
    assert factorize(8) == [(2, 3)]
    assert factorize(36) == [(2, 2), (3, 2)]
    assert factorize(2**61 - 1) == [(2**61 - 1, 1)]


def test_family_member_smallest():
    member = family_member(3)
    assert member.system == WeightSystem((1, 1, 1), 3)
    assert member.l == 1


def test_family_member_p7():
    member = family_member(7)
    assert member.system.weights == (1, 2, 3)
    assert member.system.degree == 7


@pytest.mark.parametrize("p", [5, 13, 9, 4, 1])
def test_family_member_rejects_wrong_primes(p):
    with pytest.raises(FamilyDomainError):
        family_member(p)


def test_family_genus_one_and_betti_two():
    for p in FIRST_20_FAMILY_PRIMES:
        member = family_member(p)
        assert member.system.genus() == 1
        inv = link_invariants(member.system, max_poly_degree=0)
        assert inv.multiplicity_of_unity == 2


def test_realize_k2():
    cert = realize(2)
    assert cert.chosen_p == 3
    assert cert.cover.cover_system == WeightSystem((3, 2, 2, 2), 6)
    assert cert.h2_order == 4
    assert not cert.group_undetermined
    assert cert.manifold.summands == ((2, 1),)
    assert cert.manifold.elementary_divisors() == (2, 2)


def test_realize_k6_skips_shared_prime():
    cert = realize(6)
    assert cert.chosen_p == 7
    assert cert.h2_order == 36
    assert cert.manifold.label() == "M_2 # M_3"
    assert cert.manifold.elementary_divisors() == (2, 2, 3, 3)


def test_realize_k8_undetermined():
    cert = realize(8)
    assert cert.chosen_p == 3
    assert cert.h2_order == 64
    assert cert.group_undetermined
    assert cert.manifold is None
    assert [m.orders() for m in cert.candidates] == [(8,), (4, 2), (2, 2, 2)]


def test_realize_with_explicit_prime():
    cert = realize(2, prime=7)
    assert cert.chosen_p == 7
    assert cert.h2_order == 4


def test_realize_rejects_bad_prime():
    with pytest.raises(FamilyDomainError):
        realize(2, prime=5)
    with pytest.raises(CoprimalityError):
        realize(6, prime=3)


def test_realize_rejects_bad_k():
    with pytest.raises(InputError):
        realize(1)


def test_smale_decompositions_64():
    candidates = smale_decompositions(8)
    assert [m.orders() for m in candidates] == [(8,), (4, 2), (2, 2, 2)]
    assert [m.label() for m in candidates] == ["M_8", "M_2 # M_4", "M_2 # M_2 # M_2"]
    assert all(m.h2_order() == 64 for m in candidates)
    assert all(m.i_invariant == 0 for m in candidates)


def test_smale_decompositions_36():
    candidates = smale_decompositions(6)
    assert len(candidates) == 1
    assert candidates[0].elementary_divisors() == (2, 2, 3, 3)


def test_smale_decompositions_trivial():
    candidates = smale_decompositions(1)
    assert len(candidates) == 1
    assert candidates[0].summands == ()
    assert candidates[0].label() == "S^5"
    assert candidates[0].h2_order() == 1


def test_smale_decompositions_12():
    assert [m.orders() for m in smale_decompositions(12)] == [(4, 3), (2, 2, 3)]


def test_smale_candidate_count_is_partition_product():
    # partition numbers p(1..6) = 1, 2, 3, 5, 7, 11
    assert [len(list(partitions_desc(e))) for e in range(1, 7)] == [1, 2, 3, 5, 7, 11]
    for k, expected in ((2**6, 11), (2**3 * 3**2, 3 * 2), (30, 1), (2**4 * 5**3, 5 * 3)):
        assert len(smale_decompositions(k)) == expected


def test_is_unique_realization():
    # the order k^2 pins the manifold down exactly when k is squarefree
    assert len(smale_decompositions(30)) == 1
    assert len(smale_decompositions(4)) == 2
    assert len(smale_decompositions(97)) == 1


def test_uniqueness_matches_candidate_count():
    for k in range(2, 501):
        squarefree = all(e == 1 for _, e in factorize(k))
        assert squarefree == (len(smale_decompositions(k)) == 1)


def test_search_genus_one_small():
    systems = search_weight_systems(1, 4)
    assert WeightSystem((1, 1, 1), 3) in systems
    assert WeightSystem((1, 1, 2), 4) in systems


def test_search_includes_family_member():
    assert WeightSystem((1, 2, 3), 7) in search_weight_systems(1, 7)


def test_search_genus_zero():
    systems = search_weight_systems(0, 3)
    assert WeightSystem((1, 1, 1), 1) in systems
    assert WeightSystem((1, 1, 1), 2) in systems


def test_search_ordering_deterministic():
    systems = search_weight_systems(1, 12)
    keys = [(ws.degree, ws.weights) for ws in systems]
    assert keys == sorted(keys)


def test_search_validates_bounds():
    with pytest.raises(InputError):
        search_weight_systems(1, 2)
    with pytest.raises(InputError):
        search_weight_systems(-1, 10)
    with pytest.raises(InputError):
        search_weight_systems(True, 10)
    with pytest.raises(InputError):
        search_weight_systems(1, 10.0)


def test_search_matches_filtered_grid():
    # the positive-genus skip drops no system of the target genus
    grid = list(iter_integral_genus_systems(14))
    for target in range(4):
        expected = [ws for ws, g in grid if g == target]
        assert search_weight_systems(target, 14) == expected
        assert all(g == target for _ws, g in iter_integral_genus_systems(14, target))


def test_family_member_invariant_violation_unreachable():
    # all family members up to a large bound satisfy the coprimality and
    # genus invariants; spot-check that the guard exists by calling many
    for p in primes_4l_minus_1(400):
        family_member(p)


def test_every_prime_degree_genus_one_system_realizes_orders():
    # any genus-one curve of prime degree coprime to k works in place of
    # the standard family member
    from math import gcd

    from whlink import build_cover

    k = 10
    for ws in search_weight_systems(1, 60):
        if not is_prime(ws.degree) or gcd(ws.degree, k) != 1:
            continue
        cover = build_cover(ws, k, max_poly_degree=0)
        assert cover.h2_order == k * k, ws
        assert cover.invariants.multiplicity_of_unity == 0, ws
