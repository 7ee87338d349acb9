"""Unit tests for realization, the prime family, and Smale enumeration."""

from itertools import pairwise
from math import gcd

import pytest
from sympy import isprime, nextprime

from whlink import (
    CoprimalityError,
    FamilyDomainError,
    InputError,
    NotASmoothCurveError,
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
from whlink import primes
from whlink.primes import sieve
from whlink.realization import iter_integral_genus_systems
from whlink.smale import partitions_desc
from whlink.verify import build_grid

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
    flags = sieve(20_000)
    for n in range(20_000):
        assert is_prime(n) == flags[n], n


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(10**18 + 9)


# psi_t, the least strong pseudoprime to each of the first t prime bases,
# for t = 1..13 (OEIS A014233); those t bases prove primality below psi_t
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
# psi_1..psi_12, each once (psi_7 = psi_8 and psi_9 = psi_10 = psi_11); psi_t
# fools every witness battery shorter than t + 1 primes
STRONG_PSEUDOPRIMES = sorted(set(PSI[:12]))


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_runs_the_fewest_proven_rounds(monkeypatch):
    # a prime in [psi_(t-1), psi_t) takes exactly t strong-probable-prime
    # rounds; psi_0 stands for 42, past the witnesses trial division finds
    rounds = []
    test_one_base = primes._strong_probable_prime

    def counted(n, a):
        rounds.append(a)
        return test_one_base(n, a)

    monkeypatch.setattr(primes, "_strong_probable_prime", counted)
    for t, (lo, hi) in enumerate(pairwise((42, *PSI)), start=1):
        if lo == hi:
            continue
        p = nextprime(lo)
        assert p < hi
        rounds.clear()
        assert is_prime(p)
        assert len(rounds) == t, (t, p)
    # past psi_13, which only a moved range bound lets through, all 13 run
    monkeypatch.setattr(primes, "_MR_PROVEN_BOUND", 10**100)
    rounds.clear()
    assert is_prime(nextprime(PSI[-1]))
    assert len(rounds) == 13


@pytest.mark.parametrize(
    "ladder",
    [tuple(psi + 1 for psi in PSI), PSI[1:] + PSI[-1:]],
    ids=["at-or-below-psi", "shifted-by-one"],
)
def test_planted_ladder_passes_pseudoprimes(monkeypatch, ladder):
    # one base too few at psi_t lets psi_t through; 2047 = 23 * 89 still
    # falls to trial division by the witness 23
    monkeypatch.setattr(primes, "_MR_PSI", ladder)
    assert [n for n in STRONG_PSEUDOPRIMES if is_prime(n)] == STRONG_PSEUDOPRIMES[1:]


def test_is_prime_matches_sympy_near_each_psi():
    # every psi_t is odd, and so is each n taken here; n >= psi_13 is out
    # of range
    for psi in sorted(set(PSI)):
        odd = range(psi - 10**4, min(psi + 10**4 + 1, PSI[-1]), 2)
        assert [n for n in odd if is_prime(n)] == [n for n in odd if isprime(n)]


def test_is_prime_proven_range():
    # psi_13 is where the 13-prime battery stops being a proof; the largest
    # prime below it is still answered
    assert is_prime(3317044064679887385961813)
    with pytest.raises(InputError):
        is_prime(3317044064679887385961981)


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


WRONG_FAMILY_PRIMES = {
    5: "congruent to 3 mod 4, got 5 = 4*1 + 1",
    13: "congruent to 3 mod 4, got 13 = 4*3 + 1",
    9: "prime, got 9",
    4: "prime, got 4",
    1: "prime, got 1",
    # prime, so the reason is its residue
    2: "congruent to 3 mod 4, got 2 = 4*0 + 2",
}


@pytest.mark.parametrize("p", list(WRONG_FAMILY_PRIMES))
def test_family_member_rejects_wrong_primes(p):
    with pytest.raises(FamilyDomainError) as excinfo:
        family_member(p)
    assert str(excinfo.value) == f"family degree must be {WRONG_FAMILY_PRIMES[p]}"


def test_family_genus_one_and_betti_two():
    for p in FIRST_20_FAMILY_PRIMES:
        member = family_member(p)
        assert member.system.genus() == 1
        inv = link_invariants(member.system)
        assert inv.multiplicity_of_unity == 2


def test_realize_k2():
    cert = realize(2)
    assert cert.chosen_p == 3
    assert cert.cover.invariants.system == WeightSystem((3, 2, 2, 2), 6)
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


def test_smale_decompositions_candidate_bound():
    # p(32) = 8349 candidates are listed; p(33) = 10143 and p(20)^2 = 393129
    # are more than 10000
    assert len(smale_decompositions(2**32)) == 8349
    with pytest.raises(InputError, match="more than 10000"):
        smale_decompositions(2**33)
    with pytest.raises(InputError, match="more than 10000"):
        smale_decompositions(2**20 * 3**20)


def test_smale_decompositions_order_digit_bound():
    # squarefree k, one candidate each, until k^2 passes 4000 digits
    primes = [p for p in range(2, 6000) if is_prime(p)]
    k = 1
    for p in primes:
        if 2 * len(str(k * p)) > 4000:
            break
        k *= p
    assert len(smale_decompositions(k)) == 1
    with pytest.raises(InputError, match="digits"):
        smale_decompositions(k * p)


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
    with pytest.raises(InputError):
        search_weight_systems(0, 65)


def test_search_matches_filtered_grid():
    # search and the verify grid ask the same gate, and the positive-genus
    # skip drops no system of the target genus
    grid, _skipped = build_grid(14)
    for target in range(4):
        expected = [ws for ws, g, _div in grid if g == target]
        assert search_weight_systems(target, 14) == expected
        assert all(g == target for _ws, g, _div in iter_integral_genus_systems(14, target))


def test_scan_agrees_with_weight_system_genus():
    # the scan reads the genus formula on plain ints; it must yield a sorted
    # primitive triple exactly when WeightSystem.genus accepts it, with its genus
    scanned = {ws.weights + (ws.degree,): g for ws, g, _div in iter_integral_genus_systems(30)}
    expected = {}
    for d in range(1, 31):
        for w1 in range(1, d + 1):
            for w2 in range(w1, d + 1):
                for w3 in range(w2, d + 1):
                    if gcd(w1, w2, w3) == 1:
                        try:
                            expected[w1, w2, w3, d] = WeightSystem((w1, w2, w3), d).genus()
                        except NotASmoothCurveError:
                            pass
    assert len(expected) == 4587
    assert scanned == expected


def test_every_search_hit_has_a_link():
    # (1,4,6; 14) and (1,3,10; 15) have genus 1 and no link
    hits = {target: search_weight_systems(target, 16) for target in range(4)}
    assert [len(h) for h in hits.values()] == [655, 26, 17, 17]
    assert WeightSystem((1, 4, 6), 14) not in hits[1]
    assert WeightSystem((1, 3, 10), 15) not in hits[1]
    for target, systems in hits.items():
        for ws in systems:
            assert link_invariants(ws).genus == target, ws


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
        cover = build_cover(ws, k)
        assert cover.h2_order == k * k, ws
        assert cover.invariants.multiplicity_of_unity == 0, ws
