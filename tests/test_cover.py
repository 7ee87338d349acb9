"""Unit tests for the branched cover construction."""

import pytest

from whlink import (
    CoprimalityError,
    CrossCheckError,
    InputError,
    NotASmoothCurveError,
    OrlikDivisor,
    TwoPathMismatchError,
    WeightSystem,
    build_cover,
    diagnose_cover,
)
from whlink.cover import cover_checks, cover_divisor, cover_weights
from whlink.divisor import lam
from whlink.invariants import milnor_orlik_divisor

CUBIC = WeightSystem((1, 1, 1), 3)


def test_cover_weights_cubic():
    assert cover_weights(CUBIC, 2) == WeightSystem((3, 2, 2, 2), 6)
    # the one constructor serves diagnose_cover too: build_cover asks coprimality
    assert cover_weights(CUBIC, 3) == WeightSystem((3, 3, 3, 3), 9)


def test_cover_weights_family_member():
    assert cover_weights(WeightSystem((1, 2, 3), 7), 2) == WeightSystem((7, 2, 4, 6), 14)


def test_build_cover_rejects_shared_factor():
    with pytest.raises(CoprimalityError) as excinfo:
        build_cover(CUBIC, 3)
    assert str(excinfo.value) == "cover exponent 3 must be coprime to the degree 3"


# cover_weights and cover_divisor take what their callers checked: the
# base and k are checked where a cover is taken, by both entry points
ENTRY_POINTS = (build_cover, diagnose_cover)


def test_cover_weights_rejects_small_k():
    for entry in ENTRY_POINTS:
        with pytest.raises(InputError, match="greater than 1, got 1"):
            entry(CUBIC, 1)


def test_cover_weights_rejects_four_variables():
    # the number of weights is checked before k
    for entry in ENTRY_POINTS:
        for k in (5, 1):
            with pytest.raises(InputError, match="covers are built over 3-variable weight systems"):
                entry(WeightSystem((3, 2, 2, 2), 6), k)


def test_cover_divisor_cubic():
    expected = OrlikDivisor({6: 3, 3: -3, 2: -1, 1: 1})
    assert cover_divisor(OrlikDivisor({3: 3, 1: -1}), 2) == expected


def test_cover_divisor_p7():
    expected = OrlikDivisor({14: 3, 7: -3, 2: -1, 1: 1})
    assert cover_divisor(OrlikDivisor({7: 3, 1: -1}), 2) == expected


@pytest.mark.parametrize("k", [1, True, 0, -3, 2.0])
def test_cover_divisor_rejects_exponents_below_two(k):
    for entry in ENTRY_POINTS:
        with pytest.raises(InputError, match="greater than 1"):
            entry(CUBIC, k)


def test_cover_divisor_annihilates_zero():
    assert cover_divisor(OrlikDivisor(), 5) == OrlikDivisor()


def test_build_cover_cubic_k2():
    cover = build_cover(CUBIC, 2)
    assert cover.h2_order == 4
    assert cover.invariants.multiplicity_of_unity == 0
    assert cover.paths_agree is True
    assert cover.invariants.system == WeightSystem((3, 2, 2, 2), 6)
    assert cover.base_invariants.genus == 1


def test_build_cover_family_k5():
    cover = build_cover(WeightSystem((1, 2, 3), 7), 5)
    assert cover.h2_order == 25


def test_build_cover_quartic_k3():
    # genus 3 quartic: order 3^6
    cover = build_cover(WeightSystem((1, 1, 1), 4), 3)
    assert cover.base_invariants.genus == 3
    assert cover.h2_order == 729


def test_build_cover_skip_direct_path():
    cover = build_cover(CUBIC, 2, skip_direct_path=True)
    assert cover.paths_agree is None
    assert cover.h2_order == 4


def test_build_cover_large_k_divisor_only():
    cover = build_cover(CUBIC, 10**6 + 1)
    assert cover.h2_order == (10**6 + 1) ** 2
    assert cover.invariants.char_poly is None


def test_cover_support_structure():
    # with every support index coprime to k the product expands to
    # sum c_j lam(kj) - sum c_j lam(j) with no collisions
    base = milnor_orlik_divisor(WeightSystem((1, 2, 3), 7))
    k = 4
    expected = {}
    for j, c in base.items():
        expected[k * j] = expected.get(k * j, 0) + int(c)
        expected[j] = expected.get(j, 0) - int(c)
    assert cover_divisor(base, k) == type(base)(expected)


def test_cover_json_shape():
    report = build_cover(CUBIC, 2).as_json()
    assert report["k"] == 2
    assert report["paths_agree"] is True
    assert report["base"]["genus"] == 1
    assert report["cover"]["betti"] == 0
    assert report["cover"]["delta_at_one"] == "4"


def test_diagnose_cover_without_coprimality():
    # k = d = 3: the divisor calculus still runs, b_2 is positive, and
    # nothing is asserted about torsion
    inv = diagnose_cover(CUBIC, 3)
    assert inv.system == WeightSystem((3, 3, 3, 3), 9)
    assert inv.multiplicity_of_unity == 6
    assert inv.delta_at_one is None


def test_diagnose_cover_bounds_the_cover_digits():
    # a cover degree of 4401 digits: the record could not be printed, since
    # Python refuses to turn an int of more than 4300 digits into a string
    with pytest.raises(InputError, match="a cover weight or degree has more than 4000 digits"):
        diagnose_cover(CUBIC, 3 * 10**4400)
    # past the bound and sharing a factor with the degree: the bound is reported
    with pytest.raises(InputError, match="more than 4000 digits"):
        build_cover(CUBIC, 3 * 10**4400)


def test_cover_records_read_the_torsion_order_once(monkeypatch):
    # build_cover forms the cover's |H_2| once, in its record, and the
    # order law checks that value
    from whlink import realize

    calls = []
    value_at_one = OrlikDivisor.reduced_value_at_one

    def counted(self):
        calls.append(self)
        return value_at_one(self)

    monkeypatch.setattr(OrlikDivisor, "reduced_value_at_one", counted)
    assert build_cover(CUBIC, 2).h2_order == 4
    assert len(calls) == 1
    calls.clear()
    assert realize(8).h2_order == 64
    assert len(calls) == 1


def test_diagnose_cover_rejects_fractional_product():
    # (1,4,6; 8) has a product in thirds, and so does its cover by k = 3;
    # its cover by k = 4 has an integral product, but the base still fails
    for k in (3, 4):
        with pytest.raises(NotASmoothCurveError):
            diagnose_cover(WeightSystem((1, 4, 6), 8), k)


def test_diagnose_cover_rejects_negative_root_multiplicity():
    # (4,10,27; 40) has an integral product with a negative root multiplicity
    with pytest.raises(NotASmoothCurveError):
        diagnose_cover(WeightSystem((4, 10, 27), 40), 3)


def test_diagnose_cover_rejects_fractional_genus():
    # (2,2,3; 3) passes link_divisor, but its genus formula gives -3/8
    with pytest.raises(NotASmoothCurveError, match="is not a non-negative integer") as excinfo:
        diagnose_cover(WeightSystem((2, 2, 3), 3), 2)
    assert type(excinfo.value.args[0]) is str


def test_diagnose_cover_matches_relation_path():
    # the divisor identity holds with or without coprimality
    inv = diagnose_cover(CUBIC, 3)
    assert inv.divisor == cover_divisor(milnor_orlik_divisor(CUBIC), 3)


def test_direct_cover_path_does_not_use_ring_product(monkeypatch):
    # the direct route must not share the divisor ring's product with the
    # lam(k) - 1 route it is checked against
    cases = [(CUBIC, 2), (WeightSystem((1, 2, 3), 7), 5), (WeightSystem((1, 1, 1), 5), 12)]
    expected = [cover_divisor(milnor_orlik_divisor(ws), k) for ws, k in cases]

    def refuse(self, other):
        raise AssertionError("OrlikDivisor product called on the direct route")

    monkeypatch.setattr(OrlikDivisor, "__mul__", refuse)
    with pytest.raises(AssertionError):
        lam(2) * lam(3)
    for (ws, k), via_relation in zip(cases, expected):
        assert milnor_orlik_divisor(cover_weights(ws, k)) == via_relation


def test_build_cover_catches_a_wrong_relation_path(plant_cover_fault):
    plant_cover_fault("whlink.cover")
    with pytest.raises(TwoPathMismatchError):
        build_cover(CUBIC, 2)
    # without the direct route, b_2 = 1 of the wrong divisor gives it away
    with pytest.raises(CrossCheckError) as excinfo:
        build_cover(CUBIC, 2, skip_direct_path=True)
    assert excinfo.type is CrossCheckError
    assert "b_2 = 1" in str(excinfo.value)


def test_cover_checks_is_a_tuple_of_three_items_or_two():
    via = cover_divisor(milnor_orlik_divisor(CUBIC), 2)
    system = cover_weights(CUBIC, 2)
    assert cover_checks(CUBIC, 1, 2, via, 4, system) == (None, None, None)
    assert cover_checks(CUBIC, 1, 2, via, 4, None) == (None, None)
    wrong_order = cover_checks(CUBIC, 1, 2, via, 5, None)
    assert type(wrong_order) is tuple and wrong_order[0] is None
    assert str(wrong_order[1]) == "w=(1,1,1; d=3), k=2: torsion order 5 != 2^(2*1)"


def test_build_cover_raises_the_first_of_two_planted_faults(monkeypatch):
    # a wrong direct path and a wrong order law together: every check runs,
    # and the direct path's mismatch, the first item, is the one raised
    def direct(ws):
        return milnor_orlik_divisor(ws) * lam(2)

    monkeypatch.setattr("whlink.cover.milnor_orlik_divisor", direct)
    monkeypatch.setattr("whlink.cover.cover_torsion_order", lambda k, genus: k ** (2 * genus) + 1)
    system = cover_weights(CUBIC, 2)
    via = cover_divisor(milnor_orlik_divisor(CUBIC), 2)
    mismatch, b_2, order_law = cover_checks(CUBIC, 1, 2, via, 4, system)
    assert type(mismatch) is TwoPathMismatchError and b_2 is None
    assert type(order_law) is CrossCheckError
    with pytest.raises(TwoPathMismatchError, match="cover divisor paths disagree"):
        build_cover(CUBIC, 2)
