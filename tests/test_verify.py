"""The verify sweeps fail when one route of a cross-check is wrong.

A check counts as evidence only if it could have failed, so each test
here plants a fault in one route and asserts that the sweep records it.
The failure-text tests pin each of the nine checks' description exactly.
"""

from itertools import zip_longest
from math import gcd, lcm

import pytest

from whlink.cover import build_cover
from whlink.divisor import OrlikDivisor, lam
from whlink.errors import CrossCheckError, NotAPolynomialError, TwoPathMismatchError
from whlink.invariants import link_divisor, link_invariants, oracle_expand
from whlink.verify import (
    _FAILURE_CAP,
    build_grid,
    check_cover_two_path,
    check_genus_betti_duality,
    check_group_ring_relation,
    check_oracle_agreement,
)
from whlink.weights import WeightSystem


def test_cover_two_path_counts_a_wrong_relation_path(plant_cover_fault):
    plant_cover_fault("whlink.verify")
    check = check_cover_two_path(build_grid(6)[0], 5)
    assert not check.ok
    assert check.failed > _FAILURE_CAP
    assert len(check.failures) == _FAILURE_CAP
    assert any("cover divisor paths disagree" in f for f in check.failures)


def test_oracle_agreement_counts_a_wrong_oracle(monkeypatch):
    # plus (t - 1)^2: every row's expansions disagree, but p(1) stays, and
    # so does the degree unless it was below 2, and the value read off
    # p(1 + s) moves only where the multiplicity is 2
    def wrong(div):
        p = oracle_expand(div)
        return [c + e for c, e in zip_longest(p, [1, -2, 1], fillvalue=0)]

    monkeypatch.setattr("whlink.verify.oracle_expand", wrong)
    grid = build_grid(6)[0]
    check = check_oracle_agreement(grid)
    low = sum(div.polynomial_degree() < 2 for _ws, _g, div in grid)
    genus_one = sum(g == 1 for _ws, g, _div in grid)
    assert (check.checked, check.failed) == (3 * len(grid), len(grid) + low + genus_one)
    assert 0 < low and 0 < genus_one
    assert check.failures[0].endswith(": polynomial expansions disagree")


def test_a_passing_sweep_formats_no_failure_text(monkeypatch):
    # every failure text names its weight system, so a text built for a
    # check that passed shows as a call to WeightSystem.__str__
    grid = build_grid(8)[0]
    calls = []
    monkeypatch.setattr(WeightSystem, "__str__", lambda self: calls.append(self) or "ws")
    checks = [
        check_genus_betti_duality(grid),
        check_oracle_agreement(grid),
        check_cover_two_path(grid, 5),
    ]
    assert all(check.ok and check.checked for check in checks)
    assert calls == []


CUBIC = WeightSystem((1, 1, 1), 3)
CUBIC_ROW = (CUBIC, 1, link_divisor(CUBIC))


def test_group_ring_relation_failure_text(monkeypatch):
    monkeypatch.setattr("whlink.verify.relation_holds", lambda a, b: False)
    assert check_group_ring_relation(1).failures == ["relation fails for lam(1) * lam(1)"]


def test_genus_betti_duality_failure_text():
    ws, g, div = CUBIC_ROW
    assert check_genus_betti_duality([(ws, g + 1, div)]).failures == [
        "w=(1,1,1; d=3): multiplicity 2 != 2 * genus 2"
    ]


def test_oracle_agreement_failure_text_for_a_refused_divisor():
    check = check_oracle_agreement([(CUBIC, 1, OrlikDivisor({1: -1}))])
    assert (check.checked, check.failed) == (1, 1)
    assert check.failures == ["w=(1,1,1; d=3): degree 0 polynomial is not divisible by t^1 - 1"]


def test_oracle_agreement_counts_a_refused_read_out(monkeypatch):
    # a value at t = 1 that is not an integer is one failed check, like a
    # refused expansion, not an exception out of the sweep
    def refuse(self):
        raise NotAPolynomialError("the divisor's value at t = 1 is not an integer")

    monkeypatch.setattr(OrlikDivisor, "reduced_value_at_one", refuse)
    check = check_oracle_agreement([CUBIC_ROW])
    assert (check.checked, check.failed) == (1, 1)
    assert check.failures == ["w=(1,1,1; d=3): the divisor's value at t = 1 is not an integer"]


def test_cover_two_path_counts_a_refused_read_out(monkeypatch):
    # each (system, k) cell whose read-out refuses is one failed check, and
    # the sweep goes on to the next cell
    def refuse(self):
        raise NotAPolynomialError("the divisor's value at t = 1 is not an integer")

    grid = build_grid(4)[0]
    cells = [(ws, k) for ws, _g, _div in grid for k in (2, 3) if gcd(ws.degree, k) == 1]
    monkeypatch.setattr(OrlikDivisor, "reduced_value_at_one", refuse)
    check = check_cover_two_path(grid, 3)
    assert (check.checked, check.failed) == (len(cells), len(cells))
    assert check.failures == [
        f"{ws}, k={k}: the divisor's value at t = 1 is not an integer"
        for ws, k in cells[:_FAILURE_CAP]
    ]


def test_oracle_agreement_failure_texts(monkeypatch):
    # the constant 1: another polynomial, of degree 0 and value 1 at t = 1,
    # and value 0 read as the coefficient of s^2 in p(1 + s)
    monkeypatch.setattr("whlink.verify.oracle_expand", lambda div: [1])
    assert check_oracle_agreement([CUBIC_ROW]).failures == [
        "w=(1,1,1; d=3): polynomial expansions disagree",
        "w=(1,1,1; d=3): expansion has degree 0 and value 1 at t = 1, the divisor gives 8 and 0",
        "w=(1,1,1; d=3): value at t = 1 came out 0",
    ]


# the expansion of (1,1,1; 3), (t^2 + t + 1)^3 (t - 1)^2, with a last coefficient of 2
WRONG_EXPANSION_TEXT = (
    "w=(1,1,1; d=3): expansion has degree 8 and value 1 at t = 1, the divisor gives 8 and 0"
)


def test_a_wrong_expansion_fails_link_and_verify_alike(plant_expansion_fault):
    # one definition of the expansion check: link_invariants raises on the
    # planted production polynomial, and verify records the same text for
    # the same polynomial as the oracle's
    plant_expansion_fault("whlink.invariants.char_poly_from_divisor")
    with pytest.raises(CrossCheckError) as excinfo:
        link_invariants(CUBIC)
    assert str(excinfo.value) == WRONG_EXPANSION_TEXT
    plant_expansion_fault("whlink.verify.oracle_expand")
    assert check_oracle_agreement([CUBIC_ROW]).failures[1] == WRONG_EXPANSION_TEXT


def test_cover_two_path_failure_texts(plant_cover_fault):
    plant_cover_fault("whlink.verify")
    assert check_cover_two_path([CUBIC_ROW], 2).failures == [
        "w=(1,1,1; d=3), k=2: cover divisor paths disagree",
        "w=(1,1,1; d=3), k=2: b_2 = 1, expected 0",
        "w=(1,1,1; d=3), k=2: torsion order 8 != 2^(2*1)",
    ]


def test_group_ring_relation_counts_a_wrong_ring_product(monkeypatch):
    # the relation is checked against the ring's own product, so a wrong
    # product fails: a zero one everywhere, one without the gcd(a, b)
    # factor wherever a and b share a factor
    monkeypatch.setattr(OrlikDivisor, "__mul__", lambda self, other: OrlikDivisor())
    check = check_group_ring_relation(40)
    assert (check.checked, check.failed) == (1600, 1600)
    assert check.failures[0] == "relation fails for lam(1) * lam(1)"

    def without_gcd(self, other):
        ((a, _), (b, _)) = self.items() + other.items()
        return lam(lcm(a, b))

    monkeypatch.setattr(OrlikDivisor, "__mul__", without_gcd)
    check = check_group_ring_relation(40)
    shared = [(a, b) for a in range(1, 41) for b in range(1, 41) if gcd(a, b) > 1]
    assert (check.checked, check.failed) == (1600, len(shared))
    assert check.failures[0] == "relation fails for lam(2) * lam(2)"


def test_a_wrong_order_law_fails_cover_and_verify_alike(monkeypatch):
    # one definition of the order law: compared against k^g instead of
    # k^(2g), build_cover refuses the cover and verify counts the failure
    monkeypatch.setattr("whlink.cover.cover_torsion_order", lambda k, genus: k**genus)
    with pytest.raises(CrossCheckError) as excinfo:
        build_cover(CUBIC, 2)
    text = "w=(1,1,1; d=3), k=2: torsion order 4 != 2^(2*1)"
    assert str(excinfo.value) == text
    check = check_cover_two_path(build_grid(6)[0], 5)
    assert 0 < check.failed < check.checked
    assert check_cover_two_path([CUBIC_ROW], 2).failures == [text]


def test_build_cover_raises_the_texts_verify_records(plant_cover_fault):
    plant_cover_fault("whlink.cover")
    with pytest.raises(TwoPathMismatchError) as excinfo:
        build_cover(CUBIC, 2)
    assert str(excinfo.value) == "w=(1,1,1; d=3), k=2: cover divisor paths disagree"
    with pytest.raises(CrossCheckError) as excinfo:
        build_cover(CUBIC, 2, skip_direct_path=True)
    assert str(excinfo.value) == "w=(1,1,1; d=3), k=2: b_2 = 1, expected 0"


def test_a_direct_route_without_a_divisor_disagrees(monkeypatch):
    # a direct route that finds no integral divisor compares unequal to the
    # lam(k) - 1 product: None against a divisor is False, not an error
    monkeypatch.setattr("whlink.cover.milnor_orlik_divisor", lambda ws: None)
    text = "w=(1,1,1; d=3), k=2: cover divisor paths disagree"
    with pytest.raises(TwoPathMismatchError) as excinfo:
        build_cover(CUBIC, 2)
    assert str(excinfo.value) == text
    check = check_cover_two_path([CUBIC_ROW], 2)
    assert (check.checked, check.failed, check.failures) == (3, 1, [text])


def test_link_invariants_raises_the_duality_text_verify_records(monkeypatch):
    monkeypatch.setattr(type(CUBIC), "genus", lambda self: 2)
    with pytest.raises(CrossCheckError) as excinfo:
        link_invariants(CUBIC)
    assert str(excinfo.value) == "w=(1,1,1; d=3): multiplicity 2 != 2 * genus 2"
