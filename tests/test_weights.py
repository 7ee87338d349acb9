"""Unit tests for weight systems and the genus formula."""

from enum import IntEnum
from fractions import Fraction
from math import gcd

import pytest

from whlink import InputError, NotASmoothCurveError, WeightSystem
from whlink.weights import genus_formula


def test_reduced_ratios_poincare():
    assert WeightSystem((15, 10, 6), 30).reduced_ratios() == [(2, 1), (3, 1), (5, 1)]


def test_reduced_ratios_family_member():
    assert WeightSystem((1, 2, 3), 7).reduced_ratios() == [(7, 1), (7, 2), (7, 3)]


def test_reduced_ratios_plane_cubic():
    assert WeightSystem((1, 1, 1), 3).reduced_ratios() == [(3, 1)] * 3


def test_ratio_identity_random():
    ws = WeightSystem((4, 9, 10), 21)
    for (u, v), w in zip(ws.reduced_ratios(), ws.weights):
        assert u * w == ws.degree * v


@pytest.mark.parametrize(
    "weights,degree,genus",
    [
        ((1, 1, 1), 3, 1),
        ((1, 2, 3), 7, 1),
        ((1, 1, 1), 4, 3),
        ((1, 1, 2), 4, 1),
        ((15, 10, 6), 30, 0),
    ],
)
def test_genus_values(weights, degree, genus):
    assert WeightSystem(weights, degree).genus() == genus


def test_genus_classical_degeneration():
    for d in range(3, 21):
        assert WeightSystem((1, 1, 1), d).genus() == (d - 1) * (d - 2) // 2


def test_genus_rejects_fractional_value():
    # no quasi-smooth curve: the formula gives -1/3; the message is a plain
    # string, formatted when raised
    reason = r"genus formula for w=\(2,3,5; d=7\) is not a non-negative integer"
    with pytest.raises(NotASmoothCurveError, match=reason) as excinfo:
        WeightSystem((2, 3, 5), 7).genus()
    assert type(excinfo.value.args[0]) is str


def stated_genus(w1, w2, w3, d) -> Fraction:
    """The genus formula as ``genus_formula``'s docstring writes it, term by term."""
    pairs = ((w1, w2), (w1, w3), (w2, w3))
    return Fraction(1, 2) * (
        Fraction(d * d, w1 * w2 * w3)
        - d * sum(Fraction(gcd(a, b), a * b) for a, b in pairs)
        + sum(Fraction(gcd(d, w), w) for w in (w1, w2, w3))
        - 1
    )


def test_genus_formula_matches_its_stated_formula():
    # an int where the stated value is a non-negative integer, None elsewhere
    kept = rejected = 0
    for d in range(1, 25):
        for w1 in range(1, d + 1):
            for w2 in range(w1, d + 1):
                for w3 in range(w2, d + 1):
                    if gcd(w1, w2, w3) != 1:
                        continue
                    value = stated_genus(w1, w2, w3, d)
                    genus = genus_formula(w1, w2, w3, d)
                    if value.denominator == 1 and value >= 0:
                        assert type(genus) is int and genus == value, (w1, w2, w3, d)
                        kept += 1
                    else:
                        assert genus is None, (w1, w2, w3, d)
                        rejected += 1
    assert kept > 0 and rejected > 0


def test_genus_rejects_wrong_arity():
    with pytest.raises(InputError):
        WeightSystem((1, 1, 1, 1), 4).genus()


def test_genus_rejects_imprimitive_weights():
    # same link as (1,1,1; 6) but outside the formula's hypotheses
    with pytest.raises(InputError):
        WeightSystem((2, 2, 2), 12).genus()


def test_fano_index():
    assert WeightSystem((1, 1, 1), 3).fano_index() == 3
    assert WeightSystem((1, 2, 3), 7).fano_index() == 6
    assert WeightSystem((3, 2, 2, 2), 6).fano_index() == 9


def test_bound_contrapositive_small_grid():
    # weights summing past the degree force genus 0 whenever it is defined,
    # which is what lets a search for positive genus skip them
    for d in range(1, 31):
        for w1 in range(1, d + 1):
            for w2 in range(w1, d + 1):
                for w3 in range(w2, d + 1):
                    if w1 + w2 + w3 <= d or gcd(w1, w2, w3) != 1:
                        continue
                    ws = WeightSystem((w1, w2, w3), d)
                    try:
                        genus = ws.genus()
                    except NotASmoothCurveError:
                        continue
                    assert genus == 0, ws


def test_equality_ignores_weight_order():
    assert WeightSystem((3, 1, 2), 7) == WeightSystem((1, 2, 3), 7)
    assert hash(WeightSystem((3, 1, 2), 7)) == hash(WeightSystem((1, 2, 3), 7))
    assert WeightSystem((1, 2, 3), 7) != WeightSystem((1, 2, 3), 8)


def test_weights_preserve_given_order():
    assert WeightSystem((3, 1, 2), 7).weights == (3, 1, 2)


def test_validation():
    with pytest.raises(InputError):
        WeightSystem((1,), 3)
    with pytest.raises(InputError):
        WeightSystem((0, 1, 1), 3)
    with pytest.raises(InputError):
        WeightSystem((1, 1, 1), 0)
    with pytest.raises(InputError):
        WeightSystem((1, True, 1), 3)
    with pytest.raises(InputError):
        WeightSystem((1, 1, 1), 3.0)


@pytest.mark.parametrize("bad", [True, 2.0, 0, -1])
def test_rejections_keep_their_class_and_message(bad):
    # an exact int >= 1 passes inline, and anything else gets require_int's
    # InputError and message, for a weight and for the degree alike
    with pytest.raises(InputError) as exc:
        WeightSystem((1, bad, 2), 5)
    assert type(exc.value) is InputError
    assert str(exc.value) == f"weights must be positive integers, got {bad!r}"
    with pytest.raises(InputError) as exc:
        WeightSystem((1, 2, 3), bad)
    assert type(exc.value) is InputError
    assert str(exc.value) == f"degree must be a positive integer, got {bad!r}"


class Weight(IntEnum):
    TWO = 2
    SIX = 6


def test_int_subclasses_are_accepted():
    ws = WeightSystem((1, Weight.TWO, 3), Weight.SIX)
    assert ws.weights == (1, Weight.TWO, 3) and ws.degree is Weight.SIX
    assert ws == WeightSystem((1, 2, 3), 6)


def test_immutability():
    ws = WeightSystem((1, 2, 3), 7)
    with pytest.raises(AttributeError):
        ws.degree = 8
    with pytest.raises(AttributeError):
        ws.weights = (1, 1, 1)
    assert (ws.weights, ws.degree) == ((1, 2, 3), 7)


def test_json_round_trip():
    ws = WeightSystem((1, 2, 3), 7)
    assert ws.as_json() == {"weights": [1, 2, 3], "degree": 7}
