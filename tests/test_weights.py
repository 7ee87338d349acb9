"""Unit tests for weight systems and the genus formula."""

import pytest

from whlink import InputError, NotASmoothCurveError, WeightSystem


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
    # no quasi-smooth curve: the formula gives -1/3
    with pytest.raises(NotASmoothCurveError):
        WeightSystem((2, 3, 5), 7).genus()


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
                    ws = WeightSystem((w1, w2, w3), d)
                    if sum(ws.weights) <= ws.degree or not ws.is_primitive():
                        continue
                    value = ws.genus_value()
                    if value.denominator == 1 and value >= 0:
                        assert value == 0, ws


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


def test_json_round_trip():
    ws = WeightSystem((1, 2, 3), 7)
    assert ws.as_json() == {"weights": [1, 2, 3], "degree": 7}
    assert WeightSystem.from_json(ws.as_json()) == ws
