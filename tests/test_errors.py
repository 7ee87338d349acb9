"""Tests of the shared integer validator."""

import pytest

from whlink.errors import InputError, InvalidIndexError, require_int


class Count(int):
    """An int subclass, which the validator accepts like any int."""


@pytest.mark.parametrize(
    "value, minimum",
    [(0, 0), (7, 2), (-5, None), (10**30, 1), (Count(3), 2), (Count(-1), None)],
)
def test_accepts_ints_at_or_above_the_minimum(value, minimum):
    assert require_int(value, minimum, "unused") is None


@pytest.mark.parametrize("minimum", [0, None])
def test_rejects_bools(minimum):
    with pytest.raises(InputError) as info:
        require_int(True, minimum, "flag must be an int")
    assert str(info.value) == "flag must be an int, got True"


@pytest.mark.parametrize(
    "value, minimum, shown",
    [
        (1, 2, "1"),
        (-4, 0, "-4"),
        (Count(1), 2, "1"),
        (2.0, 1, "2.0"),
        ("3", 1, "'3'"),
        (None, None, "None"),
    ],
)
def test_rejections_keep_class_and_message(value, minimum, shown):
    with pytest.raises(InvalidIndexError) as info:
        require_int(value, minimum, "index must be a positive integer", InvalidIndexError)
    assert type(info.value) is InvalidIndexError
    assert str(info.value) == f"index must be a positive integer, got {shown}"
