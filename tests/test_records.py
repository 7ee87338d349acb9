"""The frozen records: read-only fields, pinned reprs, and the values ``realize`` returns."""

import pytest

from whlink import WeightSystem, build_cover, link_invariants, realize
from whlink.smale import SmaleManifold

CUBIC = WeightSystem((1, 1, 1), 3)


def records():
    cert = realize(8)
    return {
        "LinkInvariants": (link_invariants(CUBIC), "genus"),
        "CoverLink": (build_cover(CUBIC, 2), "k"),
        "FamilyMember": (cert.family, "p"),
        "RealizationCertificate": (cert, "manifold"),
        "SmaleManifold": (SmaleManifold(((2, 1),)), "summands"),
    }


@pytest.mark.parametrize("name", list(records()))
def test_record_fields_are_read_only(name):
    record, field = records()[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_smale_manifold_repr():
    assert repr(SmaleManifold(((2, 1),))) == "SmaleManifold(summands=((2, 1),))"
    assert SmaleManifold(()).i_invariant == 0


def test_realize_returns_the_same_manifolds():
    assert repr(realize(8).candidates) == (
        "(SmaleManifold(summands=((2, 3),)), SmaleManifold(summands=((2, 2), (2, 1))), "
        "SmaleManifold(summands=((2, 1), (2, 1), (2, 1))))"
    )
    assert repr(realize(6).manifold) == "SmaleManifold(summands=((2, 1), (3, 1)))"
    assert repr(realize(8).family) == "FamilyMember(p=3, l=1, system=WeightSystem((1, 1, 1), 3))"
