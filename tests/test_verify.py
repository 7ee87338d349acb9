"""The verify sweeps fail when one route of a cross-check is wrong.

A check counts as evidence only if it could have failed, so each test
here plants a fault in one route and asserts that the sweep records it.
"""

from whlink.invariants import oracle_expand
from whlink.verify import _FAILURE_CAP, build_grid, check_cover_two_path, check_oracle_agreement


def test_cover_two_path_counts_a_wrong_relation_path(plant_cover_fault):
    plant_cover_fault("whlink.verify")
    check = check_cover_two_path(build_grid(6)[0], 5)
    assert not check.ok
    assert check.failed > _FAILURE_CAP
    assert len(check.failures) == _FAILURE_CAP
    assert any("cover divisor paths disagree" in f for f in check.failures)


def test_oracle_agreement_counts_a_wrong_oracle(monkeypatch):
    def wrong(div):
        p = oracle_expand(div)
        return p[:-1] + [p[-1] + 1]

    monkeypatch.setattr("whlink.verify.oracle_expand", wrong)
    check = check_oracle_agreement(build_grid(6)[0])
    assert 0 < check.failed < check.checked
    assert any("polynomial expansions disagree" in f for f in check.failures)
