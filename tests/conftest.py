"""Shared test fixtures."""

import pytest

from whlink.cover import cover_divisor
from whlink.divisor import OrlikDivisor
from whlink.invariants import oracle_expand


@pytest.fixture
def plant_cover_fault(monkeypatch):
    """Make the (lam(k) - 1) cover route of a module wrong by one extra lam(k).

    Call the fixture with the module that looks ``cover_divisor`` up,
    ``"whlink.cover"`` for ``build_cover`` or ``"whlink.verify"`` for the sweep.
    """

    def wrong(div, k):
        terms = dict(cover_divisor(div, k).items())
        terms[k] = terms.get(k, 0) + 1
        return OrlikDivisor(terms)

    def plant(module):
        monkeypatch.setattr(f"{module}.cover_divisor", wrong)

    return plant


@pytest.fixture
def plant_expansion_fault(monkeypatch):
    """Make an expansion route return its polynomial with the last coefficient one too big.

    Call the fixture with the route's dotted name as its user looks it up,
    ``"whlink.invariants.char_poly_from_divisor"`` for ``link`` or
    ``"whlink.verify.oracle_expand"`` for the sweep; both plants give the
    same polynomial.
    """

    def wrong(div):
        p = oracle_expand(div)
        return p[:-1] + [p[-1] + 1]

    return lambda target: monkeypatch.setattr(target, wrong)
