"""Shared test fixtures."""

import pytest

from whlink.cover import cover_divisor
from whlink.divisor import lam


@pytest.fixture
def plant_cover_fault(monkeypatch):
    """Make the (lam(k) - 1) cover route of a module wrong by one extra lam(k).

    Call the fixture with the module that looks ``cover_divisor`` up,
    ``"whlink.cover"`` for ``build_cover`` or ``"whlink.verify"`` for the sweep.
    """

    def plant(module):
        monkeypatch.setattr(f"{module}.cover_divisor", lambda div, k: cover_divisor(div, k) + lam(k))

    return plant
