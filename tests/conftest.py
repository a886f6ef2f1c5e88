"""Shared test set-up."""

import pytest

from sorkinlab import models


@pytest.fixture(autouse=True)
def empty_slit_system_cache():
    """Start every test with no slit system kept from an earlier one, so a
    test that counts builds or checks sees its own."""
    models._slit_systems.clear()
