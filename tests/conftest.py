"""Every tier-1 test runs with warnings as errors, so that a numpy overflow
or invalid-value warning (uint64 scalar arithmetic in seed mixing, say)
fails the test that raised it."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error"))
