"""Every tier-1 test runs with warnings as errors, so that a numpy overflow
or invalid-value warning (uint64 scalar arithmetic in seed mixing, say)
fails the test that raised it.  One third-party warning is let through:
Hypothesis's failure report imports libcst, whose import warns that
mypy_extensions.TypedDict is deprecated; as an error it would abort the
whole session in place of reporting the failing example."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error"))
        item.add_marker(pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"))
