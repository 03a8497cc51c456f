"""Shared fixtures for the test suite."""

import pytest

from repro.gpusim.engine import ENGINE_MODES


@pytest.fixture(scope="session", params=ENGINE_MODES)
def engine_mode(request):
    """Each engine loop in turn: a test taking this fixture runs once
    under ``batched`` (the fast path) and once under ``reference`` (the
    oracle it is checked against).  Session-scoped, so hypothesis tests
    may take it too."""
    return request.param
