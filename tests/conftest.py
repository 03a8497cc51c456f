"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.gpusim.engine import ENGINE_MODES


@pytest.fixture(scope="session", params=ENGINE_MODES)
def engine_mode(request):
    """Each engine loop in turn: a test taking this fixture runs once
    under ``batched`` (the fast path) and once under ``reference`` (the
    oracle it is checked against).  Session-scoped, so hypothesis tests
    may take it too."""
    return request.param


def result_fingerprint(result):
    """Everything observable about a ServingResult, fully ordered.

    Two runs that must agree (serial and pool backends, the two engine
    loops, traced and untraced) compare whole fingerprints: ``extras``
    carries only simulated outcomes, so nothing is filtered out.
    ``request_id`` is excluded: it comes from a process-global counter,
    so only its relative order (already captured by record order) is
    meaningful across runs.
    """
    return (
        result.system,
        result.makespan_us,
        result.utilization,
        tuple((r.app_id, r.arrival, r.finish) for r in result.records),
        tuple(sorted(result.extras.items())),
    )
