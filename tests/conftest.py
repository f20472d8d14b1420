"""Session-wide fixtures for the tier-1 suite."""

import pytest

from repro.perf import runner


@pytest.fixture(scope="session", autouse=True)
def _shut_down_sweep_executors():
    """Shut down the sweep runner's cached executors when the session ends.

    The suite keeps test modules, and with them the runner's executor
    cache, alive into interpreter teardown. An executor freed there,
    after ``concurrent.futures.process`` has lost its module globals,
    prints an ignored ``AttributeError`` from its weakref callback; one
    shut down first has no callback left to run.
    """
    yield
    for executor in runner._EXECUTORS.values():
        executor.shutdown()
    runner._EXECUTORS.clear()
