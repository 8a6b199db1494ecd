"""Shared farm-test helpers: fast scenarios and a fresh queue per test."""

import pytest

from repro.farm.queue import JobQueue
from repro.trace.store import TraceStore
from tests.trace.conftest import short_scenario


def quick_scenario(name="farm_job", seconds=0.5, **config_overrides):
    """A profiled (milliseconds-fast) scenario with a distinct name."""
    scenario = short_scenario(seconds=seconds, name=name)
    for key, value in config_overrides.items():
        setattr(scenario.config, key, value)
    return scenario


def slow_scenario(name="slow_job", seconds=60.0):
    """A scenario that takes a couple of wall seconds (~2 s for 60
    emulated s) — long enough to kill a worker mid-run
    deterministically.  Its workload never finishes first, so the
    emulated-seconds bound is what ends it."""
    scenario = quick_scenario(name=name, seconds=seconds)
    scenario.workload.params["total_iterations"] = 10**12
    return scenario


@pytest.fixture
def queue(tmp_path):
    """A queue with a real disk store (digest leases enabled)."""
    return JobQueue(
        tmp_path / "queue",
        store=TraceStore(tmp_path / "store"),
        heartbeat_timeout=10.0,
    )


@pytest.fixture
def bare_queue(tmp_path):
    """A queue without a store — digest leases always serialize."""
    return JobQueue(tmp_path / "queue", heartbeat_timeout=10.0)
