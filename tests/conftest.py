"""The one way a test obtains an oracle run.

``SimulationConfig`` defaults to the cohort executor, so a bare
``run_simulation(cfg)`` is *not* the reference: an equivalence test that
compared it with a cohort / analytic / sharded run would compare the
kernel with itself and pass whatever the kernel did.  Every reference
side goes through :func:`reference_run`, which names the per-process
executor (``repro.sim.processes``, the independent implementation) and
fails if the slot calendar fired at all while it ran.
"""

import os
from unittest import mock

import pytest

# the differential harness asserts outside test modules: rewrite its
# asserts too, so a failing equivalence shows both sides
pytest.register_assert_rewrite("tests.differential")

from repro.sim.cohort import CohortExecutor
from repro.sim.simulation import run_simulation


def shared_segments():
    """The ``multiprocessing.shared_memory`` segments that exist right now."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@pytest.fixture(scope="session", autouse=True)
def no_shared_memory_outlives_the_session():
    """Tier 1 fails if a run left a segment behind — the one place that
    holds every test to it; a test that asserts *when* a segment goes
    compares :func:`shared_segments` itself."""
    before = shared_segments()
    yield
    leaked = shared_segments() - before
    assert not leaked, f"shared-memory segments outlived the test session: {leaked}"


def _calendar_fired(self, time):
    raise AssertionError(
        f"CohortExecutor._fire ran at t={time} during a reference run: "
        "the oracle side of an equivalence test must not touch the kernel's calendar"
    )


def no_calendar():
    """Context for a reference run made inside library code (``record_config``,
    ``replay_trace(executor="process")``): the calendar firing in it fails the test."""
    return mock.patch.object(CohortExecutor, "_fire", _calendar_fired)


def reference_run(cfg, **run_kwargs):
    """``run_simulation`` of ``cfg`` under the per-process reference executor."""
    with no_calendar():
        return run_simulation(cfg.replace(client_executor="process"), **run_kwargs)
