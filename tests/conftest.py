"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os
import signal
import threading
from types import FrameType
from typing import Iterator

import numpy as np
import pytest

from repro import (
    DagGenParams,
    ResourceCalendar,
    Task,
    TaskGraph,
    make_rng,
    random_task_graph,
)
from repro.calendar import Reservation
from repro.model import AmdahlModel
from repro.workloads import (
    Job,
    SyntheticLogParams,
    build_reservation_scenario,
    generate_log,
    preset,
)
from repro.workloads.reservations import ReservationScenario, pick_scheduling_time


#: Per-test wall-clock budget in seconds; 0 (or unset-able via env)
#: disables the guard.  Dependency-free SIGALRM timeout so a hung test
#: fails loudly instead of wedging CI.
_TEST_TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT", "300") or 0)


class SuiteTimeout(BaseException):
    """A test ran past ``REPRO_TEST_TIMEOUT``.

    Not an ``Exception``: the sweep harness quarantines any
    ``Exception`` an instance raises and carries on, which would let a
    hung table sweep outlive the cap.
    """


@pytest.fixture(autouse=True)
def _global_test_timeout(request: pytest.FixtureRequest) -> Iterator[None]:
    """Fail any test that exceeds ``REPRO_TEST_TIMEOUT`` seconds.

    Uses ``SIGALRM`` (skipped off the main thread and on platforms
    without it).  ``repro.experiments.parallel._alarm`` saves and
    restores an outer itimer, so per-instance harness timeouts compose
    with this fixture instead of clobbering it.
    """
    if (
        _TEST_TIMEOUT_S <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _timed_out(signum: int, frame: FrameType | None) -> None:
        raise SuiteTimeout(  # lint: ignore[REP005] — test harness code, deliberately outside the library taxonomy
            f"test exceeded REPRO_TEST_TIMEOUT={_TEST_TIMEOUT_S:g}s: "
            f"{request.node.nodeid}"
        )

    old_handler = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, _TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic root random generator."""
    return make_rng(1234)


@pytest.fixture
def small_graph() -> TaskGraph:
    """A 6-task diamond-ish DAG with hand-set costs.

    Structure::

        t0 -> t1 -> t3 -> t5
        t0 -> t2 -> t4 -> t5
              t2 -> t3
    """
    tasks = [
        Task("t0", 600.0, AmdahlModel(0.05)),
        Task("t1", 3600.0, AmdahlModel(0.10)),
        Task("t2", 1800.0, AmdahlModel(0.00)),
        Task("t3", 7200.0, AmdahlModel(0.20)),
        Task("t4", 900.0, AmdahlModel(0.15)),
        Task("t5", 300.0, AmdahlModel(0.05)),
    ]
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]
    return TaskGraph(tasks, edges)


@pytest.fixture
def medium_graph(rng: np.random.Generator) -> TaskGraph:
    """A 25-task random application at default shape parameters."""
    return random_task_graph(DagGenParams(n=25), rng)


@pytest.fixture
def busy_calendar() -> ResourceCalendar:
    """A 16-processor calendar with a few competing reservations."""
    reservations = [
        Reservation(start=0.0, end=4000.0, nprocs=8, label="r0"),
        Reservation(start=2000.0, end=6000.0, nprocs=4, label="r1"),
        Reservation(start=10_000.0, end=20_000.0, nprocs=16, label="r2"),
        Reservation(start=30_000.0, end=40_000.0, nprocs=12, label="r3"),
    ]
    return ResourceCalendar(16, reservations)


@pytest.fixture(scope="session")
def osc_jobs() -> tuple[list[Job], SyntheticLogParams]:
    """One synthetic OSC_Cluster log, shared across the session."""
    params = preset("OSC_Cluster")
    return generate_log(params, make_rng(777)), params


@pytest.fixture
def osc_scenario(
    osc_jobs: tuple[list[Job], SyntheticLogParams],
) -> ReservationScenario:
    """A reservation scenario built from the OSC log."""
    jobs, params = osc_jobs
    rng = make_rng(4242)
    now = pick_scheduling_time(jobs, rng)
    return build_reservation_scenario(
        jobs, params.n_procs, phi=0.2, now=now, method="expo", rng=rng
    )
