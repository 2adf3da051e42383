"""Shared per-problem state for the reservation-aware schedulers.

Every algorithm in :mod:`repro.core` needs some subset of: the platform
size ``p``, the historical average availability P' rounded to a usable
processor count ``q``, CPA allocations computed for ``p`` and for ``q``,
per-task execution-time tables ``T_i(m)``, and the compiled calendar of
the competing reservations.  A :class:`ProblemContext` computes each of
these lazily and exactly once, so that e.g. comparing all twelve
RESSCHED variants on one instance shares the CPA runs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.calendar import ResourceCalendar
from repro.cpa import CpaAllocation, cpa_allocation, icaslb_allocation
from repro.dag import TaskGraph
from repro.errors import GenerationError
from repro.workloads.reservations import ReservationScenario


class ProblemContext:
    """One (application, reservation scenario) problem instance.

    Args:
        graph: The mixed-parallel application.
        scenario: The platform snapshot at scheduling time.
        cpa_stopping: Stopping criterion handed to every CPA allocation
            run (``"stringent"`` — the paper's improved CPA — or
            ``"classic"``).
    """

    def __init__(
        self,
        graph: TaskGraph,
        scenario: ReservationScenario,
        *,
        cpa_stopping: str = "stringent",
    ):
        if cpa_stopping not in ("classic", "stringent"):
            raise GenerationError(
                f"cpa_stopping must be 'classic' or 'stringent', got "
                f"{cpa_stopping!r}"
            )
        self.graph = graph
        self.scenario = scenario
        self.cpa_stopping = cpa_stopping

    @property
    def p(self) -> int:
        """Total processors of the platform."""
        return self.scenario.capacity

    @property
    def q(self) -> int:
        """P' — the historical average availability, as a processor count
        (:attr:`~repro.workloads.reservations.ReservationScenario.hist_avg_procs`)."""
        return self.scenario.hist_avg_procs

    @property
    def now(self) -> float:
        """The scheduling instant."""
        return self.scenario.now

    @cached_property
    def cpa_p(self) -> CpaAllocation:
        """CPA allocations assuming all ``p`` processors are available."""
        return cpa_allocation(self.graph, self.p, stopping=self.cpa_stopping)

    @cached_property
    def cpa_q(self) -> CpaAllocation:
        """CPA allocations assuming ``q = P'`` processors are available."""
        if self.q == self.p:
            return self.cpa_p
        return cpa_allocation(self.graph, self.q, stopping=self.cpa_stopping)

    @cached_property
    def icaslb_q(self) -> CpaAllocation:
        """iCASLB allocations for ``q = P'`` (extension: the paper's
        future-work alternative to CPA as the allocation basis)."""
        return icaslb_allocation(self.graph, self.q)

    @cached_property
    def base_calendar(self) -> ResourceCalendar:
        """The scenario's calendar, compiled on first use.  Never booked
        into: each backward pass books into an O(1)
        :meth:`~repro.calendar.ResourceCalendar.copy` of it."""
        return self.scenario.calendar()

    @cached_property
    def exec_tables(self) -> list[np.ndarray]:
        """Per-task execution-time vectors ``T_i(m)`` for ``m = 1..p``."""
        return [self.graph.task(i).exec_times(self.p) for i in range(self.graph.n)]

    def exec_time(self, task: int, m: int) -> float:
        """``T_task(m)`` from the cached tables."""
        return float(self.exec_tables[task][m - 1])
