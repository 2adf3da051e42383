"""The streamed RESSCHED engine's entry point and its plan memo.

:func:`repro.core.ressched.schedule_ressched` builds a
:class:`~repro.core.ressched.ResschedPlan` for one application and
places it into a fresh calendar.  A stream of N applications admitted
against one shared calendar would pay that setup N times for DAG shapes
that repeat, so the streamed engine splits the two halves:

* :class:`PlanMemo` serves the plan — visiting order, allocation bounds
  and execution-time tables — from memory for every repeated DAG shape;
* :func:`schedule_ressched_incremental` places a memoized plan into the
  caller's (possibly shared, already-booked) calendar at the caller's
  instant, through the same forward loop as the batch scheduler.

Both entry points share one loop and one visiting order, so a streamed
placement is bitwise the batch scheduler's on the same calendar state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.calendar import ResourceCalendar
from repro.core.context import ProblemContext
from repro.core.ressched import (
    ResSchedAlgorithm,
    ResschedPlan,
    _forward,
    build_plan,
)
from repro.dag import TaskGraph
from repro.errors import GenerationError
from repro.obs import core as _obs
from repro.schedule import Schedule
from repro.workloads.reservations import ReservationScenario

if TYPE_CHECKING:  # import cycle guard (typing only)
    from repro.shard import ShardedCalendar


class PlanMemo:
    """Content-addressed memo of :class:`ResschedPlan` across a stream.

    Keyed by ``(graph content digest, p, q, cpa_stopping, bl, bd)`` —
    the full input closure of :func:`build_plan` — so repeated DAG
    shapes in a request stream cost zero priority/bound/allocation work
    after their first admission.  The CPA allocations behind a plan are
    additionally shared process-wide by the allocation memo
    (:mod:`repro.cpa.allocation`), which this memo reaches through
    :class:`ProblemContext` on every miss.
    """

    def __init__(self, cap: int = 512):
        self._cap = int(cap)
        self._store: dict[tuple, ResschedPlan] = {}

    def __len__(self) -> int:
        return len(self._store)

    def plan(
        self,
        graph: TaskGraph,
        scenario: ReservationScenario,
        algorithm: ResSchedAlgorithm,
        *,
        cpa_stopping: str = "stringent",
    ) -> ResschedPlan:
        """The plan for ``graph`` under ``scenario``'s platform, cached."""
        key = (
            graph.content_digest,
            scenario.capacity,
            scenario.hist_avg_procs,
            cpa_stopping,
            algorithm.bl,
            algorithm.bd,
        )
        hit = self._store.get(key)
        if hit is not None:
            if _obs.ENABLED:
                _obs.incr("stream.memo.hit")
            return hit
        if _obs.ENABLED:
            _obs.incr("stream.memo.miss")
        ctx = ProblemContext(graph, scenario, cpa_stopping=cpa_stopping)
        plan = build_plan(ctx, algorithm)
        if len(self._store) >= self._cap:
            if _obs.ENABLED:
                _obs.incr("stream.memo.evict")
            self._store = {}
        self._store[key] = plan
        return plan


def schedule_ressched_incremental(
    graph: TaskGraph,
    algorithm: ResSchedAlgorithm,
    *,
    plan: ResschedPlan,
    calendar: "ResourceCalendar | ShardedCalendar",
    now: float,
    tie_break: str = "fewest",
) -> Schedule:
    """Place a memoized plan of ``graph`` into ``calendar`` at ``now``.

    Args:
        graph: The application.
        algorithm: BL/BD combination to run; ``plan`` must have been
            built for it.
        plan: The :class:`ResschedPlan` of ``graph`` on this platform
            (from :class:`PlanMemo`).
        calendar: Target calendar; the task reservations are committed
            into it, so a stream scheduler passes one shared calendar
            (or a staged copy of it) across calls.  Accepts a
            :class:`~repro.shard.ShardedCalendar` (probes then fan out
            per shard and placements route to their hosting shard).
        now: Scheduling instant (a request's arrival time).
        tie_break: ``"fewest"`` (default) or ``"most"``, as in
            :func:`~repro.core.ressched.schedule_ressched`.

    Returns:
        A complete, feasible schedule — bitwise the batch scheduler's on
        the same calendar state.
    """
    if plan.algorithm != algorithm:
        raise GenerationError(
            f"provided plan was built for {plan.algorithm.name}, not "
            f"{algorithm.name}"
        )
    schedule = _forward(graph, plan, calendar, float(now), tie_break)
    if _obs.ENABLED:
        _obs.incr("stream.events", graph.n)
    return schedule
