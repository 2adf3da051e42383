"""Arrival-driven scheduling of many DAGs against one shared calendar.

The paper schedules one application per calendar snapshot.  An online
multi-tenant service instead sees a *stream* of applications: requests
arrive over time, and each must be scheduled immediately against the
platform's current booking state — the competing reservations plus
every previously admitted application's task reservations.

Event model.  Requests are admitted in non-decreasing arrival-offset
order (the replay order :func:`repro.workloads.parse_request_stream`
guarantees).  Admission is greedy and immediate: request ``r`` is
scheduled at instant ``scenario.now + r.arrival_offset`` with the full
RESSCHED heuristic via the incremental engine
(:func:`repro.core.schedule_ressched_incremental`), committing its task
reservations into the one shared, generation-tagged
:class:`~repro.calendar.calendar.ResourceCalendar`.  Already-booked
requests are never revisited (advance reservations are contracts).

This module holds the planning half: :class:`StreamScheduler` owns the
shared calendar and the plan memo and plans one request at a time.  The
admission loop — arrival order, admission control, commits, faults and
the request events of the timeline — is
:class:`repro.service.ReservationService`.

:func:`schedule_stream_naive` is the reference baseline: per request it
rebuilds a full :class:`~repro.workloads.reservations.ReservationScenario`
holding everything booked so far and runs the batch
:func:`~repro.core.schedule_ressched` — N full passes.  Both paths
produce bitwise-identical placements; ``repro bench`` asserts this
before timing them (the ``streamed_throughput`` section).

Counters (``stream.*`` family, in RunReports when instrumented):

==============================  ========================================
counter                         meaning
==============================  ========================================
``stream.events``               tasks the streamed engine placed
``stream.memo.hit`` / ``.miss`` plan-memo hits / misses (repeated DAG
                                shapes cost zero allocation work)
==============================  ========================================
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.calendar import ResourceCalendar
from repro.core.incremental import PlanMemo, schedule_ressched_incremental
from repro.core.ressched import ResSchedAlgorithm, schedule_ressched
from repro.shard import ShardedCalendar
from repro.dag import TaskGraph
from repro.errors import ServiceError
from repro.schedule import Schedule
from repro.workloads.requests import RequestSpec
from repro.workloads.reservations import ReservationScenario


@dataclass(frozen=True)
class StreamRequest:
    """One application arriving in a request stream.

    Attributes:
        request_id: Unique identifier.
        arrival_offset: Seconds after the stream epoch (``scenario.now``)
            at which the request arrives.
        graph: The application to schedule.
        mode: ``"interactive"`` or ``"batch"`` (replay metadata).
        priority: ``"low"`` / ``"mid"`` / ``"high"`` (replay metadata).
        tenant: Owning tenant, carried on timeline events so multi-
            tenant SLO series can be sliced per tenant.
    """

    request_id: str
    arrival_offset: float
    graph: TaskGraph
    mode: str = "interactive"
    priority: str = "mid"
    tenant: str = "default"


class StreamScheduler:
    """Plans a request stream against one shared calendar.

    One instance owns the platform's booking state for the whole stream:
    a single calendar seeded with the scenario's competing reservations,
    mutated by every admission's committed task reservations.  Plans
    (priority orders, bounds, execution tables) are memoized by graph
    content digest across requests, and the CPA allocations behind them
    hit the process-wide allocation memo, so repeated DAG shapes cost
    zero allocation work after their first admission.

    Args:
        scenario: Platform snapshot at the stream epoch; its ``now`` is
            the epoch all arrival offsets are relative to.
        algorithm: RESSCHED heuristic applied to every request.
        cpa_stopping: CPA stopping criterion for plan building.
        tie_break: Completion-tie resolution, as in the batch scheduler.
        memo: Optional shared :class:`~repro.core.incremental.PlanMemo`
            (several streams can share one).
        shards: ``None`` (default) books into one unsharded calendar;
            an integer K partitions the platform into a
            :class:`~repro.shard.ShardedCalendar` of K shards (placement
            probes fan out and reduce per shard; each placement is
            hosted wholly by one shard).  ``shards=1`` is bitwise
            identical to the unsharded engine — the facade
            short-circuits to its single shard.
        calendar: Optional pre-built booking calendar to adopt instead
            of constructing one from the scenario — it must cover the
            scenario's capacity and competing reservations (the caller
            vouches; nothing is re-validated).  The benchmarks use this
            to amortize one expensive :meth:`ShardedCalendar.partition`
            over many timed runs (each run adopts a fresh ``.copy()``),
            and a restore path can hand a journal-rebuilt calendar
            straight in.  Mutually exclusive with ``shards``.
    """

    def __init__(
        self,
        scenario: ReservationScenario,
        algorithm: ResSchedAlgorithm = ResSchedAlgorithm(),
        *,
        cpa_stopping: str = "stringent",
        tie_break: str = "fewest",
        memo: PlanMemo | None = None,
        shards: int | None = None,
        calendar: "ResourceCalendar | ShardedCalendar | None" = None,
    ):
        if calendar is not None and shards is not None:
            raise ServiceError(
                "pass either a pre-built calendar or a shard count, not both"
            )
        self._scenario = scenario
        self._algorithm = algorithm
        self._cpa_stopping = cpa_stopping
        self._tie_break = tie_break
        self._memo = PlanMemo() if memo is None else memo
        if calendar is not None:
            self._calendar = calendar
        elif shards is None:
            self._calendar = scenario.calendar()
        else:
            self._calendar = ShardedCalendar.partition(
                scenario.capacity,
                scenario.reservations,
                n_shards=int(shards),
            )

    @property
    def scenario(self) -> ReservationScenario:
        """The stream-epoch platform snapshot."""
        return self._scenario

    @property
    def calendar(self) -> "ResourceCalendar | ShardedCalendar":
        """The shared calendar holding everything booked so far."""
        return self._calendar

    def tentative_schedule(
        self,
        request: StreamRequest,
        *,
        arrival: float,
        calendar: "ResourceCalendar | ShardedCalendar",
    ) -> Schedule:
        """Plan ``request`` at ``arrival`` against ``calendar``.

        Builds (or reuses) the memoized plan and runs the incremental
        engine against the given calendar, booking the placements into
        it — normally a :meth:`~repro.calendar.calendar.ResourceCalendar.copy`
        of the shared one, so nothing is committed until the caller
        adopts it.  :class:`repro.service.ReservationService` composes
        this with :meth:`adopt` for its optimistic-concurrency commits.
        """
        plan = self._memo.plan(
            request.graph,
            self._scenario,
            self._algorithm,
            cpa_stopping=self._cpa_stopping,
        )
        return schedule_ressched_incremental(
            request.graph,
            self._algorithm,
            tie_break=self._tie_break,
            calendar=calendar,
            now=arrival,
            plan=plan,
        )

    def adopt(self, calendar: "ResourceCalendar | ShardedCalendar") -> None:
        """Make ``calendar`` the shared booking state.

        The commit half of a tentative-then-commit admission: the caller
        planned against a copy and, with the commit still valid, swaps
        the copy in.  A staged :class:`~repro.shard.ShardedCalendar`
        copy of the current shared calendar goes through the two-phase
        protocol instead — only its touched shard legs are swapped in
        (:meth:`~repro.shard.ShardedCalendar.commit`), which raises
        :class:`~repro.errors.ShardCommitError` on stale legs.

        Raises:
            ServiceError: If the calendar's capacity disagrees with the
                shared one (it cannot describe the same platform).
        """
        base = self._calendar
        if (
            isinstance(base, ShardedCalendar)
            and isinstance(calendar, ShardedCalendar)
            and calendar.parent is base
        ):
            base.commit(calendar)
            return
        if calendar.capacity != base.capacity:
            raise ServiceError(
                f"cannot adopt a calendar with capacity "
                f"{calendar.capacity}; the stream's platform has "
                f"{base.capacity}"
            )
        self._calendar = calendar


def schedule_stream_naive(
    scenario: ReservationScenario,
    requests: Sequence[StreamRequest],
    algorithm: ResSchedAlgorithm = ResSchedAlgorithm(),
    *,
    cpa_stopping: str = "stringent",
    tie_break: str = "fewest",
) -> list[Schedule]:
    """The N-full-passes reference: batch-reschedule per request.

    For each request, build a fresh scenario whose reservation set is
    the original competing reservations plus every task reservation
    booked so far, and run the batch :func:`~repro.core.schedule_ressched`
    on it.  Placements are bitwise-identical to those of
    :class:`repro.service.ReservationService` at its default
    configuration and fault rate zero — this is the equivalence oracle
    and the benchmark baseline, not a production path.
    """
    booked = list(scenario.reservations)
    schedules: list[Schedule] = []
    last_offset = 0.0
    for request in requests:
        offset = float(request.arrival_offset)
        if offset < 0 or offset < last_offset:
            raise ServiceError(
                f"request {request.request_id!r}: arrival offsets must be "
                "non-negative and non-decreasing"
            )
        last_offset = offset
        scenario_r = replace(
            scenario,
            now=scenario.now + offset,
            reservations=tuple(booked),
        )
        schedule = schedule_ressched(
            request.graph,
            scenario_r,
            algorithm,
            cpa_stopping=cpa_stopping,
            tie_break=tie_break,
        )
        booked.extend(schedule.reservations())
        schedules.append(schedule)
    return schedules


def stream_digest(
    outcomes: Iterable[tuple[str, bool, Schedule | None]],
) -> str:
    """SHA-256 over a stream's deterministic outcome content.

    ``outcomes`` yields, per request in processed order, its id,
    whether it was admitted, and its schedule (the committed one, the
    discarded tentative one of a rejection, or ``None`` when nothing was
    planned).  The hash covers the ids, the dispositions and every
    placement's ``(task, start, nprocs, duration)`` — the
    compute-derived results, no wall-clock measurements.  Two runs with
    the same digest placed every task identically; the K=1
    sharded-vs-unsharded equivalence is asserted on this value.
    """
    h = hashlib.sha256()
    for request_id, admitted, schedule in outcomes:
        h.update(request_id.encode())
        h.update(b"+" if admitted else b"-")
        if schedule is not None:
            for p in schedule.placements:
                h.update(
                    f"{p.task}:{p.start!r}:{p.nprocs}:{p.duration!r};".encode()
                )
    return h.hexdigest()


def requests_from_specs(
    specs: Sequence[RequestSpec], graphs: Sequence[TaskGraph]
) -> list[StreamRequest]:
    """Pair replayed request specs with application DAGs, round-robin.

    A replay CSV carries arrival metadata but no applications; this
    assigns ``graphs[k % len(graphs)]`` to the ``k``-th spec — the
    deterministic bridge between :mod:`repro.workloads.requests` and the
    stream driver.
    """
    if not graphs:
        raise ServiceError("requests_from_specs needs at least one graph")
    return [
        StreamRequest(
            request_id=spec.request_id,
            arrival_offset=spec.arrival_offset,
            graph=graphs[k % len(graphs)],
            mode=spec.mode,
            priority=spec.priority,
            tenant=spec.tenant,
        )
        for k, spec in enumerate(specs)
    ]
