"""RESSCHED: turn-around-time minimization with advance reservations.

The paper's forward heuristic (§4.2) has two phases:

1. Order the tasks by decreasing bottom level, computed with one of the
   BL methods (:mod:`repro.core.bottom_levels`), as a topological order
   (:meth:`~repro.dag.TaskGraph.priority_order`).
2. For each task in order, consider every processor count up to its
   bound (:mod:`repro.core.bounds`) and commit the <count, start> pair
   with the earliest completion time given the current reservation
   calendar (competing reservations plus already-placed tasks) — one
   :meth:`~repro.calendar.ResourceCalendar.earliest_completion` query
   per task, which skips the counts that provably cannot win.

Crossing the four BL methods with the three paper BD methods yields the
twelve ``BL_x_BD_y`` algorithms; with an empty reservation schedule,
``BL_CPA_BD_CPA`` degenerates to plain CPA.  Completion ties are broken
toward fewer processors (saving CPU-hours at equal turn-around).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.calendar import ProbedCount, ResourceCalendar
from repro.core.bottom_levels import BL_METHODS_EXTENDED, bl_priority_order
from repro.core.bounds import BD_METHODS_EXTENDED, allocation_bounds
from repro.core.context import ProblemContext
from repro.dag import TaskGraph
from repro.errors import GenerationError
from repro.obs import core as _obs
from repro.obs import timeline as _tl
from repro.schedule import Schedule, TaskPlacement
from repro.workloads.reservations import ReservationScenario

if TYPE_CHECKING:  # import cycle guard (typing only)
    from repro.shard import ShardedCalendar


@dataclass(frozen=True)
class ResSchedAlgorithm:
    """One RESSCHED heuristic: a BL method crossed with a BD method."""

    bl: str = "BL_CPAR"
    bd: str = "BD_CPAR"

    def __post_init__(self) -> None:
        if self.bl not in BL_METHODS_EXTENDED:
            raise GenerationError(
                f"unknown BL method {self.bl!r}; expected one of "
                f"{BL_METHODS_EXTENDED}"
            )
        if self.bd not in BD_METHODS_EXTENDED:
            raise GenerationError(
                f"unknown BD method {self.bd!r}; expected one of "
                f"{BD_METHODS_EXTENDED}"
            )

    @property
    def name(self) -> str:
        """Paper-style name, e.g. ``"BL_CPAR_BD_CPAR"``."""
        return f"{self.bl}_{self.bd}"


#: The paper's 12 named algorithms (4 BL methods x 3 BD methods;
#: BD_HALF is evaluated separately as a control).
RESSCHED_ALGORITHMS: tuple[ResSchedAlgorithm, ...] = tuple(
    ResSchedAlgorithm(bl=bl, bd=bd)
    for bl in ("BL_1", "BL_ALL", "BL_CPA", "BL_CPAR")
    for bd in ("BD_ALL", "BD_CPA", "BD_CPAR")
)


@dataclass(frozen=True)
class ResschedPlan:
    """The immutable inputs one RESSCHED pass derives from its context.

    Everything here depends only on the graph content, the platform size
    ``p``, the rounded availability ``q``, and the algorithm — not on the
    scheduling instant or the booked reservations — which is what makes
    plans reusable across a request stream (see
    :class:`~repro.core.incremental.PlanMemo`).

    Attributes:
        algorithm: The BL/BD combination the plan was built for.
        order: The visiting order, a topological order by decreasing
            bottom level (:func:`~repro.core.bottom_levels.bl_priority_order`).
        bounds: Per-task allocation bounds (candidate counts ``1..b_i``).
        exec_tables: Per-task execution-time vectors ``T_i(m)`` for
            ``m = 1..p``; probes slice them to ``bounds``.
    """

    algorithm: ResSchedAlgorithm
    order: tuple[int, ...]
    bounds: np.ndarray
    exec_tables: tuple[np.ndarray, ...]


def build_plan(ctx: ProblemContext, algorithm: ResSchedAlgorithm) -> ResschedPlan:
    """Derive the :class:`ResschedPlan` of one (context, algorithm) pair."""
    return ResschedPlan(
        algorithm=algorithm,
        order=tuple(bl_priority_order(ctx, algorithm.bl)),
        bounds=allocation_bounds(ctx, algorithm.bd),
        exec_tables=tuple(ctx.exec_tables),
    )


def schedule_ressched(
    graph: TaskGraph,
    scenario: ReservationScenario,
    algorithm: ResSchedAlgorithm = ResSchedAlgorithm(),
    *,
    context: ProblemContext | None = None,
    cpa_stopping: str = "stringent",
    tie_break: str = "fewest",
    ready_floors: "Sequence[float] | None" = None,
) -> Schedule:
    """Solve one RESSCHED instance with the given heuristic.

    Args:
        graph: The application.
        scenario: Platform snapshot (capacity, competing reservations, P').
        algorithm: BL/BD combination to run.
        context: Optional pre-built :class:`ProblemContext`, so callers
            comparing several algorithms on one instance share the CPA
            runs; must wrap the same ``graph`` and ``scenario``.
        cpa_stopping: CPA stopping criterion when ``context`` is absent.
        tie_break: How to resolve exact completion-time ties between
            processor counts: ``"fewest"`` (default — saves CPU-hours) or
            ``"most"`` (ablation control).
        ready_floors: Optional per-task earliest-start floors (length
            ``graph.n``).  Replanning a subgraph mid-execution passes the
            realized/booked finishes of predecessors that are *outside*
            the subgraph here; internal precedence is handled as usual.

    Returns:
        A complete, feasible schedule (RESSCHED always succeeds — the far
        future is always free).
    """
    ctx = context or ProblemContext(graph, scenario, cpa_stopping=cpa_stopping)
    if ctx.graph is not graph or ctx.scenario is not scenario:
        raise GenerationError(
            "provided context wraps a different graph or scenario"
        )
    return _forward(
        graph,
        build_plan(ctx, algorithm),
        scenario.calendar(),
        scenario.now,
        tie_break,
        ready_floors,
    )


def _forward(
    graph: TaskGraph,
    plan: ResschedPlan,
    cal: "ResourceCalendar | ShardedCalendar",
    now: float,
    tie_break: str,
    ready_floors: "Sequence[float] | None" = None,
) -> Schedule:
    """The one forward RESSCHED loop: place ``plan.order`` into ``cal``.

    Each task becomes ready at ``max(now, its floor, its predecessors'
    finishes)`` — final when it is visited, since the order is
    topological — and is booked at its earliest completion there
    (:func:`_place_task`).  Serves :func:`schedule_ressched` and the
    streamed engine's
    :func:`~repro.core.incremental.schedule_ressched_incremental`.
    """
    # Plain ValueError, not GenerationError: these are argument-validation
    # failures of this call, not problem-generation faults (the taxonomy
    # in repro.errors reserves its types for domain failures).
    if tie_break not in ("fewest", "most"):
        raise ValueError(
            f"tie_break must be 'fewest' or 'most', got {tie_break!r}"
        )
    if ready_floors is not None and len(ready_floors) != graph.n:
        raise ValueError(
            f"ready_floors must have one entry per task "
            f"({graph.n}), got {len(ready_floors)}"
        )
    n = graph.n
    preds = graph.predecessor_table
    bounds = plan.bounds
    tables = plan.exec_tables
    name = plan.algorithm.name
    placements: list[TaskPlacement | None] = [None] * n
    finish = [0.0] * n
    prov: list[dict] | None = [] if _obs.ENABLED else None

    def _place_all() -> None:
        for k, i in enumerate(plan.order):
            ready = now if ready_floors is None else max(now, float(ready_floors[i]))
            for pred in preds[i]:
                ready = max(ready, finish[pred])
            durations = tables[i][: int(bounds[i])]
            if _tl.ENABLED:
                _tl.emit("task_ready", ready, n=1, pending=n - k)
                _tl.emit(
                    "probe_batch", ready, tasks=1, candidates=int(durations.size)
                )
            start, m, dur = _place_task(
                cal, graph, i, ready, durations, tie_break, name, prov
            )
            placements[i] = TaskPlacement(task=i, start=start, nprocs=m, duration=dur)
            finish[i] = start + dur
            if _tl.ENABLED:
                _tl.emit(
                    "task_placed",
                    start,
                    task=i,
                    nprocs=m,
                    duration=dur,
                    finish=finish[i],
                )

    # One span per whole schedule call, not per task; with obs disabled
    # even the no-op span call is skipped.
    if _obs.ENABLED:
        with _obs.span(f"ressched.{name}"):
            _place_all()
    else:
        _place_all()

    return Schedule(
        graph=graph,
        now=now,
        placements=tuple(placements),  # type: ignore[arg-type]
        algorithm=name,
        provenance=tuple(prov) if prov is not None else None,
    )


def _place_task(
    cal: "ResourceCalendar | ShardedCalendar",
    graph: TaskGraph,
    i: int,
    ready: float,
    durations: np.ndarray,
    tie_break: str,
    algorithm: str,
    prov: list[dict] | None,
) -> tuple[float, int, float]:
    """Place task ``i`` at its earliest completion and book it.

    One earliest-completion query, then a commit: the placement came
    out of this calendar's own query, so the commit's capacity check is
    one comparison.  With ``prov`` (obs enabled when the schedule
    started) the decision record is appended to it.

    Returns:
        ``(start, nprocs, duration)`` of the committed placement.
    """
    probed: list[ProbedCount] | None = [] if prov is not None else None
    start, m = cal.earliest_completion(
        ready, durations, tie_break, probed=probed
    )
    dur = float(durations[m - 1])
    if prov is not None:
        assert probed is not None
        _obs.incr("ressched.tasks")
        _obs.incr("ressched.placement_probes", int(durations.size))
        _obs.observe("ressched.candidates_per_task", durations.size)
        rec = _ressched_decision(
            algorithm, graph, i, ready, start, m, dur, probed
        )
        _obs.decision(rec)
        prov.append(rec)
    cal.reserve_known_feasible(start, dur, m, label=graph.task(i).name)
    return start, m, dur


def _ressched_decision(
    algorithm: str,
    graph: TaskGraph,
    i: int,
    ready: float,
    start: float,
    m: int,
    duration: float,
    probed: "Sequence[ProbedCount]",
) -> dict:
    """The decision-provenance record of one forward placement.

    Every candidate processor count carries why it lost: a strictly
    later completion, an exact completion tie resolved by the tie-break
    direction, or ``pruned_bound`` — the earliest-completion kernel
    ruled it out from a lower bound on its completion (``finish``)
    without computing its start.  JSON-ready (plain Python scalars
    only).
    """
    best = start + duration
    candidates = []
    for k, k_start, k_finish, exact in sorted(probed):
        entry: dict = {"m": k}
        if k == m:
            entry.update(start=start, finish=best, reason="chosen")
        elif not exact:
            entry.update(finish=k_finish, reason="pruned_bound")
        else:
            if k_finish > best:
                reason = "later_completion"
            else:
                reason = "tie_more_procs" if k > m else "tie_fewer_procs"
            entry.update(start=k_start, finish=k_finish, reason=reason)
        candidates.append(entry)
    return {
        "task": int(i),
        "name": graph.task(i).name,
        "algorithm": algorithm,
        "rule": "earliest_completion",
        "ready": float(ready),
        "chosen": {"m": m, "start": start, "finish": best},
        "candidates": candidates,
    }
