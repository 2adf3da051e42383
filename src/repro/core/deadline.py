"""RESSCHEDDL: meeting a deadline with advance reservations (paper §5).

All algorithms schedule tasks **backward**: in increasing bottom-level
order (BL_CPAR bottom levels, the winner of §4.3.1), each task ``t_i``
must finish by ``dl_i = min(K, earliest start of its already-scheduled
successors)`` and may not start before "now".

* **Aggressive** (``DL_BD_ALL`` / ``DL_BD_CPA`` / ``DL_BD_CPAR``): pick
  the <processor count, start> pair with the *latest* start meeting
  ``dl_i``, counts bounded like the corresponding RESSCHED BD method.
  Maximal slack is left for the tasks still to be scheduled, at the price
  of large allocations.
* **Resource-conservative** (``DL_RC_CPA`` / ``DL_RC_CPAR``): before each
  decision, re-map the still-unscheduled subgraph with CPA on an idle
  ``q``-processor cluster starting at now (q = p for ``_CPA``, q = P' for
  ``_CPAR``); the resulting guideline start ``S_i`` separates "too early
  to still meet K" from "wasting CPU-hours".  Pick the pair with the
  *fewest* processors whose start is in ``[S_i, dl_i − T(m)]``; when none
  exists, fall back to the aggressive rule bounded by the CPA allocation
  at ``p`` (so the λ=1 hybrid coincides with ``DL_BD_CPA``).
* **Hybrid** (``DL_RC_CPAR-lambda``): the threshold becomes
  ``S_i + λ·(dl_i − S_i)``; the driver sweeps λ from 0 to 1 in steps of
  0.05 and keeps the first feasible schedule — as resource-conservative
  as the instance allows.
* **``DL_RCBD_CPAR-lambda``**: same, but the fallback is bounded by the
  CPA allocation at P' instead of p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.calendar import ProbedCount
from repro.core.bottom_levels import bl_priority_order
from repro.core.bounds import allocation_bounds
from repro.core.context import ProblemContext
from repro.cpa import cpa_map
from repro.dag import TaskGraph
from repro.errors import GenerationError
from repro.obs import core as _obs
from repro.schedule import Schedule, TaskPlacement
from repro.units import TIME_EPS
from repro.workloads.reservations import ReservationScenario


@dataclass(frozen=True)
class DeadlineAlgorithm:
    """Specification of one RESSCHEDDL heuristic.

    Attributes:
        name: Paper-style name.
        kind: ``"aggressive"``, ``"rc"``, or ``"hybrid"``.
        bound: BD method bounding aggressive choices (aggressive kinds).
        q_mode: ``"CPA"`` (q = p) or ``"CPAR"`` (q = P') for the
            resource-conservative guideline.
        fallback_bound: BD method bounding the RC fallback.
        lam_step: λ sweep step for hybrids.
    """

    name: str
    kind: str
    bound: str = "BD_CPA"
    q_mode: str = "CPAR"
    fallback_bound: str = "BD_CPA"
    lam_step: float = 0.05


#: The paper's seven RESSCHEDDL algorithms by name.
DEADLINE_ALGORITHMS: dict[str, DeadlineAlgorithm] = {
    "DL_BD_ALL": DeadlineAlgorithm(name="DL_BD_ALL", kind="aggressive", bound="BD_ALL"),
    "DL_BD_CPA": DeadlineAlgorithm(name="DL_BD_CPA", kind="aggressive", bound="BD_CPA"),
    "DL_BD_CPAR": DeadlineAlgorithm(
        name="DL_BD_CPAR", kind="aggressive", bound="BD_CPAR"
    ),
    "DL_RC_CPA": DeadlineAlgorithm(name="DL_RC_CPA", kind="rc", q_mode="CPA"),
    "DL_RC_CPAR": DeadlineAlgorithm(name="DL_RC_CPAR", kind="rc", q_mode="CPAR"),
    "DL_RC_CPAR-lambda": DeadlineAlgorithm(
        name="DL_RC_CPAR-lambda", kind="hybrid", q_mode="CPAR",
        fallback_bound="BD_CPA",
    ),
    "DL_RCBD_CPAR-lambda": DeadlineAlgorithm(
        name="DL_RCBD_CPAR-lambda", kind="hybrid", q_mode="CPAR",
        fallback_bound="BD_CPAR",
    ),
}


@dataclass(frozen=True)
class DeadlineResult:
    """Outcome of one RESSCHEDDL attempt.

    Attributes:
        feasible: Whether a deadline-meeting schedule was found ("yes"
            answers to the decision problem).
        schedule: The schedule when feasible, else None.
        algorithm: Name of the algorithm that ran.
        deadline: The deadline attempted.
        lam: The λ the hybrid sweep settled on (None otherwise).
    """

    feasible: bool
    schedule: Schedule | None
    algorithm: str
    deadline: float
    lam: float | None = None

    @property
    def cpu_hours(self) -> float:
        """CPU-hours of the schedule (NaN when infeasible)."""
        return self.schedule.cpu_hours if self.schedule else float("nan")


def _successor_deadline(
    graph: TaskGraph,
    i: int,
    deadline: float,
    placements: list[TaskPlacement | None],
) -> float:
    """``dl_i``: the latest completion keeping successors feasible."""
    dl = deadline
    for succ in graph.successors(i):
        placement = placements[succ]
        assert placement is not None, "increasing bottom-level order broke"
        dl = min(dl, placement.start)
    return dl


def _candidates(
    probed: "Sequence[ProbedCount]",
    m: int,
    start: float,
    earliest: float,
    latest: bool,
) -> list[dict]:
    """Why each probed count lost (or won) one backward decision.

    ``probed`` comes from :meth:`ResourceCalendar.latest_placement`
    (``latest``) or :meth:`ResourceCalendar.fewest_placement`.  A
    ``pruned_bound`` count was ruled out without resolving its start:
    the latest-start kernel records the upper bound on its start, the
    fewest-processor kernel the lower bound on its finish that passed
    the deadline.  Counts whose start was resolved lost because their
    window vanishes (``finish <= start``), starts before the task's
    earliest start, starts earlier than the chosen one, or ties it with
    more processors.  JSON-ready (plain Python scalars only).
    """
    out = []
    for k, k_start, k_finish, exact in probed:
        entry: dict = {"m": k}
        if k == m:
            entry.update(start=start, finish=k_finish, reason="chosen")
        elif not exact:
            if latest:
                entry.update(start=k_start, reason="pruned_bound")
            else:
                entry.update(finish=k_finish, reason="pruned_bound")
        else:
            if not k_finish > k_start:
                reason = "vanishes"
            elif k_start < earliest:
                reason = "before_earliest"
            else:
                reason = "earlier_start" if k_start < start else "tie_more_procs"
            entry.update(start=k_start, finish=k_finish, reason=reason)
        out.append(entry)
    return out


def _schedule_backward(
    ctx: ProblemContext,
    deadline: float,
    spec: DeadlineAlgorithm,
    lam: float,
    ready_floors: "Sequence[float] | None" = None,
) -> Schedule | None:
    """One backward pass; None when the deadline cannot be met."""
    graph, scenario = ctx.graph, ctx.scenario
    now = scenario.now
    if deadline <= now:
        return None

    # Increasing bottom level: every successor is scheduled before its
    # predecessors (reverse of the forward priority order).
    order = list(reversed(bl_priority_order(ctx, "BL_CPAR")))
    cal = ctx.base_calendar.copy()
    placements: list[TaskPlacement | None] = [None] * graph.n

    if spec.kind == "aggressive":
        bounds = allocation_bounds(ctx, spec.bound)
        guideline_alloc = None
        guideline_q = 0
    else:
        guideline = ctx.cpa_p if spec.q_mode == "CPA" else ctx.cpa_q
        guideline_alloc = guideline.allocations
        guideline_q = guideline.q
        bounds = allocation_bounds(ctx, spec.fallback_bound)

    unscheduled = set(range(graph.n))
    prov: list[dict] | None = [] if _obs.ENABLED else None
    if prov is not None:
        _obs.incr("deadline.backward_passes")
    for i in order:
        dl_i = _successor_deadline(graph, i, deadline, placements)
        earliest_i = now if ready_floors is None else max(now, float(ready_floors[i]))
        chosen: tuple[float, int] | None = None
        rule = "aggressive"
        s_i = threshold = None
        probed: list[ProbedCount] | None = [] if prov is not None else None
        rc_probed: list[ProbedCount] | None = None

        if spec.kind != "aggressive":
            assert guideline_alloc is not None
            # Guideline: CPA-map the remaining subgraph from "now" on an
            # idle q-processor cluster and read off this task's start.
            # This per-decision remapping is exactly why the paper's
            # resource-conservative algorithms cost 10-90x more than the
            # aggressive ones (Tables 9/10); the span makes it visible.
            # The remap below costs 10-90x the rest of the decision
            # (Tables 9/10); one no-op span call is noise next to it.
            with _obs.span("deadline.guideline_remap"):  # lint: ignore[REP003] — amortized over remap
                sub, old_to_new = graph.subgraph(unscheduled)
                sub_alloc = [0] * sub.n
                for old, new in old_to_new.items():
                    sub_alloc[new] = guideline_alloc[old]
                guide = cpa_map(sub, sub_alloc, guideline_q, start_time=now)
            if prov is not None:
                _obs.incr("deadline.guideline_remaps")
            s_i = guide.start_of(old_to_new[i])
            threshold = s_i + lam * (dl_i - s_i)

            # The fewest processors whose earliest start after the
            # threshold still finishes by dl_i.
            chosen = cal.fewest_placement(
                max(earliest_i, threshold),
                dl_i + TIME_EPS,
                ctx.exec_tables[i],
                probed=probed,
            )
            if chosen is not None:
                rule = "rc_window"
            else:
                rule = "rc_fallback"
                if prov is not None:
                    _obs.incr("deadline.fallback_aggressive")
                    rc_probed, probed = probed, []

        if chosen is None:
            # Aggressive rule — either the algorithm is aggressive, or the
            # resource-conservative choice found nothing after the
            # guideline threshold.
            b = int(bounds[i])
            chosen = cal.latest_placement(
                dl_i, ctx.exec_tables[i][:b], earliest=earliest_i, probed=probed
            )
        if prov is not None:
            assert probed is not None
            _obs.incr(
                "deadline.placement_probes",
                sum(p[3] for p in probed + (rc_probed or [])),
            )
        if chosen is None:
            if prov is not None:
                _obs.incr("deadline.infeasible_tasks")
            return None

        start, m = chosen
        dur = ctx.exec_time(i, m)
        if prov is not None:
            assert probed is not None
            rec = {
                "task": int(i),
                "name": graph.task(i).name,
                "algorithm": spec.name,
                "rule": rule,
                "deadline": float(dl_i),
                "earliest": float(earliest_i),
                "lam": float(lam),
                "chosen": {"m": int(m), "start": float(start),
                           "finish": float(start + dur)},
                "candidates": _candidates(
                    probed, m, start, earliest_i, latest=rule != "rc_window"
                ),
            }
            if s_i is not None:
                rec["guideline_start"] = float(s_i)
                rec["threshold"] = float(threshold)
            if rc_probed is not None:
                # Every count the resource-conservative rule ruled out
                # before falling back.
                rec["rc_candidates"] = _candidates(
                    rc_probed, 0, start, earliest_i, latest=False
                )
            _obs.decision(rec)
            prov.append(rec)
        # Placements come from this calendar's own latest/earliest
        # queries, so the commit's capacity check is one comparison.
        cal.reserve_known_feasible(start, dur, m, label=graph.task(i).name)
        placements[i] = TaskPlacement(task=i, start=start, nprocs=m, duration=dur)
        unscheduled.discard(i)

    return Schedule(
        graph=graph,
        now=now,
        placements=tuple(placements),  # type: ignore[arg-type]
        algorithm=spec.name,
        provenance=tuple(prov) if prov is not None else None,
    )


def schedule_deadline(
    graph: TaskGraph,
    scenario: ReservationScenario,
    deadline: float,
    algorithm: str | DeadlineAlgorithm = "DL_RCBD_CPAR-lambda",
    *,
    context: ProblemContext | None = None,
    cpa_stopping: str = "stringent",
    lam_start: float = 0.0,
    ready_floors: "Sequence[float] | None" = None,
) -> DeadlineResult:
    """Solve one RESSCHEDDL instance.

    Args:
        graph: The application.
        scenario: Platform snapshot.
        deadline: Absolute completion deadline ``K`` (same clock as
            ``scenario.now``).
        algorithm: One of :data:`DEADLINE_ALGORITHMS`, or a custom
            :class:`DeadlineAlgorithm` spec (ablation studies tweak e.g.
            the λ sweep step this way).
        context: Optional shared :class:`ProblemContext` (must wrap the
            same graph and scenario).
        cpa_stopping: CPA criterion when ``context`` is absent.
        lam_start: First λ the hybrid sweep tries; a tightening-deadline
            driver can pass the last successful λ since the required λ
            only grows as deadlines shrink.
        ready_floors: Optional per-task earliest-start floors (length
            ``graph.n``), for replanning a subgraph whose external
            predecessors finish after ``scenario.now``.

    Returns:
        A :class:`DeadlineResult`; ``feasible=False`` answers "no".
    """
    if isinstance(algorithm, DeadlineAlgorithm):
        spec = algorithm
    else:
        try:
            spec = DEADLINE_ALGORITHMS[algorithm]
        except KeyError:
            raise GenerationError(
                f"unknown deadline algorithm {algorithm!r}; expected one of "
                f"{sorted(DEADLINE_ALGORITHMS)}"
            ) from None
    if not math.isfinite(deadline):
        raise GenerationError(f"deadline must be finite, got {deadline!r}")
    ctx = context or ProblemContext(graph, scenario, cpa_stopping=cpa_stopping)
    if ctx.graph is not graph or ctx.scenario is not scenario:
        raise GenerationError(
            "provided context wraps a different graph or scenario"
        )
    # Plain ValueError, as in schedule_ressched: argument validation,
    # not a problem-generation fault.
    if ready_floors is not None and len(ready_floors) != graph.n:
        raise ValueError(
            f"ready_floors must have one entry per task "
            f"({graph.n}), got {len(ready_floors)}"
        )

    def _solve() -> DeadlineResult:
        if spec.kind == "hybrid":
            lam = min(max(lam_start, 0.0), 1.0)
            while True:
                schedule = _schedule_backward(ctx, deadline, spec, lam, ready_floors)
                if schedule is not None:
                    return DeadlineResult(
                        feasible=True,
                        schedule=schedule,
                        algorithm=spec.name,
                        deadline=deadline,
                        lam=lam,
                    )
                if lam >= 1.0:
                    return DeadlineResult(
                        feasible=False,
                        schedule=None,
                        algorithm=spec.name,
                        deadline=deadline,
                    )
                lam = min(1.0, lam + spec.lam_step)

        lam = 0.0  # plain RC runs at its most conservative setting
        schedule = _schedule_backward(ctx, deadline, spec, lam, ready_floors)
        return DeadlineResult(
            feasible=schedule is not None,
            schedule=schedule,
            algorithm=spec.name,
            deadline=deadline,
            lam=None,
        )

    # One span per whole schedule call; with obs disabled even the
    # no-op span call is skipped.
    if not _obs.ENABLED:
        return _solve()
    with _obs.span(f"deadline.{spec.name}"):
        return _solve()
