"""The reactive execution engine: replay a plan through a fault trace.

:func:`execute_resilient` generalizes
:func:`repro.sim.execution.execute_schedule`: the same reservation
semantics (tasks cannot start before their window or their
predecessors, too-short windows kill the attempt and the window stays
paid), plus a stream of :class:`~repro.resilience.faults.FaultEvent`\\ s
interleaved with task starts in simulated-time order.  On each fault
the engine

1. updates the books — a ``cancel`` removes/truncates the competing
   reservation; an ``arrival``/``downtime`` goes through
   :func:`admit_window` with the application's unstarted bookings as
   the displaceable ones (competitors and windows already paid for by
   started or killed attempts are not);
2. hands the revoked tasks to the configured repair policy
   (:mod:`repro.resilience.repair`).

:func:`admit_window` is the one clip-then-revoke rule of the package;
the online service (:mod:`repro.service`) admits its fault windows
through it too.

With an empty fault trace and :class:`~repro.sim.noise.ExactRuntime`
the engine reduces *exactly* to the planned schedule: same starts, same
finishes, bitwise-identical turn-around and CPU-hours to
``execute_schedule`` (asserted in ``tests/test_resilience.py``).

Every repair is recorded on the as-executed schedule's provenance and
counted through :mod:`repro.obs` (``resilience.*`` counters).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from repro.calendar import Reservation, ResourceCalendar
from repro.dag import TaskGraph
from repro.errors import CalendarError, ExecutionError, RepairError
from repro.obs import core as _obs
from repro.obs import timeline as _tl
from repro.resilience.faults import FaultEvent
from repro.resilience.repair import (
    REPAIR_POLICIES,
    RepairAction,
    RepairConfig,
    replan_frontier,
    snapshot_scenario,
)
from repro.rng import RNG
from repro.schedule import Schedule, TaskPlacement
from repro.sim.execution import TaskFailure, TaskOutcome
from repro.sim.noise import ExactRuntime, RuntimeModel
from repro.units import HOUR
from repro.workloads.reservations import ReservationScenario


_Key = TypeVar("_Key")


def admit_window(
    host: ResourceCalendar,
    window: Reservation,
    displaceable: Iterable[tuple[_Key, Reservation]],
    *,
    add: Callable[[Reservation], None],
    remove: Callable[[Reservation], None],
) -> tuple[Reservation | None, list[_Key]]:
    """Admit a competing window (an arrival or a downtime) onto
    ``host``, displacing bookings that have not started.

    The rule: clip ``window`` to the processors ``host`` leaves free
    over it once the displaceable bookings are lifted, and deny it below
    one processor.  Then revoke the overlapping displaceable bookings,
    latest ``(start, key)`` first, until the clipped window fits.

    Args:
        host: The calendar the window lands on (the whole platform, or
            the one shard a sharded service faults).
        window: The requested window.
        displaceable: ``(key, reservation)`` pairs of the bookings that
            may be revoked; keys are distinct and sortable.  A booking
            counts against ``host`` by value: when ``host`` holds fewer
            copies of a value than there are such bookings (value-equal
            twins hosted elsewhere), the latest-keyed twins stand for
            the copies it holds.
        add: Strictly books the clipped window on ``host``, raising
            :class:`~repro.errors.CalendarError` when it does not fit.
        remove: Withdraws one revoked booking from ``host``.

    Returns:
        The admitted window (``None`` when denied) and the keys of the
        revoked bookings, in revocation order.

    Raises:
        RepairError: If revoking every candidate still leaves no room
            (the clip rules this out).
    """
    t0, t1 = window.start, window.end
    copies = Counter(r for r in host.reservations if r.start < t1 and t0 < r.end)
    victims: list[tuple[_Key, Reservation]] = []
    for key, res in sorted(
        (kr for kr in displaceable if kr[1].start < t1 and t0 < kr[1].end),
        key=lambda kr: (kr[1].start, kr[0]),
        reverse=True,
    ):
        if copies[res]:
            copies[res] -= 1
            victims.append((key, res))
    # Only reservations overlapping the window decide its minimum.
    probe = ResourceCalendar(host.capacity, copies.elements())
    m = min(window.nprocs, probe.min_available(t0, t1))
    if m < 1:
        return None, []
    admitted = Reservation(t0, t1, m, window.label)
    revoked: list[_Key] = []
    while True:
        try:
            add(admitted)
            return admitted, revoked
        except CalendarError:
            if len(revoked) == len(victims):  # pragma: no cover - defensive
                raise RepairError(
                    f"fault {window.label!r} cannot be honored: no "
                    "revocable bookings left"
                ) from None
            key, res = victims[len(revoked)]
            remove(res)
            revoked.append(key)


@dataclass(frozen=True)
class ResilienceResult:
    """Outcome of one fault-reactive execution.

    Attributes:
        outcomes: Completed tasks, in task order.
        failures: Tasks that never completed, in task order.
        planned_turnaround: The plan's promise.
        realized_turnaround: What happened (``inf`` on failure).
        cpu_hours_booked: Processor-hours paid, killed windows and
            failed tasks included.
        cpu_hours_used: Processor-hours of actual computation.
        total_kills: Noise-killed attempts over all tasks.
        policy: Repair policy that ran.
        deadline: The deadline ``K`` handed to degrade-to-deadline
            (None otherwise).
        faults_applied: Fault events that took effect, in event order.
        faults_denied: Arrival/downtime events denied for lack of
            capacity (plus cancels of unknown reservations).
        revocations: Unstarted bookings revoked by admitted faults.
        repairs: Repair actions, in event order.
        executed: The as-executed schedule — realized starts, final
            processor counts, actual durations — with every repair
            appended to its provenance.  None when any task failed.
        ledger: Every window left on the books at the end (surviving
            competitors, admitted faults, and all paid attempt windows);
            feasible against the platform capacity by construction.
    """

    outcomes: tuple[TaskOutcome, ...]
    failures: tuple[TaskFailure, ...]
    planned_turnaround: float
    realized_turnaround: float
    cpu_hours_booked: float
    cpu_hours_used: float
    total_kills: int
    policy: str
    deadline: float | None
    faults_applied: tuple[FaultEvent, ...]
    faults_denied: int
    revocations: int
    repairs: tuple[RepairAction, ...] = field(repr=False, default=())
    executed: Schedule | None = field(repr=False, default=None)
    ledger: tuple[Reservation, ...] = field(repr=False, default=())

    @property
    def success(self) -> bool:
        """True when every task completed."""
        return not self.failures

    @property
    def slowdown(self) -> float:
        """Realized / planned turn-around."""
        return self.realized_turnaround / self.planned_turnaround

    @property
    def booking_efficiency(self) -> float:
        """Used / booked CPU-hours."""
        return self.cpu_hours_used / self.cpu_hours_booked

    @property
    def deadline_met(self) -> bool:
        """True when the run completed by its deadline (vacuously true
        without one)."""
        if not self.success:
            return False
        if self.deadline is None:
            return True
        return max(o.finish for o in self.outcomes) <= self.deadline + 1e-9


def execute_resilient(
    schedule: Schedule,
    actual_graph: TaskGraph,
    scenario: ReservationScenario,
    *,
    policy: str = "local-rebook",
    faults: "tuple[FaultEvent, ...] | list[FaultEvent]" = (),
    runtime_model: RuntimeModel | None = None,
    rng: RNG | None = None,
    deadline: float | None = None,
    config: RepairConfig | None = None,
) -> ResilienceResult:
    """Execute ``schedule`` through ``faults`` under a repair policy.

    Args:
        schedule: The plan; its placements are the initial bookings and
            its graph carries the *estimated* execution times replans
            use.
        actual_graph: The true application (actual durations); must be
            structurally identical to the scheduled graph.
        scenario: The platform snapshot the plan was computed for.
        policy: One of :data:`~repro.resilience.repair.REPAIR_POLICIES`.
        faults: Fault events (see
            :func:`~repro.resilience.faults.generate_faults`); events
            dated before ``scenario.now`` are applied at ``now``.
        runtime_model: Actual/estimated noise (default exact).
        rng: Randomness for the noise model.
        deadline: The deadline ``K`` for ``degrade-to-deadline``
            (defaults to the planned completion when that policy runs).
        config: Repair tunables (default :class:`RepairConfig`).

    Returns:
        The :class:`ResilienceResult`.
    """
    graph = schedule.graph
    if actual_graph.n != graph.n or actual_graph.edges != graph.edges:
        raise ExecutionError(
            "actual_graph must match the scheduled graph structurally"
        )
    if policy not in REPAIR_POLICIES:
        raise ExecutionError(
            f"unknown repair policy {policy!r}; expected one of "
            f"{REPAIR_POLICIES}"
        )
    cfg = config or RepairConfig()
    model = runtime_model or ExactRuntime()
    if rng is None:
        if not isinstance(model, ExactRuntime):
            raise ExecutionError("a noisy runtime model needs an rng")
        import numpy as np

        rng = np.random.default_rng(0)
    if policy == "degrade-to-deadline" and deadline is None:
        deadline = schedule.completion

    now0 = schedule.now
    n = graph.n

    # --- books ------------------------------------------------------
    ext: list[Reservation] = list(scenario.reservations)
    held: list[Reservation] = []  # consumed (paid) attempt windows
    # Unstarted tasks: task -> the reservation booked for it on ``cal``,
    # which holds ext + held + bookings at all times.
    bookings: dict[int, Reservation] = {}
    planned_len: list[float] = [0.0] * n
    cal = ResourceCalendar(scenario.capacity, ext)
    for pl in schedule.placements:
        bookings[pl.task] = pl.as_reservation()
        cal.add(bookings[pl.task])
        planned_len[pl.task] = pl.duration

    # One noise factor per task, drawn in placement order — the same
    # stream `execute_schedule` consumes, so the two engines see the
    # same actual durations for the same (model, rng).
    factors = [model.factor(rng) for _ in schedule.placements]

    # --- per-task state ---------------------------------------------
    attempts = [1] * n  # bookings made (the plan's counts as one each)
    kills = [0] * n
    paid = [0.0] * n
    start_t: dict[int, float] = {}
    finish: dict[int, float] = {}
    used_m: dict[int, int] = {}
    dur_of: dict[int, float] = {}
    failed: dict[int, TaskFailure] = {}
    pending = set(range(n))
    total_kills = 0

    fault_q = sorted(faults)
    applied: list[FaultEvent] = []
    denied = 0
    revocations = 0
    repairs: list[RepairAction] = []
    repair_records: list[dict] = []

    def _fail(i: int, n_attempts: int, burned: float, reason: str) -> None:
        failed[i] = TaskFailure(
            task=i, attempts=n_attempts, booked_cpu_seconds=burned,
            reason=reason,
        )
        pending.discard(i)
        b = bookings.pop(i, None)
        if b is not None:
            cal.remove(b)
        if _obs.ENABLED:
            _obs.incr("resilience.failures")

    def _cascade_failures() -> bool:
        """Fail every pending task with a failed predecessor; True when
        anything changed (the caller re-enters the event loop)."""
        changed = False
        while True:
            casc = sorted(
                i for i in pending
                if any(p in failed for p in actual_graph.predecessors(i))
            )
            if not casc:
                break
            for i in casc:
                _fail(i, 0, 0.0, "predecessor-failed")
            changed = True
        return changed

    def _floor_for(j: int, t: float) -> float:
        """Earliest instant task ``j`` may be re-booked at: the fault
        time, plus every resolved predecessor's realized finish and
        every still-booked predecessor's window end."""
        f = t
        for p in actual_graph.predecessors(j):
            if p in finish:
                f = max(f, finish[p])
            elif p in bookings:
                f = max(f, bookings[p].end)
        return f

    def _record_repairs(t: float, trigger: str, tasks: "list[int]", note: str) -> None:
        repairs.append(RepairAction(
            time=t, policy=policy, trigger=trigger,
            tasks=tuple(sorted(tasks)), note=note,
        ))
        for j in sorted(tasks):
            b = bookings.get(j)
            if b is None:  # failed during repair
                continue
            rec = {
                "task": int(j),
                "algorithm": f"repair:{policy}",
                "rule": f"repair.{trigger}",
                "time": float(t),
                "note": note,
                "chosen": {
                    "m": int(b.nprocs),
                    "start": float(b.start),
                    "finish": float(b.end),
                },
            }
            repair_records.append(rec)
            if _obs.ENABLED:
                _obs.decision(rec)
        if _obs.ENABLED:
            _obs.incr(f"resilience.repairs.{policy}")
            _obs.incr("resilience.repaired_tasks", len(tasks))
        if _tl.ENABLED:
            _tl.emit(
                "repair_triggered",
                float(t),
                policy=policy,
                trigger=trigger,
                tasks=len(tasks),
            )

    def _repair(t: float, trigger: str, revoked: "dict[int, Reservation]") -> None:
        """Hand revoked (or, for the replanning policies, all unstarted)
        tasks back to the policy."""
        targets = dict(revoked)
        if policy != "local-rebook":
            for j in sorted(bookings):
                targets[j] = bookings.pop(j)
                cal.remove(targets[j])
        if not targets:
            return
        # Tasks doomed by an already-failed ancestor, or out of
        # attempts, fail here instead of being re-booked.
        order = sorted(targets)
        alive: list[int] = []
        for j in order:
            if any(p in failed for p in actual_graph.predecessors(j)):
                _fail(j, attempts[j], paid[j], "predecessor-failed")
            elif attempts[j] + 1 > cfg.max_attempts:
                _fail(j, attempts[j], paid[j], "attempt-cap")
            else:
                alive.append(j)
        if not alive:
            _cascade_failures()
            return

        note = ""
        # One span per (rare, fault-driven) repair event; the block
        # replans whole schedule suffixes.
        with _obs.span("resilience.repair"):  # lint: ignore[REP003] — once per repair event
            if policy == "local-rebook":
                # Re-book each task individually, predecessors first.
                # Planned starts are a topological order of the DAG
                # (durations are positive), so in-batch predecessors are
                # re-booked before their successors and contribute their
                # new window ends to the floor.
                alive.sort(key=lambda j: (schedule.start_of(j), j))
                for j in alive:
                    b = targets[j]
                    ws = cal.earliest_start(_floor_for(j, t), b.duration, b.nprocs)
                    bookings[j] = cal.reserve(
                        ws, b.duration, b.nprocs, label=f"rebook-{j}"
                    )
                    attempts[j] += 1
            else:
                snap = snapshot_scenario(scenario, t, ext + held)
                floors = {j: _floor_for(j, t) for j in alive}
                K = deadline if policy == "degrade-to-deadline" else None
                sched2, old_to_new, note = replan_frontier(
                    graph, alive, floors, snap, cfg, deadline=K,
                )
                # The replan planned against exactly what ``cal`` holds
                # now (ext + held), so its placements fit as they are.
                for old, new in old_to_new.items():
                    pl = sched2.placements[new]
                    bookings[old] = cal.reserve_known_feasible(
                        pl.start, pl.duration, pl.nprocs, label=f"task{old}"
                    )
                    attempts[old] += 1
        _record_repairs(t, trigger, list(targets), note)
        _cascade_failures()

    def _apply_fault(ev: FaultEvent) -> None:
        nonlocal denied, revocations
        t = max(ev.time, now0)
        if ev.kind == "cancel":
            r = ev.reservation
            if r not in ext:
                denied += 1  # unknown reservation: nothing to cancel
                return
            idx = ext.index(r)
            cal.remove(r)
            if t <= r.start:
                del ext[idx]
            else:  # already running: release the remainder
                ext[idx] = Reservation(r.start, t, r.nprocs, r.label)
                cal.add(ext[idx])
            applied.append(ev)
            if _obs.ENABLED:
                _obs.incr("resilience.faults.cancel")
            # Freed capacity: the replanning policies re-optimize the
            # whole frontier; local-rebook has nothing to move.
            if policy != "local-rebook":
                _repair(t, ev.kind, {})
            return

        # arrival | downtime: the application's unstarted bookings are
        # the displaceable ones.
        admitted, victims = admit_window(
            cal, ev.reservation, bookings.items(),
            add=cal.add, remove=cal.remove,
        )
        if admitted is None:
            denied += 1
            if _obs.ENABLED:
                _obs.incr("resilience.faults.denied")
            return
        ext.append(admitted)
        applied.append(ev)
        revoked = {j: bookings.pop(j) for j in victims}
        revocations += len(revoked)
        if _obs.ENABLED:
            _obs.incr(f"resilience.faults.{ev.kind}")
            if revoked:
                _obs.incr("resilience.revocations", len(revoked))
        _repair(t, ev.kind, revoked)

    # --- event loop --------------------------------------------------

    def _run_events() -> None:
        nonlocal total_kills
        while pending:
            if _cascade_failures():
                continue
            # Next task event: the pending task, all of whose
            # predecessors are resolved, with the earliest realized
            # start (ties: earlier booked start, then task id).
            best: tuple[float, float, int] | None = None
            best_ready = 0.0
            for i in sorted(pending):
                preds = actual_graph.predecessors(i)
                if any(p in pending for p in preds):
                    continue
                ready = now0
                for p in preds:
                    ready = max(ready, finish[p])
                b = bookings[i]
                key = (max(b.start, ready), b.start, i)
                if best is None or key < best:
                    best = key
                    best_ready = ready
            if best is None:  # pragma: no cover - DAG guarantees progress
                raise RepairError("no runnable task among pending ones")
            s_i, _, i = best

            # Faults strike before the next task starts.
            if fault_q and fault_q[0].time <= s_i:
                _apply_fault(fault_q.pop(0))
                continue

            b = bookings.pop(i)
            dur = actual_graph.task(i).exec_time(b.nprocs) * factors[i]
            start = max(b.start, best_ready)
            paid[i] += b.nprocs * (b.end - b.start)
            held.append(Reservation(
                b.start, b.end, b.nprocs, label=f"task{i}-a{attempts[i]}",
            ))
            if start + dur <= b.end + 1e-9:
                start_t[i] = start
                finish[i] = start + dur
                used_m[i] = b.nprocs
                dur_of[i] = dur
                pending.discard(i)
                continue
            # Killed: too-short window (late predecessors or optimistic
            # estimate).  All policies re-book locally on kills; the
            # policies differ in how they react to *faults*.
            kills[i] += 1
            total_kills += 1
            if _obs.ENABLED:
                _obs.incr("resilience.kills")
            if attempts[i] >= cfg.max_attempts:
                _fail(i, attempts[i], paid[i], "attempt-cap")
                continue
            new_len = cfg.grown_window(b.duration, planned_len[i], dur)
            floor = max(b.end, best_ready) + cfg.backoff(kills[i])
            ws = cal.earliest_start(floor, new_len, b.nprocs)
            bookings[i] = cal.reserve(ws, new_len, b.nprocs, label=f"rebook-{i}")
            attempts[i] += 1

    # One span per whole execution run; with obs disabled even the
    # no-op span call is skipped.
    if _obs.ENABLED:
        with _obs.span("resilience.execute"):
            _run_events()
    else:
        _run_events()

    # --- results -----------------------------------------------------
    outcomes = tuple(
        TaskOutcome(
            task=i, nprocs=used_m[i], actual_duration=dur_of[i],
            start=start_t[i], finish=finish[i], attempts=attempts[i],
            booked_cpu_seconds=paid[i],
        )
        for i in range(n) if i in finish
    )
    failures = tuple(failed[i] for i in sorted(failed))
    if failures:
        realized = float("inf")
    else:
        realized = max(o.finish for o in outcomes) - now0
    booked = sum(o.booked_cpu_seconds for o in outcomes)
    booked += sum(f.booked_cpu_seconds for f in failures)

    executed: Schedule | None = None
    if not failures:
        prov = tuple(schedule.provenance or ()) + tuple(repair_records)
        executed = Schedule(
            graph=graph,
            now=now0,
            placements=tuple(
                TaskPlacement(
                    task=i, start=start_t[i], nprocs=used_m[i],
                    duration=dur_of[i],
                )
                for i in range(n)
            ),
            algorithm=f"{schedule.algorithm}+{policy}" if schedule.algorithm
            else policy,
            provenance=prov if prov else None,
        )

    return ResilienceResult(
        outcomes=outcomes,
        failures=failures,
        planned_turnaround=schedule.turnaround,
        realized_turnaround=realized,
        cpu_hours_booked=booked / HOUR,
        cpu_hours_used=sum(o.nprocs * o.actual_duration for o in outcomes) / HOUR,
        total_kills=total_kills,
        policy=policy,
        deadline=deadline,
        faults_applied=tuple(applied),
        faults_denied=denied,
        revocations=revocations,
        repairs=tuple(repairs),
        executed=executed,
        ledger=tuple(ext) + tuple(held),
    )
