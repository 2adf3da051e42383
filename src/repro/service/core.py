"""The fault-tolerant multi-tenant reservation service.

:class:`ReservationService` is the admission loop of the streamed
engine: it takes a request stream in arrival order, plans each request
through :class:`repro.experiments.stream.StreamScheduler`, and adds the
robustness layers an online deployment needs:

* **Admission control** — per-tenant quotas on concurrently active
  requests and booked CPU-hours, the stream's admission window, and
  priority-aware load shedding that degrades batch traffic first while
  interactive requests keep flowing.  The active count, the shedding
  backlog and each fault's displaceable bookings come from a
  :class:`~repro.service.ledger.BookingLedger` pruned, as of each
  arrival, to the requests a decision can still see, so their cost
  follows the live bookings, not the stream's history.  (The CPU-hours
  quota still sums over every admitted request of the tenant.)
* **Optimistic-concurrency commits** — every admission plans against a
  :meth:`~repro.calendar.calendar.ResourceCalendar.copy` of the shared
  calendar and commits by
  :meth:`~repro.experiments.stream.StreamScheduler.adopt` only while the
  calendar's :attr:`~repro.calendar.calendar.ResourceCalendar.generation`
  still equals the token captured at planning time.  A mid-flight fault
  bumps the generation, the commit is abandoned, and the request retries
  after a bounded, deterministic backoff (capped exponential plus
  jitter drawn from :func:`repro.rng.derive_rng`, so outcomes are
  bitwise-identical at any worker count).
* **Mid-stream fault injection** — a deterministic
  :func:`repro.resilience.faults.generate_faults` trace is interleaved
  with the request stream by event time; competing arrivals and
  downtimes go through :func:`repro.resilience.admit_window`, the rule
  the offline repair engine applies (clip, then revoke unstarted
  bookings latest start first), and the service rebooks the revoked
  tasks, cascading along precedence edges.
* **Crash safety** — every processed record is checkpointed to an
  fsync'd JSON-lines :class:`~repro.service.journal.ServiceJournal`; a
  service restarted over the journal rebuilds its booking state bitwise
  and resumes at the first unprocessed request.  Requests that
  repeatedly raise or starve on commit retries are quarantined to a
  :class:`~repro.service.journal.DeadLetterLog` and never poison the
  rest of the stream.

Reduction property (asserted by the tier-1 tests and ``repro bench``):
at fault rate zero with the default :class:`~repro.service.ServiceConfig`
the service admits every request, and its placements and booked set are
bitwise-identical to
:func:`~repro.experiments.stream.schedule_stream_naive`, which
reschedules the whole platform from scratch for each request.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Sequence

from repro.calendar import Reservation, ResourceCalendar
from repro.core.incremental import PlanMemo
from repro.core.ressched import ResSchedAlgorithm
from repro.dag import TaskGraph
from repro.errors import CalendarError, ServiceError, ShardCommitError
from repro.experiments.stream import StreamRequest, StreamScheduler
from repro.obs import core as _obs
from repro.obs import stopwatch
from repro.obs import timeline as _tl
from repro.resilience import admit_window
from repro.resilience.faults import FaultEvent, FaultModel, generate_faults
from repro.rng import derive_rng
from repro.schedule import Schedule, TaskPlacement
from repro.service.config import ServiceConfig
from repro.service.journal import DeadLetter, DeadLetterLog, ServiceJournal
from repro.service.ledger import BookingLedger, CommittedRequest
from repro.shard import ShardedCalendar
from repro.units import DAY
from repro.workloads.reservations import ReservationScenario

#: Outcome statuses, the closed set reports may carry.
OUTCOME_STATUSES = ("admitted", "rejected", "dead-letter")


@dataclass(frozen=True)
class ServiceOutcome:
    """The service's disposition of one request.

    Attributes:
        request: The request.
        arrival: Absolute arrival instant.
        status: ``"admitted"`` (placements booked), ``"rejected"``
            (admission control turned it away), or ``"dead-letter"``
            (quarantined after exhausting retries).
        schedule: The committed schedule for an admission; the discarded
            tentative schedule for a window rejection; ``None`` when no
            placement survived (shed, quota, quarantine).
        reason: Structured rejection/quarantine reason; ``""`` when
            admitted.
        latency_s: Wall-clock planning seconds (a measurement — excluded
            from :meth:`ServiceReport.digest`).
        retries: Commit conflicts this request survived before its
            disposition.
    """

    request: StreamRequest
    arrival: float
    status: str
    schedule: Schedule | None
    reason: str = ""
    latency_s: float = 0.0
    retries: int = 0

    def __post_init__(self) -> None:
        if self.status not in OUTCOME_STATUSES:
            raise ServiceError(
                f"unknown outcome status {self.status!r}; expected one "
                f"of {OUTCOME_STATUSES}"
            )

    @property
    def admitted(self) -> bool:
        """Whether the request's placements were booked."""
        return self.status == "admitted"


@dataclass(frozen=True)
class ServiceReport:
    """Aggregate view of one service run.

    Attributes:
        outcomes: Every request's disposition, in processed order.
        dead_letters: Quarantined requests, in quarantine order.
        faults_applied: Fault events applied to the calendar.
        faults_denied: Arrival/downtime faults denied for zero capacity.
        revocations: Committed task bookings revoked by faults.
        rebooked: Task bookings re-placed after revocation (revoked
            tasks plus precedence-cascaded ones).
        resumed: Outcomes restored from a journal instead of computed.
        booked: Sorted ``(start, end, nprocs, label)`` signature of the
            final calendar — order-independent, so a resumed run and an
            uninterrupted run agree bitwise.
    """

    outcomes: tuple[ServiceOutcome, ...]
    dead_letters: tuple[DeadLetter, ...] = ()
    faults_applied: int = 0
    faults_denied: int = 0
    revocations: int = 0
    rebooked: int = 0
    resumed: int = 0
    booked: tuple[tuple[float, float, int, str], ...] = ()

    @property
    def n_requests(self) -> int:
        """Requests processed (all dispositions)."""
        return len(self.outcomes)

    @property
    def n_admitted(self) -> int:
        """Requests whose placements were booked."""
        return sum(1 for o in self.outcomes if o.admitted)

    @property
    def n_rejected(self) -> int:
        """Requests turned away by admission control."""
        return sum(1 for o in self.outcomes if o.status == "rejected")

    @property
    def schedules(self) -> list[Schedule]:
        """Committed schedules, in admission order."""
        return [
            o.schedule
            for o in self.outcomes
            if o.admitted and o.schedule is not None
        ]

    def digest(self) -> str:
        """Deterministic content hash of the run's compute-derived
        state: dispositions, placements, fault effects, and the final
        calendar signature.  Wall-clock latencies are excluded, so a
        resumed run's digest equals the uninterrupted run's."""
        h = hashlib.sha256()
        for o in self.outcomes:
            placements: tuple[tuple[int, float, int, float], ...] = ()
            if o.schedule is not None:
                placements = tuple(
                    (p.task, p.start, p.nprocs, p.duration)
                    for p in o.schedule.placements
                )
            h.update(
                repr(
                    (
                        o.request.request_id,
                        o.status,
                        o.reason,
                        o.retries,
                        placements,
                    )
                ).encode()
            )
        h.update(
            repr(
                (
                    self.faults_applied,
                    self.faults_denied,
                    self.revocations,
                    self.rebooked,
                    self.booked,
                )
            ).encode()
        )
        return h.hexdigest()

    def summary(self) -> dict[str, object]:
        """JSON-ready aggregate numbers for reports."""
        reasons: dict[str, int] = {}
        for o in self.outcomes:
            if o.status != "admitted":
                reasons[o.reason] = reasons.get(o.reason, 0) + 1
        return {
            "n_requests": self.n_requests,
            "admitted": self.n_admitted,
            "rejected": self.n_rejected,
            "dead_letter": len(self.dead_letters),
            "rejection_reasons": dict(sorted(reasons.items())),
            "faults_applied": self.faults_applied,
            "faults_denied": self.faults_denied,
            "revocations": self.revocations,
            "rebooked": self.rebooked,
            "resumed": self.resumed,
            "digest": self.digest(),
        }


def _first_start(schedule: Schedule, arrival: float) -> float:
    """The schedule's earliest placement start (``arrival`` if empty)."""
    return min((p.start for p in schedule.placements), default=arrival)


class ReservationService:
    """Fault-tolerant online admission over one shared calendar.

    Args:
        scenario: Platform snapshot at the stream epoch.
        algorithm: RESSCHED heuristic applied to every request.
        config: Quotas, shedding, and retry policy
            (:class:`~repro.service.ServiceConfig`; defaults reduce to
            the bare stream).
        fault_model: Optional fault-rate model; ``None`` or a zero total
            rate disables injection.
        seed: Root seed for the fault trace and retry jitter
            (:func:`repro.rng.derive_rng` keys everything under it).
        journal_path: Optional admission-journal path; providing it
            makes the run crash-safe and resumable.
        dead_letter_path: Optional quarantine-file path; defaults to
            ``<journal_path>.deadletter`` when a journal is configured.
        cpa_stopping: CPA stopping criterion for plan building.
        tie_break: Completion-tie resolution, as in the batch scheduler.
        memo: Optional shared :class:`~repro.core.incremental.PlanMemo`.
        shards: ``None`` (default) books into one unsharded calendar;
            an integer K partitions the platform into a
            :class:`~repro.shard.ShardedCalendar`.  Sharded, commits
            use the two-phase per-shard-token protocol: a mid-flight
            fault conflicts an admission only when it touched a shard
            the admission's staged legs wrote to, and downtime faults
            are hosted wholly by a deterministic shard (trace index mod
            K) so repairs rebook across shards.  ``shards=1`` reduces
            bitwise to the unsharded service.
            A sharded journal records the shard that hosted each
            admitted placement, so a resumed run re-commits it there.
        shard_workers: Must be 0: shard probes always fan out serially.
            Accepted so existing callers and command lines keep working;
            any other value raises :class:`~repro.errors.ServiceError`.
    """

    def __init__(
        self,
        scenario: ReservationScenario,
        algorithm: ResSchedAlgorithm = ResSchedAlgorithm(),
        *,
        config: ServiceConfig | None = None,
        fault_model: FaultModel | None = None,
        seed: int = 0,
        journal_path: str | None = None,
        dead_letter_path: str | None = None,
        cpa_stopping: str = "stringent",
        tie_break: str = "fewest",
        memo: PlanMemo | None = None,
        shards: int | None = None,
        shard_workers: int = 0,
    ) -> None:
        if shard_workers:
            raise ServiceError(
                f"shard_workers={shard_workers} is not supported: shard "
                "probes always fan out serially (use shard_workers=0)"
            )
        self._scenario = scenario
        self._config = ServiceConfig() if config is None else config
        self._fault_model = fault_model
        self._seed = int(seed)
        # Planning inputs the journal fingerprint pins.
        self._planning = (
            algorithm.bl,
            algorithm.bd,
            tie_break,
            cpa_stopping,
            shards,
        )
        self._scheduler = StreamScheduler(
            scenario,
            algorithm,
            cpa_stopping=cpa_stopping,
            tie_break=tie_break,
            memo=memo,
            shards=shards,
        )
        self._journal = (
            None if journal_path is None else ServiceJournal(journal_path)
        )
        if dead_letter_path is None and journal_path is not None:
            dead_letter_path = journal_path + ".deadletter"
        self._dead_log = (
            None if dead_letter_path is None else DeadLetterLog(dead_letter_path)
        )
        # Mutable run state.
        self._faults: tuple[FaultEvent, ...] = ()
        self._fault_pos = 0
        self._last_offset = 0.0
        # Admitted requests by id, in admission order.
        self._committed: dict[str, CommittedRequest] = {}
        # The admitted requests a decision at the current arrival reads.
        self._ledger = BookingLedger()
        self._outcomes: list[ServiceOutcome] = []
        self._dead_letters: list[DeadLetter] = []
        # The scenario's competing reservations not yet cancelled.
        self._ext: list[Reservation] = list(scenario.reservations)
        self._done = 0
        self._restoring = False
        self._faults_applied = 0
        self._faults_denied = 0
        self._revocations = 0
        self._rebooked = 0

    @property
    def scheduler(self) -> StreamScheduler:
        """The stream's planner (owns the shared calendar)."""
        return self._scheduler

    @property
    def calendar(self) -> "ResourceCalendar | ShardedCalendar":
        """The shared calendar holding everything booked so far."""
        return self._scheduler.calendar

    def close(self) -> None:
        """Does nothing: the service holds no resources between calls
        (every journal write opens and closes its file).  Kept so
        callers that close a service keep working."""

    @property
    def config(self) -> ServiceConfig:
        """The active service configuration."""
        return self._config

    # ------------------------------------------------------------------
    # Run driver

    def run(
        self,
        requests: Sequence[StreamRequest],
        *,
        stop_after: int | None = None,
    ) -> ServiceReport:
        """Process the stream (or resume it) and return the report.

        Args:
            requests: The full request stream, in non-decreasing arrival
                order.  A resumed run must be handed the *same* stream —
                the journal fingerprint enforces it.
            stop_after: Process at most this many requests in total
                (restored ones included) and return early without
                draining trailing faults — the crash-simulation hook the
                resume tests use.  ``None`` processes everything.

        Raises:
            ServiceError: Before any file is touched, if two requests
                share an id; before any request is processed, if the
                journal or the dead-letter file is corrupt or belongs
                to a different run.
        """
        ids: set[str] = set()
        for r in requests:
            if r.request_id in ids:
                raise ServiceError(
                    f"request id {r.request_id!r} appears more than once "
                    "in the stream; request ids must be unique"
                )
            ids.add(r.request_id)
        self._faults = self._fault_trace(requests)
        if self._dead_log is not None:
            # Refuse a corrupt quarantine file before anything is written.
            self._dead_log.load()
        if self._journal is not None:
            if self._journal.open(self._fingerprint(requests)):
                self._restore(requests)
        todo = list(requests)[self._done :]
        if stop_after is not None:
            todo = todo[: max(0, stop_after - self._done)]
        for request in todo:
            self._process(request)
        finished = len(self._outcomes) >= len(requests)
        if stop_after is None or finished:
            # Drain faults landing after the last arrival so the final
            # calendar reflects the whole trace.
            self._apply_faults_until(float("inf"))
        booked = tuple(
            sorted(
                (r.start, r.end, r.nprocs, r.label)
                for r in self.calendar.reservations
            )
        )
        return ServiceReport(
            outcomes=tuple(self._outcomes),
            dead_letters=tuple(self._dead_letters),
            faults_applied=self._faults_applied,
            faults_denied=self._faults_denied,
            revocations=self._revocations,
            rebooked=self._rebooked,
            resumed=self._done,
            booked=booked,
        )

    def _fault_trace(
        self, requests: Sequence[StreamRequest]
    ) -> tuple[FaultEvent, ...]:
        """The run's deterministic fault trace — a pure function of
        ``(scenario, model, seed, stream span)``, so a resumed run
        regenerates the identical trace."""
        model = self._fault_model
        if model is None or model.total_rate <= 0:
            return ()
        span = max(
            (float(r.arrival_offset) for r in requests), default=0.0
        )
        horizon = max(span * self._config.fault_slack, DAY)
        rng = derive_rng(self._seed, "service", "faults")
        return generate_faults(self._scenario, model, rng, horizon=horizon)

    def _fingerprint(self, requests: Sequence[StreamRequest]) -> str:
        """Content hash of every input that decides the run's outcomes;
        the journal header pins it so a journal never resumes a
        different run.

        Covers the requests, the scenario, the planning inputs
        (algorithm, tie-break, CPA stopping rule, shard count), the
        seed, the whole fault model and every :class:`ServiceConfig`
        field.  ``shard_workers``, the plan memo and the file paths do
        not change outcomes and are left out.
        """
        h = hashlib.sha256()
        sc = self._scenario
        h.update(
            repr(
                (
                    sc.capacity,
                    sc.now,
                    sc.hist_avg_available,
                    [
                        (r.start, r.end, r.nprocs, r.label)
                        for r in sc.reservations
                    ],
                )
            ).encode()
        )
        for r in requests:
            h.update(
                repr(
                    (
                        r.request_id,
                        r.arrival_offset,
                        r.graph.content_digest,
                        r.mode,
                        r.priority,
                        r.tenant,
                    )
                ).encode()
            )
        config: dict[str, Any] = {
            f.name: getattr(self._config, f.name)
            for f in fields(self._config)
        }
        config["quotas"] = sorted(config["quotas"].items())
        h.update(
            repr(
                (self._planning, self._seed, self._fault_model, config)
            ).encode()
        )
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Admission pipeline

    def _process(self, request: StreamRequest) -> None:
        offset = float(request.arrival_offset)
        if offset < 0:
            raise ServiceError(
                f"request {request.request_id!r}: arrival_offset must be "
                f">= 0, got {offset}"
            )
        if offset < self._last_offset:
            raise ServiceError(
                f"request {request.request_id!r} arrives at offset "
                f"{offset} after a request at {self._last_offset}; "
                "process requests in non-decreasing arrival order"
            )
        self._last_offset = offset
        arrival = self._scenario.now + offset
        self._apply_faults_until(arrival)
        self._ledger.advance(arrival)
        if _obs.ENABLED:
            _obs.incr("service.requests")
        if _tl.ENABLED:
            _tl.emit(
                "request_arrived",
                arrival,
                trace=request.request_id,
                tenant=request.tenant,
                tasks=request.graph.n,
                mode=request.mode,
                priority=request.priority,
            )
        outcome = self._admit(request, arrival)
        self._outcomes.append(outcome)
        if self._journal is not None:
            hosts = None
            if outcome.admitted:
                hosts = self._committed[request.request_id].hosts
            self._journal.record_outcome(outcome, hosts)

    def _admit(
        self, request: StreamRequest, arrival: float
    ) -> ServiceOutcome:
        cfg = self._config
        shed_reason = self._shed_reason(request, arrival)
        if shed_reason is not None:
            return self._reject(request, arrival, shed_reason, None)
        quota = cfg.quota_for(request.tenant)
        if quota.max_active is not None:
            active = self._ledger.active(request.tenant, arrival)
            if active >= quota.max_active:
                return self._reject(
                    request, arrival, "quota-active", None
                )
        conflicts = 0
        failures = 0
        now = arrival
        while True:
            base = self._scheduler.calendar
            token = base.generation
            target = base.copy()
            if _tl.ENABLED:
                _tl.push_trace(request.request_id, request.tenant)
            try:
                with stopwatch("service.admit") as sw:
                    schedule = self._scheduler.tentative_schedule(
                        request, arrival=arrival, calendar=target
                    )
            except Exception as exc:  # lint: ignore[REP005] — quarantine boundary: any planner failure must dead-letter, not crash the stream
                failures += 1
                if failures >= cfg.placement_attempts:
                    return self._quarantine(
                        request,
                        arrival,
                        f"placement-error: {exc}",
                        failures + conflicts,
                    )
                continue
            finally:
                if _tl.ENABLED:
                    _tl.pop_trace()
            # Simulated plan->commit latency: faults landing inside the
            # window mutate ``base`` in place and invalidate the CAS token.
            self._apply_faults_until(now + cfg.commit_latency)
            if isinstance(base, ShardedCalendar) and isinstance(
                target, ShardedCalendar
            ):
                # Two-phase sharded commit: compare only the shard legs
                # the staged copy wrote to against the live generation
                # vector.  A fault that landed on an untouched shard
                # does not abort this admission.
                try:
                    base.validate_commit(target)
                    conflicted = False
                except ShardCommitError:
                    conflicted = True
            else:
                conflicted = base.generation != token
            if conflicted:
                conflicts += 1
                if _obs.ENABLED:
                    _obs.incr("service.commit.conflict")
                if _tl.ENABLED:
                    _tl.emit(
                        "commit_conflict",
                        now,
                        trace=request.request_id,
                        tenant=request.tenant,
                        attempt=conflicts,
                        generation=base.generation,
                        token=token,
                    )
                if conflicts > cfg.commit_retry_cap:
                    return self._quarantine(
                        request,
                        arrival,
                        "commit-retries-exhausted",
                        failures + conflicts,
                    )
                if _obs.ENABLED:
                    _obs.incr("service.commit.retry")
                now += self._retry_delay(request, conflicts)
                self._apply_faults_until(now)
                continue
            break
        if cfg.admission_window is not None:
            if _first_start(schedule, arrival) - arrival > cfg.admission_window:
                return self._reject(
                    request,
                    arrival,
                    "admission-window",
                    schedule,
                    latency_s=sw.wall_s,
                    retries=conflicts,
                )
        if quota.max_cpu_hours is not None:
            usage = sum(
                c.cpu_hours
                for c in self._committed.values()
                if c.request.tenant == request.tenant
            )
            if usage + schedule.cpu_hours > quota.max_cpu_hours:
                return self._reject(
                    request,
                    arrival,
                    "quota-cpu-hours",
                    schedule,
                    latency_s=sw.wall_s,
                    retries=conflicts,
                )
        self._scheduler.adopt(target)
        committed = self._register(request, arrival, schedule)
        if isinstance(target, ShardedCalendar):
            committed.hosts = target.hosts(committed.reservations.values())
        if _obs.ENABLED:
            _obs.incr("service.admitted")
        if _tl.ENABLED:
            _tl.emit(
                "placement_committed",
                # Sim time = scheduled first start, so SLO queue depth
                # reads as admitted-but-not-started backlog.
                _first_start(schedule, arrival),
                trace=request.request_id,
                tenant=request.tenant,
                latency_s=sw.wall_s,
                makespan=schedule.turnaround,
                tasks=request.graph.n,
            )
        return ServiceOutcome(
            request=request,
            arrival=arrival,
            status="admitted",
            schedule=schedule,
            latency_s=sw.wall_s,
            retries=conflicts,
        )

    def _shed_reason(
        self, request: StreamRequest, arrival: float
    ) -> str | None:
        """Load-shedding decision: batch traffic degrades first."""
        threshold = self._config.shed_backlog
        if threshold is None or request.mode != "batch":
            return None
        depth = self._ledger.backlog(arrival)
        if depth >= 2 * threshold:
            return "load-shed"
        if depth >= threshold and request.priority != "high":
            return "load-shed"
        return None

    def _retry_delay(self, request: StreamRequest, attempt: int) -> float:
        """Backoff before commit retry ``attempt``: the capped
        exponential plus deterministic per-request jitter."""
        cfg = self._config
        delay = cfg.retry_backoff(attempt)
        if cfg.retry_backoff_base > 0:
            rng = derive_rng(
                self._seed, "service", "retry", request.request_id, attempt
            )
            delay += float(rng.uniform(0.0, cfg.retry_backoff_base))
        return min(delay, cfg.retry_backoff_cap)

    def _reject(
        self,
        request: StreamRequest,
        arrival: float,
        reason: str,
        schedule: Schedule | None,
        *,
        latency_s: float = 0.0,
        retries: int = 0,
    ) -> ServiceOutcome:
        if _obs.ENABLED:
            key = {
                "admission-window": "window",
                "load-shed": "shed",
            }.get(reason, "quota")
            _obs.incr(f"service.rejected.{key}")
        if _tl.ENABLED:
            # A planned request carries its planning latency, and a
            # window rejection how long it would have waited.
            timing: dict[str, float] = {}
            if schedule is not None:
                timing["latency_s"] = latency_s
                if reason == "admission-window":
                    timing["wait_s"] = _first_start(schedule, arrival) - arrival
            _tl.emit(
                "request_rejected",
                arrival,
                trace=request.request_id,
                tenant=request.tenant,
                reason=reason,
                **timing,
            )
        return ServiceOutcome(
            request=request,
            arrival=arrival,
            status="rejected",
            schedule=schedule,
            reason=reason,
            latency_s=latency_s,
            retries=retries,
        )

    def _quarantine(
        self,
        request: StreamRequest,
        arrival: float,
        reason: str,
        attempts: int,
    ) -> ServiceOutcome:
        letter = DeadLetter(
            request_id=request.request_id,
            tenant=request.tenant,
            arrival=arrival,
            reason=reason,
            attempts=attempts,
        )
        self._dead_letters.append(letter)
        if self._dead_log is not None and not self._restoring:
            self._dead_log.append(letter)
        if _obs.ENABLED:
            _obs.incr("service.dead_letter")
        if _tl.ENABLED:
            _tl.emit(
                "request_quarantined",
                arrival,
                trace=request.request_id,
                tenant=request.tenant,
                reason=reason,
                attempts=attempts,
            )
        return ServiceOutcome(
            request=request,
            arrival=arrival,
            status="dead-letter",
            schedule=None,
            reason=reason,
            retries=attempts,
        )

    def _register(
        self, request: StreamRequest, arrival: float, schedule: Schedule
    ) -> CommittedRequest:
        committed = CommittedRequest(
            request=request, arrival=arrival, schedule=schedule
        )
        self._committed[request.request_id] = committed
        self._ledger.add(committed)
        return committed

    # ------------------------------------------------------------------
    # Fault application

    def _apply_faults_until(self, t: float) -> None:
        """Apply every not-yet-applied fault with time ``<= t``, in
        trace order, journaling each as it lands."""
        while (
            self._fault_pos < len(self._faults)
            and self._faults[self._fault_pos].time <= t
        ):
            idx = self._fault_pos
            self._apply_fault(self._faults[idx], idx)
            if self._journal is not None and not self._restoring:
                self._journal.record_fault(idx)
            self._fault_pos = idx + 1

    def _apply_fault(self, fault: FaultEvent, idx: int) -> None:
        self._faults_applied += 1
        if _obs.ENABLED and not self._restoring:
            _obs.incr(f"service.faults.{fault.kind}")
        if fault.kind == "cancel":
            self._apply_cancel(fault)
        else:
            self._apply_arrival(fault, idx)
        if _tl.ENABLED and not self._restoring:
            _tl.emit(
                "fault_applied",
                fault.time,
                kind=fault.kind,
                label=fault.reservation.label,
                nprocs=fault.reservation.nprocs,
            )

    def _apply_cancel(self, fault: FaultEvent) -> None:
        """A known competing reservation is withdrawn before it starts,
        freeing capacity for later admissions."""
        target = fault.reservation
        if target in self._ext:
            self._ext.remove(target)
            self._scheduler.calendar.remove(target)

    def _apply_arrival(self, fault: FaultEvent, idx: int) -> None:
        """An arrival/downtime window goes through
        :func:`~repro.resilience.admit_window`; the displaceable
        bookings are the unstarted ones, and their requests are rebooked.

        Sharded, the window lands wholly on shard ``idx % K`` (trace
        index mod K, deterministic across restores), so a big enough
        fault takes the whole shard out; the rebooking probe runs
        through the facade, so repairs land on whichever shard answers
        earliest, migrating work off the faulted shard
        (``shard.rebalances``)."""
        t = fault.time
        cal = self._scheduler.calendar
        unstarted = self._ledger.unstarted(t)
        origin: int | None = None
        if isinstance(cal, ShardedCalendar):
            k = origin = idx % cal.n_shards
            admitted, victims = admit_window(
                cal.shards[k],
                fault.reservation,
                unstarted,
                add=partial(cal.add_to_shard, k),
                remove=partial(cal.remove_from_shard, k),
            )
        else:
            admitted, victims = admit_window(
                cal, fault.reservation, unstarted, add=cal.add, remove=cal.remove
            )
        if admitted is None:
            self._faults_denied += 1
            if _obs.ENABLED and not self._restoring:
                _obs.incr("service.faults.denied")
            return
        revoked: dict[str, dict[int, Reservation]] = {}
        for rid, task in victims:
            res = self._committed[rid].reservations.pop(task)
            revoked.setdefault(rid, {})[task] = res
        self._revocations += len(victims)
        if victims and _obs.ENABLED and not self._restoring:
            _obs.incr("service.revocations", len(victims))
        for rid in self._ledger.live():
            if rid in revoked:
                self._rebook(rid, revoked[rid], t, origin_shard=origin)

    def _rebook(
        self,
        rid: str,
        revoked: dict[int, Reservation],
        t: float,
        *,
        origin_shard: int | None = None,
    ) -> None:
        """Re-place a request's revoked tasks at the earliest feasible
        starts, cascading along precedence edges: a still-booked task
        whose (moved) predecessor now finishes after its start moves
        too.  The cascade never reaches started tasks — a started task's
        predecessors finished before ``t``, so none of them moved.

        Sharded (``origin_shard`` set): the earliest-start probe runs
        through the facade reduce, so a repair may land on a different
        shard than it was revoked from — counted as a
        ``shard.rebalances`` migration."""
        creq = self._committed[rid]
        graph = creq.request.graph
        cal = self._scheduler.calendar
        # Migrations are counted only when instrumented: finding a moved
        # booking's shard scans every shard's reservations.
        counted = (
            cal
            if isinstance(cal, ShardedCalendar)
            and cal.n_shards > 1
            and _obs.ENABLED
            and not self._restoring
            else None
        )
        for task in graph.topological_order:
            origin = origin_shard
            old = revoked.get(task)
            if old is None:
                current = creq.reservations.get(task)
                if current is None or current.start <= t:
                    continue
                floor = self._pred_floor(creq, graph, task, t)
                if floor <= current.start:
                    continue  # precedence still satisfied in place
                if counted is not None:
                    origin = counted.shard_of(current)
                cal.remove(current)
                old = current
            else:
                floor = self._pred_floor(creq, graph, task, t)
            duration = old.end - old.start
            start = cal.earliest_start(floor, duration, old.nprocs)
            creq.reservations[task] = cal.reserve_known_feasible(
                start, duration, old.nprocs, label=old.label
            )
            self._rebooked += 1
            if (
                counted is not None
                and origin is not None
                and counted.last_commit_shard != origin
            ):
                _obs.incr("shard.rebalances")
            if _obs.ENABLED and not self._restoring:
                _obs.incr("service.rebooked")

    @staticmethod
    def _pred_floor(
        creq: CommittedRequest, graph: TaskGraph, task: int, t: float
    ) -> float:
        """Earliest instant ``task`` may start: after the fault and
        after every predecessor's current booking ends."""
        ends = (
            creq.reservations[p].end
            for p in graph.predecessors(task)
            if p in creq.reservations
        )
        return max(max(ends, default=t), t)

    # ------------------------------------------------------------------
    # Restore

    def _restore(self, requests: Sequence[StreamRequest]) -> None:
        """Rebuild run state by replaying the journal's records in
        processed order; the rebuilt calendar is bitwise-equal to the
        crashed run's (integer-valued step profiles make the committed
        splices order-independent).

        Raises:
            ServiceError: Naming the file and line of the first record
                that is neither the trace's next fault nor an outcome
                for the stream's next request.
        """
        journal = self._journal
        assert journal is not None
        self._restoring = True
        try:
            for lineno, rec in journal.records:
                where = f"{journal.path}: line {lineno}"
                kind = rec.get("type")
                if kind == "fault":
                    idx = rec.get("idx")
                    if type(idx) is not int:
                        raise ServiceError(
                            f"{where}: fault record without an integer 'idx'"
                        )
                    if idx != self._fault_pos or idx >= len(self._faults):
                        raise ServiceError(
                            f"{where}: journal replays fault {idx} but the "
                            f"trace is at {self._fault_pos} of "
                            f"{len(self._faults)}; the journal does not "
                            "match this run's fault trace"
                        )
                    self._apply_fault(self._faults[idx], idx)
                    self._fault_pos = idx + 1
                elif kind == "outcome":
                    if "payload" not in rec:
                        raise ServiceError(
                            f"{where}: outcome record without a payload"
                        )
                    outcome = journal.decode_payload(rec["payload"], lineno)
                    if not isinstance(outcome, ServiceOutcome):
                        raise ServiceError(
                            f"{where}: outcome payload holds type "
                            f"{type(outcome).__name__!r}, not ServiceOutcome"
                        )
                    expected = (
                        requests[self._done].request_id
                        if self._done < len(requests)
                        else None
                    )
                    if outcome.request.request_id != expected:
                        raise ServiceError(
                            f"{where}: outcome for request "
                            f"{outcome.request.request_id!r}, but the "
                            f"stream's next request is {expected!r}"
                        )
                    self._replay_outcome(outcome, rec.get("shards"))
                else:
                    raise ServiceError(
                        f"{where}: unknown record type {kind!r}"
                    )
        finally:
            self._restoring = False
        if _obs.ENABLED and self._done:
            _obs.incr("service.resumed", self._done)

    def _replay_outcome(
        self, outcome: ServiceOutcome, hosts: list[int] | None
    ) -> None:
        """Re-apply one checkpointed disposition without recomputing
        it: admissions re-commit their placements, quarantines re-enter
        the dead-letter list (the on-disk log already has them).

        A sharded admission re-commits each placement into the shard
        the journal says hosted it, with a strict commit: routing it
        afresh could pick another shard, because the original commit
        ran in the engine's order on a staged copy.
        """
        request = outcome.request
        self._last_offset = float(request.arrival_offset)
        if outcome.admitted and outcome.schedule is not None:
            cal = self._scheduler.calendar
            placements = outcome.schedule.placements
            if isinstance(cal, ShardedCalendar):
                self._replay_sharded(request, placements, hosts, cal)
            else:
                for p in placements:
                    cal.reserve_known_feasible(
                        p.start,
                        p.duration,
                        p.nprocs,
                        label=request.graph.task(p.task).name,
                    )
            self._register(request, outcome.arrival, outcome.schedule)
        elif outcome.status == "dead-letter":
            self._dead_letters.append(
                DeadLetter(
                    request_id=request.request_id,
                    tenant=request.tenant,
                    arrival=outcome.arrival,
                    reason=outcome.reason,
                    attempts=outcome.retries,
                )
            )
        self._outcomes.append(outcome)
        self._done += 1

    @staticmethod
    def _replay_sharded(
        request: StreamRequest,
        placements: Sequence[TaskPlacement],
        hosts: list[int] | None,
        cal: ShardedCalendar,
    ) -> None:
        """Strictly re-commit a journaled sharded admission into its
        recorded hosting shards; a journal that disagrees with the
        calendar raises instead of over-booking a shard."""
        rid = request.request_id
        if hosts is None or len(hosts) != len(placements):
            raise ServiceError(
                f"journal outcome {rid!r} records "
                f"{'no' if hosts is None else len(hosts)} hosting shards "
                f"for {len(placements)} placements"
            )
        for p, k in zip(placements, hosts):
            if not (isinstance(k, int) and 0 <= k < cal.n_shards):
                raise ServiceError(
                    f"journal outcome {rid!r} places task {p.task} on "
                    f"shard {k!r}; the calendar has {cal.n_shards} shards"
                )
            try:
                cal.reserve_in(
                    k,
                    p.start,
                    p.duration,
                    p.nprocs,
                    label=request.graph.task(p.task).name,
                )
            except CalendarError as exc:
                raise ServiceError(
                    f"journal outcome {rid!r}: task {p.task} does not fit "
                    f"its recorded shard {k}: {exc}"
                ) from None
