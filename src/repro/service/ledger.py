"""The service's booking ledger: what a decision at an arrival can read.

Every admission asks how many of a tenant's requests are active and how
deep the not-yet-started backlog is, and every arrival or downtime fault
needs the bookings it may displace.  Over the whole admission history
those scans grow with the stream; :class:`BookingLedger` keeps only the
admitted requests a decision at or after the current arrival can still
see, so the work per admission depends on the live bookings:

* the *live* set — admitted requests, in admission order, that may
  still hold a booking ending after the current arrival.  It answers the
  ``quota-active`` count, the displaceable bookings of a fault, and the
  order in which a fault's victims are rebooked;
* the *pending* set — admitted requests that have not started.  It
  answers the load-shedding backlog.

Pruning is exact.  :meth:`advance` moves the ledger to each arrival
once every fault up to that arrival has been applied; the first query
after it prunes both sets to that arrival (:meth:`prune`), so a service
that sets neither limit and meets no arrival or downtime fault never
prunes.  The argument:

* arrivals never decrease (the service refuses out-of-order requests);
* every fault with ``time <= arrival`` is applied before the admission,
  so every later fault has ``t > arrival``;
* a fault displaces (:func:`repro.resilience.admit_window`), and the
  service's rebooking moves, only bookings with ``start > t``.

So a request whose bookings all ended by ``arrival`` never again holds an
unstarted booking or counts as active, and a request that started by
``arrival`` keeps that booking and never again counts toward the
backlog.  This holds at any moment after the arrival's faults are
applied, so pruning at the first query instead of at the arrival itself
drops nothing a later decision reads.  Each query still applies its own
test (``last_end > arrival``, ``first_start > arrival``, ``start > t``),
so a ledger holding a superset of the pruned sets — as a service
restored from its journal does until its next arrival — gives the same
answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.calendar import Reservation
from repro.experiments.stream import StreamRequest
from repro.obs import core as _obs
from repro.schedule import Schedule

#: A displaceable booking: ``((request id, task), reservation)``.
Displaceable = tuple[tuple[str, int], Reservation]


@dataclass
class CommittedRequest:
    """Book-keeping for one admitted request's live reservations."""

    request: StreamRequest
    arrival: float
    #: The schedule committed at admission.
    schedule: Schedule
    #: Sharded services: the shard each placement was committed to at
    #: admission, in placement order (journaled with the outcome).
    hosts: Sequence[int] | None = None
    _reservations: dict[int, Reservation] | None = None

    @property
    def reservations(self) -> dict[int, Reservation]:
        """task index -> the task's current calendar reservation.

        Built from the admitted schedule on first use: until a fault,
        a quota or load shedding looks at a booking, nothing has moved
        it, and a run with none of them never needs the dict."""
        if self._reservations is None:
            graph = self.request.graph
            self._reservations = {
                p.task: p.as_reservation(graph.task(p.task).name)
                for p in self.schedule.placements
            }
        return self._reservations

    @property
    def first_start(self) -> float:
        """Earliest booked start (``inf`` once everything is revoked)."""
        if self._reservations is None:
            # Nothing has moved a booking: read the admitted schedule
            # instead of building the dict.
            starts = (p.start for p in self.schedule.placements)
        else:
            starts = (r.start for r in self._reservations.values())
        return min(starts, default=float("inf"))

    @property
    def last_end(self) -> float:
        """Latest booked end (``-inf`` once everything is revoked)."""
        if self._reservations is None:
            ends = (p.finish for p in self.schedule.placements)
        else:
            ends = (r.end for r in self._reservations.values())
        return max(ends, default=float("-inf"))

    @property
    def cpu_hours(self) -> float:
        """CPU-hours currently booked for this request."""
        return (
            sum(
                (r.end - r.start) * r.nprocs
                for r in self.reservations.values()
            )
            / 3600.0
        )


class BookingLedger:
    """The live and pending admitted requests of one service run.

    Counts the entries and bookings its queries examine as
    ``service.scan.requests`` and ``service.scan.bookings`` when
    :mod:`repro.obs` is enabled.
    """

    def __init__(self) -> None:
        self._live: dict[str, CommittedRequest] = {}
        self._pending: dict[str, CommittedRequest] = {}
        # The current arrival, and whether both sets are pruned to it.
        self._arrival = float("-inf")
        self._pruned = True

    def add(self, committed: CommittedRequest) -> None:
        """Enter a just-admitted request into both sets."""
        rid = committed.request.request_id
        self._live[rid] = committed
        self._pending[rid] = committed

    def advance(self, arrival: float) -> None:
        """Move to the next arrival; the next query prunes to it.

        Call it only once every fault up to ``arrival`` is applied, with
        arrivals that never decrease (see the module docstring)."""
        self._arrival = arrival
        self._pruned = False

    def prune(self) -> None:
        """Drop the requests no decision at or after the current arrival
        reads: from the live set those whose bookings all ended by it,
        from the pending set those started by it.  Every query calls
        it; it does nothing until the next :meth:`advance`."""
        if self._pruned:
            return
        arrival = self._arrival
        if _obs.ENABLED:
            _obs.incr(
                "service.scan.requests", len(self._live) + len(self._pending)
            )
        self._live = {
            rid: c for rid, c in self._live.items() if c.last_end > arrival
        }
        self._pending = {
            rid: c
            for rid, c in self._pending.items()
            if c.first_start > arrival
        }
        self._pruned = True

    def active(self, tenant: str, arrival: float) -> int:
        """``tenant``'s admitted requests holding a booking that ends
        after ``arrival``."""
        self.prune()
        if _obs.ENABLED:
            _obs.incr("service.scan.requests", len(self._live))
        return sum(
            1
            for c in self._live.values()
            if c.request.tenant == tenant and c.last_end > arrival
        )

    def backlog(self, arrival: float) -> int:
        """Admitted requests that still hold bookings and start only
        after ``arrival``."""
        self.prune()
        if _obs.ENABLED:
            _obs.incr("service.scan.requests", len(self._pending))
        return sum(
            1
            for c in self._pending.values()
            if c.first_start > arrival and c.reservations
        )

    def unstarted(self, t: float) -> list[Displaceable]:
        """Every booking that starts after ``t``, keyed by request id
        and task: the bookings a fault at ``t`` may displace."""
        self.prune()
        out = [
            ((rid, task), res)
            for rid, c in self._live.items()
            for task, res in c.reservations.items()
            if res.start > t
        ]
        if _obs.ENABLED:
            _obs.incr(
                "service.scan.bookings",
                sum(len(c.reservations) for c in self._live.values()),
            )
        return out

    def live(self) -> Iterator[str]:
        """The live request ids, in admission order."""
        self.prune()
        return iter(self._live)
