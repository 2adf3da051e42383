"""The resource calendar: capacity, reservations, and placement queries.

A :class:`ResourceCalendar` models one homogeneous cluster of ``capacity``
processors subject to a set of advance reservations.  It answers the
questions every scheduler in this library asks:

* :meth:`earliest_start` — first instant at or after ``earliest`` where
  ``nprocs`` processors are simultaneously free for ``duration`` (forward
  RESSCHED scheduling);
* :meth:`earliest_completion` — the ``(start, nprocs)`` pair completing
  earliest for a moldable task (RESSCHED's per-task decision), resolving
  only the processor counts that can still win;
* :meth:`latest_start` — last instant such that the window still finishes
  by ``latest_finish`` (backward RESSCHEDDL scheduling);
* :meth:`latest_placement` / :meth:`fewest_placement` — RESSCHEDDL's
  aggressive and resource-conservative per-task decisions (the pair with
  the latest start, or with the fewest processors, that still finishes
  by the task's deadline), again resolving only the counts that can win;
* :meth:`average_available` — time-weighted mean availability over an
  interval, used for the paper's "historical average number of available
  processors" P'.

The availability profile ``capacity − occupancy`` is compiled lazily into
a :class:`StepFunction` and then maintained **incrementally**: committing
a reservation splices it into the compiled profile
(:meth:`StepFunction.splice`: one copy of each array, with the delta
and the zero-jump rule applied only to the breakpoints the reservation
covers) instead of invalidating it and
paying a full O(R log R) recompile on the next query.  :meth:`remove`
is the inverse splice while the profile is *exact* — nothing clamped
since it was compiled, so it is the exact integer sum of the
reservations' deltas — and drops the profile for a recompile otherwise.
Placement queries are NumPy computations over the profile's
``times``/``values`` arrays.

Every booking takes one checked rule, whether it is an externally
supplied reservation (:meth:`add`, :meth:`reserve`) or a placement that
came out of this calendar's own queries (:meth:`reserve_known_feasible`).
The splice also returns the least value on the breakpoints it touched;
every profile a calendar holds is non-negative, so that one comparison
proves the result is too.  Only a booking that drives the touched run
negative pays for the capacity policy a compile applies: a strict
calendar refuses a real over-subscription and leaves itself unchanged,
and clamps floating-point residue no longer than the time tolerance; a
clamping calendar clamps.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.calendar.reservation import Reservation
from repro.calendar.timeline import StepFunction
from repro.errors import CalendarError
from repro.obs import core as _obs
from repro.units import TIME_EPS

#: Segments the earliest-completion walk (:meth:`ResourceCalendar.
#: earliest_completion`) copies into Python lists and walks per call.  A
#: count still unresolved at the window's end rescans with NumPy over
#: 8x larger windows, so the constant only tunes constant factors —
#: results are bitwise-independent of it.
_WALK_WINDOW: int = 32

#: One probed processor count of :meth:`ResourceCalendar.earliest_completion`:
#: ``(m, start, finish, exact)``.  Exact entries carry the count's true
#: earliest start and completion; pruned ones (``exact`` False) carry a
#: lower bound on each, which already ruled the count out.
ProbedCount = tuple[int, float, float, bool]

#: An earliest-completion request sorted for the kernel:
#: ``(order, lower, durations)`` — count indices by ascending lower-bound
#: completion, then each index's bound and duration as Python floats.
CompletionOrder = tuple[list[int], list[float], list[float]]


def checked_durations(
    durations: Sequence[float] | np.ndarray, capacity: int
) -> np.ndarray:
    """``durations`` as a float array of one positive duration per
    processor count ``1, 2, ...``, the largest no more than
    ``capacity``."""
    d = np.asarray(durations, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise CalendarError("durations must be a non-empty 1-D array")
    if d.size > capacity:
        raise CalendarError(
            f"durations imply up to {d.size} processors but "
            f"capacity is {capacity}"
        )
    if not d.min() > 0:
        raise CalendarError("all durations must be positive")
    return d


def completion_order(
    earliest: float, durations: np.ndarray, fewest: bool
) -> CompletionOrder:
    """Sort an earliest-completion request by lower-bound completion
    ``earliest + durations[j]``; equal bounds come in tie-break order,
    so the count that would win an exact completion tie is tried
    first."""
    lower = earliest + durations
    if fewest:
        order = lower.argsort(kind="stable")
    else:
        order = durations.size - 1 - lower[::-1].argsort(kind="stable")
    return order.tolist(), lower.tolist(), durations.tolist()


class ResourceCalendar:
    """Reservation book-keeping for one cluster.

    Args:
        capacity: Total processors ``p`` (>= 1).
        reservations: Initial (competing) reservations.
        clamp: When True, occupancy beyond capacity merely pins
            availability at zero instead of raising.  Calendars built from
            noisy workload data use this; scheduler-owned calendars keep
            the default strict behaviour so over-subscription bugs surface
            immediately.
    """

    def __init__(
        self,
        capacity: int,
        reservations: Iterable[Reservation] = (),
        *,
        clamp: bool = False,
    ):
        if capacity < 1:
            raise CalendarError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._clamp = bool(clamp)
        self._reservations: list[Reservation] = []
        self._profile: StepFunction | None = None
        # True while the compiled profile is the exact sum of the
        # reservations' deltas: nothing has been clamped since it was
        # compiled.  Only then may remove() splice a reservation out.
        self._exact = True
        # Monotone commit generation: bumped on every profile mutation.
        self._generation = 0
        for r in reservations:
            if r.nprocs > self._capacity:
                raise CalendarError(
                    f"reservation needs {r.nprocs} processors but the "
                    f"platform has only {self._capacity}"
                )
            self._reservations.append(r)
        # Bulk validation: one profile compile checks capacity at every
        # instant (availability() raises on negative values in strict
        # mode), instead of a per-reservation scan.
        self.availability()

    # ------------------------------------------------------------------
    # Book-keeping
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total number of processors."""
        return self._capacity

    @property
    def reservations(self) -> tuple[Reservation, ...]:
        """All reservations, in insertion order."""
        return tuple(self._reservations)

    @property
    def generation(self) -> int:
        """Monotone commit generation, bumped on every profile mutation.

        Tentative-then-commit callers (the online service's optimistic-
        concurrency path) use this as a CAS token: capture it before
        planning against a :meth:`copy`, and adopt the copy only if the
        authoritative calendar's generation is unchanged.
        """
        return self._generation

    def __len__(self) -> int:
        return len(self._reservations)

    def remove(self, reservation: Reservation) -> None:
        """Withdraw a previously registered reservation.

        Removes the first reservation equal to ``reservation`` (the
        cancel / booking-revocation primitive of the online service) and
        starts a new commit generation.

        While the compiled profile is exact — nothing clamped since it
        was compiled — the reservation is spliced back out, the inverse
        of its commit: ``+nprocs`` over ``[start, end)`` in O(segments).
        Profile values are integers, so an unclamped profile is the
        exact sum of its reservations' deltas; the spliced result is the
        same function as a fresh compile of the remaining reservations,
        and its canonical form is unique, so it is the same arrays too.
        A clamp loses what it cut off; after one, the profile is dropped
        and recompiled on the next query.

        Raises:
            CalendarError: if no equal reservation is registered.
        """
        try:
            self._reservations.remove(reservation)
        except ValueError:
            raise CalendarError(
                f"cannot remove unregistered reservation {reservation}"
            ) from None
        if _obs.ENABLED:
            _obs.incr("calendar.remove")
        if self._profile is not None and self._exact:
            if _obs.ENABLED:
                _obs.incr("calendar.remove.splice")
            self._profile = self._profile.splice(
                reservation.start, reservation.end, float(reservation.nprocs)
            )[0]
        else:
            self._profile = None
        self._invalidate_caches()

    def add(self, reservation: Reservation) -> None:
        """Register a reservation by the calendar's one booking rule
        (:meth:`_book`).

        Raises:
            CalendarError: if the reservation alone exceeds capacity, or —
                in strict mode — if total occupancy would exceed capacity
                at any instant.  A refused add leaves the calendar
                unchanged.
        """
        self._book(reservation)
        if _obs.ENABLED:
            _obs.incr("calendar.add.splice")
            # The new generation _book started.
            _obs.incr("cache.calendar.invalidate")

    def reserve_known_feasible(
        self, start: float, duration: float, nprocs: int, label: str = ""
    ) -> Reservation:
        """Commit a placement this calendar's own placement queries
        returned.

        The booking rule is :meth:`add`'s (:meth:`_book`): a placement
        the queries reported free splices in after one comparison, and
        sub-tolerance negative residue (a backward scheduler's
        ``(end − d) + d`` landing one ulp past ``end``) is clamped as a
        compile would clamp it.  A placement that over-subscribes a
        strict calendar was not derived from its current state; it
        raises :class:`~repro.errors.CalendarError` and leaves the
        calendar unchanged.
        """
        r = Reservation(start=start, end=start + duration, nprocs=nprocs, label=label)
        if _obs.ENABLED:
            # One branch on the bare commit path.
            with _obs.span("calendar.commit"):
                self._book(r)
                _obs.incr("calendar.commit.splice")
                # The new generation _book started.
                _obs.incr("cache.calendar.invalidate")
        else:
            self._book(r)
        return r

    def _book(self, r: Reservation) -> None:
        """The one booking rule behind :meth:`add`, :meth:`reserve` and
        :meth:`reserve_known_feasible`: splice ``r`` into the compiled
        profile.

        Every profile a calendar holds is non-negative (compiles and
        clamps make it so, and removes only raise values), and the
        splice changes values only on ``[r.start, r.end)`` and returns
        the least of them.  So at ``least >= 0`` the spliced profile is
        the one a compile of the reservations plus ``r`` gives, and only
        below 0 does the capacity policy (:meth:`_validated`) run: a
        strict calendar raises on a real violation and clamps residue,
        a clamping calendar clamps.  A dropped profile is compiled
        first; subtracting ``r.nprocs`` commutes with clamping at 0, so
        the result is the same arrays as a compile that includes ``r``.
        """
        if r.nprocs > self._capacity:
            raise CalendarError(
                f"reservation needs {r.nprocs} processors but the "
                f"platform has only {self._capacity}"
            )
        spliced, least = self.availability().splice(
            r.start, r.end, -float(r.nprocs)
        )
        if least < 0:
            try:
                spliced = self._validated(spliced)
            except CalendarError:
                raise CalendarError(
                    f"adding reservation {r} would exceed capacity"
                ) from None
            self._exact = False
        self._reservations.append(r)
        self._profile = spliced
        # _invalidate_caches() without its counter (the callers count).
        self._generation += 1

    def copy(self) -> "ResourceCalendar":
        """Independent copy (used for tentative scheduling).

        Built without :meth:`__init__`, which would compile and validate
        an empty profile only for this method to replace it.
        """
        dup = object.__new__(ResourceCalendar)
        dup._capacity = self._capacity
        dup._clamp = self._clamp
        dup._reservations = list(self._reservations)
        dup._profile = self._profile
        dup._exact = self._exact
        dup._generation = self._generation
        return dup

    def _invalidate_caches(self) -> None:
        """Start a new commit generation (copies are unaffected)."""
        self._generation += 1
        if _obs.ENABLED:
            _obs.incr("cache.calendar.invalidate")

    # ------------------------------------------------------------------
    # Profile
    # ------------------------------------------------------------------

    def _validated(self, profile: StepFunction) -> StepFunction:
        """Apply the capacity policy to a freshly built or spliced profile.

        Clamping calendars pin negative availability at zero.  Strict
        calendars raise on any real violation; negative availability on a
        segment no longer than the time tolerance is floating-point
        residue — schedulers compute starts as ``boundary - duration``,
        and ``start + duration`` can land one ulp past the boundary;
        durations are minutes to hours, so sub-microsecond overlaps are
        physically meaningless and get clamped instead.

        Returns ``profile`` itself exactly when nothing was clamped.
        """
        if _obs.ENABLED:
            _obs.incr("calendar.validate")
        if self._clamp:
            if profile.values.size and profile.values.min() < 0:
                # Canonicalize after clamping so the spliced and
                # recompiled profiles stay representation-identical.
                return profile.map(lambda v: np.maximum(v, 0.0)).canonical()
            return profile
        if profile.values.size and profile.values.min() < 0:
            neg = profile.values < 0
            seg_len = np.append(np.diff(profile.times), np.inf)
            if bool(np.any(neg & (seg_len > TIME_EPS))):
                raise CalendarError(
                    "reservations exceed platform capacity "
                    f"(availability reaches {profile.values.min():.0f}); "
                    "construct the calendar with clamp=True to tolerate "
                    "this"
                )
            profile = profile.map(lambda v: np.maximum(v, 0.0)).canonical()
        return profile

    def availability(self) -> StepFunction:
        """The compiled availability profile (free processors over time)."""
        if self._profile is None:
            events: list[tuple[float, float]] = []
            for r in self._reservations:
                events.append((r.start, -float(r.nprocs)))
                events.append((r.end, float(r.nprocs)))
            profile = StepFunction.from_deltas(events, base=float(self._capacity))
            self._profile = self._validated(profile)
            self._exact = self._profile is profile
        return self._profile

    def available_at(self, t: float) -> int:
        """Free processors at instant ``t``."""
        return int(self.availability()(t))

    def min_available(self, t0: float, t1: float) -> int:
        """Minimum free processors over ``[t0, t1)``.

        Raises:
            CalendarError: unless ``t1 > t0``.
        """
        if not t1 > t0:
            raise CalendarError(
                f"min_available needs t1 > t0, got the window [{t0}, {t1})"
            )
        return int(self.availability().min_over(t0, t1))

    def average_available(self, t0: float, t1: float) -> float:
        """Time-weighted mean free processors over ``[t0, t1]``.

        This is the paper's P' when evaluated over a trailing window of the
        historical reservation schedule.
        """
        return self.availability().mean(t0, t1)

    def utilization(self, t0: float, t1: float) -> float:
        """Fraction of processor-time reserved over ``[t0, t1]``."""
        return 1.0 - self.average_available(t0, t1) / self._capacity

    # ------------------------------------------------------------------
    # Placement queries
    # ------------------------------------------------------------------

    def _check_request(self, duration: float, nprocs: int) -> None:
        if not duration > 0:
            raise CalendarError(f"duration must be positive, got {duration}")
        if nprocs < 1:
            raise CalendarError(f"nprocs must be >= 1, got {nprocs}")
        if nprocs > self._capacity:
            raise CalendarError(
                f"request for {nprocs} processors exceeds capacity "
                f"{self._capacity}"
            )

    def _free_runs(self, nprocs: int) -> tuple[np.ndarray, np.ndarray]:
        """Maximal intervals with ``>= nprocs`` processors free.

        Returns ``(run_starts, run_ends)``: each run spans
        ``[run_starts[i], run_ends[i])``; the first may start at −inf
        (free before the first breakpoint) and the last always ends at
        +inf (the machine is all-free past the last reservation).  One
        O(segments) NumPy pass, no Python loop over segments.
        """
        prof = self.availability()
        # ok[j] — does segment j−1 (−1 = the base segment) satisfy the
        # request?  Padded with False on both sides so run boundaries are
        # plain sign changes.
        ok = np.empty(prof.values.size + 3, dtype=bool)
        ok[0] = ok[-1] = False
        ok[1] = prof.base >= nprocs
        np.greater_equal(prof.values, nprocs, out=ok[2:-1])
        bounds = np.concatenate(([-np.inf], prof.times, [np.inf]))
        starts = np.flatnonzero(ok[1:-1] & ~ok[:-2])
        ends = np.flatnonzero(ok[1:-1] & ~ok[2:]) + 1
        return bounds[starts], bounds[ends]

    def earliest_start(
        self, earliest: float, duration: float, nprocs: int
    ) -> float:
        """First start ``s >= earliest`` with ``nprocs`` free on
        ``[s, s + duration)``.

        Always succeeds: beyond the last reservation the whole machine is
        free (clamped calendars included, because clamping never lowers
        the final all-free segment).
        """
        if _obs.ENABLED:
            _obs.incr("calendar.query.earliest")
        self._check_request(duration, nprocs)
        run_starts, run_ends = self._free_runs(nprocs)
        # The window must fit inside one free run: start no earlier than
        # the run (or `earliest`) and end by the run's end.
        cand = np.maximum(run_starts, float(earliest))
        feasible = np.flatnonzero(cand + duration <= run_ends)
        if feasible.size == 0:
            # The final all-free segment extends to +inf, so this cannot
            # happen for a validated request.
            raise CalendarError(
                "no feasible start found — availability never recovers "
                f"to {nprocs} processors"
            )
        return float(cand[feasible[0]])

    def latest_start(
        self,
        latest_finish: float,
        duration: float,
        nprocs: int,
        *,
        earliest: float = -np.inf,
    ) -> float | None:
        """Latest start ``s`` with ``s >= earliest`` and
        ``s + duration <= latest_finish`` such that ``nprocs`` processors
        are free on ``[s, s + duration)``.

        Returns None when no such start exists (the deadline-infeasible
        outcome for backward scheduling).
        """
        if _obs.ENABLED:
            _obs.incr("calendar.query.latest")
        self._check_request(duration, nprocs)
        run_starts, run_ends = self._free_runs(nprocs)
        # Latest start inside each run: finish at the run's end or the
        # deadline, whichever is sooner.  Computed as `end − duration`
        # (the end is always latest_finish or an exact breakpoint) so a
        # caller's `start + duration` round-trips exactly.
        cand = np.minimum(run_ends, float(latest_finish)) - duration
        feasible = np.flatnonzero((cand >= run_starts) & (cand >= earliest))
        if feasible.size == 0:
            return None
        # Run ends are increasing, so candidates are non-decreasing: the
        # last feasible run holds the latest start.
        return float(cand[feasible[-1]])

    def earliest_starts_multi(
        self,
        earliest: float,
        durations: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`earliest_start` over processor counts 1..b.

        ``durations[j]`` is the duration needed when using ``j + 1``
        processors (the moldable-task case: one execution-time vector per
        task).  Returns the earliest feasible start for each count, in
        one sweep over the availability profile.  (The single-cluster
        schedulers ask :meth:`earliest_completion` and
        :meth:`fewest_placement` instead, which resolve only the counts
        that can still win.)

        Args:
            earliest: No window may start before this instant.
            durations: Positive durations, one per processor count; no
                more of them than the capacity.

        Returns:
            Array ``starts`` with ``starts[j]`` the earliest start for
            ``j + 1`` processors.
        """
        if _obs.ENABLED:
            with _obs.span("calendar.query.earliest_multi"):
                return self._earliest_starts_multi(earliest, durations)
        return self._earliest_starts_multi(earliest, durations)

    def _earliest_starts_multi(
        self,
        earliest: float,
        durations: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        d = checked_durations(durations, self._capacity)
        prof = self.availability()
        m = np.arange(1, d.size + 1)

        # One 2-D sweep instead of a segment-by-segment walk: for every
        # count, compute the maximal free runs (consecutive segments with
        # availability >= m) of the profile suffix at/after `earliest`,
        # then take the first run each window fits in.  A run straddling
        # `earliest` keeps its tail: its clipped start bound maximizes to
        # `earliest` below, exactly as the full-profile runs would.
        j0 = int(np.searchsorted(prof.times, earliest, side="right"))
        segvals = np.concatenate(([prof.base], prof.values))[j0:]
        segbounds = np.concatenate(([-np.inf], prof.times, [np.inf]))[j0:]
        n_seg = segvals.size
        if _obs.ENABLED:
            _obs.incr("calendar.query.earliest_multi")
            _obs.observe("calendar.scan.segments", n_seg)
            _obs.observe("calendar.probe.counts", d.size)
        ok = np.zeros((d.size, n_seg + 2), dtype=bool)
        np.greater_equal(segvals[None, :], m[:, None], out=ok[:, 1:-1])
        inner = ok[:, 1:-1]
        # Row-major nonzero: the i-th rise and i-th fall delimit the same
        # run, and runs appear grouped by count and ordered in time.
        r_rows, r_cols = np.nonzero(inner & ~ok[:, :-2])
        f_rows, f_cols = np.nonzero(inner & ~ok[:, 2:])
        cand = np.maximum(segbounds[r_cols], float(earliest))
        feasible = cand + d[r_rows] <= segbounds[f_cols + 1]
        rows_f = r_rows[feasible]
        urows, first = np.unique(rows_f, return_index=True)
        if urows.size != d.size:
            # The final segment is all-free (value == capacity >= any
            # requested count) and extends to +inf, so every count
            # resolves; anything else is an internal invariant violation.
            raise CalendarError(
                "availability profile ended before all requests were "
                "placed — internal invariant violated"
            )
        result = np.empty(d.size)
        result[urows] = cand[feasible][first]
        return result

    def earliest_starts_batch(
        self,
        requests: "Sequence[tuple[float, Sequence[float] | np.ndarray]]",
    ) -> list[np.ndarray]:
        """:meth:`earliest_starts_multi` for each ``(earliest, durations)``
        request, in request order.

        The same queries as issuing the per-call probes one by one.
        (The schedulers place tasks with :meth:`earliest_completion`
        instead, which needs only the winning count's start.)
        """
        return [self.earliest_starts_multi(e, d) for e, d in requests]

    def earliest_completion(
        self,
        earliest: float,
        durations: Sequence[float] | np.ndarray,
        tie_break: str = "fewest",
        *,
        probed: list[ProbedCount] | None = None,
    ) -> tuple[float, int]:
        """The ``(start, nprocs)`` pair that completes earliest —
        RESSCHED's per-task placement decision.

        ``durations[j]`` is the duration on ``j + 1`` processors.  The
        answer is bitwise-equal to the argmin of
        ``earliest_starts_multi(earliest, durations) + durations`` (the
        first minimum for ``tie_break="fewest"``, the last for
        ``"most"``), without computing every count's start:

        * counts are tried in ascending order of their lower bound
          ``earliest + durations[j]`` — no start precedes ``earliest``
          and rounded float addition is monotone, so no count completes
          before its bound;
        * each count's start comes from an early-exit walk over a short
          window of the profile (NumPy rescans of 8x larger windows when
          the answer lies beyond it), abandoned once its candidate
          completion can no longer beat the best found so far;
        * the first bound above the best completion ends the search.

        A count ruled out this way completes strictly later than the
        winner, or ties it and loses the tie-break, so skipping it never
        changes the decision.

        Args:
            earliest: No window may start before this instant.
            durations: Positive durations, one per processor count, no
                more of them than the capacity.
            tie_break: ``"fewest"`` or ``"most"`` processors among exact
                completion ties.
            probed: When a list, receives one :data:`ProbedCount` per
                processor count (decision provenance).

        Returns:
            ``(start, nprocs)`` of the earliest completion.
        """
        d = checked_durations(durations, self._capacity)
        if tie_break not in ("fewest", "most"):
            raise CalendarError(
                f"tie_break must be 'fewest' or 'most', got {tie_break!r}"
            )
        e = float(earliest)
        fewest = tie_break == "fewest"
        found = self._earliest_completion(
            e, completion_order(e, d, fewest), fewest, probed
        )
        assert found is not None  # nothing to beat: every count resolves
        return found

    def _earliest_completion(
        self,
        e: float,
        plan: "CompletionOrder",
        fewest: bool,
        probed: list[ProbedCount] | None,
        beat: tuple[float, int] | None = None,
    ) -> tuple[float, int] | None:
        """:meth:`earliest_completion` on a checked, pre-sorted request.

        Counts beyond this calendar's capacity are skipped, so a sharded
        probe sorts once and hands the same ``plan`` to every shard.
        ``beat`` is a competing ``(completion, nprocs)`` — a sharded
        probe's best leg so far.  Only counts that beat it, or equal it
        (the caller then compares starts), are answered; ``None`` means
        none does.  Each count is tried at most once per call, so the
        count-equality case only ever arises against ``beat``.
        """
        order, lows, durs = plan
        if beat is None:
            # A competitor every count beats, even at an infinite
            # completion (the argmin over all-infinite completions is
            # still the tie-break winner).
            beat = (np.inf, len(order) + 1 if fewest else 0)
        cap = self._capacity
        prof = self.availability()
        times, values = prof.times, prof.values
        j0 = int(times.searchsorted(e, side="right"))
        # The walk window as plain lists: vals[p] processors are free on
        # [bnds[p], bnds[p + 1]); p = 0 is the segment holding `e`.
        w = _WALK_WINDOW
        if j0:
            vals = values[j0 - 1 : j0 - 1 + w].tolist()
            bnds = times[j0 - 1 : j0 + w].tolist()
        else:
            vals = [prof.base] + values[: w - 1].tolist()
            bnds = [-np.inf] + times[:w].tolist()
        n = len(vals)
        if len(bnds) == n:
            bnds.append(np.inf)  # the window reaches the all-free tail
        best_c, best_m = beat
        best_s: float | None = None
        exact_n = escalated = 0
        # Counts unresolved within the window: (lower-bound completion,
        # position in `order`, count index, lower-bound start).
        deferred: list[tuple[float, int, int, float]] = []
        for idx, k in enumerate(order):
            if k >= cap:
                continue
            m = k + 1
            if lows[k] > best_c:
                # Bounds ascend: no remaining count can win or tie.
                if probed is not None:
                    probed.extend(
                        (r + 1, e, lows[r], False)
                        for r in order[idx:]
                        if r < cap
                    )
                break
            tie_ok = m <= best_m if fewest else m >= best_m
            if lows[k] == best_c and not tie_ok:
                if probed is not None:
                    probed.append((m, e, lows[k], False))
                continue
            dur = durs[k]
            # Walk the free runs (maximal stretches with >= m free) in
            # time order.  A run's candidate start is `e` or its first
            # bound; candidates only grow along the walk, so the first
            # one that cannot beat the best ends it.
            state = 0  # 0: unresolved in the window, 1: fits, 2: pruned
            cand = lb_s = bnds[n]
            fin = 0.0
            p = 0
            while p < n:
                if vals[p] < m:
                    p += 1
                    continue
                cand = e if p == 0 else bnds[p]
                fin = cand + dur
                if fin > best_c or (fin == best_c and not tie_ok):
                    state = 2
                    break
                q = p
                while True:
                    if fin <= bnds[q + 1]:
                        state = 1
                        break
                    q += 1
                    if q == n or vals[q] < m:
                        break
                if state:
                    break
                if q == n:
                    lb_s = cand  # run still open at the window's end
                    break
                p = q + 1
            if state == 0:
                cand, fin = lb_s, lb_s + dur
                if fin < best_c or (fin == best_c and tie_ok):
                    # Settled after the window pass, once the counts
                    # that fit inside it have lowered the best.
                    deferred.append((fin, idx, k, cand))
                    continue
                state = 2
            if state == 1:
                exact_n += 1
                best_c, best_m, best_s = fin, m, cand
            if probed is not None:
                probed.append((m, cand, fin, state == 1))
        for fin, _, k, cand in sorted(deferred):
            m = k + 1
            tie_ok = m <= best_m if fewest else m >= best_m
            exact = False
            if fin < best_c or (fin == best_c and tie_ok):
                escalated += 1
                cand, fin, exact = self._scan_first_fit(
                    prof, j0, e, m, durs[k], best_c, tie_ok
                )
            if exact:
                exact_n += 1
                if fin < best_c or (fin == best_c and tie_ok):
                    best_c, best_m, best_s = fin, m, cand
            if probed is not None:
                probed.append((m, cand, fin, exact))
        if _obs.ENABLED:
            n_counts = min(len(order), cap)
            _obs.incr("calendar.query.earliest_completion")
            _obs.incr("calendar.completion.pruned", n_counts - exact_n)
            _obs.incr("calendar.completion.escalations", escalated)
            _obs.observe("calendar.probe.counts", n_counts)
        return None if best_s is None else (best_s, best_m)

    @staticmethod
    def _scan_first_fit(
        prof: StepFunction,
        j0: int,
        earliest: float,
        m: int,
        dur: float,
        best_c: float,
        tie_ok: bool,
    ) -> tuple[float, float, bool]:
        """One count's first fit by NumPy scans of growing windows.

        Scans from the segment holding ``earliest`` (padded index
        ``j0``): runs that close inside a window are decided exactly,
        the trailing run only has its end understated (the true run
        extends at least to the window's last bound), and a window with
        no confirmed fit rescans 8x larger.  Returns ``(start,
        finish, True)``, or ``(start, finish, False)`` with lower bounds
        once those already lose to ``best_c`` — nothing later can fit
        sooner.
        """
        times, values = prof.times, prof.values
        n_seg = values.size + 1  # the base segment, then one per value
        w = _WALK_WINDOW * 8
        while True:
            hi = min(j0 + w, n_seg)
            if j0:
                seg = values[j0 - 1 : hi - 1]
                bnd = times[j0 - 1 : hi]
            else:
                seg = np.concatenate(([prof.base], values[: hi - 1]))
                bnd = np.concatenate(([-np.inf], times[:hi]))
            if hi == n_seg:
                bnd = np.append(bnd, np.inf)
            ok = np.zeros(seg.size + 2, dtype=bool)
            np.greater_equal(seg, m, out=ok[1:-1])
            rises = np.flatnonzero(ok[1:] & ~ok[:-1])
            falls = np.flatnonzero(ok[:-1] & ~ok[1:])
            cand = np.maximum(bnd[rises], earliest)
            fin = cand + dur
            hit = np.flatnonzero(fin <= bnd[falls])
            if hit.size:
                i = int(hit[0])
                return float(cand[i]), float(fin[i]), True
            if hi == n_seg:
                raise CalendarError(
                    "availability profile ended before the request was "
                    "placed — internal invariant violated"
                )
            lb = float(cand[-1]) if ok[-2] else float(bnd[-1])
            if lb + dur > best_c or (lb + dur == best_c and not tie_ok):
                return lb, lb + dur, False
            w *= 8

    def fewest_placement(
        self,
        earliest: float,
        latest_finish: float,
        durations: Sequence[float] | np.ndarray,
        *,
        probed: list[ProbedCount] | None = None,
    ) -> tuple[float, int] | None:
        """The fewest-processor ``(start, nprocs)`` pair whose earliest
        start still finishes by ``latest_finish`` — RESSCHEDDL's
        resource-conservative per-task decision.

        ``durations[j]`` is the duration on ``j + 1`` processors.  The
        answer is bitwise-equal to the first count, in ascending order,
        whose ``start = earliest_starts_multi(earliest, durations)[j]``
        passes ``start + d <= latest_finish`` and ``start + d > start``
        (the window ends in time and does not vanish), without computing
        the other counts' starts:

        * a count whose bound ``earliest + d`` is already past
          ``latest_finish`` is ruled out without a walk — no start
          precedes ``earliest`` and rounded float addition is monotone;
        * every other count walks the free runs forward from
          ``earliest`` and stops at the first run it fits in, or at the
          first candidate whose finish passes ``latest_finish``:
          candidates only grow along the walk, so the count cannot
          finish in time.

        Args:
            earliest: No window may start before this instant.
            latest_finish: Every window must end by this instant.
            durations: Positive durations, one per processor count, no
                more of them than the capacity.
            probed: When a list, receives one :data:`ProbedCount` per
                count tried, up to the winner (decision provenance).

        Returns:
            ``(start, nprocs)``, or None when no count finishes in time.
        """
        d = checked_durations(durations, self._capacity)
        e, lim = float(earliest), float(latest_finish)
        prof = self.availability()
        times, values = prof.times, prof.values
        # The walk window as plain lists: vals[p] processors are free on
        # [bnds[p], bnds[p + 1]); p = 0 is the segment holding `e`, the
        # last one holds `lim`, and bnds[n] lies past `lim`.
        j0 = int(times.searchsorted(e, side="right"))
        jl = max(j0, int(times.searchsorted(lim, side="right")))
        if j0:
            vals = values[j0 - 1 : jl].tolist()
            bnds = times[j0 - 1 : jl + 1].tolist()
        else:
            vals = [prof.base] + values[:jl].tolist()
            bnds = [-np.inf] + times[: jl + 1].tolist()
        n = len(vals)
        if len(bnds) == n:
            bnds.append(np.inf)  # the window reaches the all-free tail
        lows = (e + d).tolist()
        durs = d.tolist()
        for k, dur in enumerate(durs):
            m = k + 1
            if lows[k] > lim:
                if probed is not None:
                    probed.append((m, e, lows[k], False))
                continue
            fits = False
            p = 0
            while True:
                while p < n and vals[p] < m:
                    p += 1
                # Past the window, the next run starts after `lim`.
                cand = e if p == 0 else bnds[min(p, n)]
                fin = cand + dur
                if p >= n or fin > lim:
                    break
                q = p
                while True:
                    if fin <= bnds[q + 1]:
                        fits = True
                        break
                    q += 1
                    if q == n or vals[q] < m:
                        break
                if fits:
                    break
                p = q + 1
            if probed is not None:
                probed.append((m, cand, fin, fits))
            if fits and fin <= lim and fin > cand:
                return cand, m
        return None

    def latest_placement(
        self,
        latest_finish: float,
        durations: Sequence[float] | np.ndarray,
        *,
        earliest: float,
        probed: list[ProbedCount] | None = None,
    ) -> tuple[float, int] | None:
        """The ``(start, nprocs)`` pair with the latest start that
        finishes by ``latest_finish`` — RESSCHEDDL's aggressive per-task
        decision.

        ``durations[j]`` is the duration on ``j + 1`` processors.  The
        answer is bitwise-equal to the ``nanargmax`` (ties to the fewest
        processors) of ``latest_starts_multi(latest_finish, durations,
        earliest=earliest)`` once starts whose window vanishes
        (``start + d <= start``) are masked out, and None when nothing is
        left.  It runs that method's backward segment sweep, with the
        same ``candidate finish − d`` arithmetic, but stops early:

        * a count whose candidate start falls below ``earliest`` drops
          out — candidates only shrink along the sweep;
        * the sweep stops at the first segment where some count fits
          with a start at or after ``earliest`` that does not vanish.
          Those counts start at or after the segment's lower bound
          ``lo``.  A count with enough processors there that did not
          fit has a candidate start below ``lo``; one without enough
          now has candidate finish ``lo``, so it can start at most at
          ``lo − d <= lo``, and it has more processors than every count
          that fits.  So the best start of that segment is the answer.

        Args:
            latest_finish: Every window must end by this instant.
            durations: Positive durations, one per processor count, no
                more of them than the capacity.
            earliest: No window may start before this instant.
            probed: When a list, receives one :data:`ProbedCount` per
                processor count (decision provenance): exact entries carry
                the count's latest start, the others an upper bound on it.

        Returns:
            ``(start, nprocs)``, or None when no count fits.
        """
        d = checked_durations(durations, self._capacity)
        lf, e = float(latest_finish), float(earliest)
        prof = self.availability()
        times, values = prof.times, prof.values
        b = d.size
        cand = np.full(b, lf)  # candidate finish per count
        live = np.ones(b, dtype=bool)
        fitted = np.zeros(b, dtype=bool)
        found: tuple[float, int] | None = None
        # Segment holding instants just before latest_finish.
        j = int(times.searchsorted(lf, side="left")) - 1
        while True:
            if j >= 0:
                lo, v = float(times[j]), float(values[j])
            else:
                lo, v = -np.inf, prof.base
            # Counts 1..nv have enough processors free on this segment.
            nv = min(b, max(0, math.floor(v)))
            if nv:
                s = cand[:nv] - d[:nv]
                fit = live[:nv] & (s >= lo)
                if np.count_nonzero(fit):
                    fitted[:nv] |= fit
                    live[:nv] &= ~fit
                    good = fit & (s >= e) & ~(s + d[:nv] <= s)
                    if np.count_nonzero(good):
                        k = int(np.flatnonzero(good)[s[good].argmax()])
                        found = (float(s[k]), k + 1)
                # A start below `earliest` only gets earlier from here.
                live[:nv] &= ~(s < e)
            if nv < b:
                # The window must now end where this segment begins.
                np.putmask(cand[nv:], live[nv:], lo)
                live[nv:] &= ~(lo - d[nv:] < e)
            if found is not None or j < 0 or not np.count_nonzero(live):
                break
            j -= 1
        if probed is not None:
            starts = (cand - d).tolist()
            ends = ((cand - d) + d).tolist()
            probed.extend(
                (k + 1, starts[k], ends[k], bool(fitted[k])) for k in range(b)
            )
        return found

    def latest_starts_multi(
        self,
        latest_finish: float,
        durations: Sequence[float] | np.ndarray,
        *,
        earliest: float = -np.inf,
    ) -> np.ndarray:
        """Vectorized :meth:`latest_start` over processor counts 1..b.

        Returns, for each processor count ``j + 1``, the latest start
        ``s >= earliest`` with ``s + durations[j] <= latest_finish`` and the
        processors free throughout — or NaN when infeasible.  (RESSCHEDDL
        asks :meth:`latest_placement` instead, which stops at the first
        segment that decides the best start.)
        """
        if _obs.ENABLED:
            with _obs.span("calendar.query.latest_multi"):
                return self._latest_starts_multi(latest_finish, durations, earliest)
        return self._latest_starts_multi(latest_finish, durations, earliest)

    def _latest_starts_multi(
        self,
        latest_finish: float,
        durations: Sequence[float] | np.ndarray,
        earliest: float,
    ) -> np.ndarray:
        d = checked_durations(durations, self._capacity)
        prof = self.availability()
        m = np.arange(1, d.size + 1)
        if _obs.ENABLED:
            _obs.incr("calendar.query.latest_multi")
            _obs.observe("calendar.probe.counts", d.size)
        cand = np.full(d.size, float(latest_finish))  # candidate finish
        result = np.full(d.size, np.nan)
        resolved = np.zeros(d.size, dtype=bool)

        # Segment holding instants just before latest_finish.
        j = int(np.searchsorted(prof.times, latest_finish, side="left")) - 1
        while True:
            lo, _hi = prof.segment_bounds(j)
            v = prof.segment_value(j)
            enough = m <= v
            starts = cand - d
            # Invariant: availability >= m on [hi_j, cand[m]); the window
            # fits once its start also falls inside this segment.
            fits = ~resolved & enough & (starts >= lo)
            good = fits & (starts >= earliest)
            result[good] = starts[good]
            # A fitting start below `earliest` means every remaining
            # candidate is even earlier: infeasible (result stays NaN).
            resolved |= fits
            broken = ~resolved & ~enough
            cand[broken] = lo
            # Once the candidate finish leaves no room above `earliest`,
            # the request is infeasible.
            resolved |= broken & (cand - d < earliest)
            if resolved.all() or j < 0:
                return result
            j -= 1

    def fits(self, start: float, duration: float, nprocs: int) -> bool:
        """True when ``nprocs`` processors are free on
        ``[start, start + duration)``.

        Raises:
            CalendarError: on an invalid request, or when the window
                vanishes in rounding (``start + duration == start``).
        """
        self._check_request(duration, nprocs)
        return self.min_available(start, start + duration) >= nprocs

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def reserve(
        self, start: float, duration: float, nprocs: int, label: str = ""
    ) -> Reservation:
        """Create, validate, add, and return a reservation."""
        r = Reservation(start=start, end=start + duration, nprocs=nprocs, label=label)
        self.add(r)
        return r

    def span(self) -> tuple[float, float] | None:
        """Earliest start and latest end over all reservations, or None."""
        if not self._reservations:
            return None
        return (
            min(r.start for r in self._reservations),
            max(r.end for r in self._reservations),
        )

    def __repr__(self) -> str:
        return (
            f"ResourceCalendar(capacity={self._capacity}, "
            f"reservations={len(self._reservations)})"
        )
