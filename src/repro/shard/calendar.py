"""Sharded resource calendar: K partitions behind one facade.

The single process-local :class:`~repro.calendar.ResourceCalendar` is
the streamed engine's throughput ceiling: every placement probe, every
availability splice, and every :class:`AvailabilityIndex` rebuild
serializes through one compiled profile, so one commit invalidates the
caches for the *entire* platform.  :class:`ShardedCalendar` partitions
the platform into ``K`` shards — each an independent strict
``ResourceCalendar`` with its own profile, index, and generation
counter — and recovers the calendar API on top:

* **Probes fan out, reduced deterministically.**
  :meth:`earliest_completion` runs the earliest-completion kernel once
  per shard (durations truncated to the shard's capacity) and keeps
  the leg with the least ``(completion, nprocs in tie-break direction,
  start)``; :meth:`earliest_starts_batch` answers each request with
  one :meth:`~repro.calendar.ResourceCalendar.earliest_starts_multi`
  per shard (missing processor counts padded with ``+inf``) and
  reduces elementwise by ``(earliest_start, shard_id)``: the minimum
  start wins, ties go to the lowest shard id.  Both reductions are pure
  functions of the shard answers.

* **Commits route to one shard.**  A placement the probe reduce
  reported feasible is hosted *wholly* by one shard;
  :meth:`reserve_known_feasible` commits into the first (lowest-id)
  shard whose availability covers the window.  The engine commits each
  placement right after probing it, so the first feasible shard at
  commit time is exactly the lowest-id shard whose earliest start for
  that processor count is the reduced start.

* **Two-phase cross-shard commits.**  :meth:`copy` captures the
  per-shard generation vector as a CAS token and records every shard
  the copy subsequently writes to.  :meth:`validate_commit` compares
  only the *touched* legs against the live generations and raises
  :class:`~repro.errors.ShardCommitError` naming the stale shards;
  :meth:`commit` swaps only the touched shard legs into the base, so
  concurrent fault-driven progress on untouched shards is preserved
  and a conflict aborts nothing but its own legs.  The retry/backoff
  machinery in :mod:`repro.service` (which already handles
  ``CommitConflictError``) drives re-planning.

* **K = 1 reduces bitwise to the unsharded engine.**  With one shard
  every facade method short-circuits to the underlying calendar — same
  arrays, same generation arithmetic — which the test
  suite and the bench gate assert via report digests.

Competing (external) reservations are spread across shards by
availability-aware water-filling (:meth:`add`): whole-interval pieces
first from a rotating start shard, then time-sliced remainders, with a
strict :class:`~repro.errors.CalendarError` when the platform-wide
capacity is genuinely exceeded — the same raise the unsharded strict
calendar gives the service's revocation loop.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt
from typing import Iterable, Sequence

from repro.calendar import (
    ProbedCount,
    Reservation,
    ResourceCalendar,
    StepFunction,
)
from repro.calendar.calendar import checked_durations, completion_order
from repro.errors import CalendarError, ShardCommitError
from repro.obs import core as _obs
from repro.obs import timeline as _tl

__all__ = ["ShardedCalendar", "shard_capacities"]

#: Key identifying a reservation across the facade's piece bookkeeping.
_ResKey = tuple[float, float, int, str]


def _res_key(r: Reservation) -> _ResKey:
    return (r.start, r.end, r.nprocs, r.label)


def shard_capacities(capacity: int, n_shards: int) -> tuple[int, ...]:
    """Split ``capacity`` processors over ``n_shards`` near-evenly.

    The first ``capacity % n_shards`` shards get one extra processor,
    so the split is deterministic and ``sum == capacity``.
    """
    if n_shards < 1:
        raise CalendarError(f"n_shards must be >= 1, got {n_shards}")
    if capacity < n_shards:
        raise CalendarError(
            f"cannot split capacity {capacity} into {n_shards} non-empty "
            "shards"
        )
    base, extra = divmod(capacity, n_shards)
    return tuple(base + (1 if k < extra else 0) for k in range(n_shards))


def _better_leg(
    best: tuple[float, int, float] | None,
    answer: tuple[float, int] | None,
    durations: npt.NDArray[np.float64],
    sign: int,
) -> tuple[float, int, float] | None:
    """Fold one leg's ``(start, nprocs)`` into the running reduce key
    ``(completion, sign * nprocs, start)``; the earlier leg keeps exact
    key ties."""
    if answer is None:
        return best
    start, m = answer
    key = (start + float(durations[m - 1]), sign * m, start)
    return key if best is None or key < best else best


def _merge_probed(
    n_counts: int,
    legs: Sequence[list[ProbedCount] | None],
    m: int,
    start: float,
    finish: float,
) -> list[ProbedCount]:
    """Platform-wide provenance of one fanned-out earliest-completion
    probe: per count, the minimum start and completion over the shards
    hosting it — exact only when every one of them evaluated it exactly,
    a lower bound otherwise.  Counts no shard can host never complete
    (``+inf``); ``m`` is reported with the reduced decision."""
    per_count: dict[int, list[ProbedCount]] = {}
    for leg in legs:
        for entry in leg or ():
            per_count.setdefault(entry[0], []).append(entry)
    out: list[ProbedCount] = []
    for k in range(1, n_counts + 1):
        entries = per_count.get(k, [])
        if k == m:
            out.append((k, start, finish, True))
        elif not entries:
            out.append((k, np.inf, np.inf, True))
        else:
            out.append(
                (
                    k,
                    min(x[1] for x in entries),
                    min(x[2] for x in entries),
                    all(x[3] for x in entries),
                )
            )
    return out


class ShardedCalendar:
    """``K`` independent shard calendars behind the calendar API.

    Args:
        shards: The shard calendars, already populated.  Shard ids are
            positions in this sequence.  Heterogeneous capacities are
            allowed (the multi-cluster seed builds one shard per
            cluster); :meth:`partition` builds a near-even split of one
            platform.
    """

    def __init__(self, shards: Sequence[ResourceCalendar]) -> None:
        if not shards:
            raise CalendarError("a ShardedCalendar needs at least one shard")
        self._shards: list[ResourceCalendar] = list(shards)
        #: Split external reservations: facade-key -> [(shard, piece)].
        self._pieces: dict[_ResKey, list[tuple[int, Reservation]]] = {}
        #: Rotating start shard for water-filling, advanced per add.
        self._fill_rot = 0
        # Two-phase commit state (populated on copies by :meth:`copy`).
        self._parent: "ShardedCalendar | None" = None
        self._tokens: tuple[int, ...] = ()
        self._touched: set[int] = set()
        #: Piece-map delta accumulated on a staged copy, replayed onto
        #: the base by :meth:`commit` (leg-wise, like the shard swaps).
        self._pieces_added: dict[_ResKey, list[tuple[int, Reservation]]] = {}
        self._pieces_removed: set[_ResKey] = set()
        #: Shard id of the most recent routed commit (-1 before any);
        #: the service reads it to attribute a rebooking to a shard.
        self._last_commit_shard = -1
        #: Staged copies only: each routed commit and its hosting shard,
        #: in commit order (:meth:`hosts`).
        self._staged_hosts: list[tuple[Reservation, int]] = []
        # Combined-profile cache for availability(), keyed by the
        # generation vector it was built at.
        self._combined: StepFunction | None = None
        self._combined_gens: tuple[int, ...] = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def partition(
        cls,
        capacity: int,
        reservations: Iterable[Reservation] = (),
        *,
        n_shards: int,
        clamp: bool = False,
    ) -> "ShardedCalendar":
        """Partition one platform of ``capacity`` processors into
        ``n_shards`` shards and water-fill ``reservations`` onto them.

        With ``n_shards == 1`` the reservations go to the single shard
        verbatim (bulk-validated exactly like the unsharded
        constructor), so the facade reduces bitwise to
        ``ResourceCalendar(capacity, reservations)``.
        """
        res = tuple(reservations)
        if n_shards == 1:
            return cls([ResourceCalendar(capacity, res, clamp=clamp)])
        caps = shard_capacities(capacity, n_shards)
        sharded = cls(
            [ResourceCalendar(c, clamp=clamp) for c in caps]
        )
        for r in res:
            sharded.add(r)
        return sharded

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def parent(self) -> "ShardedCalendar | None":
        """The base this staged copy was taken from (``None`` on bases)."""
        return self._parent

    @property
    def shards(self) -> tuple[ResourceCalendar, ...]:
        """The shard calendars, by shard id."""
        return tuple(self._shards)

    @property
    def capacity(self) -> int:
        """Total processors across all shards."""
        return sum(s.capacity for s in self._shards)

    @property
    def generations(self) -> tuple[int, ...]:
        """Per-shard commit generations — the CAS vector."""
        return tuple(s.generation for s in self._shards)

    @property
    def generation(self) -> int:
        """Scalar generation: the sum of the shard generations.

        Strictly increases on every mutation anywhere on the platform,
        so single-token CAS users (the unsharded service path) keep
        working; the two-phase path uses the full vector instead.
        """
        return sum(s.generation for s in self._shards)

    @property
    def last_commit_shard(self) -> int:
        """Shard that hosted the most recent routed commit (-1: none)."""
        return self._last_commit_shard

    def hosts(self, reservations: Iterable[Reservation]) -> list[int]:
        """The shard each of ``reservations`` was committed to on this
        staged copy by :meth:`reserve_known_feasible`.

        Matched by value; value-equal twins take their shards in commit
        order.  The service journals these ids so that a resumed run
        re-commits every placement into the shard that hosted it.
        """
        queues: dict[Reservation, list[int]] = {}
        for r, k in self._staged_hosts:
            queues.setdefault(r, []).append(k)
        return [queues[r].pop(0) for r in reservations]

    @property
    def reservations(self) -> tuple[Reservation, ...]:
        """All reservations, concatenated in shard order.

        Split external reservations appear as their per-shard pieces;
        with one shard this is the shard's list verbatim.
        """
        out: list[Reservation] = []
        for s in self._shards:
            out.extend(s.reservations)
        return tuple(out)

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def shard_of(self, reservation: Reservation) -> int | None:
        """The shard hosting ``reservation`` whole, or ``None``.

        Split external reservations live on several shards and report
        ``None``; scheduler placements are always whole-shard.
        """
        for k, s in enumerate(self._shards):
            if reservation in s.reservations:
                return k
        return None

    def availability(self) -> StepFunction:
        """The platform-wide availability profile (sum over shards).

        Cold-path convenience: per-shard profiles stay compiled
        incrementally, but the sum is rebuilt whenever any shard moved.
        Hot paths query shards through the facade methods instead.
        """
        if len(self._shards) == 1:
            return self._shards[0].availability()
        gens = self.generations
        if self._combined is None or self._combined_gens != gens:
            combined = self._shards[0].availability()
            for s in self._shards[1:]:
                combined = combined + s.availability()
            self._combined = combined
            self._combined_gens = gens
        return self._combined

    def min_available(self, t0: float, t1: float) -> int:
        """Minimum *total* free processors over ``[t0, t1)``.

        Note this is an upper bound on what one placement can use: a
        single reservation must fit wholly inside one shard.
        """
        return int(self.availability().min_over(t0, t1))

    # ------------------------------------------------------------------
    # Placement probes (fan-out / reduce)
    # ------------------------------------------------------------------

    def earliest_starts_batch(
        self,
        requests: Sequence[
            tuple[float, npt.NDArray[np.float64] | Sequence[float]]
        ],
    ) -> list[npt.NDArray[np.float64]]:
        """Earliest-start probes, one per request, fanned out over all
        shards.

        Per request ``(earliest, durations)`` the answer is, for each
        processor count ``m = 1..len(durations)``, the minimum over
        shards of the shard-local earliest start (``+inf`` where ``m``
        exceeds the shard's capacity) — the deterministic
        ``(earliest_start, shard_id)`` reduce.  Each shard answers with
        :meth:`~repro.calendar.ResourceCalendar.earliest_starts_multi`
        on the durations truncated to its capacity.  With one shard
        this is the shard's own batch verbatim (same arrays).
        """
        if len(self._shards) == 1:
            return self._shards[0].earliest_starts_batch(requests)
        out: list[npt.NDArray[np.float64]] = []
        for earliest, durations in requests:
            d = checked_durations(durations, self.capacity)
            legs: list[npt.NDArray[np.float64]] = []
            for s in self._shards:
                starts = np.full(d.size, np.inf)
                n = min(d.size, s.capacity)
                starts[:n] = s.earliest_starts_multi(float(earliest), d[:n])
                legs.append(starts)
            out.append(np.minimum.reduce(legs))
        if _obs.ENABLED:
            _obs.incr("shard.probes", len(self._shards) * len(out))
        return out

    def earliest_completion(
        self,
        earliest: float,
        durations: npt.NDArray[np.float64] | Sequence[float],
        tie_break: str = "fewest",
        *,
        probed: list[ProbedCount] | None = None,
    ) -> tuple[float, int]:
        """The ``(start, nprocs)`` completing earliest on any one shard.

        Fans out one :meth:`ResourceCalendar.earliest_completion` leg
        per shard (the shard's kernel on the facade's sorted request;
        counts beyond the shard capacity are skipped) and reduces the
        legs by ``(completion, nprocs in tie-break direction, start)``.
        That is the unsharded decision over the
        ``(earliest_start, shard_id)``-reduced starts of
        :meth:`earliest_starts_batch`: rounded float addition is
        monotone, so a count's completion is the minimum of its
        per-shard completions, and each leg's winner is the tie-break
        winner among its own counts.  The start has to be in the key
        because two shards' different starts can round to the same
        completion; the smaller is the reduced start.  Each leg is
        handed the best leg so far and only answers when it can match
        it, which prunes most of the later shards.  With one shard this
        is the shard's own kernel verbatim.
        """
        if len(self._shards) == 1:
            return self._shards[0].earliest_completion(
                earliest, durations, tie_break, probed=probed
            )
        d = checked_durations(durations, self.capacity)
        e = float(earliest)
        if tie_break not in ("fewest", "most"):
            raise CalendarError(
                f"tie_break must be 'fewest' or 'most', got {tie_break!r}"
            )
        fewest = tie_break == "fewest"
        plan = completion_order(e, d, fewest)
        sign = 1 if fewest else -1
        # Reduce key per leg: (completion, signed count, start).
        best: tuple[float, int, float] | None = None
        traces: list[list[ProbedCount] | None] = []
        for s in self._shards:
            beat = None if best is None else (best[0], sign * best[1])
            trace: list[ProbedCount] | None = None if probed is None else []
            answer = s._earliest_completion(e, plan, fewest, trace, beat)
            traces.append(trace)
            best = _better_leg(best, answer, d, sign)
        assert best is not None  # shard 0 hosts at least one processor
        finish, signed_m, start = best
        m = sign * signed_m
        if probed is not None:
            probed.extend(_merge_probed(d.size, traces, m, start, finish))
        if _obs.ENABLED:
            _obs.incr("shard.probes", len(self._shards))
        return start, m

    def probe_shards(
        self,
        requests: Sequence[
            tuple[float, npt.NDArray[np.float64] | Sequence[float]]
        ],
    ) -> list[npt.NDArray[np.float64]]:
        """Heterogeneous fan-out: one ``(earliest, durations)`` request
        *per shard*, answered by that shard alone (no reduce).

        The multi-cluster seed uses this: each cluster-shard probes its
        own cluster-specific execution-time vector, and the caller
        applies its own completion-time reduce across the answers.
        """
        if len(requests) != len(self._shards):
            raise CalendarError(
                f"probe_shards needs one request per shard "
                f"({len(self._shards)}), got {len(requests)}"
            )
        out: list[npt.NDArray[np.float64]] = []
        for k, (earliest, durations) in enumerate(requests):
            if _tl.ENABLED:
                _tl.push_shard(k)
            try:
                out.append(
                    self._shards[k].earliest_starts_multi(
                        float(earliest), durations
                    )
                )
            finally:
                if _tl.ENABLED:
                    _tl.pop_shard()
        if _obs.ENABLED:
            _obs.incr("shard.probes", len(self._shards))
        return out

    def earliest_start(
        self, earliest: float, duration: float, nprocs: int
    ) -> float:
        """Earliest start for a single-shard-hostable placement: the
        ``(earliest_start, shard_id)`` reduce over scalar probes."""
        if len(self._shards) == 1:
            return self._shards[0].earliest_start(earliest, duration, nprocs)
        best = np.inf
        eligible = False
        for s in self._shards:
            if nprocs > s.capacity:
                continue
            eligible = True
            t = s.earliest_start(earliest, duration, nprocs)
            if t < best:
                best = t
        if not eligible:
            raise CalendarError(
                f"no shard can host {nprocs} processors (largest shard "
                f"has {max(s.capacity for s in self._shards)})"
            )
        if _obs.ENABLED:
            _obs.incr("shard.probes", len(self._shards))
        return float(best)

    # ------------------------------------------------------------------
    # Commits
    # ------------------------------------------------------------------

    def reserve_known_feasible(
        self, start: float, duration: float, nprocs: int, label: str = ""
    ) -> Reservation:
        """Commit a probed placement into its hosting shard.

        Routes to the first (lowest-id) shard whose availability covers
        the window — exactly the shard the probe reduce's
        ``(earliest_start, shard_id)`` tie-break selected, since
        availability only decreases between a probe and its commit.
        """
        if len(self._shards) == 1:
            return self._routed(0, start, duration, nprocs, label)
        end = start + duration
        for k, s in enumerate(self._shards):
            if nprocs <= s.capacity and (
                s.availability().min_over(start, end) >= nprocs
            ):
                if _obs.ENABLED:
                    _obs.incr("shard.commits")
                return self._routed(k, start, duration, nprocs, label)
        raise CalendarError(
            f"placement [{start}, {end}) x{nprocs} fits no shard — it was "
            "not derived from this calendar's current state"
        )

    def _routed(
        self, k: int, start: float, duration: float, nprocs: int, label: str
    ) -> Reservation:
        """Known-feasible commit into shard ``k``, the routing target."""
        r = self._shards[k].reserve_known_feasible(
            start, duration, nprocs, label
        )
        self._touched.add(k)
        self._last_commit_shard = k
        if self._parent is not None:
            self._staged_hosts.append((r, k))
        return r

    def reserve_in(
        self,
        shard: int,
        start: float,
        duration: float,
        nprocs: int,
        label: str = "",
    ) -> Reservation:
        """Strict ``reserve`` routed to an explicit shard (multi-cluster
        commits, where the caller's reduce already picked the shard)."""
        r = self._shards[shard].reserve(start, duration, nprocs, label=label)
        self._touched.add(shard)
        self._last_commit_shard = shard
        if _obs.ENABLED:
            _obs.incr("shard.commits")
        return r

    def add_to_shard(self, shard: int, reservation: Reservation) -> None:
        """Strictly add ``reservation`` to one explicit shard.

        The service's sharded downtime faults use this to take capacity
        out of a specific shard; the strict ``CalendarError`` on
        overflow drives its revocation loop, exactly like the unsharded
        ``add``.
        """
        self._shards[shard].add(reservation)
        self._touched.add(shard)
        self._pieces.pop(_res_key(reservation), None)

    def remove_from_shard(self, shard: int, reservation: Reservation) -> None:
        """Remove a value-equal reservation from one explicit shard.

        The service's sharded revocation loop frees capacity on the
        contested shard specifically; the shard raises
        :class:`~repro.errors.CalendarError` when nothing matches.
        """
        self._shards[shard].remove(reservation)
        self._touched.add(shard)

    def add(self, reservation: Reservation) -> None:
        """Water-fill an external reservation across the shards.

        Whole-interval pieces are taken first, starting from a rotating
        shard so load spreads; any remainder is time-sliced at the union
        of shard availability breakpoints.  Raises
        :class:`~repro.errors.CalendarError` iff total free capacity is
        exceeded at some instant — the same condition under which the
        strict unsharded ``add`` raises.  All-or-nothing: on failure no
        shard is mutated.
        """
        if len(self._shards) == 1:
            self._shards[0].add(reservation)
            self._touched.add(0)
            return
        rot = self._fill_rot
        pieces = self._fill_pieces(reservation, rot)
        self._commit_pieces(reservation, pieces)
        self._fill_rot = (rot + 1) % len(self._shards)

    def _fill_pieces(
        self, r: Reservation, rot: int
    ) -> list[tuple[int, Reservation]]:
        """Plan the per-shard pieces for one external reservation."""
        n = len(self._shards)
        need = r.nprocs
        pieces: list[tuple[int, Reservation]] = []
        taken = [0] * n
        # Phase A: whole-interval pieces, rotating start shard.
        for j in range(n):
            k = (rot + j) % n
            free = int(self._shards[k].availability().min_over(r.start, r.end))
            if free <= 0:
                continue
            take = min(need, free)
            pieces.append(
                (
                    k,
                    Reservation(
                        start=r.start, end=r.end, nprocs=take, label=r.label
                    ),
                )
            )
            taken[k] = take
            need -= take
            if need == 0:
                return pieces
        # Phase B: the interval minimums under-count staggered slack —
        # time-slice the remainder at the union of shard breakpoints.
        cuts = {r.start, r.end}
        for s in self._shards:
            times = s.availability().times
            inside = times[(times > r.start) & (times < r.end)]
            cuts.update(float(t) for t in inside)
        bounds = sorted(cuts)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            slice_need = need
            for j in range(n):
                k = (rot + j) % n
                free = (
                    int(self._shards[k].availability().min_over(lo, hi))
                    - taken[k]
                )
                if free <= 0:
                    continue
                take = min(slice_need, free)
                pieces.append(
                    (
                        k,
                        Reservation(
                            start=lo, end=hi, nprocs=take, label=r.label
                        ),
                    )
                )
                slice_need -= take
                if slice_need == 0:
                    break
            if slice_need > 0:
                raise CalendarError(
                    f"reservation [{r.start}, {r.end}) x{r.nprocs} exceeds "
                    f"total free capacity over [{lo}, {hi}) by {slice_need} "
                    "processors"
                )
        return pieces

    def _commit_pieces(
        self, r: Reservation, pieces: list[tuple[int, Reservation]]
    ) -> None:
        """Apply planned pieces all-or-nothing and record the split."""
        committed: list[tuple[int, Reservation]] = []
        try:
            for k, piece in pieces:
                self._shards[k].add(piece)
                committed.append((k, piece))
        except CalendarError:
            for k, piece in committed:
                self._shards[k].remove(piece)
            raise
        for k, _ in pieces:
            self._touched.add(k)
        if len(pieces) != 1 or pieces[0][1] != r:
            key = _res_key(r)
            self._pieces[key] = pieces
            if self._parent is not None:
                self._pieces_added[key] = pieces
                self._pieces_removed.discard(key)

    def remove(self, reservation: Reservation) -> None:
        """Remove a reservation (or its water-filled pieces).

        Whole reservations are removed from the lowest shard holding a
        value-equal entry; split external reservations are resolved
        through the piece map.  Raises
        :class:`~repro.errors.CalendarError` when nothing matches.
        """
        key = _res_key(reservation)
        pieces = self._pieces.get(key)
        if pieces is not None:
            for k, piece in pieces:
                self._shards[k].remove(piece)
                self._touched.add(k)
            del self._pieces[key]
            if self._parent is not None:
                self._pieces_removed.add(key)
                self._pieces_added.pop(key, None)
            return
        for k, s in enumerate(self._shards):
            if reservation in s.reservations:
                s.remove(reservation)
                self._touched.add(k)
                return
        raise CalendarError(
            f"reservation {reservation!r} is not booked on any shard"
        )

    def reserve(
        self, start: float, duration: float, nprocs: int, label: str = ""
    ) -> Reservation:
        """Create, water-fill, and return an external reservation."""
        r = Reservation(
            start=start, end=start + duration, nprocs=nprocs, label=label
        )
        self.add(r)
        return r

    # ------------------------------------------------------------------
    # Two-phase cross-shard commit
    # ------------------------------------------------------------------

    def copy(self) -> "ShardedCalendar":
        """A staged copy for tentative scheduling.

        The copy records the per-shard generation vector as its CAS
        token and tracks every shard it writes to; hand it back to the
        base via :meth:`validate_commit` / :meth:`commit`.
        """
        dup = ShardedCalendar([s.copy() for s in self._shards])
        dup._pieces = dict(self._pieces)
        dup._fill_rot = self._fill_rot
        dup._parent = self
        dup._tokens = self.generations
        return dup

    def validate_commit(self, staged: "ShardedCalendar") -> None:
        """Phase 1: raise unless every *touched* shard leg is current.

        Only the shards ``staged`` wrote to are compared against the
        live generation vector; a conflict aborts exactly those legs
        (:class:`~repro.errors.ShardCommitError` names them) and leaves
        everything untouched.
        """
        if staged._parent is not self:
            raise CalendarError(
                "staged calendar was not copied from this calendar"
            )
        stale = tuple(
            k
            for k in sorted(staged._touched)
            if self._shards[k].generation != staged._tokens[k]
        )
        if stale:
            if _obs.ENABLED:
                _obs.incr("shard.aborts", len(stale))
            raise ShardCommitError(
                f"shard generation(s) moved since staging: "
                f"{', '.join(str(k) for k in stale)}",
                stale_shards=stale,
            )

    def commit(self, staged: "ShardedCalendar") -> None:
        """Phase 2: validate, then swap the touched shard legs in.

        Untouched shards keep the base's (possibly newer, fault-driven)
        state — the staged copy's read snapshots of them are discarded,
        which is exactly the write-set conflict rule
        :meth:`validate_commit` enforces.
        """
        self.validate_commit(staged)
        for k in sorted(staged._touched):
            self._shards[k] = staged._shards[k]
        for key in staged._pieces_removed:
            self._pieces.pop(key, None)
        self._pieces.update(staged._pieces_added)
        self._fill_rot = staged._fill_rot
        if _obs.ENABLED:
            _obs.incr("shard.commits", len(staged._touched))

    def __repr__(self) -> str:
        caps = ",".join(str(s.capacity) for s in self._shards)
        return (
            f"ShardedCalendar(n_shards={len(self._shards)}, caps=[{caps}], "
            f"reservations={len(self)})"
        )
