"""Process-pool probe fan-out for :class:`~repro.shard.ShardedCalendar`.

Extends the crash-tolerant parallel runner idea of
:mod:`repro.experiments.parallel` from "fan out instances" to "fan out
shards": the per-shard legs of one earliest-completion probe are
answered by worker processes, each holding a full replica of the shard
set.

Replication is a **commit log**, not shared memory: the pool owner
appends every facade mutation (known-feasible splice, external add,
remove, or a full snapshot after a staged leg swap) to a length-prefixed
pickle frame log on disk.  Each worker remembers the byte offset it has
applied up to and, on receiving a probe task, replays only the new
frames before answering — so any number of workers converge on the
identical shard state, and a worker that joins late (or is replaced
after a crash) simply replays from its last known offset (or the
snapshot at offset zero).

Determinism: a probe answer is a pure function of the replica state,
the replica state is a pure function of the log, and the caller merges
answers by shard id — so results are **bitwise identical at any worker
count**, including zero (the serial fallback probes the live shards
directly).  A :class:`~concurrent.futures.process.BrokenProcessPool`
is handled by rebuilding the pool once and, failing that, falling back
to the serial path — same answers either way.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any

from repro.calendar import ProbedCount, Reservation, ResourceCalendar
from repro.calendar.calendar import CompletionOrder
from repro.errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (typing only)
    from repro.shard.calendar import ShardedCalendar

__all__ = ["CompletionLeg", "ShardProbePool", "completion_leg"]

#: Frame header: unsigned 64-bit big-endian payload length.
_LEN = struct.Struct(">Q")

#: A facade mutation op, as appended to the log.
_Op = tuple[Any, ...]

#: Serialized shard: (capacity, clamp, ((start, end, nprocs, label), ...)).
_ShardState = tuple[int, bool, tuple[tuple[float, float, int, str], ...]]

#: One shard's earliest-completion answer: its ``(start, nprocs)``
#: (``None`` when nothing beat the competing leg it was given) and the
#: per-count provenance, when that was asked for.
CompletionLeg = tuple[tuple[float, int] | None, list[ProbedCount] | None]


def completion_leg(
    shard: ResourceCalendar,
    earliest: float,
    plan: CompletionOrder,
    fewest: bool,
    trace: bool,
    beat: tuple[float, int] | None = None,
) -> CompletionLeg:
    """One shard's leg of a fanned-out earliest-completion probe.

    Runs the shard's earliest-completion kernel on the facade's sorted,
    already-validated request (counts beyond the shard capacity are
    skipped — no single shard hosts more processors) against ``beat``;
    the same function serves the serial fan-out and the pool workers.
    """
    probed: list[ProbedCount] | None = [] if trace else None
    answer = shard._earliest_completion(earliest, plan, fewest, probed, beat)
    return answer, probed


def _run_legs(
    shards: list[ResourceCalendar],
    shard_ids: tuple[int, ...],
    args: tuple[Any, ...],
) -> dict[int, CompletionLeg]:
    """Answer the earliest-completion legs for ``shard_ids``."""
    return {k: completion_leg(shards[k], *args) for k in shard_ids}


def _snapshot_state(shards: tuple[ResourceCalendar, ...]) -> list[_ShardState]:
    return [
        (
            s.capacity,
            bool(getattr(s, "_clamp", False)),
            tuple((r.start, r.end, r.nprocs, r.label) for r in s.reservations),
        )
        for s in shards
    ]


def _build_replica(state: list[_ShardState]) -> list[ResourceCalendar]:
    shards = []
    for cap, clamp, res in state:
        cal = ResourceCalendar(
            cap,
            [
                Reservation(start=s, end=e, nprocs=n, label=label)
                for s, e, n, label in res
            ],
            clamp=clamp,
        )
        cal.availability()  # pre-compile, like the live shards
        shards.append(cal)
    return shards


def _apply_op(shards: list[ResourceCalendar], op: _Op) -> list[ResourceCalendar]:
    kind = op[0]
    if kind == "snap":
        return _build_replica(op[1])
    if kind == "rkf":
        _, k, start, dur, nprocs, label = op
        shards[k].reserve_known_feasible(start, dur, nprocs, label)
    elif kind == "add":
        _, k, (start, end, nprocs, label) = op
        shards[k].add(
            Reservation(start=start, end=end, nprocs=nprocs, label=label)
        )
    elif kind == "rm":
        _, k, (start, end, nprocs, label) = op
        shards[k].remove(
            Reservation(start=start, end=end, nprocs=nprocs, label=label)
        )
    else:  # pragma: no cover — frame vocabulary is closed
        raise ServiceError(f"unknown shard log op {kind!r}")
    return shards


#: Worker-side replica cache: log path -> (applied byte offset, shards).
_REPLICAS: dict[str, tuple[int, list[ResourceCalendar]]] = {}


def _sync_replica(log_path: str, upto: int) -> list[ResourceCalendar]:
    """Bring this worker's replica of ``log_path`` up to byte ``upto``."""
    offset, shards = _REPLICAS.get(log_path, (0, []))
    if offset < upto:
        with open(log_path, "rb") as fh:
            fh.seek(offset)
            while fh.tell() < upto:
                header = fh.read(_LEN.size)
                payload = fh.read(_LEN.unpack(header)[0])
                shards = _apply_op(shards, pickle.loads(payload))
            offset = fh.tell()
        _REPLICAS[log_path] = (offset, shards)
    return shards


def _worker_legs(
    log_path: str,
    upto: int,
    shard_ids: tuple[int, ...],
    args: tuple[Any, ...],
) -> dict[int, CompletionLeg]:
    """Answer the probe legs for ``shard_ids`` against the synced replica."""
    return _run_legs(_sync_replica(log_path, upto), shard_ids, args)


class ShardProbePool:
    """A persistent worker pool answering per-shard probe legs.

    Args:
        calendar: The live sharded calendar to mirror.  The pool seeds
            its log with a snapshot of the calendar's current state;
            attach it via :meth:`ShardedCalendar.attach_pool` so every
            subsequent mutation is recorded.
        n_workers: Worker processes (>= 1).  More workers than shards
            is allowed; extra workers idle.
    """

    def __init__(self, calendar: "ShardedCalendar", n_workers: int) -> None:
        if n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {n_workers}")
        self._calendar = calendar
        self._n_workers = int(n_workers)
        fd, self._log_path = tempfile.mkstemp(
            prefix="repro-shardlog-", suffix=".bin"
        )
        self._log = os.fdopen(fd, "wb")
        self._offset = 0
        self._pool: ProcessPoolExecutor | None = None
        self.record_snapshot(calendar)

    # -- log ------------------------------------------------------------

    def _append(self, op: _Op) -> None:
        payload = pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL)
        self._log.write(_LEN.pack(len(payload)))
        self._log.write(payload)

    def record(self, op: _Op) -> None:
        """Mirror one facade mutation into the replica log."""
        self._append(op)

    def record_snapshot(self, calendar: "ShardedCalendar") -> None:
        """Reseed the replicas with the calendar's full current state."""
        self._append(("snap", _snapshot_state(calendar.shards)))

    # -- probes ---------------------------------------------------------

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._n_workers)
        return self._pool

    def _fan_out(self, args: tuple[Any, ...]) -> list[CompletionLeg]:
        """Fan one probe's legs out; returns per-shard answers by id.

        Shards are dealt to ``min(n_workers, n_shards)`` chunks by
        residue class (the :mod:`repro.experiments.parallel` idiom) and
        the answers merged by shard id, so the result does not depend
        on worker count or completion order.
        """
        self._log.flush()
        self._offset = self._log.tell()
        n_shards = len(self._calendar.shards)
        n_chunks = min(self._n_workers, n_shards)
        chunks = [
            tuple(k for k in range(n_shards) if k % n_chunks == i)
            for i in range(n_chunks)
        ]
        for attempt in (0, 1):
            try:
                pool = self._executor()
                futures = [
                    pool.submit(
                        _worker_legs, self._log_path, self._offset, ids, args
                    )
                    for ids in chunks
                ]
                merged: dict[int, CompletionLeg] = {}
                for fut in futures:
                    merged.update(fut.result())
                return [merged[k] for k in range(n_shards)]
            except BrokenProcessPool:
                # A killed worker loses only its replica; the log is the
                # source of truth.  Rebuild once, then go serial.
                self._pool = None
                if attempt == 1:
                    break
        merged = _run_legs(
            list(self._calendar.shards), tuple(range(n_shards)), args
        )
        return [merged[k] for k in range(n_shards)]

    def complete(
        self, earliest: float, plan: CompletionOrder, fewest: bool, trace: bool
    ) -> list[CompletionLeg]:
        """Earliest-completion legs (:func:`completion_leg`), per shard
        by id."""
        return self._fan_out((earliest, plan, fewest, trace))

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down and delete the replica log."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if not self._log.closed:
            self._log.close()
        try:
            os.unlink(self._log_path)
        except OSError:
            pass

    def __enter__(self) -> "ShardProbePool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
