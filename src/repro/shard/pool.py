"""Process-pool probe fan-out for :class:`~repro.shard.ShardedCalendar`.

Extends the crash-tolerant parallel runner idea of
:mod:`repro.experiments.parallel` from "fan out instances" to "fan out
shards": the per-shard legs of one placement probe (an earliest-
completion query or a batched earliest-start query) are answered by
worker processes, each holding a full replica of the shard set.

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

import numpy as np
import numpy.typing as npt

from repro.calendar import ProbedCount, Reservation, ResourceCalendar
from repro.calendar import calendar as _calmod
from repro.calendar.calendar import CompletionOrder
from repro.errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (typing only)
    from repro.shard.calendar import ShardedCalendar

__all__ = ["CompletionLeg", "ShardProbePool", "completion_leg", "probe_leg"]

#: Frame header: unsigned 64-bit big-endian payload length.
_LEN = struct.Struct(">Q")

#: A facade mutation op, as appended to the log.
_Op = tuple[Any, ...]

#: Serialized shard: (capacity, clamp, ((start, end, nprocs, label), ...)).
_ShardState = tuple[int, bool, tuple[tuple[float, float, int, str], ...]]

#: Calendar tuning gates shipped inside every ``snap`` frame: the bench
#: harness and experiment drivers rebind these at runtime, so a worker
#: that kept its import-time defaults would answer probes under a
#: different configuration than the owner.  Snapshot frames carry the
#: owner's values and the replay applies them before rebuilding, which
#: keeps every worker a pure function of the log (REP008).
_GATES = (
    "INCREMENTAL_COMMITS",
    "USE_INDEX",
    "INDEX_MIN_SEGMENTS",
    "BATCH_WINDOW_SEGMENTS",
    "VALIDATE_COMMITS",
)

#: Gate values in :data:`_GATES` order.
_GateState = tuple[bool, bool, int, int, bool]


def _gate_state() -> _GateState:
    return (
        _calmod.INCREMENTAL_COMMITS,
        _calmod.USE_INDEX,
        _calmod.INDEX_MIN_SEGMENTS,
        _calmod.BATCH_WINDOW_SEGMENTS,
        _calmod.VALIDATE_COMMITS,
    )


def probe_leg(
    shard: ResourceCalendar,
    reqs: list[tuple[float, npt.NDArray[np.float64]]],
) -> list[npt.NDArray[np.float64]]:
    """One shard's leg of a fanned-out batch probe.

    Truncates each durations vector to the shard capacity and pads the
    answer back to full length with ``+inf`` — the exact transformation
    :meth:`ShardedCalendar.earliest_starts_batch` applies serially, so
    worker answers are interchangeable with serial answers.
    """
    cap = shard.capacity
    truncated = [(e, d if d.size <= cap else d[:cap]) for e, d in reqs]
    answers = shard.earliest_starts_batch(truncated, prechecked=True)
    out: list[npt.NDArray[np.float64]] = []
    for (_, d), starts in zip(reqs, answers):
        if starts.size < d.size:
            padded = np.full(d.size, np.inf)
            padded[: starts.size] = starts
            starts = padded
        out.append(starts)
    return out


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
    kind: str,
    args: tuple[Any, ...],
) -> dict[int, Any]:
    """Answer one probe kind's legs for ``shard_ids``."""
    if kind == "probe":
        return {k: probe_leg(shards[k], *args) for k in shard_ids}
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
        _, state, gates = op
        # Adopt the owner's calendar gates before rebuilding so the
        # replica compiles and probes under the same configuration.
        (
            _calmod.INCREMENTAL_COMMITS,
            _calmod.USE_INDEX,
            _calmod.INDEX_MIN_SEGMENTS,
            _calmod.BATCH_WINDOW_SEGMENTS,
            _calmod.VALIDATE_COMMITS,
        ) = gates
        return _build_replica(state)
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
    kind: str,
    args: tuple[Any, ...],
) -> dict[int, Any]:
    """Answer the probe legs for ``shard_ids`` against the synced replica."""
    return _run_legs(_sync_replica(log_path, upto), shard_ids, kind, args)


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
        """Reseed the replicas with the calendar's full current state
        (shard contents plus the owner's calendar tuning gates)."""
        self._append(("snap", _snapshot_state(calendar.shards), _gate_state()))

    # -- probes ---------------------------------------------------------

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._n_workers)
        return self._pool

    def _fan_out(self, kind: str, args: tuple[Any, ...]) -> list[Any]:
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
                        _worker_legs, self._log_path, self._offset, ids,
                        kind, args,
                    )
                    for ids in chunks
                ]
                merged: dict[int, Any] = {}
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
            list(self._calendar.shards), tuple(range(n_shards)), kind, args
        )
        return [merged[k] for k in range(n_shards)]

    def probe(
        self, reqs: list[tuple[float, npt.NDArray[np.float64]]]
    ) -> list[list[npt.NDArray[np.float64]]]:
        """Batch-probe legs (:func:`probe_leg`), per shard by id."""
        return self._fan_out("probe", (reqs,))

    def complete(
        self, earliest: float, plan: CompletionOrder, fewest: bool, trace: bool
    ) -> list[CompletionLeg]:
        """Earliest-completion legs (:func:`completion_leg`), per shard
        by id."""
        return self._fan_out("complete", (earliest, plan, fewest, trace))

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
