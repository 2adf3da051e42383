"""Deterministic, crash-tolerant execution of instance streams.

Every table driver and the repair-policy study do one job: enumerate a
fully deterministic instance stream (:mod:`repro.experiments.runner`),
run an independent, instance-local computation on each element, and
fold the results in global index order.  :func:`run_sweep` is the one
driver for that job.  It runs inline at ``n_workers=1`` and otherwise
fans out over a :class:`~concurrent.futures.ProcessPoolExecutor`, keeping
the results **bitwise identical at any worker count**:

* The stream is never pickled.  Each worker receives only the stream
  *factory*, its arguments (an :class:`ExperimentScale` is a small frozen
  dataclass), a chunk id, and the chunk count; it regenerates the stream
  locally and processes the instances whose global index ``idx`` satisfies
  ``idx % n_chunks == chunk``.  Streams derive every random object from
  the scale's seed and a structural key, so regeneration is exact.
* Workers return ``(idx, scenario_key, result, obs)`` entries; the parent
  folds all chunks **sorted by global index**, so float accumulation
  order — and therefore every summary statistic — is identical to the
  serial run.
* Logs are materialized inside each worker as a pure function of
  ``(log_name, seed)`` (:func:`repro.experiments.runner._cached_log`), so
  no multi-megabyte job tuples cross the process boundary.
* When :mod:`repro.obs` instrumentation is enabled, each instance's
  counters/histograms/spans are collected into a **per-instance**
  collector (in the worker) and merged into the parent's ambient
  collector **sorted by global index**.  Integer aggregates (counters,
  bucket counts, span counts) are associative and the float sums see the
  identical fold order, so the merged instrumentation — like the results
  themselves — is bitwise-stable at any worker count.  Records emitted
  while *generating* the stream (scenario calendars compile during
  iteration) are discarded on every path: each worker regenerates the
  whole stream, so keeping them would double-count by ``n_workers``;
  the serial path drops them too so serial and parallel aggregates
  match exactly.

Every instance runs guarded: one that times out (SIGALRM inside the
worker, when :class:`FaultTolerance` sets a timeout), raises, or crashes
its worker is quarantined instead of aborting the sweep.  A chunk lost
to a dead worker is retried against a fresh pool with exponential
backoff, then isolated instance by instance, so only the crashing
instance is lost.  An optional JSON-lines journal checkpoints every
finished instance so an interrupted sweep resumes where it stopped.
Completed instances keep the bitwise-identical-at-any-worker-count
guarantee whichever path (fresh run, retry, resume) produced them.

The table drivers accept no lost instance: they read a sweep's results
through :meth:`SweepOutcome.require_complete`, which raises one
:class:`~repro.errors.ExecutionError` naming every quarantined instance
once the sweep has finished.  The repair-policy study
(:mod:`repro.experiments.resilience`) reports its quarantines instead.
"""

from __future__ import annotations

import atexit
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ExecutionError, GenerationError
from repro.experiments.runner import InstanceStream
from repro.jsonlog import JsonLinesLog, encode_payload
from repro.obs import core as _obs

#: An instance-level computation: ``work(inst, **kwargs) -> result``.
#: Must be a module-level function (workers import it by reference).
InstanceWork = Callable[..., Any]

#: A stream factory: ``factory(*args) -> Iterator[InstanceStream]``.
StreamFactory = Callable[..., Iterator[InstanceStream]]


#: Long-lived pools, keyed by worker count.  Worker startup (fork plus
#: copy-on-write page-table setup for a NumPy-sized parent) costs tens of
#: milliseconds per worker, so table drivers called repeatedly — the
#: benchmark harness, sweeps over scales — share one pool per count
#: instead of re-forking every call.  Workers hold a fork-time snapshot
#: of module globals; flip module-level switches (e.g.
#: ``repro.cpa.allocation.MEMOIZE_ALLOCATIONS``) before the first
#: parallel call, or call :func:`shutdown_pools` to force fresh workers.
_POOLS: dict[int, ProcessPoolExecutor] = {}


def _pool(n_workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(n_workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=n_workers)
        _POOLS[n_workers] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down all cached worker pools (new calls fork fresh workers)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown()


atexit.register(shutdown_pools)


def _collected_call(
    work: InstanceWork, inst: InstanceStream, kwargs: dict[str, Any]
) -> tuple[Any, dict[str, Any] | None]:
    """Run ``work`` on one instance, capturing its instrumentation.

    Returns ``(result, obs_snapshot)``; the snapshot is None when
    instrumentation is disabled.  Collecting per instance (rather than
    per worker) is what makes the aggregates independent of how
    instances are sliced into chunks.
    """
    if not _obs.ENABLED:
        return work(inst, **kwargs), None
    with _obs.collecting() as col:
        result = work(inst, **kwargs)
    return result, col.to_dict()


class _InstanceTimeout(Exception):
    """Raised by the SIGALRM handler guarding one instance."""


@contextmanager
def _alarm(seconds: float | None):
    """Raise :class:`_InstanceTimeout` after ``seconds`` of wall time.

    No-op when ``seconds`` is falsy, on platforms without ``SIGALRM``,
    or off the main thread (signals only deliver there).  Any previously
    armed real-timer (e.g. a test-suite-level timeout) is restored with
    its remaining time on exit, so nested timers compose.
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _handler(signum, frame):
        raise _InstanceTimeout()

    old_handler = signal.signal(signal.SIGALRM, _handler)
    t0 = time.monotonic()
    prev_delay, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)
        if prev_delay:
            remaining = prev_delay - (time.monotonic() - t0)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.001))


class _Quarantined:
    """In-band marker: this instance was quarantined, not computed."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason


def _guarded_call(
    work: InstanceWork,
    idx: int,
    inst: InstanceStream,
    kwargs: dict[str, Any],
    timeout: float | None,
) -> tuple[int, str, Any, dict[str, Any] | None]:
    """Run one instance under a timeout; a failure comes back as a
    :class:`_Quarantined` result instead of poisoning the sweep.

    Returns the instance's ``(idx, scenario_key, result, obs_snapshot)``
    entry.  ``KeyboardInterrupt``/``SystemExit`` still propagate.
    """
    try:
        with _alarm(timeout):
            result, snap = _collected_call(work, inst, kwargs)
    except _InstanceTimeout:
        result, snap = _Quarantined(f"timed out after {timeout:g}s"), None
    except Exception as exc:  # noqa: BLE001  # lint: ignore[REP005] — worker isolation boundary: any failure quarantines the instance, never crashes the sweep
        result, snap = _Quarantined(f"{type(exc).__name__}: {exc}"), None
    return idx, inst.scenario_key, result, snap


def _run_chunk(
    work: InstanceWork,
    factory: StreamFactory,
    factory_args: tuple,
    chunk: int,
    n_chunks: int,
    kwargs: dict[str, Any],
    obs_enabled: bool,
    timeout: float | None,
    skip: frozenset[int],
) -> list[tuple[int, str, Any, dict[str, Any] | None]]:
    """Worker body: regenerate the stream and run one residue class,
    each instance under :func:`_guarded_call`; ``skip`` drops the
    instances a resumed journal already holds."""
    # Pool workers hold a fork-time snapshot of module globals; align the
    # instrumentation switch with the parent explicitly so enabling obs
    # after the pool forked still collects (and vice versa).
    _obs.ENABLED = obs_enabled
    # The chunk-level collector swallows stream-generation records (every
    # worker regenerates the full stream, so they must not be shipped) and
    # keeps long-lived pool workers from accumulating ambient state.
    with _obs.collecting():
        return [
            _guarded_call(work, idx, inst, kwargs, timeout)
            for idx, inst in enumerate(factory(*factory_args))
            if idx % n_chunks == chunk and idx not in skip
        ]


def _run_single(
    work: InstanceWork,
    factory: StreamFactory,
    factory_args: tuple,
    idx: int,
    kwargs: dict[str, Any],
    obs_enabled: bool,
    timeout: float | None,
) -> tuple[int, str, Any, dict[str, Any] | None]:
    """Worker body for the isolation path: one guarded instance."""
    _obs.ENABLED = obs_enabled
    with _obs.collecting():
        for i, inst in enumerate(factory(*factory_args)):
            if i == idx:
                return _guarded_call(work, idx, inst, kwargs, timeout)
    raise ExecutionError(f"stream has no instance with index {idx}")


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultTolerance:
    """Fault-tolerance configuration for :func:`run_sweep`.

    Attributes:
        instance_timeout: Wall-clock seconds one instance may run before
            it is quarantined (None = no timeout).
        max_chunk_retries: Times a chunk lost to a worker crash is
            retried whole (with a fresh pool) before falling back to
            per-instance isolation.
        retry_backoff_s: Sleep before the first chunk retry; doubles per
            retry.
        journal: Path of a JSON-lines checkpoint journal.  Completed and
            quarantined instances are appended as they finish; a later
            ``run_sweep`` with the same journal skips them and merges
            their recorded results, yielding output identical to an
            uninterrupted run.
    """

    instance_timeout: float | None = None
    max_chunk_retries: int = 2
    retry_backoff_s: float = 0.25
    journal: str | None = None


@dataclass(frozen=True)
class QuarantinedInstance:
    """One instance the sweep gave up on, and why."""

    idx: int
    scenario_key: str
    reason: str


@dataclass
class SweepOutcome:
    """Everything a sweep produced.

    Attributes:
        results: ``(scenario_key, result)`` pairs of completed instances
            in global stream order.
        quarantined: Instances that timed out, raised, or died with
            their worker, in global stream order.
        resumed: Instances loaded from the journal instead of computed.
    """

    results: list[tuple[str, Any]]
    quarantined: list[QuarantinedInstance] = field(default_factory=list)
    resumed: int = 0

    def require_complete(self) -> list[tuple[str, Any]]:
        """:attr:`results`, for a sweep that lost no instance.

        Raises:
            ExecutionError: If any instance was quarantined; the message
                names the index, scenario key and reason of each.
        """
        if self.quarantined:
            raise ExecutionError(
                f"{len(self.quarantined)} instance(s) of the sweep failed: "
                + "; ".join(
                    f"#{q.idx} [{q.scenario_key}]: {q.reason}"
                    for q in self.quarantined
                )
            )
        return self.results


class _Journal:
    """Append-only JSON-lines checkpoint of a sweep.

    One record per line: a header, then ``result`` / ``quarantine``
    records as instances finish.  A crash may tear the last write: the
    torn final line is skipped and cut off before the next append; an
    undecodable line with records after it raises
    (:mod:`repro.jsonlog`).  Loading also refuses a header of another
    format or version, a record of an unknown type, and a record
    missing a field its type needs.
    """

    _FORMAT = "repro-sweep-journal"
    _VERSION = 1
    #: The fields each record type needs; ``idx`` must be an integer.
    _FIELDS = {
        "result": ("idx", "key", "payload"),
        "quarantine": ("idx", "key", "reason"),
    }

    def __init__(self, path: str) -> None:
        self.path = path
        self._log = JsonLinesLog(path, ExecutionError, "sweep journal")

    def load(
        self,
    ) -> tuple[dict[int, tuple[str, Any, dict | None]], dict[int, QuarantinedInstance]]:
        done: dict[int, tuple[str, Any, dict | None]] = {}
        quarantined: dict[int, QuarantinedInstance] = {}
        records = self._log.load()
        if not records:
            self._log.append({"format": self._FORMAT, "version": self._VERSION})
            return done, quarantined
        header = records[0]
        if header.get("format") != self._FORMAT:
            raise ExecutionError(
                f"{self.path}: unexpected journal format {header.get('format')!r}"
            )
        if header.get("version") != self._VERSION:
            raise ExecutionError(
                f"{self.path}: journal version {header.get('version')!r} "
                f"cannot be resumed by journal version {self._VERSION}"
            )
        for lineno, rec in enumerate(records[1:], 2):
            kind = rec.get("type")
            need = self._FIELDS.get(kind)
            if need is None:
                raise ExecutionError(
                    f"{self.path}: line {lineno}: unknown record type {kind!r}"
                )
            if any(f not in rec for f in need) or type(rec["idx"]) is not int:
                raise ExecutionError(
                    f"{self.path}: line {lineno}: a {kind} record needs the "
                    f"fields {', '.join(need)}, with an integer idx"
                )
            if kind == "result":
                done[rec["idx"]] = (
                    rec["key"],
                    self._log.decode_payload(rec["payload"], lineno),
                    rec.get("obs"),
                )
            else:
                quarantined[rec["idx"]] = QuarantinedInstance(
                    idx=rec["idx"], scenario_key=rec["key"], reason=rec["reason"],
                )
        return done, quarantined

    def result(self, idx: int, key: str, result: Any, snap: dict | None) -> None:
        self._log.append({
            "type": "result", "idx": idx, "key": key,
            "payload": encode_payload(result), "obs": snap,
        })

    def quarantine(self, q: QuarantinedInstance) -> None:
        self._log.append({
            "type": "quarantine", "idx": q.idx, "key": q.scenario_key,
            "reason": q.reason,
        })


def run_sweep(
    work: InstanceWork,
    factory: StreamFactory,
    factory_args: tuple,
    *,
    n_workers: int = 1,
    work_kwargs: dict[str, Any] | None = None,
    fault_tolerance: FaultTolerance | None = None,
) -> SweepOutcome:
    """Apply ``work`` to every instance of a stream, possibly in parallel.

    Instances that time out, raise, or crash their worker are
    quarantined instead of aborting the sweep; chunks lost to a dead
    worker are retried against a fresh pool with exponential backoff,
    then isolated instance by instance so only the pathological
    instance is lost; and an optional journal checkpoints every
    finished instance so an interrupted sweep resumes where it stopped.

    Args:
        work: Instance-level computation (module-level function).
        factory: Stream factory (module-level function); called as
            ``factory(*factory_args)`` inline, or in every worker.
        factory_args: Arguments for the factory; must pickle when
            ``n_workers > 1``.
        n_workers: Process count.  1 (default) runs inline with no pool.
        work_kwargs: Extra keyword arguments for ``work``; must pickle.
        fault_tolerance: Timeouts, chunk retries and the journal
            (default :class:`FaultTolerance`: no timeout, no journal).

    Returns:
        A :class:`SweepOutcome` whose results are in global stream
        order and bitwise-identical at any worker count, with or
        without resume.
    """
    if n_workers < 1:
        raise GenerationError(f"n_workers must be >= 1, got {n_workers}")
    ft = fault_tolerance or FaultTolerance()
    kwargs = work_kwargs or {}
    journal = _Journal(ft.journal) if ft.journal else None
    done: dict[int, tuple[str, Any, dict | None]] = {}
    quarantined: dict[int, QuarantinedInstance] = {}
    if journal is not None:
        done, quarantined = journal.load()
    resumed = len(done) + len(quarantined)
    resumed_quarantined = len(quarantined)
    if resumed and _obs.ENABLED:
        _obs.incr("harness.resumed", resumed)

    def _absorb(idx: int, key: str, result: Any, snap: dict | None) -> None:
        if isinstance(result, _Quarantined):
            q = QuarantinedInstance(idx=idx, scenario_key=key, reason=result.reason)
            quarantined[idx] = q
            if journal is not None:
                journal.quarantine(q)
        else:
            done[idx] = (key, result, snap)
            if journal is not None:
                journal.result(idx, key, result, snap)

    skip = frozenset(done) | frozenset(quarantined)
    if n_workers == 1:
        # Inline path: stream-generation records are discarded exactly
        # like the workers do.
        with _obs.collecting():
            for idx, inst in enumerate(factory(*factory_args)):
                if idx not in skip:
                    _absorb(*_guarded_call(work, idx, inst, kwargs, ft.instance_timeout))
    else:
        pending: list[tuple[int, int]] = [(chunk, 0) for chunk in range(n_workers)]
        while pending:
            batch, pending = pending, []
            pool = _pool(n_workers)
            futures = {
                pool.submit(
                    _run_chunk, work, factory, factory_args, chunk, n_workers,
                    kwargs, _obs.ENABLED, ft.instance_timeout, skip,
                ): (chunk, tries)
                for chunk, tries in batch
            }
            broken: list[tuple[int, int]] = []
            for fut, (chunk, tries) in futures.items():
                try:
                    for entry in fut.result():
                        _absorb(*entry)
                except BrokenProcessPool:
                    broken.append((chunk, tries))
            if not broken:
                continue
            # A dead worker poisons the whole pool; fork a fresh one and
            # retry the lost chunks (their results never arrived, so
            # nothing is double-counted).
            _POOLS.pop(n_workers, None)
            for chunk, tries in broken:
                if tries < ft.max_chunk_retries:
                    if _obs.ENABLED:
                        _obs.incr("harness.chunk_retries")
                    time.sleep(ft.retry_backoff_s * (2 ** tries))
                    pending.append((chunk, tries + 1))
                else:
                    _isolate_chunk(
                        work, factory, factory_args, chunk, n_workers,
                        kwargs, skip, ft, _absorb,
                    )

    # Counted here, in the caller's collector: the inline loop runs
    # inside the collector that discards stream-generation records.
    if len(quarantined) > resumed_quarantined and _obs.ENABLED:
        _obs.incr("harness.quarantined", len(quarantined) - resumed_quarantined)
    # Fold results and instrumentation in global index order — identical
    # to the serial, parallel, and resumed paths alike.
    ambient = _obs.current()
    for idx in sorted(done):
        snap = done[idx][2]
        if snap is not None:
            ambient.merge(snap)
    return SweepOutcome(
        results=[(done[idx][0], done[idx][1]) for idx in sorted(done)],
        quarantined=[quarantined[idx] for idx in sorted(quarantined)],
        resumed=resumed,
    )


def _isolate_chunk(
    work: InstanceWork,
    factory: StreamFactory,
    factory_args: tuple,
    chunk: int,
    n_chunks: int,
    kwargs: dict[str, Any],
    skip: frozenset[int],
    ft: FaultTolerance,
    absorb: Callable[[int, str, Any, dict | None], None],
) -> None:
    """Last resort for a chunk that keeps killing workers: submit its
    instances one at a time, so a crash condemns exactly one instance
    (quarantined with a worker-death reason) and the rest survive."""
    targets: list[tuple[int, str]] = []
    with _obs.collecting():  # discard parent-side stream-generation records
        for idx, inst in enumerate(factory(*factory_args)):
            if idx % n_chunks == chunk and idx not in skip:
                targets.append((idx, inst.scenario_key))
    for idx, key in targets:
        pool = _pool(n_chunks)
        future = pool.submit(
            _run_single, work, factory, factory_args, idx, kwargs,
            _obs.ENABLED, ft.instance_timeout,
        )
        try:
            absorb(*future.result())
        except BrokenProcessPool:
            _POOLS.pop(n_chunks, None)
            absorb(idx, key, _Quarantined("worker process died"), None)
