"""Hot-path performance regression harness (``repro bench``).

Times the hot paths the incremental and vectorized machinery
optimizes — calendar commit, placement queries (the earliest-completion
kernel, and scalar probes on dense calendars), the sweep-level
allocation memo, CPA allocation, and one Table-4 experiment cell —
against a **seed baseline**: the original
implementations this repository shipped with before the optimization
pass.  The baseline is reconstructed in-process by monkeypatching
faithful re-implementations of the routines whose *algorithm* changed
(the per-node NumPy-scalar level loops, the full-recompute CPA loop,
the recompile-per-commit calendar adds and the segment-walking
placement scans below, kept verbatim from the seed commit).  Both sides
of every comparison are asserted to produce identical results before
their timings are reported.

Timings use a warm-up pass plus min-of-N (the minimum is the standard
noise-robust statistic for micro-benchmarks on a shared box); the
``service_faulted_stream`` overhead ratio, two near-equal paths, is
instead the median over interleaved pairs.  Results
are written as JSON (default ``BENCH_hotpath.json`` in the current
directory) so CI can diff runs::

    repro bench                 # full run, writes BENCH_hotpath.json
    repro bench --quick         # reduced sizes, for CI smoke
    repro bench --out perf.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import repro.cpa.allocation as _allocmod
from repro.calendar import Reservation, ResourceCalendar
from repro.errors import CalendarError
from repro.cpa.allocation import (
    _CP_RTOL,
    CpaAllocation,
    allocation_caps,
    cpa_allocation,
)
from repro.dag import DagGenParams, TaskGraph, random_task_graph
from repro.experiments.scenarios import ExperimentScale
from repro.experiments.table4 import format_table4, run_table4
from repro.rng import make_rng

# ----------------------------------------------------------------------
# Seed-baseline reference implementations
# ----------------------------------------------------------------------
# Verbatim ports of the seed commit's hot-path routines, used *only* to
# measure the before/after ratio.  Do not call these outside the
# benchmark: the live implementations are in repro.dag.graph and
# repro.calendar.calendar.


def _seed_bottom_levels(self, exec_times) -> np.ndarray:
    w = np.asarray(exec_times, dtype=float)
    if w.shape != (self.n,):
        raise ValueError(
            f"exec_times must have shape ({self.n},), got {w.shape}"
        )
    bl = np.zeros(self.n)
    for i in reversed(self.topological_order):
        succ_max = max((bl[j] for j in self._succs[i]), default=0.0)
        bl[i] = w[i] + succ_max
    return bl


def _seed_top_levels(self, exec_times) -> np.ndarray:
    w = np.asarray(exec_times, dtype=float)
    if w.shape != (self.n,):
        raise ValueError(
            f"exec_times must have shape ({self.n},), got {w.shape}"
        )
    tl = np.zeros(self.n)
    for i in self.topological_order:
        pred_max = max((tl[j] + w[j] for j in self._preds[i]), default=0.0)
        tl[i] = pred_max
    return tl


def _seed_earliest_start(self, earliest, duration, nprocs) -> float:
    self._check_request(duration, nprocs)
    prof = self.availability()
    times, k = prof.times, prof.n_segments
    s = float(earliest)
    i = prof.segment_index(s)
    while True:
        window_end = s + duration
        j = i
        violated_at = None
        while True:
            lo, hi = prof.segment_bounds(j)
            if prof.segment_value(j) < nprocs and lo < window_end:
                violated_at = j
                break
            if hi >= window_end:
                break
            j += 1
        if violated_at is None:
            return s
        j = violated_at
        while j < k and prof.segment_value(j) < nprocs:
            j += 1
        if j >= k:
            raise CalendarError(
                "no feasible start found — availability never recovers "
                f"to {nprocs} processors"
            )
        s = float(times[j])
        i = j


def _seed_latest_start(
    self, latest_finish, duration, nprocs, *, earliest=-np.inf
) -> float | None:
    self._check_request(duration, nprocs)
    prof = self.availability()
    times = prof.times
    window_end = float(latest_finish)
    while True:
        s = window_end - duration
        if s < earliest:
            return None
        j = int(np.searchsorted(times, window_end, side="left")) - 1
        violated_at = None
        while True:
            lo, hi = prof.segment_bounds(j)
            if hi <= s:
                break
            if prof.segment_value(j) < nprocs:
                violated_at = j
                break
            if j < 0:
                break
            j -= 1
        if violated_at is None:
            return s
        lo, _ = prof.segment_bounds(violated_at)
        if not np.isfinite(lo):
            return None
        window_end = float(lo)


def _seed_earliest_starts_multi(
    self, earliest, durations, *, m_offset=0
) -> np.ndarray:
    d = np.asarray(durations, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise CalendarError("durations must be a non-empty 1-D array")
    if m_offset < 0:
        raise CalendarError(f"m_offset must be >= 0, got {m_offset}")
    if m_offset + d.size > self._capacity:
        raise CalendarError(
            f"durations imply up to {m_offset + d.size} processors but "
            f"capacity is {self._capacity}"
        )
    if not np.all(d > 0):
        raise CalendarError("all durations must be positive")
    prof = self.availability()
    k = prof.n_segments
    m = np.arange(m_offset + 1, m_offset + d.size + 1)
    cand = np.full(d.size, float(earliest))
    result = np.full(d.size, np.nan)
    done = np.zeros(d.size, dtype=bool)
    j = prof.segment_index(earliest)
    while True:
        lo, hi = prof.segment_bounds(j)
        v = prof.segment_value(j)
        enough = m <= v
        newly = ~done & enough & (cand + d <= hi)
        result[newly] = cand[newly]
        done |= newly
        broken = ~done & ~enough
        cand[broken] = hi
        if done.all():
            return result
        if j >= k - 1:
            raise CalendarError(
                "availability profile ended before all requests were "
                "placed — internal invariant violated"
            )
        j += 1


#: The live :meth:`ResourceCalendar.add`, kept for :func:`_seed_add`
#: (inside :func:`seed_baseline` the class attribute is the seed copy).
_live_add = ResourceCalendar.add


def _seed_add(self, reservation: Reservation) -> None:
    """The seed's ``add``: every commit drops the compiled profile and
    recompiles (on strict calendars, re-validates) it from the full
    event list."""
    self._profile = None
    _live_add(self, reservation)


def _seed_reserve_known_feasible(
    self, start: float, duration: float, nprocs: int, label: str = ""
) -> Reservation:
    """The seed had no known-feasible fast path: every commit is a
    strict :meth:`ResourceCalendar.reserve`."""
    r = Reservation(start=start, end=start + duration, nprocs=nprocs, label=label)
    _seed_add(self, r)
    return r


def _seed_earliest_completion(
    self, earliest, durations, tie_break="fewest", *, probed=None
) -> tuple[float, int]:
    """The seed's per-task decision: every count's start, then argmin."""
    d = np.asarray(durations, dtype=float)
    starts = _seed_earliest_starts_multi(self, earliest, d)
    completions = starts + d
    if tie_break == "fewest":
        j = int(np.argmin(completions))
    else:
        j = int(completions.size - 1 - np.argmin(completions[::-1]))
    if probed is not None:
        probed.extend(
            (k + 1, float(starts[k]), float(completions[k]), True)
            for k in range(d.size)
        )
    return float(starts[j]), j + 1


def _seed_cpa_allocation(
    graph: TaskGraph, q: int, stopping: str, max_iterations: int | None
) -> CpaAllocation:
    """The seed's CPA refinement loop: every iteration rescans all gains
    with NumPy and recomputes every bottom and top level.  It is also the
    oracle the differential tests hold the live loop to."""
    n = graph.n
    caps = allocation_caps(graph, q, stopping)
    exec_table = np.vstack([graph.task(i).exec_times(q) for i in range(n)])
    alloc = np.ones(n, dtype=int)
    exec_t = exec_table[:, 0].copy()
    cap = max_iterations if max_iterations is not None else n * max(q - 1, 0)
    rows = np.arange(n)
    max_col = exec_table.shape[1] - 1
    bl = graph.bottom_levels(exec_t).tolist()
    tl = graph.top_levels(exec_t).tolist()
    src_list = list(graph.sources)
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            tcp = max(map(bl.__getitem__, src_list))
            area = float((alloc * exec_t).sum()) / q
            if tcp <= area or iterations >= cap:
                break
            nxt = exec_table[rows, np.minimum(alloc, max_col)]
            gain = np.where(exec_t > 0, (exec_t - nxt) / exec_t, 0.0)
            off_cp = np.asarray(tl) + np.asarray(bl) < tcp - _CP_RTOL * tcp
            gain[(alloc >= caps) | off_cp] = -np.inf
            best_task = int(np.argmax(gain))
            if gain[best_task] <= 0.0:
                break
            alloc[best_task] += 1
            exec_t[best_task] = exec_table[best_task, alloc[best_task] - 1]
            bl = graph.bottom_levels(exec_t).tolist()
            tl = graph.top_levels(exec_t).tolist()
            iterations += 1
    return CpaAllocation(
        allocations=tuple(int(a) for a in alloc),
        exec_times=tuple(float(t) for t in exec_t),
        critical_path=tcp,
        area=area,
        iterations=iterations,
        q=q,
    )


@contextmanager
def seed_baseline() -> Iterator[None]:
    """Run the enclosed code against the seed commit's hot paths.

    Swaps in the seed's commits (a full profile recompile and strict
    validation on every add), its per-node/segment-walking
    implementations and its CPA loop, and turns the allocation memo
    off.  Everything is restored on exit, even on error.
    """
    saved_memo = _allocmod.MEMOIZE_ALLOCATIONS
    saved_methods = (
        TaskGraph.bottom_levels,
        TaskGraph.top_levels,
        ResourceCalendar.add,
        ResourceCalendar.reserve_known_feasible,
        ResourceCalendar.earliest_start,
        ResourceCalendar.latest_start,
        ResourceCalendar.earliest_starts_multi,
        ResourceCalendar.earliest_completion,
    )
    saved_loop = _allocmod._cpa_allocation
    _allocmod.MEMOIZE_ALLOCATIONS = False
    _allocmod.clear_memo()
    _allocmod._cpa_allocation = _seed_cpa_allocation
    TaskGraph.bottom_levels = _seed_bottom_levels
    TaskGraph.top_levels = _seed_top_levels
    ResourceCalendar.add = _seed_add
    ResourceCalendar.reserve_known_feasible = _seed_reserve_known_feasible
    ResourceCalendar.earliest_start = _seed_earliest_start
    ResourceCalendar.latest_start = _seed_latest_start
    ResourceCalendar.earliest_starts_multi = _seed_earliest_starts_multi
    ResourceCalendar.earliest_completion = _seed_earliest_completion
    try:
        yield
    finally:
        _allocmod.MEMOIZE_ALLOCATIONS = saved_memo
        _allocmod._cpa_allocation = saved_loop
        (
            TaskGraph.bottom_levels,
            TaskGraph.top_levels,
            ResourceCalendar.add,
            ResourceCalendar.reserve_known_feasible,
            ResourceCalendar.earliest_start,
            ResourceCalendar.latest_start,
            ResourceCalendar.earliest_starts_multi,
            ResourceCalendar.earliest_completion,
        ) = saved_methods


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------


def _best_of(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Minimum wall-clock over ``repeats`` calls (after one warm-up)."""
    fn()  # warm-up: caches, lazy imports, pool forks
    best = np.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _random_reservations(
    n_res: int, capacity: int, seed: int = 7
) -> list[Reservation]:
    """A deterministic batch of non-overflowing small reservations."""
    rng = make_rng(seed)
    out = []
    for i in range(n_res):
        start = float(rng.uniform(0.0, 50_000.0))
        dur = float(rng.uniform(60.0, 3_600.0))
        nprocs = int(rng.integers(1, max(2, capacity // 16)))
        out.append(
            Reservation(start=start, end=start + dur, nprocs=nprocs, label=f"r{i}")
        )
    return out


# ----------------------------------------------------------------------
# Individual benchmarks
# ----------------------------------------------------------------------


def bench_calendar_commit(*, n_res: int, repeats: int) -> dict[str, Any]:
    """Committing ``n_res`` known-feasible reservations, one by one.

    Seed path: strict ``reserve()`` — every add recompiles and
    re-validates the whole profile from the event list (O(R) work per
    commit, O(R^2) total).  Current path: ``reserve_known_feasible()`` —
    one O(R) splice per commit into the already-compiled profile.
    """
    capacity = 128
    batch = _random_reservations(n_res, capacity)

    def seed_path() -> ResourceCalendar:
        cal = ResourceCalendar(capacity)
        for r in batch:
            _seed_reserve_known_feasible(
                cal, r.start, r.end - r.start, r.nprocs, label=r.label
            )
        cal.availability()
        return cal

    def fast_path() -> ResourceCalendar:
        cal = ResourceCalendar(capacity)
        cal.availability()  # pre-compile, as schedulers do before committing
        for r in batch:
            cal.reserve_known_feasible(
                r.start, r.end - r.start, r.nprocs, label=r.label
            )
        return cal

    seed_s, seed_cal = _best_of(seed_path, repeats)
    fast_s, fast_cal = _best_of(fast_path, repeats)
    if seed_cal.availability() != fast_cal.availability():
        raise AssertionError("calendar-commit paths disagree on the profile")
    return {
        "n_reservations": n_res,
        "seed_s": seed_s,
        "incremental_s": fast_s,
        "speedup": seed_s / fast_s,
    }


def bench_placement_query(*, n_res: int, n_queries: int, repeats: int) -> dict[str, Any]:
    """RESSCHED's per-task decision over every processor count of a busy
    calendar.

    The seed path finds every count's earliest start by walking the
    availability profile segment by segment with Python-level
    bookkeeping, then takes the argmin of the completions; the current
    path is :meth:`~repro.calendar.ResourceCalendar.earliest_completion`,
    which resolves only the counts that can still win.
    """
    capacity = 64
    cal = ResourceCalendar(capacity)
    for r in _random_reservations(n_res, capacity, seed=11):
        cal.add(r)
    cal.availability()
    rng = make_rng(23)
    queries = [
        (
            float(rng.uniform(0.0, 60_000.0)),
            np.asarray(rng.uniform(120.0, 7_200.0, size=capacity)),
        )
        for _ in range(n_queries)
    ]

    def seed_path() -> list[tuple[float, int]]:
        return [
            _seed_earliest_completion(cal, earliest, d)
            for earliest, d in queries
        ]

    def fast_path() -> list[tuple[float, int]]:
        return [cal.earliest_completion(earliest, d) for earliest, d in queries]

    seed_s, seed_res = _best_of(seed_path, repeats)
    fast_s, fast_res = _best_of(fast_path, repeats)
    if seed_res != fast_res:
        raise AssertionError("placement-query paths disagree")
    return {
        "n_reservations": n_res,
        "n_queries": n_queries,
        "seed_s": seed_s,
        "kernel_s": fast_s,
        "speedup": seed_s / fast_s,
    }


def bench_placement_query_dense(
    *, n_res: int, n_queries: int, repeats: int
) -> dict[str, Any]:
    """Scalar placement probes on a *dense* calendar: seed segment walks
    vs the live ``earliest_start``/``latest_start``.

    The seed answers each probe by stepping the availability profile one
    segment at a time in Python — O(S) per probe, and every probed
    segment costs NumPy-scalar accessor calls.  The live queries find
    the profile's free runs for the processor count in one vectorized
    pass and pick the first (or last) run the window fits in.  The
    calendar here is static: built once, queried many times.
    """
    capacity = 128
    horizon = n_res * 120.0
    rng = make_rng(17)
    reservations = []
    for i in range(n_res):
        start = float(rng.uniform(0.0, horizon))
        dur = float(rng.uniform(60.0, 3_600.0))
        nprocs = int(rng.integers(1, max(2, capacity // 16)))
        reservations.append(
            Reservation(start=start, end=start + dur, nprocs=nprocs)
        )
    cal = ResourceCalendar(capacity, reservations, clamp=True)
    n_segments = cal.availability().n_segments
    rng = make_rng(29)
    queries = [
        (
            float(rng.uniform(0.0, horizon)),
            float(rng.uniform(120.0, 7_200.0)),
            int(rng.integers(1, capacity + 1)),
        )
        for _ in range(n_queries)
    ]

    def seed_path() -> list[float | None]:
        out: list[float | None] = []
        for earliest, d, m in queries:
            out.append(_seed_earliest_start(cal, earliest, d, m))
            out.append(
                _seed_latest_start(
                    cal, earliest + horizon, d, m, earliest=earliest
                )
            )
        return out

    def live_path() -> list[float | None]:
        out: list[float | None] = []
        for earliest, d, m in queries:
            out.append(cal.earliest_start(earliest, d, m))
            out.append(
                cal.latest_start(earliest + horizon, d, m, earliest=earliest)
            )
        return out

    seed_s, seed_res = _best_of(seed_path, repeats)
    live_s, live_res = _best_of(live_path, repeats)
    if seed_res != live_res:
        raise AssertionError("dense placement-query paths disagree")
    return {
        "n_reservations": n_res,
        "n_segments": n_segments,
        "n_queries": n_queries,
        "seed_s": seed_s,
        "linear_s": live_s,
        "speedup": seed_s / live_s,
    }


def bench_sweep_alloc_memo(
    *, n_graphs: int, n_tasks: int, reuses: int, repeats: int
) -> dict[str, Any]:
    """A sweep-shaped allocation workload: memoization off vs on.

    Experiment grids re-solve the same (graph, q) allocation problem in
    many cells (the DAG draw is independent of the phi/reshaping axes).
    This models that reuse directly: ``n_graphs`` distinct DAGs, each
    allocated at two cluster sizes, the whole batch repeated ``reuses``
    times.  With the memo on, each distinct problem is solved once and
    the rest are digest-keyed lookups.
    """
    graphs = [
        random_task_graph(DagGenParams(n=n_tasks), make_rng(1000 + i))
        for i in range(n_graphs)
    ]
    qs = (32, 64)

    def workload() -> list[Any]:
        return [
            cpa_allocation(g, q)
            for _ in range(reuses)
            for g in graphs
            for q in qs
        ]

    def uncached() -> list[Any]:
        saved = _allocmod.MEMOIZE_ALLOCATIONS
        _allocmod.MEMOIZE_ALLOCATIONS = False
        try:
            return workload()
        finally:
            _allocmod.MEMOIZE_ALLOCATIONS = saved

    def memoized() -> list[Any]:
        saved = _allocmod.MEMOIZE_ALLOCATIONS
        _allocmod.MEMOIZE_ALLOCATIONS = True
        _allocmod.clear_memo()  # each repetition pays the same misses
        try:
            return workload()
        finally:
            _allocmod.MEMOIZE_ALLOCATIONS = saved

    plain_s, plain_res = _best_of(uncached, repeats)
    memo_s, memo_res = _best_of(memoized, repeats)
    if plain_res != memo_res:
        raise AssertionError("allocation memo changed a result")
    return {
        "n_graphs": n_graphs,
        "n_tasks": n_tasks,
        "reuses": reuses,
        "distinct_problems": n_graphs * len(qs),
        "total_allocations": n_graphs * len(qs) * reuses,
        "uncached_s": plain_s,
        "memoized_s": memo_s,
        "speedup": plain_s / memo_s,
    }


def bench_cpa_allocation(*, n_tasks: int, q: int, repeats: int) -> dict[str, Any]:
    """One CPA allocation run: the seed loop (NumPy rescans and full
    level recomputes every iteration, plus the seed's per-node NumPy
    level loops, via :func:`seed_baseline`) vs the scalar loop."""
    graph = random_task_graph(DagGenParams(n=n_tasks), make_rng(42))

    def seed_path():
        with seed_baseline():
            return cpa_allocation(graph, q)

    def fast_path():
        # memoize=False: this entry measures the allocation loop; the
        # memo has its own entry (sweep_alloc_memo).
        return cpa_allocation(graph, q, memoize=False)

    full_s, seed_res = _best_of(seed_path, repeats)
    inc_s, fast_res = _best_of(fast_path, repeats)
    if seed_res != fast_res:
        raise AssertionError("CPA allocation paths disagree")
    return {
        "n_tasks": n_tasks,
        "q": q,
        "full_s": full_s,
        "incremental_s": inc_s,
        "speedup": full_s / inc_s,
    }


def bench_table4_cell(
    *, dag_instances: int, n_workers: int, repeats: int
) -> dict[str, Any]:
    """One Table-4 cell, end to end: seed serial vs current parallel.

    The cell (OSC_Cluster, phi=0.2, expo reshaping) runs the full
    pipeline — log replay, reservation scenario, CPA, forward
    scheduling — per instance.  The baseline is the seed hot paths run
    serially; the contender is the current code at ``n_workers``
    processes.  Both must format to the identical table.
    """
    scale = ExperimentScale(
        logs=("OSC_Cluster",),
        phis=(0.2,),
        methods=("expo",),
        app_scenarios=2,
        dag_instances=dag_instances,
        start_times=1,
        taggings=1,
    )

    def seed_serial():
        with seed_baseline():
            return run_table4(scale)

    def parallel():
        return run_table4(replace(scale, n_workers=n_workers))

    # Interleave the two measurements so background-load spikes on a
    # shared box hit both sides symmetrically instead of biasing one.
    seed_res = seed_serial()  # warm-up
    par_res = parallel()  # warm-up (forks the worker pool)
    seed_s = par_s = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        seed_res = seed_serial()
        seed_s = min(seed_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        par_res = parallel()
        par_s = min(par_s, time.perf_counter() - t0)
    if format_table4(seed_res) != format_table4(par_res):
        raise AssertionError("table-4 cell paths disagree on the table")
    return {
        "dag_instances": dag_instances,
        "n_workers": n_workers,
        "seed_serial_s": seed_s,
        "parallel_s": par_s,
        "speedup": seed_s / par_s,
    }


def _stream_scenario(name: str, n_res: int) -> Any:
    """The stream sections' platform: 64 processors and ``n_res``
    small competing reservations spread over ``333 * n_res`` seconds."""
    from repro.workloads.reservations import ReservationScenario

    capacity = 64
    rng = make_rng(7)
    horizon = 333.0 * n_res
    reservations = []
    for i in range(n_res):
        start = float(rng.uniform(0.0, horizon))
        dur = float(rng.uniform(60.0, 3_600.0))
        nprocs = int(rng.integers(1, max(2, capacity // 16)))
        reservations.append(
            Reservation(start=start, end=start + dur, nprocs=nprocs, label=f"r{i}")
        )
    return ReservationScenario(
        name=name,
        capacity=capacity,
        now=0.0,
        reservations=tuple(reservations),
        hist_avg_available=capacity / 2,
    )


def _bare_stream(
    scenario: Any, requests: list[Any], calendar: Any = None
) -> list[Any]:
    """The streamed engine without an admission loop: every request is
    planned at its arrival straight into the one shared calendar (or
    into ``calendar``), so every request is admitted.  The reference
    the stream sections time against."""
    from repro.experiments.stream import StreamScheduler

    sched = StreamScheduler(scenario, calendar=calendar)
    return [
        sched.tentative_schedule(
            r, arrival=scenario.now + r.arrival_offset, calendar=sched.calendar
        )
        for r in requests
    ]


def _placements(schedules: list[Any]) -> list[list[tuple]]:
    """Per-schedule ``(task, start, finish, nprocs)`` lists, for
    bitwise comparisons between two paths."""
    return [
        [(p.task, p.start, p.finish, p.nprocs) for p in s.placements]
        for s in schedules
    ]


def bench_streamed_throughput(
    *, n_requests: int, n_res: int, repeats: int
) -> dict[str, Any]:
    """Admitting a stream of small DAGs: incremental engine vs N passes.

    A busy advance-reservation calendar (``n_res`` competing bookings
    spread over a long horizon) receives ``n_requests`` eight-task
    applications at a sustainable arrival rate.  Baseline: per request,
    rebuild the scenario with everything booked so far and run the batch
    ``schedule_ressched`` — the only way to express a stream with the
    one-shot API (an O(R log R) scenario rebuild per request).  Current
    path: one ``StreamScheduler`` planning every request into a single
    generation-tagged calendar via ``schedule_ressched_incremental`` —
    memoized plans placed by the same forward loop, with no rebuild.
    Both place tasks with the same earliest-completion kernel.
    Placements are asserted bitwise-identical before timing.
    """
    from repro.experiments.stream import StreamRequest, schedule_stream_naive
    from repro.service import ReservationService

    scenario = _stream_scenario("stream-bench", n_res)
    graphs = [
        random_task_graph(
            DagGenParams(n=8, max_seq_time=3_600.0), make_rng(1000 + i)
        )
        for i in range(4)
    ]
    requests = [
        StreamRequest(
            request_id=f"req-{k}",
            arrival_offset=k * 1_200.0,
            graph=graphs[k % len(graphs)],
        )
        for k in range(n_requests)
    ]

    def naive_path() -> list:
        _allocmod.clear_memo()
        return schedule_stream_naive(scenario, requests)

    def streamed_path() -> list:
        _allocmod.clear_memo()
        return _bare_stream(scenario, requests)

    naive_s, naive_res = _best_of(naive_path, repeats)
    stream_s, stream_res = _best_of(streamed_path, repeats)
    if _placements(naive_res) != _placements(stream_res):
        raise AssertionError("streamed-throughput paths disagree")
    # Observer-effect guard (untimed): a fully instrumented service
    # replay — aggregates AND event timeline on — must produce the
    # exact same placements; recording may never perturb the
    # computation.
    from repro.obs import instrumented as _instrumented
    from repro.obs import timeline as _tl

    _allocmod.clear_memo()
    with _tl.recording(sim_epoch=scenario.now) as timeline:
        with _instrumented():
            observed = ReservationService(scenario).run(requests).schedules
    if _placements(observed) != _placements(stream_res):
        raise AssertionError(
            "timeline instrumentation perturbed streamed placements"
        )
    return {
        "n_requests": n_requests,
        "n_reservations": n_res,
        "naive_s": naive_s,
        "streamed_s": stream_s,
        "speedup": naive_s / stream_s,
        "requests_per_s": n_requests / stream_s,
        "timeline_events": len(timeline),
    }


def bench_service_faulted_stream(
    *, n_requests: int, n_res: int, pairs: int
) -> dict[str, Any]:
    """Robustness-layer overhead: bare stream vs ReservationService.

    The same stream as ``streamed_throughput`` is replayed twice: once
    through the bare engine (:func:`_bare_stream`) and once through the
    fault-tolerant ``ReservationService`` at fault rate zero with
    unlimited quotas — the configuration the reduction proof covers, so
    placements are asserted bitwise-identical.  The two replays are
    timed in ``pairs`` interleaved pairs, alternating which side runs
    first, so drift on a shared box lands on both sides of a pair; the
    reported ``speedup`` is the median over pairs of
    ``bare_s / service_rate0_s``, and ``bare_s`` / ``service_rate0_s``
    are each side's median.  The floor in ``check_bench_regression.py``
    guarantees the CAS/journal/quota machinery costs < 15% on the
    fault-free fast path.  A third, untimed-for-speedup replay at a
    nonzero fault rate with per-tenant quotas exercises the full
    pipeline (revocation, rebooking, commit retries) and reports its
    volume counters.
    """
    from repro.experiments.stream import StreamRequest
    from repro.resilience.faults import FaultModel
    from repro.service import ReservationService, ServiceConfig, TenantQuota

    scenario = _stream_scenario("service-bench", n_res)
    graphs = [
        random_task_graph(
            DagGenParams(n=8, max_seq_time=3_600.0), make_rng(1000 + i)
        )
        for i in range(4)
    ]
    tenants = ("acme", "globex", "initech")
    requests = [
        StreamRequest(
            request_id=f"req-{k}",
            arrival_offset=k * 1_200.0,
            graph=graphs[k % len(graphs)],
            mode="batch" if k % 3 else "interactive",
            tenant=tenants[k % len(tenants)],
        )
        for k in range(n_requests)
    ]

    def bare_path() -> list:
        _allocmod.clear_memo()
        return _bare_stream(scenario, requests)

    def service_rate0_path() -> list:
        _allocmod.clear_memo()
        return ReservationService(scenario).run(requests).schedules

    def timed(fn: Callable[[], list]) -> tuple[float, list]:
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, result

    # Reduction proof (on the warm-up replays): rate-0 + unlimited
    # quotas must be bitwise-identical to the bare stream.
    if _placements(bare_path()) != _placements(service_rate0_path()):
        raise AssertionError("service rate-0 path diverged from stream")
    bare_times: list[float] = []
    svc_times: list[float] = []
    for i in range(pairs):
        if i % 2:
            svc_s, _ = timed(service_rate0_path)
            bare_s, _ = timed(bare_path)
        else:
            bare_s, _ = timed(bare_path)
            svc_s, _ = timed(service_rate0_path)
        bare_times.append(bare_s)
        svc_times.append(svc_s)
    ratios = [b / s for b, s in zip(bare_times, svc_times)]
    # Full-pipeline replay: faults, quotas and shedding all active.
    _allocmod.clear_memo()
    faulted_t0 = time.perf_counter()
    faulted = ReservationService(
        scenario,
        config=ServiceConfig(
            default_quota=TenantQuota(max_active=max(4, n_requests // 8)),
            shed_backlog=max(8, n_requests // 4),
            commit_latency=300.0,
            retry_backoff_base=30.0,
        ),
        fault_model=FaultModel.from_rate(6.0),
        seed=11,
    ).run(requests)
    faulted_s = time.perf_counter() - faulted_t0
    return {
        "n_requests": n_requests,
        "n_reservations": n_res,
        "pairs": pairs,
        "bare_s": float(np.median(bare_times)),
        "service_rate0_s": float(np.median(svc_times)),
        "speedup": float(np.median(ratios)),
        "faulted_s": faulted_s,
        "faulted_admitted": faulted.n_admitted,
        "faulted_rejected": faulted.n_rejected,
        "faults_applied": faulted.faults_applied,
        "revocations": faulted.revocations,
        "rebooked": faulted.rebooked,
        "commit_retries": sum(o.retries for o in faulted.outcomes),
    }


def sharded_stream_workload(n_res: int, n_requests: int) -> tuple[Any, list[Any]]:
    """The ``sharded_throughput`` inputs: a 64-processor scenario with
    ``n_res`` small competing reservations (a dense calendar) and
    ``n_requests`` fork-join parameter sweeps arriving every 2,400 s.

    Returns ``(scenario, requests)`` for a
    :class:`~repro.experiments.stream.StreamScheduler` or a
    :class:`~repro.service.ReservationService`.
    """
    from repro.dag.templates import parameter_sweep
    from repro.experiments.stream import StreamRequest

    scenario = _stream_scenario("shard-bench", n_res)
    graphs = [
        parameter_sweep(make_rng(1000 + i), n_points=14, stages_per_point=1)
        for i in range(4)
    ]
    requests = [
        StreamRequest(
            request_id=f"req-{k}",
            arrival_offset=k * 2_400.0,
            graph=graphs[k % len(graphs)],
        )
        for k in range(n_requests)
    ]
    return scenario, requests


def bench_sharded_throughput(
    *, n_requests: int, n_res: int, n_shards: int, repeats: int
) -> dict[str, Any]:
    """Streamed admission on a dense calendar: K shards vs one.

    The regime where sharding pays: a *dense* advance-reservation
    calendar (``n_res`` competing bookings → hundreds of thousands of
    profile segments) receiving wide fork-join sweeps.  Unsharded,
    every commit splices the full O(S)-segment profile; sharded, a
    commit splices one shard's O(S/K) profile, and each placement probe
    runs one earliest-completion leg per shard, every leg after the
    first bounded by the best answer so far.

    Both pristine calendars are built once (the K-shard water-filled
    partition is expensive and untimed); every timed run plans into a
    fresh ``.copy()`` so repeats are independent.  ``speedup`` is the
    K = 1 wall-clock over the K = ``n_shards`` wall-clock on the
    *identical* request stream, and the K = 1
    :func:`~repro.experiments.stream.stream_digest` is asserted equal to
    the plain unsharded engine's — the facade's bitwise K = 1
    reduction, gated here and in ``check_bench_regression.py``.
    """
    from repro.experiments.stream import stream_digest
    from repro.shard import ShardedCalendar

    scenario, requests = sharded_stream_workload(n_res, n_requests)
    base_k1 = ShardedCalendar.partition(
        scenario.capacity, scenario.reservations, n_shards=1
    )
    base_k = ShardedCalendar.partition(
        scenario.capacity, scenario.reservations, n_shards=n_shards
    )

    def run_on(base: ShardedCalendar) -> list[Any]:
        _allocmod.clear_memo()
        return _bare_stream(scenario, requests, calendar=base.copy())

    def digest(schedules: list[Any]) -> str:
        return stream_digest(
            (r.request_id, True, s) for r, s in zip(requests, schedules)
        )

    _allocmod.clear_memo()
    unsharded_digest = digest(_bare_stream(scenario, requests))
    k1_s, k1_schedules = _best_of(lambda: run_on(base_k1), repeats)
    sharded_s, k_schedules = _best_of(lambda: run_on(base_k), repeats)
    k1_digest = digest(k1_schedules)
    if k1_digest != unsharded_digest:
        raise AssertionError(
            "K=1 sharded stream digest diverged from the unsharded engine"
        )
    return {
        "n_requests": n_requests,
        "n_reservations": n_res,
        "n_shards": n_shards,
        "unsharded_digest": unsharded_digest,
        "k1_digest": k1_digest,
        "k1_s": k1_s,
        "sharded_s": sharded_s,
        "speedup": k1_s / sharded_s,
        "requests_per_s_k1": n_requests / k1_s,
        "requests_per_s": n_requests / sharded_s,
        "admitted": len(k_schedules),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def run_benchmarks(*, quick: bool = False) -> dict[str, Any]:
    """Run every benchmark and return the report dict."""
    if quick:
        sizes: dict[str, dict[str, int]] = {
            "calendar_commit": {"n_res": 120, "repeats": 2},
            "placement_query": {"n_res": 80, "n_queries": 20, "repeats": 2},
            "placement_query_dense": {
                "n_res": 400, "n_queries": 40, "repeats": 2,
            },
            "sweep_alloc_memo": {
                "n_graphs": 2, "n_tasks": 40, "reuses": 3, "repeats": 2,
            },
            "cpa_allocation": {"n_tasks": 60, "q": 32, "repeats": 2},
            "table4_cell": {"dag_instances": 2, "n_workers": 2, "repeats": 1},
            # One ~50-140 ms replay per side is too short for a single
            # run to gate on: best of five, and the median of 21
            # interleaved pairs for the overhead ratio.
            "streamed_throughput": {
                "n_requests": 100, "n_res": 1000, "repeats": 5,
            },
            "service_faulted_stream": {
                "n_requests": 100, "n_res": 1000, "pairs": 21,
            },
            "sharded_throughput": {
                "n_requests": 40, "n_res": 40000, "n_shards": 8,
                "repeats": 1,
            },
        }
    else:
        sizes = {
            "calendar_commit": {"n_res": 400, "repeats": 3},
            "placement_query": {"n_res": 250, "n_queries": 40, "repeats": 3},
            "placement_query_dense": {
                "n_res": 3000, "n_queries": 150, "repeats": 3,
            },
            "sweep_alloc_memo": {
                "n_graphs": 3, "n_tasks": 100, "reuses": 5, "repeats": 3,
            },
            "cpa_allocation": {"n_tasks": 150, "q": 64, "repeats": 3},
            "table4_cell": {"dag_instances": 6, "n_workers": 4, "repeats": 5},
            "streamed_throughput": {
                "n_requests": 300, "n_res": 2000, "repeats": 2,
            },
            "service_faulted_stream": {
                "n_requests": 300, "n_res": 2000, "pairs": 21,
            },
            "sharded_throughput": {
                "n_requests": 60, "n_res": 100000, "n_shards": 8,
                "repeats": 2,
            },
        }
    report: dict[str, Any] = {
        "quick": quick,
        "n_cpus": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    print(f"repro bench ({'quick' if quick else 'full'}), "
          f"{report['n_cpus']} CPU(s) visible", flush=True)
    report["calendar_commit"] = bench_calendar_commit(**sizes["calendar_commit"])
    _echo("calendar_commit", report["calendar_commit"],
          "seed_s", "incremental_s")
    report["placement_query"] = bench_placement_query(**sizes["placement_query"])
    _echo("placement_query", report["placement_query"],
          "seed_s", "kernel_s")
    report["placement_query_dense"] = bench_placement_query_dense(
        **sizes["placement_query_dense"]
    )
    _echo("placement_query_dense", report["placement_query_dense"],
          "seed_s", "linear_s")
    report["sweep_alloc_memo"] = bench_sweep_alloc_memo(
        **sizes["sweep_alloc_memo"]
    )
    _echo("sweep_alloc_memo", report["sweep_alloc_memo"],
          "uncached_s", "memoized_s")
    report["cpa_allocation"] = bench_cpa_allocation(**sizes["cpa_allocation"])
    _echo("cpa_allocation", report["cpa_allocation"],
          "full_s", "incremental_s")
    report["table4_cell"] = bench_table4_cell(**sizes["table4_cell"])
    _echo("table4_cell", report["table4_cell"],
          "seed_serial_s", "parallel_s")
    report["streamed_throughput"] = bench_streamed_throughput(
        **sizes["streamed_throughput"]
    )
    _echo("streamed_throughput", report["streamed_throughput"],
          "naive_s", "streamed_s")
    report["service_faulted_stream"] = bench_service_faulted_stream(
        **sizes["service_faulted_stream"]
    )
    _echo("service_faulted_stream", report["service_faulted_stream"],
          "bare_s", "service_rate0_s")
    report["sharded_throughput"] = bench_sharded_throughput(
        **sizes["sharded_throughput"]
    )
    _echo("sharded_throughput", report["sharded_throughput"],
          "k1_s", "sharded_s")
    return report


def _echo(name: str, entry: dict[str, Any], before: str, after: str) -> None:
    print(
        f"  {name:<18} {entry[before]:8.4f}s -> {entry[after]:8.4f}s   "
        f"{entry['speedup']:5.2f}x",
        flush=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="hot-path performance regression benchmarks",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for CI smoke runs",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_hotpath.json"),
        help="output JSON path (default: ./BENCH_hotpath.json)",
    )
    args = parser.parse_args(argv)
    # Fail on an unwritable --out before spending minutes benchmarking.
    try:
        args.out.touch()
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    report = run_benchmarks(quick=args.quick)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
