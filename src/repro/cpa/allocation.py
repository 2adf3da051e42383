"""CPA allocation phase (Radulescu & van Gemund 2001, improved per [34]).

CPA decides how many processors each task of a mixed-parallel application
should use, before any task is mapped in time.  Starting from one
processor per task it repeatedly grows the allocation of the task on the
critical path whose execution time would shrink the most *relatively*
when given one extra processor, until the critical-path length ``T_CP``
no longer exceeds the average-area term

    T_A = (1/q) * sum_i m_i * T_i(m_i).

That is the **classic** criterion.  Its known weakness is over-allocation
that hinders task parallelism: when a level holds many tasks, giving each
a large slice of the machine serializes the level.  The paper uses the
improved variant of N'Takpé et al. [34] that "better limits task
allocations"; our documented rendition (DESIGN.md §3) is MCPA-inspired
and generalizes beyond layered graphs: in addition to the classic
stopping rule, each task's allocation is capped at

    cap_i = max(1, floor(q / width(level(i))))

so the task's whole level can still run concurrently.  Chains keep the
classic behaviour (cap = q — consistent with the paper's observation that
near-chain DAGs end up with near-machine-size allocations), while wide
levels keep their task parallelism.  Select with ``stopping="classic"``
or ``"stringent"`` (default, and what the rest of the library means by
"CPA").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.dag import TaskGraph
from repro.errors import GenerationError
from repro.obs import core as _obs
from repro.obs.core import Histogram

#: Relative slack when testing whether a task lies on the critical path
#: (shared with :mod:`repro.cpa.icaslb`).
_CP_RTOL = 1e-9

#: Default for :func:`cpa_allocation`'s ``memoize`` flag: remember
#: results per ``(graph content digest, q, stopping, max_iterations)``.
#: Allocations are pure functions of that key, and experiment sweeps
#: replay the same DAG instance across many grid cells (reservation
#: densities, deadline factors), so each allocation is computed once per
#: process.  The cache is module-local: parallel workers each grow their
#: own (fork-inherited entries stay valid — the key is content-based),
#: so no cross-process state exists and the parallel runner's
#: bitwise-identical-at-any-worker-count guarantee holds.  See
#: :mod:`repro.experiments.memo` for the sweep-facing policy helpers.
MEMOIZE_ALLOCATIONS: bool = True

#: LRU entry cap on the per-process allocation memo.
MEMO_CAP: int = 512

#: The memo proper: key -> (result, obs replay deltas or None).
_MEMO: "OrderedDict[tuple, tuple[CpaAllocation, tuple | None]]" = OrderedDict()


def clear_memo() -> None:
    """Drop every memoized allocation (benchmarks, tests)."""
    _MEMO.clear()


def memo_stats() -> dict[str, Any]:
    """Size/config snapshot of this process's allocation memo."""
    return {
        "entries": len(_MEMO),
        "cap": MEMO_CAP,
        "enabled": MEMOIZE_ALLOCATIONS,
    }


def _memo_replay(deltas: tuple) -> None:
    """Re-record a cached compute's counters and histograms.

    A memo hit skips :func:`_cpa_allocation`, which would silently drop
    the compute's ``cpa.*`` counters from instrumented runs — and make
    aggregate counters depend on which worker computed what.  Replaying
    the captured deltas keeps every compute-derived aggregate bitwise
    identical whether the allocation was computed or recalled; only the
    honest ``cache.alloc.*`` counters (and span timings) reveal the
    difference.
    """
    col = _obs.current()
    counters, hists = deltas
    for name, n in counters.items():
        col.incr(name, n)
    for name, snap in hists.items():
        mine = col.hists.get(name)
        if mine is None:
            mine = col.hists[name] = Histogram()
        mine.merge(Histogram.from_dict(snap))


@dataclass(frozen=True)
class CpaAllocation:
    """Result of the CPA allocation phase.

    Attributes:
        allocations: Processors per task (each in ``1..q``).
        exec_times: Execution time of each task under its allocation.
        critical_path: ``T_CP`` at termination.
        area: ``T_A`` at termination.
        iterations: Number of one-processor increments performed.
        q: Processor count the phase was run for.
    """

    allocations: tuple[int, ...]
    exec_times: tuple[float, ...]
    critical_path: float
    area: float
    iterations: int
    q: int

    @property
    def exec_times_array(self) -> np.ndarray:
        """Execution times as an array (scheduler convenience)."""
        return np.asarray(self.exec_times)


def allocation_caps(graph: TaskGraph, q: int, stopping: str) -> np.ndarray:
    """Per-task allocation caps for the chosen criterion.

    Classic CPA caps every task at ``q``; the stringent variant also
    divides the machine across each task's level so the level's task
    parallelism survives.
    """
    if stopping == "classic":
        return np.full(graph.n, q, dtype=int)
    widths = [len(graph.level_sets[lvl]) for lvl in graph.levels]
    return np.array([max(1, q // w) for w in widths], dtype=int)


def cpa_allocation(
    graph: TaskGraph,
    q: int,
    *,
    stopping: str = "stringent",
    max_iterations: int | None = None,
    memoize: bool | None = None,
) -> CpaAllocation:
    """Run the CPA allocation phase for a ``q``-processor platform.

    Args:
        graph: The application.
        q: Processors assumed available (the paper instantiates this with
            either the full machine ``p`` or the historical average P').
        stopping: ``"classic"`` (pure area criterion) or ``"stringent"``
            (area criterion plus per-level allocation caps, the default).
        max_iterations: Safety cap on increments; defaults to the true
            upper bound ``n * (q - 1)``.
        memoize: Recall the result from the per-process memo when this
            exact allocation (by graph content digest, ``q``,
            ``stopping`` and ``max_iterations``) was computed before.
            ``None`` (default) follows :data:`MEMOIZE_ALLOCATIONS`.

    Returns:
        The final allocation and its diagnostics.
    """
    if q < 1:
        raise GenerationError(f"q must be >= 1, got {q}")
    if stopping not in ("classic", "stringent"):
        raise GenerationError(
            f"stopping must be 'classic' or 'stringent', got {stopping!r}"
        )
    if memoize is None:
        memoize = MEMOIZE_ALLOCATIONS

    key = None
    if memoize:
        key = (graph.content_digest, q, stopping, max_iterations)
        entry = _MEMO.get(key)
        if entry is not None:
            result, deltas = entry
            # A hit recorded without instrumentation has no deltas to
            # replay; recompute it so instrumented aggregates stay
            # complete (and partition-independent).
            if not _obs.ENABLED:
                _MEMO.move_to_end(key)
                return result
            if deltas is not None:
                _MEMO.move_to_end(key)
                _obs.incr("cache.alloc.hit")
                _memo_replay(deltas)
                return result

    deltas = None
    if _obs.ENABLED:
        if memoize:
            _obs.incr("cache.alloc.miss")
        # Run the compute under a nested collector so its counters and
        # histograms can be captured for replay on later hits, then fold
        # them into the ambient collector — the fold is how the direct
        # path records too, so hit and miss instances aggregate
        # identically.
        ambient = _obs.current()
        with _obs.collecting(keep_events=ambient.keep_events) as sub:
            with _obs.span("cpa.allocation"):
                result = _cpa_allocation(graph, q, stopping, max_iterations)
            _obs.incr("cpa.allocation_runs")
            _obs.incr("cpa.iterations", result.iterations)
            _obs.observe("cpa.iterations_per_run", result.iterations)
        ambient.merge(sub)
        deltas = (
            dict(sub.counters),
            {k: h.to_dict() for k, h in sub.hists.items()},
        )
    else:
        result = _cpa_allocation(graph, q, stopping, max_iterations)

    if memoize:
        if len(_MEMO) >= MEMO_CAP:
            _MEMO.popitem(last=False)
            if _obs.ENABLED:
                _obs.incr("cache.alloc.evict")
        _MEMO[key] = (result, deltas)
    return result


def _cpa_allocation(
    graph: TaskGraph, q: int, stopping: str, max_iterations: int | None
) -> CpaAllocation:
    """The refinement loop proper (validated arguments).

    One scalar pass per iteration, bitwise-equal to recomputing every
    gain and level each time (that loop is kept as
    ``repro.bench._seed_cpa_allocation``, the differential tests'
    oracle):

    * a task's relative gain from one more processor depends only on its
      own allocation, so it is cached and recomputed for the grown task
      alone;
    * the candidate scan visits the uncapped tasks in index order, keeps
      those on a critical path (``tl + bl`` within ``_CP_RTOL`` of
      ``T_CP``) and takes the first maximum, as ``np.argmax`` does;
    * only the grown task's time changed, so :class:`_Levels` refreshes
      just the levels that time enters;
    * ``T_A`` is summed by NumPy over a float64 ``m_i * T_i(m_i)`` array
      kept in step with the loop, so it keeps the pairwise-summation
      bits of the vectorized expression.
    """
    n = graph.n
    caps = allocation_caps(graph, q, stopping).tolist()
    # exec_table[i, m-1] = T_i(m), read entry by entry as Python floats.
    exec_table = np.vstack([graph.task(i).exec_times(q) for i in range(n)])
    t_at = exec_table.item
    limit = max_iterations if max_iterations is not None else n * max(q - 1, 0)
    alloc = [1] * n
    levels = _Levels(graph, exec_table[:, 0].tolist())
    w, bl, tl = levels.w, levels.bl, levels.tl
    work = exec_table[:, 0].copy()
    sum_work = np.add.reduce
    growable = [i for i in range(n) if caps[i] > 1]
    gain = [0.0] * n
    for i in growable:
        gain[i] = _gain(w[i], t_at(i, 1))
    sources = graph.sources
    bl_get = bl.__getitem__
    iterations = 0
    while True:
        # tcp/area are current on every exit from this loop (only the
        # grow step below invalidates them, and it refreshes the levels),
        # so the returned diagnostics reuse the final iteration's values.
        tcp = max(map(bl_get, sources))
        area = float(sum_work(work)) / q
        if tcp <= area or iterations >= limit:
            break
        floor = tcp - _CP_RTOL * tcp
        best = -1
        best_gain = 0.0
        for i in growable:
            g = gain[i]
            if g > best_gain and tl[i] + bl[i] >= floor:
                best = i
                best_gain = g
        if best < 0:
            # Every critical task is capped (or gains nothing): the
            # critical path cannot be shortened further.
            break
        m = alloc[best] + 1
        alloc[best] = m
        t = t_at(best, m - 1)
        w[best] = t
        work[best] = m * t
        if m < caps[best]:
            gain[best] = _gain(t, t_at(best, m))
        else:
            growable.remove(best)
        levels.refresh(best)
        iterations += 1

    return CpaAllocation(
        allocations=tuple(alloc),
        exec_times=tuple(w),
        critical_path=tcp,
        area=area,
        iterations=iterations,
        q=q,
    )


def _gain(t: float, t_next: float) -> float:
    """Relative time saved by one more processor (0 for an empty task)."""
    return (t - t_next) / t if t > 0 else 0.0


class _Levels:
    """Bottom and top levels of a DAG under per-task times ``w``.

    ``bl`` and ``tl`` hold :meth:`TaskGraph.bottom_levels` and
    :meth:`TaskGraph.top_levels` of ``w``; after the caller changes
    ``w[i]``, :meth:`refresh` brings both back to exactly what a full
    recompute gives.
    """

    __slots__ = ("w", "bl", "tl", "_succs", "_preds", "_pos", "_cones")

    def __init__(self, graph: TaskGraph, w: list[float]) -> None:
        self.w = w
        self.bl: list[float] = graph.bottom_levels(w).tolist()
        self.tl: list[float] = graph.top_levels(w).tolist()
        self._succs = graph.successor_table
        self._preds = graph.predecessor_table
        self._pos = graph.topological_positions
        self._cones: dict[int, tuple[list[int], list[int]]] = {}

    def refresh(self, changed: int) -> None:
        """Recompute every level that ``w[changed]`` enters.

        A task's time enters its own bottom level and its ancestors',
        and its descendants' top levels; nothing else.  Those levels are
        recomputed in reverse (bottom) and forward (top) topological
        order, each from final neighbour values with the full
        recompute's expression, so each gets the full recompute's bits.
        CPA grows a critical task, whose time moves most of that cone,
        so the cone is recomputed whole rather than pruned level by
        level.
        """
        cone = self._cones.get(changed)
        if cone is None:
            cone = self._cones[changed] = self._cone(changed)
        up, down = cone
        w, bl, tl = self.w, self.bl, self.tl
        succs, preds = self._succs, self._preds
        bl_get = bl.__getitem__
        for i in up:
            below = succs[i]
            bl[i] = w[i] + max(map(bl_get, below)) if below else w[i]
        for i in down:
            tl[i] = max([tl[j] + w[j] for j in preds[i]])

    def _cone(self, task: int) -> tuple[list[int], list[int]]:
        """``task`` and its ancestors in reverse topological order, and
        its descendants in topological order."""
        reach = []
        for links in (self._preds, self._succs):
            seen = {task}
            stack = [task]
            while stack:
                for j in links[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            reach.append(seen)
        up, down = reach
        down.discard(task)
        key = self._pos.__getitem__
        return sorted(up, key=key, reverse=True), sorted(down, key=key)
