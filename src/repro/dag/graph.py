"""Immutable task graphs with the structural queries schedulers need.

A :class:`TaskGraph` stores tasks in a fixed index order (0..n-1) and edges
as predecessor/successor adjacency tuples.  All scheduling code addresses
tasks by index; names exist for I/O and display.

The graph is validated at construction to be acyclic with no dangling
endpoints.  A *single* entry and exit task is what the paper assumes for
generated applications, but it is **not** required here: the
resource-conservative deadline algorithms repeatedly schedule induced
subgraphs of not-yet-scheduled tasks, and those naturally have several
sources and sinks.
"""

from __future__ import annotations

import heapq
import struct
from functools import cached_property
from hashlib import blake2b
from typing import Iterable, Sequence

import numpy as np

from repro.dag.task import Task
from repro.errors import InvalidDagError


class TaskGraph:
    """A directed acyclic graph of moldable tasks.

    Args:
        tasks: Tasks in index order; names must be unique.
        edges: Iterable of ``(u, v)`` index pairs meaning "u precedes v".

    Raises:
        InvalidDagError: on cycles, out-of-range or self-loop edges, or
            duplicate task names.
    """

    __slots__ = ("_tasks", "_preds", "_succs", "_name_to_index", "__dict__")

    def __init__(self, tasks: Sequence[Task], edges: Iterable[tuple[int, int]]):
        self._tasks: tuple[Task, ...] = tuple(tasks)
        n = len(self._tasks)
        if n == 0:
            raise InvalidDagError("a task graph must contain at least one task")

        names = [t.name for t in self._tasks]
        if len(set(names)) != n:
            seen: set[str] = set()
            dup = next(x for x in names if x in seen or seen.add(x))  # type: ignore[func-returns-value]
            raise InvalidDagError(f"duplicate task name: {dup!r}")
        self._name_to_index = {name: i for i, name in enumerate(names)}

        pred_sets: list[set[int]] = [set() for _ in range(n)]
        succ_sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidDagError(f"edge ({u}, {v}) references a missing task")
            if u == v:
                raise InvalidDagError(f"self-loop on task index {u}")
            succ_sets[u].add(v)
            pred_sets[v].add(u)
        self._preds: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in pred_sets
        )
        self._succs: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in succ_sets
        )
        # Computing the topological order validates acyclicity eagerly.
        _ = self.topological_order

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self._tasks)

    @property
    def tasks(self) -> tuple[Task, ...]:
        """Tasks in index order."""
        return self._tasks

    def task(self, i: int) -> Task:
        """The task at index ``i``."""
        return self._tasks[i]

    def index_of(self, name: str) -> int:
        """Index of the task named ``name``."""
        try:
            return self._name_to_index[name]
        except KeyError:
            raise InvalidDagError(f"no task named {name!r}") from None

    def predecessors(self, i: int) -> tuple[int, ...]:
        """Indices of direct predecessors of task ``i``."""
        return self._preds[i]

    def successors(self, i: int) -> tuple[int, ...]:
        """Indices of direct successors of task ``i``."""
        return self._succs[i]

    @property
    def predecessor_table(self) -> tuple[tuple[int, ...], ...]:
        """:meth:`predecessors` of every task, indexed by task."""
        return self._preds

    @property
    def successor_table(self) -> tuple[tuple[int, ...], ...]:
        """:meth:`successors` of every task, indexed by task."""
        return self._succs

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as ``(u, v)`` pairs, sorted."""
        return tuple(
            (u, v) for u in range(self.n) for v in self._succs[u]
        )

    @property
    def n_edges(self) -> int:
        """Number of edges."""
        return len(self.edges)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @cached_property
    def topological_order(self) -> tuple[int, ...]:
        """A topological order of task indices (Kahn's algorithm).

        Raises:
            InvalidDagError: if the graph contains a cycle.
        """
        n = self.n
        indeg = [len(self._preds[i]) for i in range(n)]
        frontier = [i for i in range(n) if indeg[i] == 0]
        order: list[int] = []
        while frontier:
            # Pop from the end (stack order); determinism matters, speed
            # does not at these sizes.
            i = frontier.pop()
            order.append(i)
            for j in self._succs[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    frontier.append(j)
        if len(order) != n:
            raise InvalidDagError("task graph contains a cycle")
        return tuple(order)

    @cached_property
    def topological_positions(self) -> tuple[int, ...]:
        """Position of each task in :attr:`topological_order`."""
        pos = [0] * self.n
        for k, i in enumerate(self.topological_order):
            pos[i] = k
        return tuple(pos)

    @cached_property
    def sources(self) -> tuple[int, ...]:
        """Tasks with no predecessors."""
        return tuple(i for i in range(self.n) if not self._preds[i])

    @cached_property
    def sinks(self) -> tuple[int, ...]:
        """Tasks with no successors."""
        return tuple(i for i in range(self.n) if not self._succs[i])

    @property
    def entry(self) -> int:
        """The unique entry task.

        Raises:
            InvalidDagError: if the graph has several sources.
        """
        if len(self.sources) != 1:
            raise InvalidDagError(
                f"graph has {len(self.sources)} entry tasks, expected exactly 1"
            )
        return self.sources[0]

    @property
    def exit(self) -> int:
        """The unique exit task.

        Raises:
            InvalidDagError: if the graph has several sinks.
        """
        if len(self.sinks) != 1:
            raise InvalidDagError(
                f"graph has {len(self.sinks)} exit tasks, expected exactly 1"
            )
        return self.sinks[0]

    @cached_property
    def levels(self) -> tuple[int, ...]:
        """Level of each task: length of the longest edge path from a source.

        Sources are level 0.  In a generator-produced layered DAG
        (``jump = 1``) every edge goes from level ``l`` to ``l + 1``.
        """
        level = [0] * self.n
        for i in self.topological_order:
            for j in self._succs[i]:
                level[j] = max(level[j], level[i] + 1)
        return tuple(level)

    @cached_property
    def level_sets(self) -> tuple[tuple[int, ...], ...]:
        """Task indices grouped by level, in level order."""
        n_levels = max(self.levels) + 1
        groups: list[list[int]] = [[] for _ in range(n_levels)]
        for i, lvl in enumerate(self.levels):
            groups[lvl].append(i)
        return tuple(tuple(g) for g in groups)

    @property
    def n_levels(self) -> int:
        """Number of levels."""
        return len(self.level_sets)

    @property
    def max_level_width(self) -> int:
        """Number of tasks in the widest level — the paper's notion of the
        DAG's maximum parallelism."""
        return max(len(g) for g in self.level_sets)

    # ------------------------------------------------------------------
    # Bottom / top levels and the critical path
    # ------------------------------------------------------------------

    def bottom_levels(self, exec_times: Sequence[float] | np.ndarray) -> np.ndarray:
        """Bottom level of each task under the given per-task execution times.

        ``BL(i) = exec_times[i] + max over successors j of BL(j)`` (0 max for
        sinks): the longest path weight from task ``i`` to any sink,
        *including* task ``i`` itself.

        Args:
            exec_times: Execution time of each task under whatever
                allocation the caller has chosen (length ``n``).

        Returns:
            Array of bottom levels, indexed by task.
        """
        w = np.asarray(exec_times, dtype=float)
        if w.shape != (self.n,):
            raise ValueError(
                f"exec_times must have shape ({self.n},), got {w.shape}"
            )
        # Plain-list arithmetic: Python-float scalar indexing is several
        # times faster than np.float64 indexing, and bit-identical (both
        # are IEEE double ops).
        wl = w.tolist()
        bl = [0.0] * self.n
        bl_get = bl.__getitem__
        for i in reversed(self.topological_order):
            succs = self._succs[i]
            bl[i] = wl[i] + max(map(bl_get, succs)) if succs else wl[i]
        return np.asarray(bl)

    def priority_order(self, levels: Sequence[float] | np.ndarray) -> list[int]:
        """Tasks by decreasing ``levels`` (normally bottom levels), as a
        topological order: the list schedulers' visiting order.

        Kahn's algorithm with a ready heap keyed ``(-levels[i], i)``: the
        next task is the ready one with the largest level, ties broken by
        task index.  When ``levels`` strictly decreases along every edge
        this is ``sorted(range(n), key=lambda i: (-levels[i], i))``; unlike
        that sort it stays topological when float rounding gives a
        predecessor the same bottom level as its successor (a task whose
        time vanishes next to its successor's).
        """
        key = [-x for x in np.asarray(levels, dtype=float).tolist()]
        indegree = [len(preds) for preds in self._preds]
        heap = [(key[i], i) for i in range(self.n) if not indegree[i]]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            i = heapq.heappop(heap)[1]
            order.append(i)
            for j in self._succs[i]:
                indegree[j] -= 1
                if not indegree[j]:
                    heapq.heappush(heap, (key[j], j))
        return order

    def top_levels(self, exec_times: Sequence[float] | np.ndarray) -> np.ndarray:
        """Top level of each task: longest path weight from any source to
        task ``i``, *excluding* task ``i`` (its earliest possible start in a
        contention-free execution)."""
        w = np.asarray(exec_times, dtype=float)
        if w.shape != (self.n,):
            raise ValueError(
                f"exec_times must have shape ({self.n},), got {w.shape}"
            )
        wl = w.tolist()
        tl = [0.0] * self.n
        for i in self.topological_order:
            preds = self._preds[i]
            tl[i] = max([tl[j] + wl[j] for j in preds]) if preds else 0.0
        return np.asarray(tl)

    def critical_path(
        self, exec_times: Sequence[float] | np.ndarray
    ) -> tuple[float, tuple[int, ...]]:
        """The longest (weighted) source-to-sink path.

        Returns:
            ``(length, path)`` where ``length`` is the sum of execution times
            along the path and ``path`` lists task indices source-first.
        """
        bl = self.bottom_levels(exec_times)
        w = np.asarray(exec_times, dtype=float)
        start = int(max(self.sources, key=lambda i: bl[i]))
        path = [start]
        while self._succs[path[-1]]:
            path.append(int(max(self._succs[path[-1]], key=lambda j: bl[j])))
        return float(bl[start]), tuple(path)

    def total_work(self, allocations: Sequence[int] | None = None) -> float:
        """Total CPU-seconds: sum of ``m_i * T_i(m_i)``.

        With ``allocations=None`` every task runs sequentially (``m = 1``).
        """
        if allocations is None:
            return float(sum(t.seq_time for t in self._tasks))
        if len(allocations) != self.n:
            raise ValueError(
                f"allocations must have length {self.n}, got {len(allocations)}"
            )
        return float(
            sum(t.work(int(m)) for t, m in zip(self._tasks, allocations))
        )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def subgraph(self, indices: Iterable[int]) -> tuple["TaskGraph", dict[int, int]]:
        """Induced subgraph on ``indices``.

        Returns:
            ``(graph, old_to_new)`` where ``old_to_new`` maps this graph's
            task indices to the subgraph's.
        """
        keep = sorted(set(indices))
        if not keep:
            raise InvalidDagError("cannot take an empty subgraph")
        for i in keep:
            if not 0 <= i < self.n:
                raise InvalidDagError(f"subgraph index {i} out of range")
        old_to_new = {old: new for new, old in enumerate(keep)}
        tasks = [self._tasks[old] for old in keep]
        edges = [
            (old_to_new[u], old_to_new[v])
            for u in keep
            for v in self._succs[u]
            if v in old_to_new
        ]
        return TaskGraph(tasks, edges), old_to_new

    def transitive_reduction_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges of the transitive reduction (drops redundant precedence).

        Handy for rendering; schedulers use the full edge set.
        """
        # reach[i] = set of nodes reachable from i (excluding i).
        reach: dict[int, set[int]] = {i: set() for i in range(self.n)}
        for i in reversed(self.topological_order):
            for j in self._succs[i]:
                reach[i].add(j)
                reach[i] |= reach[j]
        kept = []
        for u in range(self.n):
            for v in self._succs[u]:
                # (u, v) is redundant if v is reachable from some other
                # successor of u.
                if not any(v in reach[w] for w in self._succs[u] if w != v):
                    kept.append((u, v))
        return tuple(kept)

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"TaskGraph(n={self.n}, edges={self.n_edges}, "
            f"levels={self.n_levels}, width={self.max_level_width})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return self._tasks == other._tasks and self._succs == other._succs

    def __hash__(self) -> int:
        return hash((self._tasks, self._succs))

    @cached_property
    def content_digest(self) -> str:
        """Stable hex digest of the graph's full content.

        Covers task names, the IEEE-754 bits of sequential times, the
        speedup-model parameters (via the frozen dataclasses' ``repr``,
        which renders floats with round-trip precision), and the edge
        set.  Two graphs share a digest iff they compare ``==``, and the
        digest is stable across processes and runs (``hash()`` is not:
        string hashing is randomized per process).  This is the
        sweep-level allocation-cache key — identical DAG instances
        recurring across experiment grid cells resolve to the same
        digest in every worker.
        """
        h = blake2b(digest_size=16)
        h.update(struct.pack("<Q", self.n))
        for t in self._tasks:
            name = t.name.encode()
            h.update(struct.pack("<Qd", len(name), t.seq_time))
            h.update(name)
            model = repr(t.model).encode()
            h.update(struct.pack("<Q", len(model)))
            h.update(model)
        for u, succs in enumerate(self._succs):
            for v in succs:
                h.update(struct.pack("<QQ", u, v))
        return h.hexdigest()


def chain_graph(tasks: Sequence[Task]) -> TaskGraph:
    """A linear chain ``t0 -> t1 -> ... -> t{n-1}`` (test/demo helper)."""
    return TaskGraph(tasks, [(i, i + 1) for i in range(len(tasks) - 1)])


def fork_join_graph(entry: Task, middle: Sequence[Task], exit_: Task) -> TaskGraph:
    """A fork-join: entry fans out to ``middle`` which joins into ``exit_``."""
    tasks = [entry, *middle, exit_]
    k = len(middle)
    edges = [(0, 1 + i) for i in range(k)] + [(1 + i, k + 1) for i in range(k)]
    if k == 0:
        edges = [(0, 1)]
    return TaskGraph(tasks, edges)
