"""CPA mapping phase: bottom-level list scheduling on a dedicated cluster.

Given per-task allocations (normally from :func:`repro.cpa.cpa_allocation`),
tasks are placed in decreasing bottom-level order at the earliest instant
when their allocation is simultaneously free on a *reservation-free*
cluster of ``q`` processors, never before their predecessors complete.

The order is :meth:`~repro.dag.TaskGraph.priority_order`, which stays
topological even where float rounding gives a predecessor the same bottom
level as its successor.

This mapping serves two roles in the library: composed with the
allocation phase it is the complete CPA scheduler (the no-reservation
baseline — ``BL_CPA_BD_CPA`` degenerates to it on an empty reservation
schedule); and the resource-conservative deadline algorithms re-run it on
the not-yet-scheduled subgraph before every task decision to obtain the
guideline start times ``S_i``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cpa.cluster import IdleCluster
from repro.cpa.allocation import cpa_allocation
from repro.dag import TaskGraph
from repro.errors import GenerationError
from repro.obs import core as _obs
from repro.schedule import Schedule, TaskPlacement


def cpa_map(
    graph: TaskGraph,
    allocations: Sequence[int],
    q: int,
    *,
    start_time: float = 0.0,
    algorithm: str = "CPA",
) -> Schedule:
    """List-schedule ``graph`` on an idle ``q``-processor cluster.

    Args:
        graph: The application.
        allocations: Processors per task (each in ``1..q``).
        q: Cluster size.
        start_time: No task may start earlier (the deadline algorithms map
            the remaining subgraph from "now").
        algorithm: Label recorded on the schedule.

    Returns:
        The schedule; its ``now`` is ``start_time``.
    """
    if len(allocations) != graph.n:
        raise GenerationError(
            f"allocations must have length {graph.n}, got {len(allocations)}"
        )
    alloc = [int(m) for m in allocations]
    if any(not 1 <= m <= q for m in alloc):
        raise GenerationError(f"allocations must lie in 1..{q}")
    if _obs.ENABLED:
        _obs.incr("cpa.map_calls")
        _obs.observe("cpa.map_tasks", graph.n)

    exec_t = np.array(
        [graph.task(i).exec_time(alloc[i]) for i in range(graph.n)]
    )
    order = graph.priority_order(graph.bottom_levels(exec_t))

    cal = IdleCluster(q)
    placements: list[TaskPlacement | None] = [None] * graph.n
    for i in order:
        ready = start_time
        for pred in graph.predecessors(i):
            placement = placements[pred]
            assert placement is not None  # the order is topological
            ready = max(ready, placement.finish)
        start = cal.earliest_start(ready, float(exec_t[i]), alloc[i])
        cal.reserve(start, float(exec_t[i]), alloc[i])
        placements[i] = TaskPlacement(
            task=i, start=start, nprocs=alloc[i], duration=float(exec_t[i])
        )
    return Schedule(
        graph=graph,
        now=start_time,
        placements=tuple(placements),  # type: ignore[arg-type]
        algorithm=algorithm,
    )


def cpa_schedule(
    graph: TaskGraph,
    q: int,
    *,
    start_time: float = 0.0,
    stopping: str = "stringent",
) -> Schedule:
    """The full CPA scheduler: allocation phase then mapping phase."""
    allocation = cpa_allocation(graph, q, stopping=stopping)
    return cpa_map(
        graph,
        allocation.allocations,
        q,
        start_time=start_time,
        algorithm=f"CPA(q={q})",
    )
