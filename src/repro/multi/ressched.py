"""Forward turn-around scheduling across several clusters.

The single-cluster heuristic generalizes naturally: tasks in decreasing
bottom-level order; for each task, every cluster answers the vectorized
earliest-start query over processor counts up to that cluster's CPA
bound, and the globally earliest completion wins.  Ties prefer fewer
processors, then the cluster listed first (deterministic).

Bottom levels use BL_CPAR semantics with a platform-wide yardstick: CPA
allocations computed for the *largest* per-cluster historical
availability — a task can never use more processors than one cluster
offers, so pooling the clusters' P' values would overestimate.

The platform is held as a :class:`~repro.shard.ShardedCalendar` with one
shard per cluster: probes go through
:meth:`~repro.shard.ShardedCalendar.probe_shards` (heterogeneous
per-cluster execution-time vectors, no facade reduce — the
``(completion, j + 1, idx)`` reduce below is cluster-aware) and commits
through :meth:`~repro.shard.ShardedCalendar.reserve_in`.  The previous
code path — a bare ``dict[str, ResourceCalendar]`` probed cluster by
cluster — is deprecated and was removed; it answered the same queries
serially with no shard observability, and :mod:`repro.shard` subsumes
it (bitwise: the facade routes each leg to the same
``earliest_starts_multi`` / ``reserve`` calls).
"""

from __future__ import annotations

import numpy as np

from repro.cpa import cpa_allocation
from repro.dag import TaskGraph
from repro.errors import GenerationError
from repro.multi.scenario import MultiClusterScenario
from repro.multi.schedule import MultiPlacement, MultiSchedule
from repro.shard import ShardedCalendar


def schedule_ressched_multi(
    graph: TaskGraph,
    scenario: MultiClusterScenario,
    *,
    bound_method: str = "BD_CPAR",
    cpa_stopping: str = "stringent",
) -> MultiSchedule:
    """Minimize turn-around time over several clusters.

    Args:
        graph: The application.
        scenario: The multi-cluster snapshot.
        bound_method: ``"BD_CPAR"`` (CPA allocations at each cluster's
            P' — the single-cluster winner) or ``"BD_ALL"`` (no bound
            beyond each cluster's size; the control).
        cpa_stopping: CPA criterion for all allocation runs.

    Returns:
        A validated-shape :class:`MultiSchedule` (call
        :func:`repro.multi.validate_multi_schedule` to re-check).
    """
    if bound_method not in ("BD_CPAR", "BD_ALL"):
        raise GenerationError(
            f"bound_method must be 'BD_CPAR' or 'BD_ALL', got {bound_method!r}"
        )

    # Per-cluster candidate bounds.
    bounds: dict[str, np.ndarray] = {}
    for cluster in scenario.clusters:
        if bound_method == "BD_ALL":
            bounds[cluster.name] = np.full(graph.n, cluster.capacity, dtype=int)
        else:
            alloc = cpa_allocation(
                graph, cluster.hist_avg_procs, stopping=cpa_stopping
            )
            bounds[cluster.name] = np.array(alloc.allocations, dtype=int)

    # Bottom levels: CPA execution times at the largest cluster P'.
    yardstick_q = max(c.hist_avg_procs for c in scenario.clusters)
    bl_alloc = cpa_allocation(graph, yardstick_q, stopping=cpa_stopping)
    order = graph.priority_order(graph.bottom_levels(bl_alloc.exec_times_array))

    # One shard per cluster; shard id == cluster position.
    platform = ShardedCalendar([c.calendar() for c in scenario.clusters])
    exec_tables = {
        c.name: [graph.task(i).exec_times(c.capacity) for i in range(graph.n)]
        for c in scenario.clusters
    }
    now = scenario.now

    placements: list[MultiPlacement | None] = [None] * graph.n
    for i in order:
        ready = now
        for pred in graph.predecessors(i):
            placement = placements[pred]
            assert placement is not None  # the order is topological
            ready = max(ready, placement.finish)

        requests = [
            (ready, exec_tables[c.name][i][: int(bounds[c.name][i])])
            for c in scenario.clusters
        ]
        answers = platform.probe_shards(requests)
        best: tuple[tuple[float, int, int], str, float, float] | None = None
        for idx, cluster in enumerate(scenario.clusters):
            durations = requests[idx][1]
            starts = answers[idx]
            completions = starts + durations
            j = int(np.argmin(completions))
            key = (float(completions[j]), j + 1, idx)
            if best is None or key < best[0]:
                best = (
                    key, cluster.name, float(starts[j]), float(durations[j])
                )
        assert best is not None
        (_, m, shard), name, start, dur = best
        platform.reserve_in(shard, start, dur, m, label=graph.task(i).name)
        placements[i] = MultiPlacement(
            task=i, cluster=name, start=start, nprocs=m, duration=dur
        )

    return MultiSchedule(
        graph=graph,
        now=now,
        placements=tuple(placements),  # type: ignore[arg-type]
        algorithm=f"MULTI_{bound_method}",
    )
