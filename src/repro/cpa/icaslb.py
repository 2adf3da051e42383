"""iCASLB-style one-step allocation (extension; paper §7 future work).

The paper suggests using iCASLB (Vydyanathan et al., ICPP 2006) instead
of CPA as the basis for reservation-aware scheduling: a *one-step*
algorithm that grows allocations while watching the **actual mapped
makespan** rather than CPA's critical-path/area proxy, with a look-ahead
that tolerates temporarily non-improving steps to escape local minima.
The mapping it iterates is the same hole-filling (backfilling) list
scheduler used by the CPA mapping phase.

This implementation is inspired-by rather than line-faithful (the
original targets a different cost model and adds priority tweaks); what
it preserves — and what the ablation bench exercises — is the defining
trait: allocation decisions are validated against real schedules, at a
substantially higher cost than CPA's two-phase split.

Algorithm:

1. Start from one processor per task; map; record the makespan.
2. Candidates: tasks on the current critical path (under current
   execution times) whose allocation can still grow.
3. Tentatively give each candidate one extra processor, re-map, and
   keep the best resulting makespan.  Accept improvements immediately;
   accept up to ``lookahead`` consecutive non-improving steps before
   reverting to the best allocation seen and stopping.
"""

from __future__ import annotations

import numpy as np

from repro.cpa.allocation import _CP_RTOL, CpaAllocation, allocation_caps
from repro.cpa.mapping import cpa_map
from repro.dag import TaskGraph
from repro.errors import GenerationError


def icaslb_allocation(
    graph: TaskGraph,
    q: int,
    *,
    lookahead: int = 2,
    max_iterations: int | None = None,
    cap_per_level: bool = True,
) -> CpaAllocation:
    """Compute allocations with makespan-driven iterative growth.

    Args:
        graph: The application.
        q: Processors available.
        lookahead: Consecutive non-improving growth steps tolerated
            before giving up (the look-ahead escape from local minima).
        max_iterations: Cap on growth steps (default ``n * (q - 1)``).
        cap_per_level: Apply the same per-level caps as the stringent
            CPA criterion, keeping the search space comparable.

    Returns:
        A :class:`CpaAllocation` whose ``critical_path`` field holds the
        best *mapped makespan* found (not the path-length proxy).
    """
    if q < 1:
        raise GenerationError(f"q must be >= 1, got {q}")
    if lookahead < 0:
        raise GenerationError(f"lookahead must be >= 0, got {lookahead}")

    n = graph.n
    caps = (
        allocation_caps(graph, q, "stringent")
        if cap_per_level
        else allocation_caps(graph, q, "classic")
    )
    exec_table = [graph.task(i).exec_times(q) for i in range(n)]

    def mapped_makespan(alloc: np.ndarray) -> float:
        sched = cpa_map(graph, [int(m) for m in alloc], q)
        return sched.turnaround

    alloc = np.ones(n, dtype=int)
    exec_t = np.array([exec_table[i][0] for i in range(n)])
    best_alloc = alloc.copy()
    best_mk = current_mk = mapped_makespan(alloc)

    cap = max_iterations if max_iterations is not None else n * max(q - 1, 0)
    misses = 0
    iterations = 0
    while iterations < cap:
        bl = graph.bottom_levels(exec_t)
        tl = graph.top_levels(exec_t)
        tcp = float(max(bl[i] for i in graph.sources))
        tol = _CP_RTOL * tcp
        candidates = [
            i
            for i in range(n)
            if alloc[i] < caps[i] and tl[i] + bl[i] >= tcp - tol
        ]
        if not candidates:
            break

        # Look-ahead evaluation: real makespan of each one-step growth.
        best_step: tuple[float, int] | None = None
        for i in candidates:
            alloc[i] += 1
            mk = mapped_makespan(alloc)
            alloc[i] -= 1
            if best_step is None or mk < best_step[0]:
                best_step = (mk, i)
        assert best_step is not None
        mk, chosen = best_step
        alloc[chosen] += 1
        exec_t[chosen] = exec_table[chosen][alloc[chosen] - 1]
        current_mk = mk
        iterations += 1

        if current_mk < best_mk - 1e-9:
            best_mk = current_mk
            best_alloc = alloc.copy()
            misses = 0
        else:
            misses += 1
            if misses > lookahead:
                break

    exec_best = np.array(
        [exec_table[i][best_alloc[i] - 1] for i in range(n)]
    )
    area = float((best_alloc * exec_best).sum()) / q
    return CpaAllocation(
        allocations=tuple(int(m) for m in best_alloc),
        exec_times=tuple(float(t) for t in exec_best),
        critical_path=best_mk,
        area=area,
        iterations=iterations,
        q=q,
    )
