"""Bottom-level computation methods (paper §4.2, first question).

Bottom levels order the tasks for scheduling, and computing them requires
an execution time per task — which depends on an allocation that has not
been decided yet.  The paper evaluates four ways to break the circle:

* **BL_1** — every task on a single processor (sequential times);
* **BL_ALL** — every task on all ``p`` processors;
* **BL_CPA** — CPA allocations computed for ``p`` processors;
* **BL_CPAR** — CPA allocations computed for ``q = P'`` processors, the
  historical average availability.

§4.3.1 finds BL_CPAR best (marginally over BL_CPA); the rest of the
paper — and this library's defaults — use BL_CPAR.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import ProblemContext
from repro.errors import GenerationError

#: The four bottom-level methods, in paper order.
BL_METHODS: tuple[str, ...] = ("BL_1", "BL_ALL", "BL_CPA", "BL_CPAR")

#: Paper methods plus extensions (BL_ICASLB: iCASLB allocations at P').
BL_METHODS_EXTENDED: tuple[str, ...] = BL_METHODS + ("BL_ICASLB",)


def bl_exec_times(ctx: ProblemContext, method: str) -> np.ndarray:
    """Per-task execution times to use when computing bottom levels.

    Args:
        ctx: The problem instance.
        method: One of :data:`BL_METHODS`.

    Returns:
        Array of execution times indexed by task.
    """
    if method == "BL_1":
        return np.array([t.seq_time for t in ctx.graph.tasks])
    if method == "BL_ALL":
        return np.array([table[ctx.p - 1] for table in ctx.exec_tables])
    if method == "BL_CPA":
        return ctx.cpa_p.exec_times_array
    if method == "BL_CPAR":
        return ctx.cpa_q.exec_times_array
    if method == "BL_ICASLB":
        return ctx.icaslb_q.exec_times_array
    raise GenerationError(
        f"unknown bottom-level method {method!r}; expected one of "
        f"{BL_METHODS_EXTENDED}"
    )


def bl_priority_order(ctx: ProblemContext, method: str) -> list[int]:
    """Tasks in decreasing ``method`` bottom-level order, as a topological
    order (:meth:`~repro.dag.TaskGraph.priority_order`): the forward
    scheduling order; reverse it for backward deadline scheduling."""
    graph = ctx.graph
    return graph.priority_order(graph.bottom_levels(bl_exec_times(ctx, method)))
