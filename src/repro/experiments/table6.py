"""Table 6: deadline algorithms — tightest deadline and loose-deadline cost.

For each instance the paper determines, per algorithm, (i) the tightest
deadline it can meet (binary search) and (ii) the CPU-hours it spends
when given a loose deadline — 50 % larger than the loosest tightest
deadline across the algorithms.  Both metrics are summarized as average
degradation from best, split by tagging fraction phi (synthetic logs)
plus a Grid'5000 column.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from repro.core import ProblemContext, schedule_deadline, tightest_deadline
from repro.core.metrics import ComparisonTable
from repro.errors import InfeasibleError
from repro.experiments.parallel import run_sweep
from repro.experiments.runner import (
    InstanceStream,
    iter_grid5000_instances,
    iter_problem_instances,
)
from repro.experiments.scenarios import ExperimentScale

#: Table 6's five competitors, in paper row order.
TABLE6_ALGORITHMS = (
    "DL_BD_ALL",
    "DL_BD_CPA",
    "DL_BD_CPAR",
    "DL_RC_CPA",
    "DL_RC_CPAR",
)

#: The loose deadline is this factor times the loosest tightest deadline.
LOOSE_FACTOR = 1.5


@dataclass(frozen=True)
class DeadlineComparison:
    """Tightest-deadline and loose-deadline-cost tables for one column."""

    column: str
    tightest: ComparisonTable
    loose_cpu_hours: ComparisonTable


def _deadline_instance(
    inst: InstanceStream,
    *,
    algorithms: tuple[str, ...],
) -> tuple[dict[str, float], dict[str, float] | None]:
    """Per-instance work: tightest deadlines plus loose-deadline costs.

    Module-level so process-pool workers can import it by reference.
    Returns ``(tight, cpu)``; ``cpu`` is None when no algorithm found any
    feasible deadline (the loose-deadline phase is then undefined).
    """
    ctx = ProblemContext(inst.graph, inst.scenario)
    now = inst.scenario.now

    tight: dict[str, float] = {}
    for alg in algorithms:
        try:
            td = tightest_deadline(inst.graph, inst.scenario, alg, context=ctx)
            tight[alg] = td.turnaround(now)
        except InfeasibleError:
            tight[alg] = float("nan")

    finite = [v for v in tight.values() if np.isfinite(v)]
    if not finite:
        return tight, None
    loose_deadline = now + LOOSE_FACTOR * max(finite)
    cpu: dict[str, float] = {}
    for alg in algorithms:
        res = schedule_deadline(
            inst.graph, inst.scenario, loose_deadline, alg, context=ctx
        )
        cpu[alg] = res.cpu_hours
    return tight, cpu


def _accumulate_deadline(
    column: str,
    pairs: list[tuple[str, tuple[dict[str, float], dict[str, float] | None]]],
) -> DeadlineComparison:
    """Fold per-instance results (in global stream order) into tables."""
    tightest = ComparisonTable(metric="tightest deadline (turnaround)")
    loose = ComparisonTable(metric="CPU-hours at loose deadline")
    for key, (tight, cpu) in pairs:
        tightest.add(key, tight)
        if cpu is not None:
            loose.add(key, cpu)
    return DeadlineComparison(column=column, tightest=tightest, loose_cpu_hours=loose)


def compare_deadline_algorithms(
    column: str,
    instances: Iterable[InstanceStream],
    *,
    algorithms: tuple[str, ...] = TABLE6_ALGORITHMS,
) -> DeadlineComparison:
    """Run the Table 6 protocol over in-hand instances, serially.

    Raises:
        ExecutionError: After the sweep, if any instance failed.
    """
    return _accumulate_deadline(
        column,
        run_sweep(
            _deadline_instance, iter, (instances,),
            work_kwargs={"algorithms": algorithms},
        ).require_complete(),
    )


def run_table6(
    scale: ExperimentScale,
    *,
    log: str = "SDSC_BLUE",
    algorithms: tuple[str, ...] = TABLE6_ALGORITHMS,
) -> list[DeadlineComparison]:
    """Table 6: one column per phi on ``log``, plus a Grid'5000 column.

    The paper restricts the synthetic columns to SDSC_BLUE because the
    tightest-deadline search is expensive; pass a different ``log`` to
    explore the others.  Each column fans out over ``scale.n_workers``
    processes.

    Raises:
        ExecutionError: After a column's sweep, if any of its instances
            failed.
    """
    sweeps = [
        (
            f"phi={phi}",
            iter_problem_instances,
            replace(scale, logs=(log,), phis=(phi,)),
        )
        for phi in scale.phis
    ]
    sweeps.append(("Grid5000", iter_grid5000_instances, scale))
    return [
        _accumulate_deadline(
            column,
            run_sweep(
                _deadline_instance,
                factory,
                (sub,),
                n_workers=scale.n_workers,
                work_kwargs={"algorithms": algorithms},
            ).require_complete(),
        )
        for column, factory, sub in sweeps
    ]


def format_table6(columns: list[DeadlineComparison]) -> str:
    """Paper-style rendering: degradation-from-best per column."""
    algs = columns[0].tightest.algorithms if columns else []
    header = f"{'Algorithm':<20}" + "".join(
        f" {c.column:>12}" for c in columns
    )
    lines = ["Tightest deadline (avg % degradation from best)", header]
    summaries_t = [c.tightest.summarize() for c in columns]
    for alg in algs:
        row = f"{alg:<20}"
        for s in summaries_t:
            v = s[alg].avg_degradation if alg in s else float("nan")
            row += f" {v:>12.2f}"
        lines.append(row)
    lines.append("")
    lines.append("CPU-hours at loose deadline (avg % degradation from best)")
    lines.append(header)
    summaries_c = [c.loose_cpu_hours.summarize() for c in columns]
    for alg in algs:
        row = f"{alg:<20}"
        for s in summaries_c:
            v = s[alg].avg_degradation if alg in s else float("nan")
            row += f" {v:>12.2f}"
        lines.append(row)
    return "\n".join(lines)
