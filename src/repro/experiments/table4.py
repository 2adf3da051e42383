"""Table 4: RESSCHED results with synthetic reservation schedules.

Compares the four allocation-bounding methods (BD_ALL, BD_HALF, BD_CPA,
BD_CPAR; bottom levels always BL_CPAR) on two metrics — turn-around time
and CPU-hours — reporting average degradation from best and win counts,
exactly as the paper's Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import ProblemContext, ResSchedAlgorithm, schedule_ressched
from repro.core.metrics import ComparisonTable
from repro.experiments.parallel import run_sweep
from repro.experiments.runner import InstanceStream, iter_problem_instances
from repro.experiments.scenarios import ExperimentScale

#: The Table 4/5 competitors, in paper row order.
TABLE4_BD_METHODS = ("BD_ALL", "BD_HALF", "BD_CPA", "BD_CPAR")


@dataclass(frozen=True)
class Table4Result:
    """Both metric tables, ready for formatting or assertions."""

    turnaround: ComparisonTable
    cpu_hours: ComparisonTable


def _bd_instance(
    inst: InstanceStream,
    *,
    bd_methods: tuple[str, ...],
    bl: str,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-instance work: both metrics for every BD method.

    Module-level so process-pool workers can import it by reference.
    """
    ctx = ProblemContext(inst.graph, inst.scenario)
    tat: dict[str, float] = {}
    cpu: dict[str, float] = {}
    for bd in bd_methods:
        sched = schedule_ressched(
            inst.graph,
            inst.scenario,
            ResSchedAlgorithm(bl=bl, bd=bd),
            context=ctx,
        )
        tat[bd] = sched.turnaround
        cpu[bd] = sched.cpu_hours
    return tat, cpu


def _accumulate_bd(
    pairs: list[tuple[str, tuple[dict[str, float], dict[str, float]]]],
) -> Table4Result:
    """Fold per-instance results (in global stream order) into tables."""
    turnaround = ComparisonTable(metric="turn-around time")
    cpu_hours = ComparisonTable(metric="CPU-hours")
    for key, (tat, cpu) in pairs:
        turnaround.add(key, tat)
        cpu_hours.add(key, cpu)
    return Table4Result(turnaround=turnaround, cpu_hours=cpu_hours)


def run_table4(scale: ExperimentScale) -> Table4Result:
    """Table 4: the synthetic-log grid (``scale.n_workers`` processes).

    Raises:
        ExecutionError: After the sweep, if any instance failed.
    """
    return _accumulate_bd(
        run_sweep(
            _bd_instance,
            iter_problem_instances,
            (scale,),
            n_workers=scale.n_workers,
            work_kwargs={"bd_methods": TABLE4_BD_METHODS, "bl": "BL_CPAR"},
        ).require_complete()
    )


def format_table4(result: Table4Result, *, title: str = "Table 4") -> str:
    """Paper-style two-metric table."""
    t = result.turnaround.summarize()
    c = result.cpu_hours.summarize()
    lines = [
        f"{title}: turn-around time and CPU-hours "
        f"({result.turnaround.n_scenarios} scenarios)",
        f"{'Algorithm':<10} {'TAT deg [%]':>12} {'TAT wins':>9} "
        f"{'CPU deg [%]':>12} {'CPU wins':>9}",
    ]
    for bd in TABLE4_BD_METHODS:
        if bd not in t:
            continue
        lines.append(
            f"{bd:<10} {t[bd].avg_degradation:>12.2f} {t[bd].wins:>9} "
            f"{c[bd].avg_degradation:>12.2f} {c[bd].wins:>9}"
        )
    return "\n".join(lines)
