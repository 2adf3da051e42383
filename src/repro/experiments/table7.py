"""Table 7: the hybrid algorithms on the Grid'5000 dataset.

Same protocol as Table 6 but comparing DL_BD_CPA, DL_RC_CPAR, and the two
λ-hybrids, plus the paper's prose statistics: average CPU-hours saved
relative to the aggressive algorithm at loose deadlines, and the relative
tightest-deadline improvements of the hybrids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.parallel import run_sweep
from repro.experiments.runner import iter_grid5000_instances
from repro.experiments.scenarios import ExperimentScale
from repro.experiments.table6 import (
    DeadlineComparison,
    _accumulate_deadline,
    _deadline_instance,
)

#: Table 7's four competitors, in paper row order.
TABLE7_ALGORITHMS = (
    "DL_BD_CPA",
    "DL_RC_CPAR",
    "DL_RC_CPAR-lambda",
    "DL_RCBD_CPAR-lambda",
)


@dataclass(frozen=True)
class Table7Result:
    """The Grid'5000 comparison plus the paper's savings statistics."""

    comparison: DeadlineComparison
    #: Mean CPU-hours saved vs DL_BD_CPA at the loose deadline, per
    #: algorithm (positive = saves).
    cpu_hours_saved_vs_aggressive: dict[str, float]


def run_table7(
    scale: ExperimentScale,
    *,
    algorithms: tuple[str, ...] = TABLE7_ALGORITHMS,
) -> Table7Result:
    """Run the Table 7 protocol on the Grid'5000 instance stream
    (``scale.n_workers`` processes).

    Raises:
        ExecutionError: After the sweep, if any instance failed.
    """
    comparison = _accumulate_deadline(
        "Grid5000",
        run_sweep(
            _deadline_instance,
            iter_grid5000_instances,
            (scale,),
            n_workers=scale.n_workers,
            work_kwargs={"algorithms": algorithms},
        ).require_complete(),
    )
    saved: dict[str, list[float]] = {a: [] for a in algorithms if a != "DL_BD_CPA"}
    for per_alg in comparison.loose_cpu_hours._per_scenario_vals.values():
        base = np.asarray(per_alg.get("DL_BD_CPA", []), dtype=float)
        for alg, vals in saved.items():
            mine = np.asarray(per_alg.get(alg, []), dtype=float)
            n = min(base.size, mine.size)
            vals.extend((base[:n] - mine[:n]).tolist())
    return Table7Result(
        comparison=comparison,
        cpu_hours_saved_vs_aggressive={
            alg: float(np.nanmean(v)) if v else float("nan")
            for alg, v in saved.items()
        },
    )


def format_table7(result: Table7Result) -> str:
    """Paper-style rendering of Table 7."""
    t = result.comparison.tightest.summarize()
    c = result.comparison.loose_cpu_hours.summarize()
    lines = [
        "Table 7 (Grid'5000): tightest deadline / loose-deadline CPU-hours",
        f"{'Algorithm':<22} {'tightest deg [%]':>17} {'CPU deg [%]':>12}",
    ]
    for alg in TABLE7_ALGORITHMS:
        if alg not in t:
            continue
        lines.append(
            f"{alg:<22} {t[alg].avg_degradation:>17.2f} "
            f"{c[alg].avg_degradation:>12.2f}"
        )
    lines.append("")
    lines.append("Mean CPU-hours saved vs DL_BD_CPA at the loose deadline:")
    for alg, v in result.cpu_hours_saved_vs_aggressive.items():
        lines.append(f"  {alg:<22} {v:>10.1f}")
    return "\n".join(lines)
