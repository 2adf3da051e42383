"""Table 5: RESSCHED results with Grid'5000 reservation schedules.

Same comparison as Table 4 but on reservation scenarios extracted from
the (synthetic) Grid'5000 reservation log at random start times.
"""

from __future__ import annotations

from repro.experiments.parallel import run_sweep
from repro.experiments.runner import iter_grid5000_instances
from repro.experiments.scenarios import ExperimentScale
from repro.experiments.table4 import (
    TABLE4_BD_METHODS,
    Table4Result,
    _accumulate_bd,
    _bd_instance,
    format_table4,
)


def run_table5(scale: ExperimentScale) -> Table4Result:
    """Table 5: the Grid'5000 stream (``scale.n_workers`` processes).

    Raises:
        ExecutionError: After the sweep, if any instance failed.
    """
    return _accumulate_bd(
        run_sweep(
            _bd_instance,
            iter_grid5000_instances,
            (scale,),
            n_workers=scale.n_workers,
            work_kwargs={"bd_methods": TABLE4_BD_METHODS, "bl": "BL_CPAR"},
        ).require_complete()
    )


def format_table5(result: Table4Result) -> str:
    """Paper-style rendering."""
    return format_table4(result, title="Table 5 (Grid'5000)")
