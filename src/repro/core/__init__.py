"""The paper's reservation-aware schedulers for RESSCHED and RESSCHEDDL."""

from repro.core.context import ProblemContext
from repro.core.bottom_levels import BL_METHODS, bl_exec_times
from repro.core.bounds import BD_METHODS, allocation_bounds
from repro.core.ressched import (
    RESSCHED_ALGORITHMS,
    ResSchedAlgorithm,
    ResschedPlan,
    build_plan,
    schedule_ressched,
)
from repro.core.incremental import PlanMemo, schedule_ressched_incremental
from repro.core.deadline import (
    DEADLINE_ALGORITHMS,
    DeadlineAlgorithm,
    DeadlineResult,
    schedule_deadline,
)
from repro.core.tightest import tightest_deadline
from repro.core.metrics import (
    ComparisonTable,
    degradation_from_best,
    winners,
)

__all__ = [
    "ProblemContext",
    "BL_METHODS",
    "bl_exec_times",
    "BD_METHODS",
    "allocation_bounds",
    "ResSchedAlgorithm",
    "RESSCHED_ALGORITHMS",
    "schedule_ressched",
    "PlanMemo",
    "ResschedPlan",
    "build_plan",
    "schedule_ressched_incremental",
    "DeadlineAlgorithm",
    "DeadlineResult",
    "DEADLINE_ALGORITHMS",
    "schedule_deadline",
    "tightest_deadline",
    "degradation_from_best",
    "winners",
    "ComparisonTable",
]
