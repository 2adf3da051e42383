"""Experiment harness regenerating every table of the paper."""

from repro.experiments.scenarios import (
    AppScenario,
    ExperimentScale,
    table1_app_scenarios,
)
from repro.experiments.runner import (
    InstanceStream,
    iter_problem_instances,
    iter_grid5000_instances,
)
from repro.experiments.bl_comparison import run_bl_comparison
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.experiments.table6 import run_table6
from repro.experiments.table7 import run_table7
from repro.experiments.timing import run_timing_by_n, run_timing_by_density
from repro.experiments.pessimism import run_pessimism_study
from repro.experiments.reporting import run_instrumented
from repro.experiments.parallel import (
    FaultTolerance,
    QuarantinedInstance,
    SweepOutcome,
    run_sweep,
)
from repro.experiments.stream import (
    StreamRequest,
    StreamScheduler,
    requests_from_specs,
    schedule_stream_naive,
)
from repro.experiments.resilience import (
    ResilienceCell,
    ResilienceStudy,
    format_resilience,
    run_resilience,
)

__all__ = [
    "AppScenario",
    "ExperimentScale",
    "table1_app_scenarios",
    "InstanceStream",
    "iter_problem_instances",
    "iter_grid5000_instances",
    "run_bl_comparison",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_timing_by_n",
    "run_timing_by_density",
    "run_pessimism_study",
    "run_instrumented",
    "FaultTolerance",
    "QuarantinedInstance",
    "SweepOutcome",
    "run_sweep",
    "StreamRequest",
    "StreamScheduler",
    "requests_from_specs",
    "schedule_stream_naive",
    "ResilienceCell",
    "ResilienceStudy",
    "format_resilience",
    "run_resilience",
]
