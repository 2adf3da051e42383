"""End-to-end metric listing, percentile helpers and ``BENCHMARK.json``.

Every end-to-end metric is defined on every workload:

=================  ==========  =============================================
metric             unit        definition
=================  ==========  =============================================
admitted_per_s     req/s       svc_*: admitted requests / wall seconds from
                               journal open to ``run()`` return.
                               offline_cells: instances that completed /
                               wall seconds excluding set-up.
instances_per_s    1/s         svc_*: requests processed (any verdict) /
                               the same wall seconds.  offline_cells:
                               problem instances / wall seconds excluding
                               set-up.
verdict_p50_ms     ms          Median time from one verdict to the next.
verdict_p99_ms     ms          99th percentile of the same samples (each
                               run pools at least 1,000 samples, so at
                               least ten lie beyond it).  svc_*: a verdict
                               is a journaled outcome, so a sample includes
                               faults applied first, planning, CAS retries,
                               commit and the fsync'd write.
                               offline_cells: a verdict is a schedule
                               returned by ``schedule_ressched``,
                               ``schedule_deadline`` or
                               ``execute_resilient``, minus set-up time.
served_share       fraction    svc_*: admitted / requests, i.e. 1 minus the
                               share refused or dead-lettered.
                               offline_cells: instances that neither raised
                               nor were quarantined / instances.
mean_turnaround_h  h           Mean simulated turn-around time of admitted
                               requests (svc_*) or of the Table-4 RESSCHED
                               schedules (offline_cells).
setup_s            s           svc_*: request-CSV and DAG load, platform
                               build, service construction (calendar or
                               shard partition), fault trace and journal
                               open.  offline_cells: log synthesis and
                               reservation-scenario construction.
peak_rss_mb        MiB         Peak resident set size of a run's process.
=================  ==========  =============================================

Times are reference seconds: a repetition's wall seconds times
:func:`reference_scale`.  Timed repetitions run a fixed pure-Python probe
after every verdict, outside the timed regions, and the scale is the
probe's reference time over its mean time in that repetition.  The host's
CPU speed drifts by 20-45% within minutes on a shared VM (steal and
neighbours), and the probe follows that drift through the repetition, so
reference seconds move far less between a fast and a slow phase.  A program
change that slows the process as a whole, such as a busy thread holding
the GIL, slows the probe too and is hidden.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

#: ``(name, unit, better, bound)``; ``bound`` is the share of the parent's
#: median by which a metric may worsen before a change is a regression.
#: The bounds come from ten-seed sets of runs on a shared 2-vCPU VM, where
#: "spread" is the interquartile range over the median:
#:
#: * Time metrics (rates, verdict times, ``setup_s``) get the widest bound
#:   allowed, 0.25.  In reference seconds their spreads reached 0.17 (the
#:   p99 on svc_faulted, whose tail is a few fault-hit requests) and their
#:   medians moved by up to 10% between two sets; in raw wall seconds
#:   spreads reached 0.26 and medians moved by up to 27%.
#: * ``served_share`` and ``mean_turnaround_h`` are deterministic for a
#:   seed and vary only with the seeded traffic, most on svc_faulted.
#:   Over random ten-seed sets drawn from 60 seeds, ``served_share``
#:   spreads by at most 0.064 and one set's median is worse than a disjoint
#:   set's by at most 0.026 (99th percentiles), so 0.1;
#:   ``mean_turnaround_h`` spreads by 0.063 at the median, 0.094 at the
#:   90th and 0.117 at the 99th percentile and moves by at most 0.05 at
#:   the 99th percentile, so 0.15.
#: * ``peak_rss_mb`` spread at most 0.0083 for single repetitions and its
#:   median moved at most 0.6% between sets, so 0.03.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("admitted_per_s", "req/s", "higher", 0.25),
    ("instances_per_s", "1/s", "higher", 0.25),
    ("verdict_p50_ms", "ms", "lower", 0.25),
    ("verdict_p99_ms", "ms", "lower", 0.25),
    ("served_share", "fraction", "higher", 0.1),
    ("mean_turnaround_h", "h", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.03),
)

#: Fewest verdict samples a run pools, so ten lie beyond the 99th percentile.
MIN_VERDICT_SAMPLES = 1000

#: Time of one ``rep.speed_probe`` call that defines a reference second:
#: the probe's typical time on a 2-vCPU VM under Python 3.11.
PROBE_REF_S = 1.8e-4


def reference_scale(rep: dict[str, Any]) -> float:
    """Factor from a probed repetition's wall seconds to reference seconds."""
    return PROBE_REF_S * rep["probes"] / rep["probe_s"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def end_to_end_metrics() -> list[dict[str, Any]]:
    """The end-to-end metric listing, in ``BENCHMARK.json`` form."""
    return [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END
    ]


def unit_of(name: str) -> str:
    """Unit of an end-to-end metric."""
    for n, u, _, _ in END_TO_END:
        if n == name:
            return u
    raise KeyError(name)


def benchmark_json(run_seconds: int) -> dict[str, Any]:
    """The ``BENCHMARK.json`` document this benchmark implements."""
    from e2ebench.layers import per_layer_metrics
    from e2ebench.workloads import WORKLOADS

    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": end_to_end_metrics(),
        "per_layer": per_layer_metrics(),
    }
