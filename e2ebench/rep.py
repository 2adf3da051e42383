"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage::

    python3 -m e2ebench.rep SPEC.json OUT.json

``SPEC.json`` names the workload, seed, scale, input files, journal path
and whether to trace or probe.  The repetition times the workload through
the program's public entry points, then -- outside the timed region --
checks the outputs and writes its measurements and check results to
``OUT.json``.  A traced repetition also writes its spans next to it.  A
probed repetition runs :func:`speed_probe` after every verdict and
leaves the probe's time out of every timed region.

Untraced repetitions wrap only what the end-to-end metrics need: the
journal open and each journaled outcome (service), or the log and
scenario builders, the scheduler returns and the instance streams
(offline).  The program's own ``repro.obs`` stays off.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from e2ebench import layers
from e2ebench.tracer import Patcher, Tracer, after, timed
from e2ebench.workloads import (
    OFFLINE_LOG,
    PLATFORM_SEED,
    OfflineWorkload,
    ServiceWorkload,
    fault_model,
    offline_scales,
    platform,
    service_config,
    sized,
    workload,
)

#: Verdicts listed in a traced repetition's slowest-verdict table.
SLOWEST = 10
#: Iterations of the host-speed probe (about 0.2 ms on a 2-vCPU VM).
PROBE_ITERATIONS = 1500


def speed_probe() -> float:
    """Seconds a fixed piece of pure-Python integer work takes right now.

    Timed repetitions run it after every verdict, outside the timed
    region, to follow the host's CPU speed through the repetition.  It
    builds no containers, so it never starts the garbage collector and
    does not depend on the program's heap.
    """
    t = perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * i) & 0xFFFF
    return perf_counter() - t


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _slowest(
    tracer: Tracer, samples: list[float], labels: list[str], first_row: int
) -> list[dict[str, Any]]:
    """The :data:`SLOWEST` longest verdicts with their self time per span.

    ``samples[i]`` is the verdict whose self times are
    ``tracer.rows[first_row + i]``.
    """
    order = sorted(range(len(samples)), key=lambda i: -samples[i])[:SLOWEST]
    out = []
    for i in order:
        row = tracer.rows[first_row + i]
        parts = sorted(
            ((tracer.names[n], s) for n, s in enumerate(row) if s > 0),
            key=lambda p: -p[1],
        )
        out.append(
            {
                "verdict": labels[i],
                "ms": samples[i] * 1e3,
                "self_ms": {name: s * 1e3 for name, s in parts},
            }
        )
    return out


# ----------------------------------------------------------------------
# Service workloads


def run_service(w: ServiceWorkload, spec: dict[str, Any], tracer: Tracer | None) -> dict[str, Any]:
    """Replay the request CSV through ``ReservationService.run``."""
    import repro.workloads.requests as requests_mod
    from repro.calendar import ResourceCalendar
    from repro.core.ressched import ResSchedAlgorithm
    from repro.dag import from_json
    from repro.errors import CalendarError, ScheduleValidationError
    from repro.experiments.stream import requests_from_specs
    from repro.schedule import validate_schedule
    from repro.service import ReservationService
    from repro.shard import ShardedCalendar

    journal = spec["journal"]
    probe = spec.get("probe", False)
    opened: list[float] = []
    # Each verdict ends at ends[k]; the next one starts at starts[k],
    # after the probe.
    ends: list[float] = []
    starts: list[float] = []
    probes: list[float] = []

    def on_open(_: Any) -> None:
        opened.append(perf_counter())
        if tracer is not None:
            tracer.boundary()
            tracer.request = 1

    def on_verdict(_: Any) -> None:
        ends.append(perf_counter())
        if probe:
            probes.append(speed_probe())
        starts.append(perf_counter())
        if tracer is not None:
            tracer.boundary()
            tracer.request += 1

    with Patcher() as patcher:
        if tracer is not None:
            layers.install(tracer, patcher)
        patcher.wrap("repro.service.journal", "ServiceJournal.open", after(on_open))
        patcher.wrap(
            "repro.service.journal", "ServiceJournal.record_outcome", after(on_verdict)
        )
        if tracer is not None:
            tracer.start()
        t0 = perf_counter()
        specs = requests_mod.load_request_stream(spec["requests"])
        graphs = [from_json(Path(p).read_text(encoding="utf-8")) for p in spec["dags"]]
        requests = requests_from_specs(specs, graphs)
        _, scenario = platform()
        service = ReservationService(
            scenario,
            ResSchedAlgorithm(),
            config=service_config(w),
            fault_model=fault_model(w),
            seed=PLATFORM_SEED,
            journal_path=journal,
            shards=w.shards,
            shard_workers=0,
        )
        try:
            report = service.run(requests)
        finally:
            service.close()
        t_end = perf_counter()
        if tracer is not None:
            tracer.stop()
    peak = _peak_rss_mb()

    # -- outside the timed region: output checks and derived figures ----
    errors: list[str] = []
    admitted = [o for o in report.outcomes if o.admitted]
    for o in admitted:
        try:
            validate_schedule(o.schedule, scenario.capacity)
        except ScheduleValidationError as exc:
            errors.append(f"{o.request.request_id}: {exc}")
    cal = service.calendar
    shards = cal.shards if isinstance(cal, ShardedCalendar) else (cal,)
    if sum(s.capacity for s in shards) != scenario.capacity:
        errors.append("shard capacities do not add up to the platform")
    for k, s in enumerate(shards):
        try:
            ResourceCalendar(s.capacity, s.reservations)
        except CalendarError as exc:
            errors.append(f"final bookings exceed capacity on shard {k}: {exc}")
    waits = [
        (min(p.start for p in o.schedule.placements) - o.arrival) / 3600.0
        for o in admitted
    ]
    quarter = max(1, len(waits) // 4)
    with open(journal, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    records = len(lines) - 1
    samples = [e - b for b, e in zip([opened[0]] + starts[:-1], ends)]
    paused = sum(b - e for e, b in zip(ends, starts))
    out: dict[str, Any] = {
        "digest": report.digest(),
        "errors": errors,
        "setup_s": opened[0] - t0,
        "run_s": t_end - opened[0] - paused,
        "wall_s": t_end - t0,
        "verdict_s": samples,
        "probe_s": sum(probes),
        "probes": len(probes),
        "attempted": report.n_requests,
        "completed": report.n_admitted,
        "failed": len(report.dead_letters),
        "refused": report.n_rejected,
        "mean_turnaround_h": (
            sum(o.schedule.turnaround for o in admitted) / len(admitted) / 3600.0
            if admitted
            else float("nan")
        ),
        "peak_rss_mb": peak,
        "wait_h_first_quarter": sum(waits[:quarter]) / quarter if waits else 0.0,
        "wait_h_last_quarter": sum(waits[-quarter:]) / quarter if waits else 0.0,
        "summary": report.summary(),
    }
    if tracer is not None:
        metrics = layers.span_metrics(tracer)
        metrics["service.conflicts"] = sum(o.retries for o in report.outcomes)
        metrics["journal.bytes_per_record"] = layers.ratio(
            sum(len(line) for line in lines[1:]), records
        )
        metrics["calendar.segments_end"] = sum(
            s.availability().times.size for s in shards
        )
        metrics["faults.applied"] = report.faults_applied
        metrics["faults.revocations"] = report.revocations
        metrics["faults.rebooked"] = report.rebooked
        metrics["faults.revocations_per_fault"] = layers.ratio(
            report.revocations, report.faults_applied
        )
        labels = ["setup"] + [o.request.request_id for o in report.outcomes] + ["drain"]
        out["layers"] = metrics
        out["slowest"] = _slowest(tracer, samples, labels[1:], first_row=1)
        out["spans_written"] = tracer.write_spans(spec["spans"], labels)
    return out


# ----------------------------------------------------------------------
# Offline workload


def _hash_tables(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def run_offline(w: OfflineWorkload, spec: dict[str, Any], tracer: Tracer | None) -> dict[str, Any]:
    """Run the Table-4, Table-6 and repair-policy cells serially."""
    from repro.errors import ScheduleValidationError
    from repro.experiments.resilience import format_resilience, run_resilience
    from repro.experiments.table4 import format_table4, run_table4
    from repro.experiments.table6 import format_table6, run_table6
    from repro.schedule import validate_schedule

    scales = offline_scales(w)
    probe = spec.get("probe", False)
    setup = [0.0]
    # Each verdict ends at ends[k] (with the set-up time so far); the next
    # one starts at starts[k], after the probe.
    ends: list[tuple[float, float]] = []
    starts: list[float] = []
    probes: list[float] = []
    table4: list[tuple[Any, Any]] = []
    instances = [0]

    def on_verdict(_: Any) -> None:
        ends.append((perf_counter(), setup[0]))
        if probe:
            probes.append(speed_probe())
        starts.append(perf_counter())
        if tracer is not None:
            tracer.boundary()

    def keep_table4(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(graph: Any, scenario: Any, *args: Any, **kwargs: Any) -> Any:
            schedule = fn(graph, scenario, *args, **kwargs)
            table4.append((schedule, scenario))
            return schedule

        return wrapper

    def counting(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            for inst in fn(*args, **kwargs):
                instances[0] += 1
                if tracer is not None:
                    tracer.request = instances[0]
                yield inst

        return wrapper

    with Patcher() as patcher:
        if tracer is not None:
            layers.install(tracer, patcher)
        setup_timer = timed(setup)
        for module, target in (
            ("repro.workloads.synthetic", "generate_log"),
            ("repro.workloads.reservations", "build_reservation_scenario"),
            ("repro.workloads.reservations", "reservation_scenario_from_reservation_log"),
        ):
            patcher.wrap(module, target, setup_timer)
        for module, target in (
            ("repro.core.ressched", "schedule_ressched"),
            ("repro.core.deadline", "schedule_deadline"),
            ("repro.resilience.engine", "execute_resilient"),
        ):
            patcher.wrap(module, target, after(on_verdict))
        patcher.wrap("repro.experiments.table4", "schedule_ressched", keep_table4, everywhere=False)
        for module, target in (
            ("repro.experiments.table4", "iter_problem_instances"),
            ("repro.experiments.table6", "iter_problem_instances"),
            ("repro.experiments.table6", "iter_grid5000_instances"),
            ("repro.experiments.resilience", "iter_problem_instances"),
        ):
            patcher.wrap(module, target, counting, everywhere=False)
        if tracer is not None:
            tracer.start()
        t0 = perf_counter()
        r4 = run_table4(scales["table4"])
        r6 = run_table6(scales["table6"], log=OFFLINE_LOG)
        rr = run_resilience(scales["resilience"])
        t_end = perf_counter()
        if tracer is not None:
            tracer.stop()
    peak = _peak_rss_mb()

    errors: list[str] = []
    for schedule, scenario in table4:
        try:
            validate_schedule(schedule, scenario.capacity, scenario.reservations)
        except ScheduleValidationError as exc:
            errors.append(f"table-4 schedule on {scenario.name}: {exc}")
    samples = []
    prev_t, prev_setup = t0, 0.0
    for (t, s), start in zip(ends, starts):
        samples.append((t - prev_t) - (s - prev_setup))
        prev_t, prev_setup = start, s
    paused = sum(b - e for (e, _), b in zip(ends, starts))
    failed = len(rr.quarantined)
    out: dict[str, Any] = {
        "digest": _hash_tables(format_table4(r4), format_table6(r6), format_resilience(rr)),
        "errors": errors,
        "setup_s": setup[0],
        "run_s": (t_end - t0) - setup[0] - paused,
        "wall_s": t_end - t0,
        "verdict_s": samples,
        "probe_s": sum(probes),
        "probes": len(probes),
        "attempted": instances[0],
        "completed": instances[0] - failed,
        "failed": failed,
        "refused": 0,
        "mean_turnaround_h": sum(s.turnaround for s, _ in table4) / len(table4) / 3600.0,
        "peak_rss_mb": peak,
    }
    if tracer is not None:
        metrics = layers.span_metrics(tracer)
        for name in (
            "service.conflicts",
            "journal.bytes_per_record",
            "calendar.segments_end",
            "faults.applied",
            "faults.revocations",
            "faults.rebooked",
            "faults.revocations_per_fault",
        ):
            metrics[name] = 0
        out["layers"] = metrics
        out["slowest"] = _slowest(
            tracer, samples, [f"schedule-{i}" for i in range(len(samples))], first_row=0
        )
        labels = ["setup"] + [f"instance-{i}" for i in range(instances[0])]
        out["spans_written"] = tracer.write_spans(spec["spans"], labels)
    return out


def main(argv: list[str]) -> int:
    spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    w = sized(workload(spec["workload"]), spec.get("scale", 1.0))
    tracer = Tracer() if spec["trace"] else None
    if isinstance(w, ServiceWorkload):
        result = run_service(w, spec, tracer)
    else:
        result = run_offline(w, spec, tracer)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
