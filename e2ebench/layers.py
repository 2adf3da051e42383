"""Which public functions each traced span wraps, and the per-layer metrics.

A span's layer is its name up to the first dot.  Each entry names the
module that defines the target; module-level functions are rebound at
every ``repro`` module that imported them, so the wrapper sits where each
caller looks the function up.
"""

from __future__ import annotations

from typing import Any

from e2ebench.tracer import ROOT, Patcher, Tracer

_CAL = "repro.calendar.calendar"
_SHARD = "repro.shard.calendar"

#: ``(span, module, targets)``: one span per call of any target.
SPANS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("service.run", "repro.service.core", ("ReservationService.run",)),
    ("journal.open", "repro.service.journal", ("ServiceJournal.open",)),
    (
        "journal.append",
        "repro.service.journal",
        ("ServiceJournal.record_outcome", "ServiceJournal.record_fault"),
    ),
    ("journal.encode", "repro.service.journal", ("encode_payload",)),
    ("journal.fsync", "os", ("fsync",)),
    ("stream.tentative", "repro.experiments.stream", ("StreamScheduler.tentative_schedule",)),
    ("stream.adopt", "repro.experiments.stream", ("StreamScheduler.adopt",)),
    ("plan.lookup", "repro.core.incremental", ("PlanMemo.plan",)),
    ("plan.build", "repro.core.incremental", ("build_plan",)),
    ("engine.schedule", "repro.core.incremental", ("schedule_ressched_incremental",)),
    ("offline.ressched", "repro.core.ressched", ("schedule_ressched",)),
    ("offline.deadline", "repro.core.deadline", ("schedule_deadline",)),
    ("offline.tightest", "repro.core.tightest", ("tightest_deadline",)),
    ("offline.resilient", "repro.resilience.engine", ("execute_resilient",)),
    ("cpa.alloc", "repro.cpa.allocation", ("cpa_allocation",)),
    ("cpa.map", "repro.cpa.mapping", ("cpa_map",)),
    ("calendar.batch", _CAL, ("ResourceCalendar.earliest_starts_batch",)),
    ("calendar.multi", _CAL, ("ResourceCalendar.earliest_starts_multi",)),
    ("calendar.latest_multi", _CAL, ("ResourceCalendar.latest_starts_multi",)),
    (
        "calendar.scalar",
        _CAL,
        (
            "ResourceCalendar.earliest_start",
            "ResourceCalendar.latest_start",
            "ResourceCalendar.min_available",
        ),
    ),
    ("calendar.commit", _CAL, ("ResourceCalendar.reserve_known_feasible",)),
    ("calendar.mutate", _CAL, ("ResourceCalendar.add", "ResourceCalendar.remove")),
    ("calendar.build", _CAL, ("ResourceCalendar.__init__",)),
    ("calendar.copy", _CAL, ("ResourceCalendar.copy",)),
    ("calendar.index", "repro.calendar.index", ("AvailabilityIndex.__init__",)),
    ("shard.partition", _SHARD, ("ShardedCalendar.partition",)),
    (
        "shard.probe",
        _SHARD,
        (
            "ShardedCalendar.earliest_starts_batch",
            "ShardedCalendar.earliest_start",
            "ShardedCalendar.min_available",
        ),
    ),
    ("shard.place", _SHARD, ("ShardedCalendar.reserve_known_feasible",)),
    (
        "shard.stage",
        _SHARD,
        ("ShardedCalendar.copy", "ShardedCalendar.validate_commit", "ShardedCalendar.commit"),
    ),
    ("shard.fault", _SHARD, ("ShardedCalendar.add_to_shard", "ShardedCalendar.remove_from_shard")),
    ("faults.generate", "repro.resilience.faults", ("generate_faults",)),
    ("workloads.parse", "repro.workloads.requests", ("load_request_stream",)),
    ("workloads.log", "repro.workloads.synthetic", ("generate_log",)),
    (
        "workloads.scenario",
        "repro.workloads.reservations",
        ("build_reservation_scenario", "reservation_scenario_from_reservation_log"),
    ),
)


def _batch_size(args: tuple, kwargs: dict) -> int:
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    return len(requests)


#: Work items stored on a span: tasks per probe batch, tasks per DAG.
SIZES: dict[tuple[str, str], Any] = {
    (_CAL, "ResourceCalendar.earliest_starts_batch"): _batch_size,
    (_SHARD, "ShardedCalendar.earliest_starts_batch"): _batch_size,
    (_SHARD, "ShardedCalendar.earliest_start"): lambda args, kwargs: 1,
    ("repro.core.incremental", "schedule_ressched_incremental"): (
        lambda args, kwargs: (args[0] if args else kwargs["graph"]).n
    ),
}

#: Per-layer metrics that are not span calls or self time:
#: ``(name, unit, better)``.
EXTRA_METRICS: tuple[tuple[str, str, str], ...] = (
    ("service.conflicts", "count", "lower"),
    ("journal.records", "count", "lower"),
    ("journal.bytes_per_record", "B", "lower"),
    ("stream.attempts_per_request", "ratio", "lower"),
    ("plan.hit_ratio", "ratio", "higher"),
    ("engine.tasks", "count", "lower"),
    ("engine.probes_per_task", "ratio", "lower"),
    ("offline.tightest.attempts_per_call", "ratio", "lower"),
    ("calendar.batch.tasks", "count", "lower"),
    ("calendar.segments_end", "count", "lower"),
    ("shard.legs_per_probe", "ratio", "lower"),
    ("faults.applied", "count", "lower"),
    ("faults.revocations", "count", "lower"),
    ("faults.rebooked", "count", "lower"),
    ("faults.revocations_per_fault", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead", "fraction", "lower"),
    ("trace.spans", "count", "lower"),
)


def span_names() -> list[str]:
    """Every span name, root first."""
    return [ROOT] + [name for name, _, _ in SPANS]


def per_layer_metrics() -> list[dict[str, str]]:
    """The per-layer metric listing, in ``BENCHMARK.json`` form."""
    out = [{"name": f"{ROOT}.self_s", "unit": "s", "better": "lower"}]
    for name, _, _ in SPANS:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    out += [{"name": n, "unit": u, "better": b} for n, u, b in EXTRA_METRICS]
    return out


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every span target of :data:`SPANS` through ``patcher``."""
    for span, module, targets in SPANS:
        for target in targets:
            size = SIZES.get((module, target))
            patcher.wrap(module, target, tracer.span(span, size))


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was counted."""
    return num / den if den else 0.0


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Calls and self seconds per span plus the span-derived ratios."""
    calls = tracer.calls()
    self_s = tracer.self_seconds()
    out: dict[str, float] = {f"{ROOT}.self_s": self_s[ROOT]}
    for name, _, _ in SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    engine_tasks = tracer.total_size("engine.schedule")
    engine_probed = tracer.total_size(
        "calendar.batch", parent="engine.schedule"
    ) + tracer.total_size("shard.probe", parent="engine.schedule")
    out["engine.tasks"] = engine_tasks
    out["engine.probes_per_task"] = ratio(engine_probed, engine_tasks)
    out["calendar.batch.tasks"] = tracer.total_size("calendar.batch")
    out["plan.hit_ratio"] = ratio(
        calls.get("plan.lookup", 0) - tracer.count_children("plan.lookup", ("plan.build",)),
        calls.get("plan.lookup", 0),
    )
    out["stream.attempts_per_request"] = ratio(
        calls.get("stream.tentative", 0), tracer.requests_with("stream.tentative")
    )
    out["offline.tightest.attempts_per_call"] = ratio(
        tracer.count_children("offline.tightest", ("offline.deadline",)),
        calls.get("offline.tightest", 0),
    )
    out["shard.legs_per_probe"] = ratio(
        tracer.count_children("shard.probe", ("calendar.batch", "calendar.scalar")),
        calls.get("shard.probe", 0),
    )
    out["journal.records"] = calls.get("journal.append", 0)
    out["trace.spans"] = len(tracer.span_name)
    out["trace.wall_s"] = tracer.wall_s
    return out
