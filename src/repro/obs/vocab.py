"""The obs name vocabulary: every counter/histogram/span/event name.

Obs names are API: dashboards, the RunReport schema checker, the SLO
folder and the docs tables all key on them, so a typo at an emit site
(``shard.comits``) would silently fork a metric family.  This module is
the single registry — REP009 (:mod:`repro.lint.rules_project`) checks
every emitted name in the tree against it, and every name declared here
against the ``docs/OBSERVABILITY.md`` tables.

Four kinds, each with an exact-name set and (where call sites build
names dynamically) a ``*`` wildcard family set:

* ``COUNTERS`` / ``COUNTER_FAMILIES`` — :func:`repro.obs.core.incr`
* ``HISTOGRAMS`` / ``HISTOGRAM_FAMILIES`` — :func:`repro.obs.core.observe`
* ``SPANS`` / ``SPAN_FAMILIES`` — :func:`repro.obs.core.span` and
  :func:`~repro.obs.core.stopwatch`
* ``EVENTS`` — :meth:`repro.obs.timeline.Timeline.emit` (closed set, no
  families; :data:`repro.obs.timeline.EVENT_TYPES` is an alias of it)

Declaration discipline: a name covered by a family (for example
``service.faults.cancel`` under ``service.faults.*``) is *not* repeated
in the exact set — the family is the unit that gets documented.

Everything here is literal data (no imports), so the lint pass can read
the registry straight from the AST without importing the package.
"""

from __future__ import annotations

__all__ = [
    "COUNTERS",
    "COUNTER_FAMILIES",
    "EVENTS",
    "HISTOGRAMS",
    "HISTOGRAM_FAMILIES",
    "SPANS",
    "SPAN_FAMILIES",
]

#: Monotonic event counters (:func:`repro.obs.core.incr`).
COUNTERS: frozenset[str] = frozenset(
    {
        # -- result caches / memos ---------------------------------------
        "cache.alloc.evict",
        "cache.alloc.hit",
        "cache.alloc.miss",
        "cache.calendar.index_build",
        "cache.calendar.invalidate",
        # -- calendar hot path -------------------------------------------
        "calendar.add.rebuild",
        "calendar.add.splice",
        "calendar.commit.splice",
        "calendar.commit.validated",
        "calendar.completion.escalations",
        "calendar.completion.pruned",
        "calendar.query.earliest",
        "calendar.query.earliest.indexed",
        "calendar.query.earliest_completion",
        "calendar.query.earliest_multi",
        "calendar.query.earliest_multi.indexed",
        "calendar.query.latest",
        "calendar.query.latest.indexed",
        "calendar.query.latest_multi",
        "calendar.query.latest_multi.indexed",
        "calendar.query.min.indexed",
        "calendar.remove",
        "calendar.validate",
        # -- CPA allocation ----------------------------------------------
        "cpa.allocation_runs",
        "cpa.iterations",
        "cpa.map_calls",
        # -- deadline scheduler ------------------------------------------
        "deadline.backward_passes",
        "deadline.fallback_aggressive",
        "deadline.guideline_remaps",
        "deadline.infeasible_tasks",
        "deadline.placement_probes",
        # -- sweep harness ------------------------------------------------
        "harness.chunk_retries",
        "harness.quarantined",
        "harness.resumed",
        # -- resilience engine -------------------------------------------
        "resilience.failures",
        "resilience.kills",
        "resilience.repaired_tasks",
        "resilience.revocations",
        # -- reservation-aware list scheduler ----------------------------
        "ressched.placement_probes",
        "ressched.tasks",
        # -- multi-tenant service ----------------------------------------
        "service.admitted",
        "service.commit.conflict",
        "service.commit.retry",
        "service.dead_letter",
        "service.rebooked",
        "service.requests",
        "service.resumed",
        "service.revocations",
        # -- sharded calendar --------------------------------------------
        "shard.aborts",
        "shard.commits",
        "shard.probes",
        "shard.rebalances",
        # -- streamed engine ---------------------------------------------
        "stream.events",
        "stream.memo.evict",
        "stream.memo.hit",
        "stream.memo.miss",
    }
)

#: Counter families whose tails are built at the emit site (fault kinds,
#: repair policies, rejection reasons).
COUNTER_FAMILIES: frozenset[str] = frozenset(
    {
        "resilience.faults.*",
        "resilience.repairs.*",
        "service.faults.*",
        "service.rejected.*",
    }
)

#: Value distributions (:func:`repro.obs.core.observe`).
HISTOGRAMS: frozenset[str] = frozenset(
    {
        "calendar.probe.counts",
        "calendar.scan.segments",
        "cpa.iterations_per_run",
        "cpa.map_tasks",
        "ressched.candidates_per_task",
    }
)

#: No histogram names are built dynamically today.
HISTOGRAM_FAMILIES: frozenset[str] = frozenset()

#: Wall-clock spans (:func:`repro.obs.core.span` / ``stopwatch``).
SPANS: frozenset[str] = frozenset(
    {
        "calendar.commit",
        "calendar.query.earliest_multi",
        "calendar.query.latest_multi",
        "cpa.allocation",
        "resilience.execute",
        "resilience.repair",
        "service.admit",
    }
)

#: Span families parameterized by algorithm/cell/phase at the call site.
SPAN_FAMILIES: frozenset[str] = frozenset(
    {
        "deadline.*",
        "ressched.*",
        "run.*",
        "timing.*",
    }
)

#: The closed timeline event vocabulary
#: (:meth:`repro.obs.timeline.Timeline.emit` rejects anything else).
EVENTS: frozenset[str] = frozenset(
    {
        "request_arrived",
        "request_rejected",
        "placement_committed",
        "probe_batch",
        "task_ready",
        "task_placed",
        "repair_triggered",
        "fault_applied",
        "commit_conflict",
        "request_quarantined",
        "span_begin",
        "span_end",
        "mark",
    }
)
