"""Structured event timeline (`repro.obs.timeline`).

Where :mod:`repro.obs.core` aggregates (counters, histograms, span
totals), this module records *when things happened*: a bounded ring of
typed events, each carrying

* the **simulation time** the event refers to (seconds on the calendar
  clock, ``None`` for pure wall-clock events such as span markers),
* a monotonic **wall time** offset from the timeline's epoch
  (``time.perf_counter``, the same clock as :class:`repro.obs.stopwatch`),
* an optional **trace id** (per-request) and **tenant**, resolved from
  an ambient trace scope when not given explicitly, and
* free-form attributes (``tasks=12``, ``latency_s=0.003``).

The event vocabulary is closed (:data:`EVENT_TYPES`) so downstream
consumers — the Chrome-trace exporter here and the SLO folder in
:mod:`repro.obs.slo` — can rely on stable semantics:

========================  ==============================================
``request_arrived``       a stream request entered the scheduler
``request_rejected``      admission control turned a request away
``placement_committed``   a request's placements were committed
``probe_batch``           one task's earliest-completion probe was served
``task_ready``            one task became ready (``n=1``; ``pending`` =
                          its DAG's tasks not yet placed)
``task_placed``           one task was placed on the calendar
``repair_triggered``      the resilience engine repaired a fault
``fault_applied``         a mid-stream fault perturbed the calendar
``commit_conflict``       a CAS commit found its token stale (retry)
``request_quarantined``   a request exhausted retries (dead-letter)
``span_begin/span_end``   an obs span opened / closed (trace nesting)
``mark``                  free-form annotation
========================  ==============================================

Recording is **disabled by default** and zero-overhead when off: every
emission site is guarded by the module-level :data:`ENABLED` flag (one
branch, no allocation), mirroring the `repro.obs.core` discipline that
`repro.lint` rule REP003 enforces.  Memory is bounded: the ring keeps
the most recent :attr:`Timeline.cap` events and counts evictions in
:attr:`Timeline.dropped` / :attr:`Timeline.dropped_by_type` — no silent
truncation.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs import vocab as _vocab

#: Master switch for timeline recording.  Independent of
#: ``repro.obs.core.ENABLED`` (aggregates are cheap; per-event recording
#: is opt-in per run).  Hot paths read this attribute directly:
#: ``if _tl.ENABLED: _tl.emit(...)``.
ENABLED: bool = False

#: The closed event vocabulary; :meth:`Timeline.emit` rejects others.
#: Declared centrally in :mod:`repro.obs.vocab` (the REP009 registry).
EVENT_TYPES: frozenset[str] = _vocab.EVENTS

#: The event types that close one ``request_arrived``: the request left
#: the queue admitted, rejected or quarantined.  Queue depth is arrivals
#: minus these, in the Chrome trace and in :mod:`repro.obs.slo` alike.
REQUEST_CLOSING: tuple[str, ...] = (
    "placement_committed",
    "request_rejected",
    "request_quarantined",
)

#: Event-dict keys owned by the timeline itself; ``emit`` rejects
#: attribute names that would shadow them.
_RESERVED: frozenset[str] = frozenset(
    {"type", "sim_t", "wall_s", "trace", "tenant"}
)

#: Default ring capacity: enough for ~100 streamed requests with full
#: task-level detail while bounding memory to a few MB.
DEFAULT_CAP: int = 65536


def enable() -> None:
    """Turn timeline recording on for this process."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn timeline recording off for this process."""
    global ENABLED
    ENABLED = False


def is_enabled() -> bool:
    """Whether timeline recording is currently on."""
    return ENABLED


#: Ambient (trace id, tenant) scope stack; ``emit`` resolves omitted
#: trace/tenant from the top so deep emission sites (task placement,
#: probe batches) inherit the request they run under.
_TRACE_STACK: list[tuple[str | None, str | None]] = []


def push_trace(trace: str | None, tenant: str | None = None) -> None:
    """Open an ambient trace scope (pair with :func:`pop_trace`)."""
    _TRACE_STACK.append((trace, tenant))


def pop_trace() -> None:
    """Close the innermost ambient trace scope."""
    _TRACE_STACK.pop()


@contextmanager
def trace_scope(
    trace: str | None, tenant: str | None = None
) -> Iterator[None]:
    """Ambient trace scope as a context manager.

    Hot paths use explicit :func:`push_trace`/:func:`pop_trace` under an
    ``ENABLED`` guard to avoid the generator allocation; this form is
    for tests and cold call sites.
    """
    push_trace(trace, tenant)
    try:
        yield
    finally:
        pop_trace()


class Timeline:
    """A bounded ring of typed events with explicit drop accounting.

    Args:
        cap: Maximum retained events; the oldest event is evicted (and
            counted in ``dropped`` / ``dropped_by_type``) when full.
        sim_epoch: Simulation time the run started at; the Chrome
            exporter's ``sim`` clock renders timestamps relative to it.
    """

    __slots__ = (
        "cap",
        "sim_epoch",
        "dropped",
        "dropped_by_type",
        "_events",
        "_epoch",
    )

    def __init__(
        self, *, cap: int = DEFAULT_CAP, sim_epoch: float = 0.0
    ) -> None:
        if cap < 1:
            raise ValueError(f"timeline cap must be >= 1, got {cap}")
        self.cap = int(cap)
        self.sim_epoch = float(sim_epoch)
        self.dropped = 0
        self.dropped_by_type: dict[str, int] = {}
        self._events: deque[dict[str, Any]] = deque()
        self._epoch = time.perf_counter()

    def emit(
        self,
        type_: str,
        sim_t: float | None,
        *,
        trace: str | None = None,
        tenant: str | None = None,
        **attrs: Any,
    ) -> None:
        """Append one event (evicting the oldest when at capacity)."""
        if type_ not in EVENT_TYPES:
            raise ValueError(
                f"unknown timeline event type {type_!r}; "
                f"known: {', '.join(sorted(EVENT_TYPES))}"
            )
        if attrs and not _RESERVED.isdisjoint(attrs):
            clash = sorted(_RESERVED.intersection(attrs))
            raise ValueError(f"reserved event attribute(s): {clash}")
        if trace is None and _TRACE_STACK:
            ambient_trace, ambient_tenant = _TRACE_STACK[-1]
            trace = ambient_trace
            if tenant is None:
                tenant = ambient_tenant
        ev: dict[str, Any] = {
            "type": type_,
            "sim_t": None if sim_t is None else float(sim_t),
            "wall_s": time.perf_counter() - self._epoch,
            "trace": trace,
            "tenant": tenant,
        }
        if attrs:
            ev.update(attrs)
        if len(self._events) >= self.cap:
            old = self._events.popleft()
            self.dropped += 1
            old_type = old["type"]
            self.dropped_by_type[old_type] = (
                self.dropped_by_type.get(old_type, 0) + 1
            )
        self._events.append(ev)

    @property
    def events(self) -> list[dict[str, Any]]:
        """The retained events, oldest first (a copy)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def summary(self) -> dict[str, Any]:
        """Aggregate view for ``RunReport.timeline`` (sorted keys)."""
        by_type: dict[str, int] = {}
        for ev in self._events:
            t = ev["type"]
            by_type[t] = by_type.get(t, 0) + 1
        return {
            "events": len(self._events),
            "cap": self.cap,
            "dropped": self.dropped,
            "by_type": {k: by_type[k] for k in sorted(by_type)},
            "dropped_by_type": {
                k: self.dropped_by_type[k]
                for k in sorted(self.dropped_by_type)
            },
        }

    def __repr__(self) -> str:
        return (
            f"Timeline(events={len(self._events)}, cap={self.cap}, "
            f"dropped={self.dropped})"
        )


#: The ambient timeline module-level :func:`emit` writes to.
_CURRENT: Timeline = Timeline()


def current() -> Timeline:
    """The ambient timeline."""
    return _CURRENT


def reset(
    *, cap: int = DEFAULT_CAP, sim_epoch: float = 0.0
) -> Timeline:
    """Install a fresh ambient timeline and return it."""
    global _CURRENT
    _CURRENT = Timeline(cap=cap, sim_epoch=sim_epoch)
    return _CURRENT


def emit(
    type_: str,
    sim_t: float | None,
    *,
    trace: str | None = None,
    tenant: str | None = None,
    **attrs: Any,
) -> None:
    """Record one event into the ambient timeline (no-op when disabled).

    Hot paths must still guard the call site itself
    (``if _tl.ENABLED: _tl.emit(...)``) so disabled mode pays one branch
    and no argument packing — `repro.lint` REP003 enforces this.
    """
    if ENABLED:
        _CURRENT.emit(
            type_, sim_t, trace=trace, tenant=tenant, **attrs
        )


@contextmanager
def recording(
    *, cap: int = DEFAULT_CAP, sim_epoch: float = 0.0
) -> Iterator[Timeline]:
    """Record into a fresh timeline with recording force-enabled.

    The previous ambient timeline and enabled-state are restored on
    exit, so nested recordings and tests compose.
    """
    global ENABLED, _CURRENT
    prev_enabled, prev_timeline = ENABLED, _CURRENT
    tl = Timeline(cap=cap, sim_epoch=sim_epoch)
    _CURRENT = tl
    ENABLED = True
    try:
        yield tl
    finally:
        ENABLED, _CURRENT = prev_enabled, prev_timeline


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
#
# The Chrome trace-event JSON format (also read by Perfetto): an object
# with a "traceEvents" list whose entries carry a phase ("ph"), a
# timestamp in MICROSECONDS ("ts"), integer "pid"/"tid", a "name", and
# free-form "args".  We map span_begin/span_end to duration phases B/E,
# everything else to instants ("i"), synthesize a "queue_depth" counter
# track ("C") from arrivals and REQUEST_CLOSING events, and name one
# virtual thread per trace id via "M" metadata so each request gets its
# own row in the viewer.

#: Single virtual process id for the whole run.
_PID: int = 1


def chrome_trace_events(
    timeline: Timeline, *, clock: str = "wall"
) -> list[dict[str, Any]]:
    """Render a timeline as a list of Chrome trace-event dicts.

    Args:
        clock: ``"wall"`` places events at their monotonic wall offset
            (spans show real durations); ``"sim"`` places them at
            simulation time relative to ``timeline.sim_epoch`` (events
            without a sim time — span markers — are omitted).
    """
    if clock not in ("wall", "sim"):
        raise ValueError(f"clock must be 'wall' or 'sim', got {clock!r}")
    out: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "ts": 0,
            "args": {"name": f"repro ({clock} clock)"},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": _PID,
            "tid": 0,
            "ts": 0,
            "args": {"name": "scheduler"},
        },
    ]
    tids: dict[str, int] = {}

    def _tid(trace: str | None) -> int:
        if trace is None:
            return 0
        tid = tids.get(trace)
        if tid is None:
            tid = tids[trace] = len(tids) + 1
            out.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": _PID,
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": str(trace)},
                }
            )
        return tid

    queue_depth = 0
    for ev in timeline.events:
        if clock == "wall":
            ts = ev["wall_s"] * 1e6
        else:
            if ev["sim_t"] is None:
                continue
            ts = (ev["sim_t"] - timeline.sim_epoch) * 1e6
        ev_type = ev["type"]
        tid = _tid(ev["trace"])
        args = {
            k: v
            for k, v in ev.items()
            if k not in ("type", "wall_s") and v is not None
        }
        if ev_type == "span_begin":
            out.append(
                {
                    "ph": "B",
                    "name": str(ev.get("name", "span")),
                    "cat": "span",
                    "ts": ts,
                    "pid": _PID,
                    "tid": tid,
                    "args": args,
                }
            )
        elif ev_type == "span_end":
            out.append(
                {
                    "ph": "E",
                    "name": str(ev.get("name", "span")),
                    "cat": "span",
                    "ts": ts,
                    "pid": _PID,
                    "tid": tid,
                    "args": args,
                }
            )
        else:
            out.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": ev_type,
                    "cat": "event",
                    "ts": ts,
                    "pid": _PID,
                    "tid": tid,
                    "args": args,
                }
            )
            if ev_type == "request_arrived" or ev_type in REQUEST_CLOSING:
                if ev_type == "request_arrived":
                    queue_depth += 1
                else:
                    queue_depth -= 1
                out.append(
                    {
                        "ph": "C",
                        "name": "queue_depth",
                        "ts": ts,
                        "pid": _PID,
                        "tid": 0,
                        "args": {"requests": queue_depth},
                    }
                )
    return out


def write_chrome_trace(
    path: str,
    timeline: Timeline,
    *,
    clock: str = "wall",
    meta: dict[str, Any] | None = None,
) -> int:
    """Write a timeline as Chrome-trace JSONL; returns the event count.

    The file is a single valid JSON document AND line-oriented: one
    trace event per line inside the ``traceEvents`` array, so it streams
    through line-based tools and still opens directly in Perfetto /
    ``chrome://tracing``.
    """
    events = chrome_trace_events(timeline, clock=clock)
    if meta:
        events = [
            {
                "ph": "M",
                "name": "run_meta",
                "pid": _PID,
                "tid": 0,
                "ts": 0,
                "args": dict(meta),
            }
        ] + events
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
        last = len(events) - 1
        for i, ev in enumerate(events):
            fh.write(json.dumps(ev, sort_keys=True))
            fh.write(",\n" if i != last else "\n")
        fh.write("]}\n")
    return len(events)
