"""Tests for the event timeline and SLO subsystem (repro.obs.timeline,
repro.obs.slo).

Covers the bounded event ring (typed vocabulary, reserved keys, drop
accounting), ambient trace scopes, the span bridge from repro.obs.core,
the Chrome trace-event exporter (structural validity, B/E balance,
counter track, clock selection), the shared nearest-rank percentile
helper, SLO bucket folding with partition-merge bitwise stability, the
RunReport timeline/slo sections, end-to-end instrumentation of the
service's admission loop and the resilience repair path, the
disabled-mode overhead bound, and the CLI surfaces."""

from __future__ import annotations

import json
import math
import time

import pytest

from repro.calendar import Reservation
from repro.cli import main
from repro.dag import DagGenParams, random_task_graph
from repro.errors import ServiceError
from repro.experiments.stream import StreamRequest
from repro.obs import (
    SchemaError,
    SloSeries,
    Timeline,
    chrome_trace_events,
    percentile_nearest_rank,
    validate_run_report,
    write_chrome_trace,
)
from repro.obs import core as obs_core
from repro.obs import timeline as tl
from repro.obs.report import Collector, RunReport
from repro.resilience import FaultEvent, execute_resilient
from repro.rng import make_rng
from repro.service import ReservationService, ServiceConfig
from repro.units import HOUR
from repro.workloads.reservations import ReservationScenario


@pytest.fixture(autouse=True)
def _everything_disabled_between_tests():
    """Each test starts and ends with both the aggregate collector and
    the timeline off and fresh (the process default)."""
    obs_core.disable()
    obs_core.reset()
    tl.disable()
    tl.reset()
    yield
    obs_core.disable()
    obs_core.reset()
    tl.disable()
    tl.reset()


def _scenario(capacity=32, n_res=6, seed=5):
    rng = make_rng(seed)
    res = []
    for i in range(n_res):
        start = float(rng.uniform(0.0, 30_000.0))
        dur = float(rng.uniform(300.0, 4_000.0))
        res.append(
            Reservation(
                start=start,
                end=start + dur,
                nprocs=int(rng.integers(1, 4)),
                label=f"r{i}",
            )
        )
    return ReservationScenario(
        name="timeline-test",
        capacity=capacity,
        now=0.0,
        reservations=tuple(res),
        hist_avg_available=capacity / 2,
    )


def _requests(n=4, spacing=400.0, n_shapes=2, n_tasks=6):
    graphs = [
        random_task_graph(DagGenParams(n=n_tasks), make_rng(100 + i))
        for i in range(n_shapes)
    ]
    return [
        StreamRequest(
            request_id=f"q{k}",
            arrival_offset=k * spacing,
            graph=graphs[k % n_shapes],
        )
        for k in range(n)
    ]


def _strip_wall(events):
    """Events without their wall-clock stamps (the only nondeterministic
    field)."""
    return [
        {k: v for k, v in ev.items() if k not in ("wall_s", "latency_s")}
        for ev in events
    ]


# ----------------------------------------------------------------------
# Core timeline semantics
# ----------------------------------------------------------------------


class TestTimelineCore:
    def test_emit_records_all_fields(self):
        t = Timeline()
        t.emit("mark", 12.5, trace="q1", tenant="acme", note="hello")
        (ev,) = t.events
        assert ev["type"] == "mark"
        assert ev["sim_t"] == 12.5
        assert ev["trace"] == "q1"
        assert ev["tenant"] == "acme"
        assert ev["note"] == "hello"
        assert isinstance(ev["wall_s"], float) and ev["wall_s"] >= 0.0

    def test_unknown_event_type_rejected(self):
        t = Timeline()
        with pytest.raises(ValueError, match="unknown timeline event"):
            t.emit("request_vanished", 0.0)

    def test_reserved_attr_rejected(self):
        t = Timeline()
        with pytest.raises(ValueError, match="reserved"):
            t.emit("mark", 0.0, sim_t_override=1.0, type="boom")

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="cap"):
            Timeline(cap=0)

    def test_ring_evicts_oldest_and_accounts_drops(self):
        t = Timeline(cap=4)
        for i in range(7):
            t.emit("mark", float(i), seq=i)
        assert len(t) == 4
        assert [ev["seq"] for ev in t.events] == [3, 4, 5, 6]
        assert t.dropped == 3
        assert t.dropped_by_type == {"mark": 3}
        summary = t.summary()
        assert summary["events"] == 4
        assert summary["cap"] == 4
        assert summary["dropped"] == 3
        assert summary["by_type"] == {"mark": 4}
        assert summary["dropped_by_type"] == {"mark": 3}

    def test_ambient_trace_scope_resolves_and_nests(self):
        t = Timeline()
        with tl.trace_scope("outer", "tenant-a"):
            t.emit("mark", 1.0)
            with tl.trace_scope("inner"):
                t.emit("mark", 2.0)
            t.emit("mark", 3.0, trace="explicit", tenant="tenant-b")
        t.emit("mark", 4.0)
        a, b, c, d = t.events
        assert (a["trace"], a["tenant"]) == ("outer", "tenant-a")
        # Inner scope wins; its tenant (None) shadows the outer one.
        assert (b["trace"], b["tenant"]) == ("inner", None)
        # Explicit arguments beat the ambient scope.
        assert (c["trace"], c["tenant"]) == ("explicit", "tenant-b")
        assert (d["trace"], d["tenant"]) == (None, None)

    def test_module_emit_is_noop_when_disabled(self):
        assert not tl.is_enabled()
        before = len(tl.current())
        tl.emit("mark", 0.0)
        assert len(tl.current()) == before == 0

    def test_recording_restores_previous_state(self):
        outer = tl.current()
        assert not tl.is_enabled()
        with tl.recording(cap=16, sim_epoch=5.0) as t:
            assert tl.is_enabled()
            assert tl.current() is t
            assert t.cap == 16 and t.sim_epoch == 5.0
            tl.emit("mark", 6.0)
        assert not tl.is_enabled()
        assert tl.current() is outer
        assert len(t) == 1 and len(outer) == 0


# ----------------------------------------------------------------------
# Span bridge (repro.obs.core -> timeline)
# ----------------------------------------------------------------------


class TestSpanBridge:
    def test_spans_emit_begin_end_pairs_when_both_enabled(self):
        from repro import obs

        with tl.recording() as t:
            with obs.instrumented():
                with obs.span("outer"):
                    with obs.stopwatch("inner"):
                        pass
        kinds = [(ev["type"], ev["name"]) for ev in t.events]
        assert kinds == [
            ("span_begin", "outer"),
            ("span_begin", "inner"),
            ("span_end", "inner"),
            ("span_end", "outer"),
        ]
        ends = [ev for ev in t.events if ev["type"] == "span_end"]
        assert all(ev["wall_s_span"] >= 0.0 for ev in ends)
        assert all(ev["sim_t"] is None for ev in t.events)

    def test_no_span_events_when_obs_disabled(self):
        from repro import obs

        assert not obs.is_enabled()
        with tl.recording() as t:
            with obs.span("ghost"):
                pass
            with obs.stopwatch("ghost2"):
                pass
        assert t.events == []


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------


def _spanning_timeline():
    t = Timeline(sim_epoch=100.0)
    t.emit("request_arrived", 100.0, trace="q0", tasks=3)
    t.emit("span_begin", None, trace="q0", name="service.admit")
    t.emit("probe_batch", 110.0, trace="q0", tasks=3)
    t.emit("span_end", None, trace="q0", name="service.admit")
    t.emit("placement_committed", 120.0, trace="q0", latency_s=0.001)
    t.emit("request_arrived", 130.0, trace="q1", tasks=2)
    t.emit("request_rejected", 130.0, trace="q1", latency_s=0.002)
    return t


class TestChromeExport:
    def test_events_are_structurally_valid(self):
        events = chrome_trace_events(_spanning_timeline())
        assert events
        for ev in events:
            assert ev["ph"] in ("M", "B", "E", "i", "C")
            assert "ts" in ev and "pid" in ev and "tid" in ev
            assert "name" in ev and "args" in ev

    def test_begin_end_balance_per_thread(self):
        events = chrome_trace_events(_spanning_timeline())
        stacks: dict[int, list[str]] = {}
        for ev in events:
            if ev["ph"] == "B":
                stacks.setdefault(ev["tid"], []).append(ev["name"])
            elif ev["ph"] == "E":
                assert stacks[ev["tid"]].pop() == ev["name"]
        assert all(not stack for stack in stacks.values())

    def test_queue_depth_counter_track(self):
        events = chrome_trace_events(_spanning_timeline())
        depths = [
            ev["args"]["requests"]
            for ev in events
            if ev["ph"] == "C" and ev["name"] == "queue_depth"
        ]
        # arrive(q0) -> commit(q0) -> arrive(q1) -> reject(q1).
        assert depths == [1, 0, 1, 0]

    def test_thread_name_metadata_per_trace_id(self):
        events = chrome_trace_events(_spanning_timeline())
        names = {
            ev["args"]["name"]
            for ev in events
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert {"scheduler", "q0", "q1"} <= names

    def test_sim_clock_skips_wall_only_events_and_uses_epoch(self):
        t = _spanning_timeline()
        events = chrome_trace_events(t, clock="sim")
        assert not any(ev["ph"] in ("B", "E") for ev in events)
        arrivals = [
            ev for ev in events if ev.get("name") == "request_arrived"
        ]
        # ts is microseconds relative to sim_epoch = 100 s.
        assert [ev["ts"] for ev in arrivals] == [0.0, 30e6]

    def test_unknown_clock_rejected(self):
        with pytest.raises(ValueError, match="clock"):
            chrome_trace_events(Timeline(), clock="cpu")

    def test_written_file_is_json_and_line_oriented(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(
            str(path), _spanning_timeline(), meta={"algorithm": "M1"}
        )
        text = path.read_text()
        doc = json.loads(text)  # single valid JSON document
        assert len(doc["traceEvents"]) == n
        assert doc["displayTimeUnit"] == "ms"
        # One event per line between the wrapper lines.
        lines = text.strip().splitlines()
        assert len(lines) == n + 2
        for line in lines[1:-1]:
            json.loads(line.rstrip(","))
        meta = [
            ev for ev in doc["traceEvents"] if ev["name"] == "run_meta"
        ]
        assert meta and meta[0]["args"] == {"algorithm": "M1"}


# ----------------------------------------------------------------------
# Percentiles and SLO series
# ----------------------------------------------------------------------


class TestPercentileNearestRank:
    def test_known_selections(self):
        vals = [4.0, 1.0, 3.0, 2.0]
        assert percentile_nearest_rank(vals, 0.0) == 1.0
        assert percentile_nearest_rank(vals, 50.0) == 2.0
        assert percentile_nearest_rank(vals, 75.0) == 3.0
        assert percentile_nearest_rank(vals, 100.0) == 4.0

    def test_result_is_always_an_element(self):
        vals = [0.31, 0.15, 0.92, 0.48, 0.77]
        for q in (1, 25, 50, 90, 99):
            assert percentile_nearest_rank(vals, q) in vals

    def test_empty_is_nan(self):
        assert math.isnan(percentile_nearest_rank([], 50.0))

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            percentile_nearest_rank([1.0], 101.0)
        with pytest.raises(ValueError, match="percentile"):
            percentile_nearest_rank([1.0], -0.1)


class TestSloSeries:
    def _events(self):
        return [
            {"type": "request_arrived", "sim_t": 10.0},
            {"type": "probe_batch", "sim_t": 15.0, "tasks": 4},
            {"type": "placement_committed", "sim_t": 80.0,
             "latency_s": 0.002},
            {"type": "request_arrived", "sim_t": 130.0},
            {"type": "request_rejected", "sim_t": 130.0,
             "latency_s": 0.004},
            {"type": "span_begin", "sim_t": None, "name": "x"},
        ]

    def test_bucket_folding(self):
        doc = SloSeries.from_events(self._events(), bucket_s=60.0).to_dict()
        assert doc["requests"] == 2
        assert doc["admitted"] == 1
        assert doc["rejected"] == 1
        b0, b1, b2 = doc["buckets"]
        assert (b0["arrivals"], b0["probes"], b0["probe_tasks"]) == (1, 1, 4)
        assert b0["queue_depth"] == 1
        assert (b1["admitted"], b1["queue_depth"]) == (1, 0)
        assert (b2["arrivals"], b2["rejected"], b2["queue_depth"]) == (1, 1, 0)
        assert b2["rejection_rate"] == 1.0
        assert doc["latency_ms"]["p50"] == 2.0
        assert doc["latency_ms"]["p99"] == 4.0

    def test_gap_buckets_are_dense_zero_rows(self):
        events = [
            {"type": "request_arrived", "sim_t": 0.0},
            {"type": "placement_committed", "sim_t": 250.0},
        ]
        doc = SloSeries.from_events(events, bucket_s=60.0).to_dict()
        ts = [b["t"] for b in doc["buckets"]]
        assert ts == [0.0, 60.0, 120.0, 180.0, 240.0]
        # The backlog persists across the empty middle buckets.
        assert [b["queue_depth"] for b in doc["buckets"]] == [1, 1, 1, 1, 0]
        empty = doc["buckets"][1]
        assert empty["arrivals"] == 0 and empty["latency_ms"]["p50"] is None

    def test_empty_series_reports_no_buckets(self):
        doc = SloSeries(bucket_s=60.0).to_dict()
        assert doc["buckets"] == []
        assert doc["requests"] == 0
        assert doc["latency_ms"] == {"p50": None, "p95": None, "p99": None}

    def test_invalid_bucket_width_rejected(self):
        with pytest.raises(ValueError, match="bucket_s"):
            SloSeries(bucket_s=0.0)

    def test_merge_rejects_mismatched_bucketing(self):
        a = SloSeries(bucket_s=60.0)
        with pytest.raises(ValueError, match="different bucketing"):
            a.merge(SloSeries(bucket_s=30.0))
        with pytest.raises(ValueError, match="different bucketing"):
            a.merge(SloSeries(bucket_s=60.0, t0=1.0))

    def test_partition_merge_is_bitwise_stable(self):
        """Acceptance criterion: folding the same recorded event stream
        at any worker count yields an identical slo section."""
        scenario = _scenario()
        with tl.recording(sim_epoch=scenario.now) as t:
            ReservationService(scenario).run(_requests(6))
        events = t.events
        assert events

        def folded(n_workers):
            merged = SloSeries(bucket_s=300.0, t0=scenario.now)
            for w in range(n_workers):
                part = SloSeries.from_events(
                    events[w::n_workers], bucket_s=300.0, t0=scenario.now
                )
                merged.merge(part)
            return merged.to_dict()

        single = folded(1)
        assert single["requests"] == 6
        for workers in (2, 3, 5):
            assert folded(workers) == single


# ----------------------------------------------------------------------
# RunReport sections
# ----------------------------------------------------------------------


class TestRunReportSections:
    def _report(self, **extra):
        return RunReport(
            name="slo-test", wall_s=0.5, collector=Collector(), **extra
        )

    def test_report_without_sections_stays_valid(self):
        doc = self._report().to_dict()
        validate_run_report(doc)
        assert "timeline" not in doc and "slo" not in doc

    def test_sections_round_trip_and_validate(self):
        t = _spanning_timeline()
        slo = SloSeries.from_events(
            t.events, bucket_s=60.0, t0=100.0
        ).to_dict()
        report = self._report(timeline=t.summary(), slo=slo)
        doc = report.to_dict()
        validate_run_report(doc)
        back = RunReport.from_json(report.to_json())
        assert back.timeline == report.timeline
        assert back.slo == report.slo

    def test_malformed_slo_section_fails_validation(self):
        doc = self._report(
            slo={"bucket_s": 60.0, "t0": 0.0, "buckets": []}
        ).to_dict()
        with pytest.raises(SchemaError):
            validate_run_report(doc)

    def test_malformed_timeline_section_fails_validation(self):
        doc = self._report(
            timeline={"events": "lots", "cap": 10, "dropped": 0,
                      "by_type": {}}
        ).to_dict()
        with pytest.raises(SchemaError):
            validate_run_report(doc)


# ----------------------------------------------------------------------
# Admission-loop instrumentation (end to end)
# ----------------------------------------------------------------------


class TestStreamTimeline:
    def test_streamed_run_emits_expected_vocabulary(self):
        scenario = _scenario()
        reqs = _requests(4)
        with tl.recording(sim_epoch=scenario.now) as t:
            report = ReservationService(scenario).run(reqs)
        by_type = t.summary()["by_type"]
        assert by_type["request_arrived"] == 4
        assert by_type["placement_committed"] == 4
        assert by_type["task_placed"] == sum(r.graph.n for r in reqs)
        assert by_type["probe_batch"] >= 4
        assert by_type["task_ready"] >= 4
        assert t.dropped == 0
        # Every in-request event carries its request's trace id.
        traced = [
            ev for ev in t.events
            if ev["type"] in ("probe_batch", "task_placed", "task_ready")
        ]
        assert traced
        assert {ev["trace"] for ev in traced} == {r.request_id for r in reqs}
        commits = [
            ev for ev in t.events if ev["type"] == "placement_committed"
        ]
        for ev, outcome in zip(commits, report.outcomes):
            assert ev["sim_t"] == min(
                p.start for p in outcome.schedule.placements
            )
            assert ev["latency_s"] == outcome.latency_s

    def test_one_task_ready_per_task_on_both_entry_points(self):
        from repro.core import schedule_ressched

        scenario = _scenario()
        graph = _requests(1)[0].graph
        with tl.recording(sim_epoch=scenario.now) as streamed:
            ReservationService(scenario).run(_requests(1))
        with tl.recording(sim_epoch=scenario.now) as batch:
            schedule = schedule_ressched(graph, scenario)
        for t in (streamed, batch):
            by_type = t.summary()["by_type"]
            for kind in ("task_ready", "probe_batch", "task_placed"):
                assert by_type[kind] == graph.n, kind
            ready = [ev for ev in t.events if ev["type"] == "task_ready"]
            assert [ev["n"] for ev in ready] == [1] * graph.n
            assert [ev["pending"] for ev in ready] == list(
                range(graph.n, 0, -1)
            )
        placed = [ev["task"] for ev in batch.events if ev["type"] == "task_placed"]
        for ev, task in zip(
            (ev for ev in batch.events if ev["type"] == "task_ready"), placed
        ):
            preds = graph.predecessors(task)
            assert ev["sim_t"] == max(
                [scenario.now] + [schedule.finish_of(p) for p in preds]
            )

    def test_replay_is_deterministic_modulo_wall_clock(self):
        scenario = _scenario()
        with tl.recording(sim_epoch=scenario.now) as t1:
            ReservationService(scenario).run(_requests(4))
        with tl.recording(sim_epoch=scenario.now) as t2:
            ReservationService(scenario).run(_requests(4))
        assert _strip_wall(t1.events) == _strip_wall(t2.events)

    def test_instrumentation_does_not_perturb_placements(self):
        def _sig(report):
            return [
                (p.task, p.start, p.nprocs, p.duration)
                for o in report.outcomes
                for p in o.schedule.placements
            ]

        bare = ReservationService(_scenario()).run(_requests(4))
        with tl.recording():
            traced = ReservationService(_scenario()).run(_requests(4))
        assert _sig(traced) == _sig(bare)

    def test_admission_window_rejects_and_emits(self):
        scenario = _scenario()
        reqs = _requests(4)
        service = ReservationService(
            scenario, config=ServiceConfig(admission_window=0.0)
        )
        with tl.recording(sim_epoch=scenario.now) as t:
            report = service.run(reqs)
        assert report.n_admitted + report.n_rejected == 4
        assert report.n_rejected > 0
        rejected = [ev for ev in t.events if ev["type"] == "request_rejected"]
        assert len(rejected) == report.n_rejected
        for ev in rejected:
            assert ev["reason"] == "admission-window"
            assert ev["wait_s"] > 0.0
        # Rejected requests book nothing on the shared calendar.
        booked = len(service.calendar.reservations)
        expected = len(scenario.reservations) + sum(
            o.request.graph.n for o in report.outcomes if o.admitted
        )
        assert booked == expected
        # Only admitted requests appear in the committed schedules.
        assert len(report.schedules) == report.n_admitted

    def test_admission_window_none_admits_everything(self):
        report = ReservationService(_scenario()).run(_requests(3))
        assert report.n_admitted == 3 and report.n_rejected == 0
        assert all(o.admitted for o in report.outcomes)

    def test_negative_admission_window_rejected(self):
        with pytest.raises(ServiceError, match="admission_window"):
            ServiceConfig(admission_window=-1.0)

    def test_rejected_requests_counted_in_obs(self):
        from repro import obs

        with obs.instrumented() as col:
            ReservationService(
                _scenario(), config=ServiceConfig(admission_window=0.0)
            ).run(_requests(4))
        counters = col.to_dict()["counters"]
        assert counters["service.requests"] == 4
        assert counters.get("service.admitted", 0) + counters.get(
            "service.rejected.window", 0
        ) == 4
        assert counters.get("service.rejected.window", 0) > 0


# ----------------------------------------------------------------------
# Resilience repair instrumentation
# ----------------------------------------------------------------------


class TestRepairTimeline:
    def test_repair_emits_one_triggered_event(self, medium_graph):
        from repro.core import schedule_ressched

        sc = ReservationScenario(
            name="repair-timeline",
            capacity=16,
            now=0.0,
            reservations=(),
            hist_avg_available=16.0,
        )
        schedule = schedule_ressched(medium_graph, sc)
        mid = sc.now + schedule.turnaround / 2
        ev = FaultEvent(
            time=sc.now + 1.0, kind="arrival",
            reservation=Reservation(mid, mid + 4 * HOUR, sc.capacity),
        )
        with tl.recording(sim_epoch=sc.now) as t:
            res = execute_resilient(
                schedule, medium_graph, sc,
                policy="local-rebook", faults=[ev],
            )
        assert res.success and len(res.repairs) == 1
        repairs = [e for e in t.events if e["type"] == "repair_triggered"]
        assert len(repairs) == 1
        (rep,) = repairs
        assert rep["policy"] == "local-rebook"
        assert rep["trigger"] == "arrival"
        assert rep["tasks"] > 0
        assert rep["sim_t"] == ev.time


# ----------------------------------------------------------------------
# Disabled-mode overhead (analytic, as in test_obs.py)
# ----------------------------------------------------------------------


def _per_call(fn, n, repeats=3):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n


class TestDisabledOverheadTimeline:
    """The timeline guards must add <2% to one service admission.

    Same analytic scheme as ``test_obs.TestDisabledOverhead``: price one
    ``if _tl.ENABLED`` site (branch, or the guarded module-level
    ``emit`` no-op — whichever is dearer) and compare the summed site
    cost against the measured per-request cost of a service run."""

    def _site_cost(self):
        def guarded_noop():
            if tl.ENABLED:
                pass  # pragma: no cover

        branch = _per_call(guarded_noop, 20_000)
        noop_emit = _per_call(lambda: tl.emit("mark", 0.0), 20_000)
        return max(branch, noop_emit)

    def test_streamed_admit_guard_overhead(self):
        assert not tl.is_enabled()
        scenario = _scenario()
        reqs = _requests(40, spacing=50.0, n_tasks=6)
        service = ReservationService(scenario)

        t0 = time.perf_counter()
        service.run(reqs)
        per_admit = (time.perf_counter() - t0) / len(reqs)
        # Sites on one admission without faults: request_arrived,
        # trace push/pop around service.admit and placement_committed
        # (4), and task_ready/probe_batch/task_placed per task (3 per
        # task, 6 tasks).
        n_sites = 4 + 3 * 6
        assert n_sites * self._site_cost() < 0.02 * per_admit


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------


@pytest.fixture
def dag_file(tmp_path):
    out = tmp_path / "app.json"
    assert main(["gen-dag", "--n", "6", "--seed", "3", "--out", str(out)]) == 0
    return str(out)


class TestCliTimeline:
    def test_trace_chrome_format_writes_loadable_file(
        self, dag_file, tmp_path, capsys
    ):
        out = tmp_path / "run.trace.json"
        rc = main(
            ["trace", "--dag", dag_file, "--preset", "OSC_Cluster",
             "--format", "chrome", "--out", str(out)]
        )
        assert rc == 0
        assert "chrome trace events" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        evs = doc["traceEvents"]
        assert evs and all("ph" in e and "ts" in e for e in evs)

    def test_stream_trace_out_writes_report_sections(
        self, dag_file, tmp_path
    ):
        csv_path = tmp_path / "reqs.csv"
        csv_path.write_text(
            "request_id,arrival_offset,mode,priority\n"
            "r1,0,interactive,high\n"
            "r2,900000,batch,low\n"
            "r3,1800000,,\n"
        )
        report = tmp_path / "stream.json"
        trace = tmp_path / "stream_trace.json"
        rc = main(
            ["serve", "--requests", str(csv_path), "--dag", dag_file,
             "--out", str(report), "--trace-out", str(trace)]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        validate_run_report(doc)
        timeline = doc["timeline"]
        assert timeline["events"] > 0 and timeline["dropped"] == 0
        for kind in ("request_arrived", "placement_committed",
                     "probe_batch", "task_placed"):
            assert timeline["by_type"].get(kind, 0) > 0, kind
        slo = doc["slo"]
        assert slo["bucket_s"] == 900.0
        assert slo["requests"] == 3 and slo["admitted"] == 3
        assert slo["buckets"]
        assert slo["latency_ms"]["p50"] is not None
        chrome = json.loads(trace.read_text())
        assert chrome["traceEvents"]

    def test_stream_admission_window_rejects_via_cli(
        self, dag_file, tmp_path, capsys
    ):
        csv_path = tmp_path / "reqs.csv"
        csv_path.write_text(
            "request_id,arrival_offset\nr1,0\nr2,10\nr3,20\n"
        )
        rc = main(
            ["serve", "--requests", str(csv_path), "--dag", dag_file,
             "--admission-window", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rejected" in out
