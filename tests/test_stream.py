"""Tests for the streamed scheduling engine (repro.experiments.stream),
driven through its one admission loop (repro.service), and the
replayable request-stream loader (repro.workloads.requests)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.calendar import Reservation
from repro.dag import DagGenParams, random_task_graph
from repro.errors import ServiceError, WorkloadError
from repro.experiments.reporting import run_instrumented
from repro.experiments.stream import (
    StreamRequest,
    requests_from_specs,
    schedule_stream_naive,
)
from repro.rng import make_rng
from repro.service import ReservationService, ServiceConfig
from repro.workloads.requests import (
    PRIORITY_VALUES,
    RequestSpec,
    load_request_stream,
    parse_request_stream,
)
from repro.workloads.reservations import ReservationScenario

DATA = Path(__file__).parent / "data"


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
        name="stream-test",
        capacity=capacity,
        now=0.0,
        reservations=tuple(res),
        hist_avg_available=capacity / 2,
    )


def _requests(n=8, spacing=400.0, n_shapes=3, n_tasks=7):
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


def _sig(schedule):
    return [
        (p.task, p.start, p.nprocs, p.duration) for p in schedule.placements
    ]


def _blocked():
    """A platform fully booked on [0, 50,000): every admission waits."""
    return ReservationScenario(
        name="blocked",
        capacity=8,
        now=0.0,
        reservations=(
            Reservation(start=0.0, end=50_000.0, nprocs=8, label="block"),
        ),
        hist_avg_available=4,
    )


def _windowed(scenario, window):
    return ReservationService(
        scenario, config=ServiceConfig(admission_window=window)
    )


class TestStreamScheduler:
    """The streamed engine's placements, admitted by the service."""

    def test_streamed_equals_naive_bitwise(self):
        scenario = _scenario()
        reqs = _requests(10)
        naive = schedule_stream_naive(scenario, reqs)
        report = ReservationService(scenario).run(reqs)
        assert report.n_admitted == len(reqs)
        assert [_sig(s) for s in report.schedules] == [_sig(s) for s in naive]

    def test_admissions_accumulate_on_one_calendar(self):
        scenario = _scenario()
        reqs = _requests(4)
        service = ReservationService(scenario)
        service.run(reqs)
        booked = len(service.calendar.reservations)
        expected = len(scenario.reservations) + sum(
            r.graph.n for r in reqs
        )
        assert booked == expected

    def test_schedule_now_is_arrival(self):
        scenario = _scenario()
        reqs = _requests(3, spacing=500.0)
        report = ReservationService(scenario).run(reqs)
        for outcome, req in zip(report.outcomes, reqs):
            assert outcome.arrival == scenario.now + req.arrival_offset
            assert outcome.schedule.now == outcome.arrival

    def test_negative_offset_rejected(self):
        scenario = _scenario()
        g = random_task_graph(DagGenParams(n=5), make_rng(1))
        bad = StreamRequest(request_id="x", arrival_offset=-1.0, graph=g)
        with pytest.raises(ServiceError, match="arrival_offset"):
            ReservationService(scenario).run([bad])

    def test_decreasing_offsets_rejected(self):
        scenario = _scenario()
        g = random_task_graph(DagGenParams(n=5), make_rng(1))
        reqs = [
            StreamRequest(request_id="a", arrival_offset=100.0, graph=g),
            StreamRequest(request_id="b", arrival_offset=50.0, graph=g),
        ]
        with pytest.raises(ServiceError, match="non-decreasing"):
            ReservationService(scenario).run(reqs)
        with pytest.raises(ServiceError, match="non-negative"):
            schedule_stream_naive(scenario, reqs)


class TestAdmissionControl:
    def test_zero_window_rejects_requests_that_must_wait(self):
        scenario = _scenario()
        reqs = _requests(6)
        service = _windowed(scenario, 0.0)
        report = service.run(reqs)
        assert report.n_requests == 6
        assert report.n_admitted + report.n_rejected == 6
        assert report.n_rejected > 0
        # Rejections must leave the shared calendar untouched: only
        # admitted requests' tasks are booked.
        booked = len(service.calendar.reservations)
        expected = len(scenario.reservations) + sum(
            o.request.graph.n for o in report.outcomes if o.admitted
        )
        assert booked == expected
        assert len(report.schedules) == report.n_admitted
        summary = report.summary()
        assert summary["admitted"] == report.n_admitted
        assert summary["rejected"] == report.n_rejected

    def test_infinite_window_equals_no_window_bitwise(self):
        reqs = _requests(5)
        plain = ReservationService(_scenario()).run(reqs)
        windowed = _windowed(_scenario(), float("inf")).run(reqs)
        assert windowed.n_rejected == 0
        assert [_sig(s) for s in windowed.schedules] == [
            _sig(s) for s in plain.schedules
        ]

    def test_rejected_outcome_keeps_tentative_schedule(self):
        report = _windowed(_scenario(), 0.0).run(_requests(4))
        assert report.n_rejected > 0
        for outcome in report.outcomes:
            if not outcome.admitted:
                # The tentative plan is retained for diagnostics even
                # though nothing was committed.
                assert outcome.schedule.placements
                first = min(p.start for p in outcome.schedule.placements)
                assert first - outcome.arrival > 0.0

    def test_negative_window_rejected(self):
        with pytest.raises(ServiceError, match="admission_window"):
            ServiceConfig(admission_window=-5.0)

    def test_fully_blocked_platform_rejects_whole_stream(self):
        """Zero-width window on a fully booked platform: every request
        must wait, so every request is rejected and nothing books."""
        service = _windowed(_blocked(), 0.0)
        report = service.run(_requests(5))
        assert report.n_rejected == 5 and report.n_admitted == 0
        assert report.schedules == []
        assert len(service.calendar.reservations) == 1

    def test_rejections_leave_generation_unchanged(self):
        """A rejected request plans against a throwaway copy: the shared
        calendar's commit generation must not move (stale CAS tokens
        would otherwise conflict on rejected work)."""
        service = _windowed(_blocked(), 0.0)
        gen0 = service.calendar.generation
        report = service.run(_requests(4))
        assert report.n_rejected == 4
        assert service.calendar.generation == gen0

    def test_stream_counters_in_valid_run_report(self):
        """The stream.* counter family must round-trip the obs schema."""
        from repro import obs

        scenario = _scenario()
        reqs = _requests(6)
        _, report = run_instrumented(
            "service", lambda: ReservationService(scenario).run(reqs)
        )
        doc = json.loads(report.to_json())  # to_json validates
        obs.validate_run_report(doc)
        counters = doc["counters"]
        assert counters["service.requests"] == 6
        assert counters["stream.events"] == sum(r.graph.n for r in reqs)
        assert counters["stream.memo.miss"] >= 1


class TestRequestsFromSpecs:
    def test_round_robin_assignment(self):
        specs = [
            RequestSpec(request_id=f"s{i}", arrival_offset=float(i))
            for i in range(5)
        ]
        graphs = [
            random_task_graph(DagGenParams(n=4), make_rng(i)) for i in range(2)
        ]
        reqs = requests_from_specs(specs, graphs)
        assert [r.graph for r in reqs] == [
            graphs[0], graphs[1], graphs[0], graphs[1], graphs[0]
        ]
        assert [r.request_id for r in reqs] == [s.request_id for s in specs]

    def test_empty_graphs_rejected(self):
        with pytest.raises(ServiceError, match="at least one graph"):
            requests_from_specs([], [])


class TestRequestStreamLoader:
    def test_fixture_parses_with_defaults_and_sorting(self):
        specs = load_request_stream(DATA / "stream_requests.csv")
        assert [s.request_id for s in specs] == [
            "req-a", "req-b", "req-d", "req-3"
        ]
        # Offsets are milliseconds in the file, seconds on the spec.
        assert [s.arrival_offset for s in specs] == [0.0, 1.5, 2.0, 2.5]
        assert specs[0].mode == "interactive" and specs[0].priority == "high"
        # Blank mode/priority fall back to the defaults.
        assert specs[3].mode == "interactive" and specs[3].priority == "mid"
        assert specs[2].priority == "mid"
        # Tenant column: blank cells fall back to the default tenant.
        assert [s.tenant for s in specs] == [
            "acme", "default", "globex", "acme"
        ]

    def test_tenant_column_optional(self):
        text = "request_id,arrival_offset,tenant\na,1,acme\nb,2,\n"
        specs = parse_request_stream(text)
        assert specs[0].tenant == "acme"
        assert specs[1].tenant == "default"
        # Files without the column still parse (tenant defaults).
        (spec,) = parse_request_stream("request_id,arrival_offset\nx,1\n")
        assert spec.tenant == "default"

    def test_tenant_flows_through_to_stream_requests(self):
        specs = load_request_stream(DATA / "stream_requests.csv")
        graphs = [random_task_graph(DagGenParams(n=4), make_rng(9))]
        reqs = requests_from_specs(specs, graphs)
        assert [r.tenant for r in reqs] == [s.tenant for s in specs]

    def test_priority_values(self):
        assert PRIORITY_VALUES == {"low": 1, "mid": 5, "high": 10}
        spec = RequestSpec(request_id="x", arrival_offset=0.0, priority="high")
        assert spec.priority_value == 10

    def test_ties_keep_file_order(self):
        text = (
            "request_id,arrival_offset\n"
            "b,100\n"
            "a,100\n"
            "c,50\n"
        )
        assert [s.request_id for s in parse_request_stream(text)] == [
            "c", "b", "a"
        ]

    def test_extra_columns_ignored(self):
        text = 'request_id,arrival_offset,body_json\nx,10,"{""k"":1}"\n'
        (spec,) = parse_request_stream(text)
        assert spec.request_id == "x"
        assert spec.arrival_offset == 0.01

    def test_missing_header_rejected(self):
        with pytest.raises(WorkloadError, match="arrival_offset"):
            parse_request_stream("request_id,mode\nx,batch\n")
        with pytest.raises(WorkloadError, match="empty"):
            parse_request_stream("")

    def test_malformed_rows_name_the_row(self):
        with pytest.raises(WorkloadError, match="row 2"):
            parse_request_stream(
                "request_id,arrival_offset\na,1\nb,not-a-number\n"
            )
        with pytest.raises(WorkloadError, match="row 2"):
            parse_request_stream("request_id,arrival_offset\na,1\nb,\n")
        with pytest.raises(WorkloadError, match="row 2.*mode"):
            parse_request_stream(
                "request_id,arrival_offset,mode\na,1,batch\nb,2,warp\n"
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            parse_request_stream("request_id,arrival_offset\nx,1\nx,2\n")

    def test_negative_offset_rejected(self):
        with pytest.raises(WorkloadError, match="row 1"):
            parse_request_stream("request_id,arrival_offset\nx,-5\n")

    def test_missing_file_wrapped(self, tmp_path):
        with pytest.raises(WorkloadError, match="cannot read"):
            load_request_stream(tmp_path / "nope.csv")

    def test_specs_drive_a_stream(self):
        """End-to-end: fixture CSV -> specs -> stream admission."""
        specs = load_request_stream(DATA / "stream_requests.csv")
        graphs = [random_task_graph(DagGenParams(n=5), make_rng(3))]
        reqs = requests_from_specs(specs, graphs)
        report = ReservationService(_scenario()).run(reqs)
        assert report.n_requests == len(specs)
