"""Tests for the streamed engine's entry point and plan memo
(repro.core.incremental).

The headline property: :func:`schedule_ressched_incremental` placing a
memoized plan is **bitwise-identical** to the batch
:func:`schedule_ressched` on every instance — same placements, same
floats — which is what lets the streamed engine replace N full passes
without changing a single result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calendar import Reservation, ResourceCalendar
from repro.core import (
    RESSCHED_ALGORITHMS,
    PlanMemo,
    ProblemContext,
    ResSchedAlgorithm,
    build_plan,
    schedule_ressched,
    schedule_ressched_incremental,
)
from repro.dag import DagGenParams, TaskGraph, random_task_graph
from repro.errors import GenerationError
from repro.rng import make_rng
from repro.schedule import validate_schedule
from repro.workloads.reservations import ReservationScenario


def _scenario(capacity=16, hist=None, now=0.0, reservations=()):
    return ReservationScenario(
        name="test",
        capacity=capacity,
        now=now,
        reservations=tuple(reservations),
        hist_avg_available=float(hist if hist is not None else capacity),
    )


def _graph(seed: int, n: int = 12) -> TaskGraph:
    return random_task_graph(DagGenParams(n=n), make_rng(seed))


def _random_scenario(seed: int, capacity: int = 16) -> ReservationScenario:
    rng = make_rng(seed)
    res = []
    # Keep the summed processor demand below capacity so even fully
    # overlapping draws stay feasible for a strict calendar.
    budget = capacity - 1
    for i in range(int(rng.integers(0, 12))):
        if budget <= 0:
            break
        start = float(rng.uniform(0.0, 20_000.0))
        dur = float(rng.uniform(300.0, 5_000.0))
        nprocs = int(min(rng.integers(1, 5), budget))
        budget -= nprocs
        res.append(
            Reservation(start=start, end=start + dur, nprocs=nprocs, label=f"r{i}")
        )
    return _scenario(
        capacity=capacity,
        hist=float(rng.uniform(1.0, capacity)),
        reservations=res,
    )


def _incremental(graph, scenario, algorithm=ResSchedAlgorithm(), **kwargs):
    """The streamed entry point on a fresh plan and calendar."""
    return schedule_ressched_incremental(
        graph,
        algorithm,
        plan=build_plan(ProblemContext(graph, scenario), algorithm),
        calendar=scenario.calendar(),
        now=scenario.now,
        **kwargs,
    )


def _signature(schedule):
    return [
        (p.task, p.start, p.nprocs, p.duration) for p in schedule.placements
    ]


class TestPlanMemo:
    def test_repeated_shape_hits(self):
        memo = PlanMemo()
        g = _graph(3)
        scenario = _scenario()
        p1 = memo.plan(g, scenario, ResSchedAlgorithm())
        p2 = memo.plan(g, scenario, ResSchedAlgorithm())
        assert p1 is p2
        assert len(memo) == 1

    def test_distinct_algorithms_miss(self):
        memo = PlanMemo()
        g = _graph(3)
        scenario = _scenario()
        memo.plan(g, scenario, ResSchedAlgorithm())
        memo.plan(g, scenario, ResSchedAlgorithm(bl="BL_1", bd="BD_ALL"))
        assert len(memo) == 2

    def test_same_content_different_objects_hit(self):
        memo = PlanMemo()
        scenario = _scenario()
        memo.plan(_graph(9), scenario, ResSchedAlgorithm())
        memo.plan(_graph(9), scenario, ResSchedAlgorithm())
        assert len(memo) == 1

    def test_plan_for_wrong_algorithm_rejected(self):
        g = _graph(3)
        scenario = _scenario()
        ctx = ProblemContext(g, scenario)
        plan = build_plan(ctx, ResSchedAlgorithm(bl="BL_1", bd="BD_ALL"))
        with pytest.raises(GenerationError):
            schedule_ressched_incremental(
                g,
                ResSchedAlgorithm(),
                plan=plan,
                calendar=scenario.calendar(),
                now=scenario.now,
            )

    def test_eviction_resets_store(self):
        memo = PlanMemo(cap=2)
        scenario = _scenario()
        for seed in (1, 2, 3):
            memo.plan(_graph(seed), scenario, ResSchedAlgorithm())
        assert len(memo) == 1  # cap reached -> dropped, then one insert


class TestArgumentValidation:
    def test_bad_tie_break_is_value_error(self):
        g = _graph(3)
        with pytest.raises(ValueError, match="tie_break"):
            _incremental(g, _scenario(), tie_break="median")


class TestBitwiseIdentity:
    """The tentpole property: incremental == batch, bit for bit."""

    @given(
        graph_seed=st.integers(0, 400),
        scen_seed=st.integers(0, 400),
        n=st.integers(3, 24),
        alg=st.sampled_from(range(len(RESSCHED_ALGORITHMS))),
        tie_break=st.sampled_from(["fewest", "most"]),
        now=st.floats(0.0, 5_000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_equals_batch(
        self, graph_seed, scen_seed, n, alg, tie_break, now
    ):
        graph = _graph(graph_seed, n=n)
        scenario = _random_scenario(scen_seed)
        scenario = ReservationScenario(
            name=scenario.name,
            capacity=scenario.capacity,
            now=now,
            reservations=scenario.reservations,
            hist_avg_available=scenario.hist_avg_available,
        )
        algorithm = RESSCHED_ALGORITHMS[alg]
        batch = schedule_ressched(graph, scenario, algorithm, tie_break=tie_break)
        incremental = _incremental(
            graph, scenario, algorithm, tie_break=tie_break
        )
        assert _signature(incremental) == _signature(batch)
        assert incremental.now == batch.now
        assert incremental.algorithm == batch.algorithm
        validate_schedule(
            incremental, scenario.capacity, scenario.reservations
        )

    def test_shared_plan_and_calendar_reproduce_fresh_run(self):
        """Passing an explicit plan/calendar/now must not change bits."""
        graph = _graph(17, n=14)
        scenario = _random_scenario(23)
        memo = PlanMemo()
        plan = memo.plan(graph, scenario, ResSchedAlgorithm())
        cal = scenario.calendar()
        via_stream_args = schedule_ressched_incremental(
            graph,
            ResSchedAlgorithm(),
            plan=plan,
            calendar=cal,
            now=scenario.now,
        )
        batch = schedule_ressched(graph, scenario)
        assert _signature(via_stream_args) == _signature(batch)
        # The shared calendar took the commits.
        assert len(cal.reservations) == len(scenario.reservations) + graph.n


class TestBatchQuery:
    """earliest_starts_batch == per-call earliest_starts_multi, bitwise."""

    def _calendar(self, seed: int, capacity: int = 32) -> ResourceCalendar:
        from repro.errors import CalendarError

        rng = make_rng(seed)
        cal = ResourceCalendar(capacity)
        for i in range(int(rng.integers(1, 40))):
            start = float(rng.uniform(0.0, 30_000.0))
            dur = float(rng.uniform(100.0, 4_000.0))
            try:
                cal.add(
                    Reservation(
                        start=start,
                        end=start + dur,
                        nprocs=int(rng.integers(1, capacity // 2)),
                        label=f"r{i}",
                    )
                )
            except CalendarError:
                pass  # overfull draw — keep the calendar busy but valid
        return cal

    @given(seed=st.integers(0, 200), n_reqs=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_batch_matches_multi_bitwise(self, seed, n_reqs):
        cal = self._calendar(seed)
        rng = make_rng(seed + 1)
        requests = [
            (
                float(rng.uniform(0.0, 40_000.0)),
                rng.uniform(50.0, 6_000.0, size=int(rng.integers(1, 16))),
            )
            for _ in range(n_reqs)
        ]
        batch = cal.earliest_starts_batch(requests)
        for (earliest, durations), got in zip(requests, batch):
            expect = cal.earliest_starts_multi(earliest, durations)
            assert np.array_equal(got, expect)

    def test_empty_batch(self):
        cal = self._calendar(7)
        assert cal.earliest_starts_batch([]) == []

    def test_validation_errors(self):
        from repro.errors import CalendarError

        cal = self._calendar(7)
        with pytest.raises(CalendarError):
            cal.earliest_starts_batch([(0.0, np.array([]))])
        with pytest.raises(CalendarError):
            cal.earliest_starts_batch([(0.0, np.array([-5.0]))])
        with pytest.raises(CalendarError):
            cal.earliest_starts_batch([(0.0, np.ones(cal.capacity + 1))])
