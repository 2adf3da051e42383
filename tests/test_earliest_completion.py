"""Differential tests for the earliest-completion kernel.

:meth:`ResourceCalendar.earliest_completion` answers RESSCHED's per-task
decision — the ``<count, start>`` pair with the earliest completion —
without computing every count's start.  It must agree, bit for bit, with
the full sweep it replaces: the argmin of
``earliest_starts_multi(earliest, durations) + durations`` (the first
minimum for ``tie_break="fewest"``, the last for ``"most"``).  On a
:class:`ShardedCalendar` the reference is the same argmin over the
facade's ``(earliest_start, shard_id)``-reduced ``earliest_starts_batch``
answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.calendar.calendar as calmod
from repro import obs
from repro.calendar import Reservation, ResourceCalendar
from repro.core import ResSchedAlgorithm, schedule_ressched
from repro.dag import DagGenParams, random_task_graph
from repro.errors import CalendarError
from repro.experiments.stream import StreamRequest
from repro.obs import timeline as tl
from repro.rng import make_rng
from repro.service import ReservationService
from repro.shard import ShardedCalendar
from repro.workloads.reservations import ReservationScenario

TIE_BREAKS = ("fewest", "most")


def _argmin(starts: np.ndarray, durations: np.ndarray, tie_break: str):
    completions = starts + durations
    if tie_break == "fewest":
        j = int(np.argmin(completions))
    else:
        j = int(completions.size - 1 - np.argmin(completions[::-1]))
    return float(starts[j]), j + 1


def _reference(cal: ResourceCalendar, earliest, durations, tie_break):
    starts = cal.earliest_starts_multi(earliest, durations)
    return _argmin(starts, np.asarray(durations, dtype=float), tie_break)


def _sharded_reference(cal: ShardedCalendar, earliest, durations, tie_break):
    starts = cal.earliest_starts_batch([(earliest, durations)])[0]
    return _argmin(starts, np.asarray(durations, dtype=float), tie_break)


def _durations(rng, b: int, shape: str) -> np.ndarray:
    """A duration vector over counts ``1..b`` of the given shape."""
    if shape == "equal":
        return np.full(b, float(rng.uniform(10.0, 3_000.0)))
    if shape == "amdahl":
        seq = float(rng.uniform(100.0, 20_000.0))
        alpha = float(rng.uniform(0.0, 1.0))
        return np.array(
            [seq * (alpha + (1 - alpha) / m) for m in range(1, b + 1)]
        )
    # Coarse (whole-second) random durations produce exact ties.
    return np.round(rng.uniform(10.0, 3_000.0, size=b))


def _calendar(
    seed: int, capacity: int, clamp: bool, n_res: int
) -> ResourceCalendar:
    """A busy calendar: strict calendars drop overfull draws, clamped
    ones keep them (availability pinned at zero)."""
    rng = make_rng(seed)
    cal = ResourceCalendar(capacity, clamp=clamp)
    for i in range(n_res):
        # Whole-second starts and lengths make breakpoints coincide.
        start = float(np.round(rng.uniform(0.0, 20_000.0)))
        length = float(np.round(rng.uniform(60.0, 3_000.0)))
        r = Reservation(
            start=start,
            end=start + length,
            nprocs=int(rng.integers(1, capacity + 1)),
            label=f"r{i}",
        )
        try:
            cal.add(r)
        except CalendarError:
            assert not clamp
    return cal


def _earliest(rng, cal: ResourceCalendar) -> float:
    times = cal.availability().times
    if times.size and rng.uniform() < 0.3:
        return float(rng.choice(times))  # exactly on a breakpoint
    return float(rng.uniform(-500.0, 24_000.0))


class TestKernel:
    @given(
        seed=st.integers(0, 10_000),
        capacity=st.integers(1, 40),
        clamp=st.booleans(),
        n_res=st.integers(0, 300),
        shape=st.sampled_from(["equal", "amdahl", "random"]),
        tie_break=st.sampled_from(TIE_BREAKS),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_argmin_of_multi(
        self, seed, capacity, clamp, n_res, shape, tie_break
    ):
        cal = _calendar(seed, capacity, clamp, n_res)
        rng = make_rng(seed + 1)
        for _ in range(4):
            b = int(rng.integers(1, capacity + 1))
            d = _durations(rng, b, shape)
            earliest = _earliest(rng, cal)
            want = _reference(cal, earliest, d, tie_break)
            probed: list = []
            got = cal.earliest_completion(
                earliest, d, tie_break, probed=probed
            )
            assert got == want
            assert type(got[0]) is float and type(got[1]) is int
            # Provenance covers every count once; exact entries are the
            # true answers and pruned ones never undercut the winner.
            starts = cal.earliest_starts_multi(earliest, d)
            finish = want[0] + d[want[1] - 1]
            assert sorted(p[0] for p in probed) == list(range(1, b + 1))
            for m, start, fin, exact in probed:
                if exact:
                    assert start == starts[m - 1]
                    assert fin == starts[m - 1] + d[m - 1]
                else:
                    assert starts[m - 1] + d[m - 1] >= fin >= finish

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_all_equal_durations_resolve_by_tie_break(self, tie_break):
        cal = ResourceCalendar(8)
        d = np.full(8, 600.0)
        # Every count starts at 0 and completes at 600: a pure tie.
        assert cal.earliest_completion(0.0, d, tie_break) == (
            (0.0, 1) if tie_break == "fewest" else (0.0, 8)
        )

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_infinite_durations_follow_the_argmin(self, tie_break):
        cal = _calendar(3, 8, False, 60)
        for d in (np.full(8, np.inf), np.array([np.inf, 500.0, np.inf])):
            assert cal.earliest_completion(10.0, d, tie_break) == (
                _reference(cal, 10.0, d, tie_break)
            )
        sharded = _sharded(3, 4)  # four 8-processor shards
        d = np.full(8, np.inf)
        assert sharded.earliest_completion(10.0, d, tie_break) == (
            _sharded_reference(sharded, 10.0, d, tie_break)
        )

    @given(
        seed=st.integers(0, 1_000),
        window=st.sampled_from([1, 2, 5, 32]),
        tie_break=st.sampled_from(TIE_BREAKS),
    )
    @settings(max_examples=60, deadline=None)
    def test_result_independent_of_walk_window(self, seed, window, tie_break):
        cal = _calendar(seed, 24, False, 200)
        rng = make_rng(seed + 7)
        d = _durations(rng, int(rng.integers(1, 25)), "amdahl")
        earliest = _earliest(rng, cal)
        want = _reference(cal, earliest, d, tie_break)
        saved = calmod._WALK_WINDOW
        calmod._WALK_WINDOW = window
        try:
            assert cal.earliest_completion(earliest, d, tie_break) == want
        finally:
            calmod._WALK_WINDOW = saved

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_answer_beyond_the_first_window_escalates(self, tie_break):
        # 200 back-to-back reservations of 1 or 2 processors leave at
        # most 15 of 16 free until t = 20,000 — far more segments than
        # the walk window holds — and 16 processors are 10,000x faster
        # than 15, so the winner only fits after all of them.
        cal = ResourceCalendar(16)
        for i in range(200):
            cal.add(
                Reservation(
                    start=100.0 * i, end=100.0 * i + 100.0, nprocs=1 + i % 2
                )
            )
        d = np.array([1e6] * 15 + [100.0])
        with obs.instrumented() as col:
            got = cal.earliest_completion(0.0, d, tie_break)
        assert got == _reference(cal, 0.0, d, tie_break)
        assert col.counters["calendar.completion.escalations"] >= 1
        assert got[1] == 16 and got[0] == 20_000.0

    def test_validation(self):
        cal = ResourceCalendar(4)
        with pytest.raises(CalendarError):
            cal.earliest_completion(0.0, np.array([]))
        with pytest.raises(CalendarError):
            cal.earliest_completion(0.0, np.array([5.0, -1.0]))
        with pytest.raises(CalendarError):
            cal.earliest_completion(0.0, np.ones(5))
        with pytest.raises(CalendarError):
            cal.earliest_completion(0.0, np.ones(2), "middle")


def _sharded(seed: int, n_shards: int, capacity: int = 32) -> ShardedCalendar:
    rng = make_rng(seed)
    cal = ShardedCalendar.partition(capacity, n_shards=n_shards)
    for i in range(int(rng.integers(0, 120))):
        start = float(np.round(rng.uniform(0.0, 20_000.0)))
        length = float(np.round(rng.uniform(60.0, 3_000.0)))
        try:
            cal.add(
                Reservation(
                    start=start,
                    end=start + length,
                    nprocs=int(rng.integers(1, capacity // 2)),
                    label=f"r{i}",
                )
            )
        except CalendarError:
            pass  # overfull draw
    return cal


class TestSharded:
    @given(
        seed=st.integers(0, 5_000),
        n_shards=st.sampled_from([1, 2, 4, 8]),
        shape=st.sampled_from(["equal", "amdahl", "random"]),
        tie_break=st.sampled_from(TIE_BREAKS),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_argmin_of_reduced_batch(
        self, seed, n_shards, shape, tie_break
    ):
        cal = _sharded(seed, n_shards)
        rng = make_rng(seed + 3)
        for _ in range(3):
            d = _durations(rng, int(rng.integers(1, 33)), shape)
            earliest = float(rng.uniform(-100.0, 23_000.0))
            want = _sharded_reference(cal, earliest, d, tie_break)
            probed: list = []
            assert cal.earliest_completion(
                earliest, d, tie_break, probed=probed
            ) == want
            assert sorted(p[0] for p in probed) == list(range(1, d.size + 1))

    @given(seed=st.integers(0, 5_000), tie_break=st.sampled_from(TIE_BREAKS))
    @settings(max_examples=40, deadline=None)
    def test_one_shard_is_the_unsharded_kernel(self, seed, tie_break):
        rng = make_rng(seed)
        res = [
            Reservation(start=s, end=s + 900.0, nprocs=int(rng.integers(1, 9)))
            for s in np.round(rng.uniform(0.0, 9_000.0, size=8))
        ]
        plain = ResourceCalendar(32, res, clamp=True)
        sharded = ShardedCalendar.partition(32, res, n_shards=1, clamp=True)
        d = _durations(rng, 32, "amdahl")
        assert sharded.earliest_completion(
            100.0, d, tie_break
        ) == plain.earliest_completion(100.0, d, tie_break)

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_equal_completions_from_different_starts_take_the_earlier(
        self, tie_break
    ):
        # Shard 0 frees its processor at 1.0, shard 1 at 0.5.  With a
        # 2**53 s duration both starts round to the same completion
        # (2**53), so only the start can tell the legs apart — and the
        # reduced batch answer starts at 0.5.
        big = float(2**53)
        assert 1.0 + big == 0.5 + big
        cal = ShardedCalendar(
            [
                ResourceCalendar(1, [Reservation(0.0, 1.0, nprocs=1)]),
                ResourceCalendar(1, [Reservation(0.0, 0.5, nprocs=1)]),
            ]
        )
        d = np.array([big])
        assert cal.earliest_completion(0.0, d, tie_break) == (0.5, 1)
        assert cal.earliest_completion(0.0, d, tie_break) == (
            _sharded_reference(cal, 0.0, d, tie_break)
        )
        # The commit routes to the shard the start came from.
        cal.reserve_known_feasible(0.5, big, 1)
        assert cal.last_commit_shard == 1


def _scenario(capacity: int = 16, n_res: int = 12, seed: int = 3):
    rng = make_rng(seed)
    res = []
    for i in range(n_res):
        start = float(rng.uniform(0.0, 30_000.0))
        res.append(
            Reservation(
                start=start,
                end=start + float(rng.uniform(300.0, 4_000.0)),
                nprocs=int(rng.integers(1, 4)),
                label=f"c{i}",
            )
        )
    return ReservationScenario(
        name="completion-test",
        capacity=capacity,
        now=0.0,
        reservations=tuple(res),
        hist_avg_available=capacity / 2,
    )


class TestDrivers:
    def test_pruned_counts_are_explained(self):
        graph = random_task_graph(DagGenParams(n=12), make_rng(4))
        with obs.instrumented():
            sched = schedule_ressched(
                graph, _scenario(), ResSchedAlgorithm("BL_ALL", "BD_ALL")
            )
        reasons = set()
        for rec in sched.provenance:
            chosen = rec["chosen"]
            for cand in rec["candidates"]:
                reasons.add(cand["reason"])
                assert cand["finish"] >= chosen["finish"]
                if cand["reason"] == "pruned_bound":
                    assert "start" not in cand
        assert "pruned_bound" in reasons

    def test_one_probe_per_task(self):
        scenario = _scenario()
        graphs = [
            random_task_graph(DagGenParams(n=6), make_rng(20 + i))
            for i in range(3)
        ]
        reqs = [
            StreamRequest(
                request_id=f"q{i}", arrival_offset=600.0 * i, graph=g
            )
            for i, g in enumerate(graphs)
        ]
        n_tasks = sum(g.n for g in graphs)
        with tl.recording(sim_epoch=0.0) as timeline:
            with obs.instrumented() as col:
                ReservationService(scenario).run(reqs)
        assert col.counters["stream.events"] == n_tasks
        probes = [ev for ev in timeline.events if ev["type"] == "probe_batch"]
        assert len(probes) == n_tasks
        assert all(ev["tasks"] == 1 for ev in probes)


class TestCopy:
    def test_copy_skips_the_constructor(self, monkeypatch):
        cal = _calendar(5, 16, False, 40)
        before = cal.availability()

        def no_init(*args, **kwargs):
            raise AssertionError("copy() must not rebuild a calendar")

        monkeypatch.setattr(ResourceCalendar, "__init__", no_init)
        dup = cal.copy()
        assert dup.availability() is before
        assert dup.generation == cal.generation
        assert dup.reservations == cal.reservations
        dup.reserve_known_feasible(50_000.0, 100.0, 2)
        assert len(dup) == len(cal) + 1
        assert cal.availability() is before
