"""Differential tests for the backward (RESSCHEDDL) placement kernels.

:meth:`ResourceCalendar.latest_placement` answers the aggressive rule's
per-task decision and :meth:`ResourceCalendar.fewest_placement` the
resource-conservative one, each resolving only the processor counts
that can still win.  Both must agree, bit for bit, with the sweeps they
replace:

* aggressive: ``latest_starts_multi``, then the vanishing-window mask
  (``start + d <= start``), then ``nanargmax`` (ties to the fewest
  processors; None when every count is masked);
* resource-conservative: ascending ``earliest_starts_multi`` and the
  first count with ``fin <= latest_finish and fin > start``.

Both references run on strict and clamped calendars; the kernels and
the sweeps each have one code path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calendar import Reservation, ResourceCalendar
from repro.errors import CalendarError
from repro.rng import make_rng
from repro.units import TIME_EPS

SHAPES = ("equal", "amdahl", "random", "vanishing")


def _latest_reference(cal, latest_finish, durations, earliest):
    d = np.asarray(durations, dtype=float)
    starts = cal.latest_starts_multi(latest_finish, d, earliest=earliest)
    starts[starts + d <= starts] = np.nan
    if np.isnan(starts).all():
        return None
    j = int(np.nanargmax(starts))
    return float(starts[j]), j + 1


def _fewest_reference(cal, earliest, latest_finish, durations):
    d = np.asarray(durations, dtype=float)
    starts = cal.earliest_starts_multi(earliest, d)
    fin = starts + d
    ok = (fin <= latest_finish) & (fin > starts)
    if not ok.any():
        return None
    j = int(np.argmax(ok))
    return float(starts[j]), j + 1


def _durations(rng, b: int, shape: str) -> np.ndarray:
    """A duration vector over counts ``1..b`` of the given shape."""
    if shape == "equal":
        # Flat: every count has the same bound, so ties decide.
        return np.full(b, float(np.round(rng.uniform(10.0, 3_000.0))))
    if shape == "amdahl":
        seq = float(rng.uniform(100.0, 20_000.0))
        alpha = float(rng.uniform(0.0, 1.0))
        return np.array(
            [seq * (alpha + (1 - alpha) / m) for m in range(1, b + 1)]
        )
    d = np.round(rng.uniform(10.0, 3_000.0, size=b))  # non-monotone, ties
    if shape == "vanishing":
        # Far below the float spacing: a window of this length starting
        # at any instant of magnitude 1 s or more has zero length.
        tiny = rng.uniform(size=b) < 0.5
        d[tiny] = 10.0 ** rng.uniform(-22.0, -17.0, size=int(tiny.sum()))
    return d


def _calendar(seed: int, capacity: int, clamp: bool, n_res: int):
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


def _instant(rng, cal: ResourceCalendar) -> float:
    """An instant: on a breakpoint, before the first one, or anywhere."""
    times = cal.availability().times
    u = rng.uniform()
    if times.size and u < 0.3:
        return float(rng.choice(times))
    if u < 0.4:
        return float(rng.uniform(-2_000.0, -1.0))
    return float(rng.uniform(-500.0, 24_000.0))


def _check_latest(cal, latest_finish, d, earliest):
    got_probed: list = []
    got = cal.latest_placement(
        latest_finish, d, earliest=earliest, probed=got_probed
    )
    starts = cal.latest_starts_multi(latest_finish, d, earliest=earliest)
    assert got == _latest_reference(cal, latest_finish, d, earliest)
    # Provenance covers every count once, in count order.  Exact entries
    # carry the count's true latest start when it fitted at or after
    # `earliest`; the others carry an upper bound on any start the count
    # could still reach.
    assert [p[0] for p in got_probed] == list(range(1, d.size + 1))
    for m, start, finish, exact in got_probed:
        true = starts[m - 1]
        if exact:
            assert start < earliest or start == true
            assert finish == start + d[m - 1]
        elif not np.isnan(true):
            assert true <= start
        if got is not None and (m, start) != (got[1], got[0]):
            assert not (
                exact and start >= earliest and start + d[m - 1] > start
                and (start > got[0] or (start == got[0] and m < got[1]))
            )
    if got is not None:
        assert type(got[0]) is float and type(got[1]) is int
        assert got_probed[got[1] - 1][1:] == (
            got[0], got[0] + d[got[1] - 1], True
        )
    return got


def _check_fewest(cal, earliest, latest_finish, d):
    got_probed: list = []
    got = cal.fewest_placement(earliest, latest_finish, d, probed=got_probed)
    starts = cal.earliest_starts_multi(earliest, d)
    assert got == _fewest_reference(cal, earliest, latest_finish, d)
    # Counts are tried in ascending order up to the winner; exact entries
    # are true earliest starts, pruned ones a lower bound on the finish
    # that already passed `latest_finish`.
    tried = [p[0] for p in got_probed]
    last = got[1] if got is not None else d.size
    assert tried == list(range(1, last + 1))
    for m, start, finish, exact in got_probed:
        true = starts[m - 1]
        if exact:
            assert start == true and finish == true + d[m - 1]
        else:
            assert finish > latest_finish
            assert start <= true and finish <= true + d[m - 1]
    if got is not None:
        assert type(got[0]) is float and type(got[1]) is int
        assert got_probed[-1] == (got[1], got[0], got[0] + d[got[1] - 1], True)
    return got


class TestLatestPlacement:
    @given(
        seed=st.integers(0, 10_000),
        capacity=st.integers(1, 40),
        clamp=st.booleans(),
        n_res=st.integers(0, 300),
        shape=st.sampled_from(SHAPES),
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_nanargmax_of_latest_multi(
        self, seed, capacity, clamp, n_res, shape
    ):
        cal = _calendar(seed, capacity, clamp, n_res)
        rng = make_rng(seed + 1)
        for _ in range(4):
            b = int(rng.integers(1, capacity + 1))
            d = _durations(rng, b, shape)
            _check_latest(cal, _instant(rng, cal), d, _instant(rng, cal))

    def test_no_feasible_count(self):
        cal = ResourceCalendar(4, [Reservation(0.0, 1_000.0, nprocs=4)])
        d = np.array([300.0, 200.0, 150.0, 120.0])
        assert _check_latest(cal, 900.0, d, 0.0) is None

    def test_ready_floor_past_the_deadline(self):
        cal = _calendar(7, 8, False, 40)
        d = _durations(make_rng(7), 8, "amdahl")
        assert _check_latest(cal, 5_000.0, d, 5_000.5) is None
        assert _check_latest(cal, 5_000.0, d, 5_000.0) is None

    def test_equal_bounds_go_to_the_fewest_processors(self):
        cal = ResourceCalendar(8)
        d = np.full(8, 600.0)
        assert _check_latest(cal, 1_000.0, d, 0.0) == (400.0, 1)

    def test_deadline_on_a_breakpoint(self):
        # 6 of 8 processors are taken from t = 1000 on; the segment just
        # before the deadline is [0, 1000), where every count fits.
        cal = ResourceCalendar(8, [Reservation(1_000.0, 5_000.0, nprocs=6)])
        d = np.array([800.0, 500.0, 400.0, 300.0, 250.0, 200.0, 180.0, 160.0])
        assert _check_latest(cal, 1_000.0, d, 0.0) == (840.0, 8)

    def test_vanishing_windows_are_masked(self):
        cal = ResourceCalendar(4, [Reservation(1e4, 2e4, nprocs=2)])
        d = np.array([1e-20, 1e-20, 5_000.0, 1e-20])
        # Counts 1, 2 and 4 would start at the deadline with a zero-length
        # window; count 3 is the only bookable one.
        assert _check_latest(cal, 1e4, d, 0.0) == (5_000.0, 3)
        assert _check_latest(cal, 1e4, np.full(4, 1e-20), 0.0) is None

    def test_earliest_before_the_first_breakpoint(self):
        cal = ResourceCalendar(4, [Reservation(100.0, 200.0, nprocs=3)])
        d = np.array([50.0, 400.0, 300.0, 250.0])
        assert _check_latest(cal, 150.0, d, -1e6) == (100.0, 1)
        assert _check_latest(cal, 150.0, d[1:2].repeat(4), -1e6) == (
            -250.0, 1
        )

    def test_validation(self):
        cal = ResourceCalendar(4)
        with pytest.raises(CalendarError):
            cal.latest_placement(10.0, np.array([]), earliest=0.0)
        with pytest.raises(CalendarError):
            cal.latest_placement(10.0, np.array([5.0, 0.0]), earliest=0.0)
        with pytest.raises(CalendarError):
            cal.latest_placement(10.0, np.ones(5), earliest=0.0)


class TestFewestPlacement:
    @given(
        seed=st.integers(0, 10_000),
        capacity=st.integers(1, 40),
        clamp=st.booleans(),
        n_res=st.integers(0, 300),
        shape=st.sampled_from(SHAPES),
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_first_feasible_of_earliest_multi(
        self, seed, capacity, clamp, n_res, shape
    ):
        cal = _calendar(seed, capacity, clamp, n_res)
        rng = make_rng(seed + 2)
        for _ in range(4):
            b = int(rng.integers(1, capacity + 1))
            d = _durations(rng, b, shape)
            earliest = _instant(rng, cal)
            deadline = _instant(rng, cal)
            _check_fewest(cal, earliest, deadline + TIME_EPS, d)

    def test_no_feasible_count(self):
        cal = ResourceCalendar(4, [Reservation(0.0, 1_000.0, nprocs=4)])
        d = np.array([300.0, 200.0, 150.0, 120.0])
        assert _check_fewest(cal, 0.0, 1_100.0, d) is None

    def test_ready_floor_past_the_deadline(self):
        cal = _calendar(11, 8, True, 40)
        d = _durations(make_rng(11), 8, "random")
        assert _check_fewest(cal, 9_000.0, 8_000.0 + TIME_EPS, d) is None

    def test_equal_bounds_go_to_the_fewest_processors(self):
        cal = ResourceCalendar(8, [Reservation(0.0, 100.0, nprocs=8)])
        d = np.full(8, 600.0)
        assert _check_fewest(cal, 0.0, 700.0, d) == (100.0, 1)

    def test_deadline_on_a_breakpoint(self):
        # One processor is free on [0, 1000): a 1000 s window fits
        # exactly, finishing on the breakpoint.
        cal = ResourceCalendar(4, [Reservation(0.0, 1_000.0, nprocs=3),
                                   Reservation(1_000.0, 2_000.0, nprocs=4)])
        d = np.array([1_000.0, 600.0, 400.0, 300.0])
        assert _check_fewest(cal, 0.0, 1_000.0 + TIME_EPS, d) == (0.0, 1)
        assert _check_fewest(cal, 0.0, 999.0, d) is None

    def test_vanishing_windows_are_skipped(self):
        cal = ResourceCalendar(4)
        d = np.array([1e-20, 1e-20, 50.0, 1e-20])
        assert _check_fewest(cal, 1e4, 1e4 + 100.0, d) == (1e4, 3)

    def test_earliest_before_the_first_breakpoint(self):
        cal = ResourceCalendar(4, [Reservation(100.0, 200.0, nprocs=3)])
        d = np.array([500.0, 400.0, 300.0, 80.0])
        assert _check_fewest(cal, 50.0, 150.0, d) is None
        assert _check_fewest(cal, 50.0, 1_000.0, d) == (50.0, 1)
        assert _check_fewest(cal, -1e6, 150.0, d) == (-1e6, 1)

    def test_validation(self):
        cal = ResourceCalendar(4)
        with pytest.raises(CalendarError):
            cal.fewest_placement(0.0, 10.0, np.array([]))
        with pytest.raises(CalendarError):
            cal.fewest_placement(0.0, 10.0, np.array([-1.0]))
        with pytest.raises(CalendarError):
            cal.fewest_placement(0.0, 10.0, np.ones(5))
