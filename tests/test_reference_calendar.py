"""The calendar queries against an independent plain-Python reference.

:class:`RefCalendar` knows nothing of the profile arrays, the free-run
sweeps or the early-exit kernels: it keeps the integer availability of
each segment between breakpoints and answers every query by scanning
candidate instants one breakpoint at a time.  It applies the same
capacity rules as ``ResourceCalendar._validated``: a clamping calendar
pins negative availability at zero; a strict one refuses a negative
segment longer than ``TIME_EPS`` and pins shorter ones (rounding
residue) at zero.

Each query must agree with it bit for bit, on strict and clamped
calendars built in one compile or through the incremental splice.
Durations stay far above the float spacing of every instant drawn, so no
window vanishes in rounding; ``tests/test_backward_kernels.py`` covers
vanishing windows.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calendar import Reservation, ResourceCalendar
from repro.errors import CalendarError
from repro.shard import ShardedCalendar
from repro.units import TIME_EPS

INF = math.inf


def _merged(bounds, free):
    """Drop the breakpoints where availability does not change:
    ``free[k]`` holds on ``[bounds[k], bounds[k + 1])``."""
    keep = [0] + [k for k in range(1, len(free)) if free[k] != free[k - 1]]
    return [bounds[k] for k in keep] + [bounds[-1]], [free[k] for k in keep]


class RefCalendar:
    """Integer availability per segment, queried by breakpoint scans.

    ``segments`` lists ``(lo, hi, free)``: ``free`` processors on
    ``[lo, hi)``, from ``(-inf, first breakpoint)`` to ``(last
    breakpoint, +inf)``; adjacent segments differ in ``free``.
    """

    def __init__(self, capacity, reservations, *, clamp=False):
        self.capacity = capacity
        for r in reservations:
            if r.nprocs > capacity:
                raise CalendarError(f"{r} exceeds capacity {capacity}")
        cuts = sorted({x for r in reservations for x in (r.start, r.end)})
        free = [capacity] + [
            capacity - sum(r.nprocs for r in reservations if r.start <= t < r.end)
            for t in cuts
        ]
        bounds, free = _merged([-INF] + cuts + [INF], free)
        if not clamp:
            for k, v in enumerate(free):
                if v < 0 and bounds[k + 1] - bounds[k] > TIME_EPS:
                    raise CalendarError(f"over capacity on [{bounds[k]}, ...)")
        bounds, free = _merged(bounds, [max(v, 0) for v in free])
        self.segments = list(zip(bounds[:-1], bounds[1:], free))

    def _covered(self, lo, hi, m):
        """``m`` or more processors free on every segment meeting
        ``[lo, hi)``."""
        return all(v >= m for a, b, v in self.segments if a < hi and b > lo)

    def min_available(self, t0, t1):
        return min(v for a, b, v in self.segments if a < t1 and b > t0)

    def earliest_start(self, earliest, duration, nprocs):
        # The answer is `earliest` or a breakpoint after it; try them in
        # time order.
        for s in [earliest] + [a for a, _, _ in self.segments if a > earliest]:
            if self._covered(s, s + duration, nprocs):
                return s
        raise AssertionError("the all-free tail always fits")

    def latest_start(self, latest_finish, duration, nprocs, earliest=-INF):
        # The window ends at `latest_finish` or at a breakpoint before it
        # and starts at `finish - duration`; try finishes latest first.
        finishes = [latest_finish] + [
            a for a, _, _ in reversed(self.segments) if -INF < a < latest_finish
        ]
        for f in finishes:
            s = f - duration
            if s < earliest:
                return None
            if self._covered(s, f, nprocs):
                return s
        return None

    def earliest_completion(self, earliest, durations, tie_break="fewest"):
        best = None
        for k, d in enumerate(durations):
            s = self.earliest_start(earliest, d, k + 1)
            c = s + d
            if best is None or c < best[0] or (c == best[0] and tie_break == "most"):
                best = (c, s, k + 1)
        return best[1], best[2]

    def fewest_placement(self, earliest, latest_finish, durations):
        for k, d in enumerate(durations):
            s = self.earliest_start(earliest, d, k + 1)
            if s + d <= latest_finish:
                return s, k + 1
        return None

    def latest_placement(self, latest_finish, durations, earliest):
        best = None
        for k, d in enumerate(durations):
            s = self.latest_start(latest_finish, d, k + 1, earliest)
            if s is not None and (best is None or s > best[0]):
                best = (s, k + 1)
        return best


def sharded_completion(shards, earliest, durations, tie_break):
    """The unsharded decision over per-count starts reduced across the
    shards that can host the count; no shard hosts a count past the
    largest shard, so it never completes."""
    best = None
    for k, d in enumerate(durations):
        s = min(
            (
                ref.earliest_start(earliest, d, k + 1)
                for ref in shards
                if ref.capacity > k
            ),
            default=INF,
        )
        c = s + d
        if best is None or c < best[0] or (c == best[0] and tie_break == "most"):
            best = (c, s, k + 1)
    return best[1], best[2]


# Instants on a lattice, offset by amounts on both sides of TIME_EPS so
# that reservations meet exactly or overlap by rounding residue (which a
# strict calendar refuses only past TIME_EPS), or anywhere.
_COORDS = st.one_of(
    st.builds(
        lambda k, off: k + off,
        st.integers(0, 40),
        st.sampled_from([0.0, 0.0, 1e-9, 5e-7, 2e-6]),
    ),
    st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False),
)
_WIDTHS = st.one_of(
    st.sampled_from([1e-9, 5e-7, 2e-6]),
    st.integers(1, 15).map(float),
    st.floats(1e-9, 15.0),
)
_DURATIONS = st.one_of(st.integers(1, 12).map(float), st.floats(1e-6, 30.0))
_RESERVATIONS = st.lists(
    st.tuples(_COORDS, _WIDTHS, st.integers(1, 12)), max_size=30
)


def _reservations(cap, spec):
    return [Reservation(s, s + w, min(m, cap)) for s, w, m in spec]


def _taken(cap, reservations, clamp):
    """The reservations a calendar of the given policy takes, in order:
    a strict calendar skips each one the reference refuses."""
    out = []
    for r in reservations:
        try:
            RefCalendar(cap, out + [r], clamp=clamp)
        except CalendarError:
            continue
        out.append(r)
    return out


@st.composite
def calendars(draw):
    """``(calendar, reference)`` built from the same reservations, the
    calendar in one compile or through the incremental splice."""
    cap = draw(st.integers(1, 12))
    clamp = draw(st.booleans())
    res = _taken(cap, _reservations(cap, draw(_RESERVATIONS)), clamp)
    if draw(st.booleans()):
        cal = ResourceCalendar(cap, res, clamp=clamp)
    else:
        cal = ResourceCalendar(cap, clamp=clamp)
        for r in res:
            cal.add(r)
    return cal, RefCalendar(cap, res, clamp=clamp)


def _breakpoints(ref):
    return [a for a, _, _ in ref.segments[1:]]


def _instants(ref):
    """The calendar's breakpoints, where runs start and end, or
    anywhere."""
    bps = _breakpoints(ref)
    return st.one_of(st.sampled_from(bps), _COORDS) if bps else _COORDS


def _durations(ref, anchor):
    """Distances from ``anchor`` to a breakpoint, or between two of
    them, so that windows fit free runs exactly; or anything.  Gaps
    below 1e-10 are left out: no window may vanish in rounding."""
    bps = _breakpoints(ref)
    gaps = sorted(
        {g for a in bps + [anchor] for b in bps if (g := abs(b - a)) > 1e-10}
    )
    return st.one_of(st.sampled_from(gaps), _DURATIONS) if gaps else _DURATIONS


def _vector(data, cap, ref, anchor):
    """One duration per processor count, up to ``cap``."""
    b = data.draw(st.integers(1, cap))
    return data.draw(st.lists(_durations(ref, anchor), min_size=b, max_size=b))


class TestCapacityRules:
    @given(
        cap=st.integers(1, 12), clamp=st.booleans(), spec=_RESERVATIONS
    )
    @settings(max_examples=200, deadline=None)
    def test_calendars_take_what_the_reference_takes(self, cap, clamp, spec):
        spliced = ResourceCalendar(cap, clamp=clamp)
        taken = []
        for r in _reservations(cap, spec):
            try:
                RefCalendar(cap, taken + [r], clamp=clamp)
            except CalendarError:
                with pytest.raises(CalendarError):
                    spliced.add(r)
                with pytest.raises(CalendarError):
                    ResourceCalendar(cap, taken + [r], clamp=clamp)
                continue
            spliced.add(r)
            taken.append(r)
        ref = RefCalendar(cap, taken, clamp=clamp)
        for cal in (spliced, ResourceCalendar(cap, taken, clamp=clamp)):
            prof = cal.availability()
            assert [prof.base] + prof.values.tolist() == [
                v for _, _, v in ref.segments
            ]
            assert prof.times.tolist() == _breakpoints(ref)


class TestScalarQueries:
    @given(pair=calendars(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_earliest_start(self, pair, data):
        cal, ref = pair
        earliest = data.draw(_instants(ref))
        d = data.draw(_durations(ref, earliest))
        m = data.draw(st.integers(1, cal.capacity))
        assert cal.earliest_start(earliest, d, m) == ref.earliest_start(
            earliest, d, m
        )

    @given(pair=calendars(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_latest_start(self, pair, data):
        cal, ref = pair
        finish = data.draw(_instants(ref))
        lo = data.draw(st.one_of(st.just(-INF), _instants(ref)))
        d = data.draw(_durations(ref, finish))
        m = data.draw(st.integers(1, cal.capacity))
        got = cal.latest_start(finish, d, m, earliest=lo)
        assert got == ref.latest_start(finish, d, m, lo)  # None agrees too

    @given(pair=calendars(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_min_available(self, pair, data):
        cal, ref = pair
        t0 = data.draw(_instants(ref))
        t1 = t0 + data.draw(st.one_of(_durations(ref, t0), _WIDTHS))
        assert cal.min_available(t0, t1) == ref.min_available(t0, t1)


class TestPlacementKernels:
    @given(
        pair=calendars(),
        data=st.data(),
        tie_break=st.sampled_from(["fewest", "most"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_earliest_completion(self, pair, data, tie_break):
        cal, ref = pair
        earliest = data.draw(_instants(ref))
        d = _vector(data, cal.capacity, ref, earliest)
        got = cal.earliest_completion(earliest, d, tie_break)
        assert got == ref.earliest_completion(earliest, d, tie_break)
        assert type(got[0]) is float and type(got[1]) is int

    @given(pair=calendars(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_fewest_placement(self, pair, data):
        cal, ref = pair
        earliest = data.draw(_instants(ref))
        finish = data.draw(_instants(ref))
        anchor = data.draw(st.sampled_from([earliest, finish]))
        d = _vector(data, cal.capacity, ref, anchor)
        assert cal.fewest_placement(earliest, finish, d) == (
            ref.fewest_placement(earliest, finish, d)
        )

    @given(pair=calendars(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_latest_placement(self, pair, data):
        cal, ref = pair
        earliest = data.draw(st.one_of(st.just(-INF), _instants(ref)))
        finish = data.draw(_instants(ref))
        d = _vector(data, cal.capacity, ref, finish)
        assert cal.latest_placement(finish, d, earliest=earliest) == (
            ref.latest_placement(finish, d, earliest)
        )


class TestShardedCompletion:
    @given(
        k=st.sampled_from([2, 4]),
        cap=st.integers(4, 16),
        spec=_RESERVATIONS,
        data=st.data(),
        tie_break=st.sampled_from(["fewest", "most"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_shard_reference(self, k, cap, spec, data, tie_break):
        sharded = ShardedCalendar.partition(cap, n_shards=k)
        for r in _reservations(cap, spec):
            try:
                sharded.add(r)
            except CalendarError:
                pass  # past the platform's free capacity somewhere
        refs = [RefCalendar(s.capacity, s.reservations) for s in sharded.shards]
        merged = RefCalendar(cap, sharded.reservations, clamp=True)
        earliest = data.draw(_instants(merged))
        d = _vector(data, cap, merged, earliest)
        assert sharded.earliest_completion(earliest, d, tie_break) == (
            sharded_completion(refs, earliest, d, tie_break)
        )
