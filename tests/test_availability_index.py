"""Property tests: the :class:`AvailabilityIndex` tree walks against
exhaustive scans, and :meth:`StepFunction.content_digest` stability.

No calendar query reads the index; the calendar queries themselves are
checked against a plain-Python reference in
``tests/test_reference_calendar.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calendar import Reservation, ResourceCalendar
from repro.calendar.index import AvailabilityIndex


# Time coordinates drawn from a lattice plus tiny offsets, so boundary
# coincidences (reservation ending exactly where another starts, queries
# landing exactly on breakpoints) happen often instead of almost never.
_COORDS = st.one_of(
    st.integers(0, 40).map(float),
    st.integers(0, 40).map(lambda k: k + 1e-9),
    st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False),
)

_RESERVATIONS = st.lists(
    st.tuples(_COORDS, st.one_of(st.just(1e-9), st.floats(1e-9, 15.0)), st.integers(1, 12)),
    max_size=40,
)


def _build(cap, spec, splice):
    """A clamped calendar from (start, width, procs) triples.

    ``splice=True`` drives every add through the incremental splice
    (profile compiled eagerly at construction); ``splice=False`` builds
    the calendar fresh in one compile, giving reference profiles from
    the other path.
    """
    res = [
        Reservation(start=start, end=start + width, nprocs=min(m, cap))
        for start, width, m in spec
    ]
    if not splice:
        return ResourceCalendar(cap, res, clamp=True)
    cal = ResourceCalendar(cap, clamp=True)
    for r in res:
        cal.add(r)
    return cal


class TestWalkPrimitives:
    """The raw tree walks against exhaustive scans of the value array."""

    @given(
        vals=st.lists(st.integers(0, 8).map(float), min_size=1, max_size=50),
        j=st.integers(-2, 55),
        m=st.integers(0, 9),
    )
    @settings(max_examples=300, deadline=None)
    def test_walks_match_scans(self, vals, j, m):
        from repro.calendar.timeline import StepFunction

        # Any value array works: build a StepFunction with unit-spaced
        # breakpoints whose base is vals[0] and values are vals[1:].
        prof = StepFunction(
            np.arange(1.0, len(vals), 1.0), np.asarray(vals[1:]), base=vals[0]
        )
        idx = AvailabilityIndex(prof)
        n = len(vals)
        assert idx.n == n

        def scan(pred, indices):
            return next((i for i in indices if pred(vals[i])), None)

        fal = scan(lambda v: v >= m, range(max(j, 0), n))
        assert idx.first_at_least(j, m) == (n if fal is None else fal)
        fb = scan(lambda v: v < m, range(max(j, 0), n))
        assert idx.first_below(j, m) == (n if fb is None else fb)
        lal = scan(lambda v: v >= m, range(min(j, n - 1), -1, -1))
        assert idx.last_at_least(j, m) == (-1 if lal is None else lal)
        lb = scan(lambda v: v < m, range(min(j, n - 1), -1, -1))
        assert idx.last_below(j, m) == (-1 if lb is None else lb)

    @given(
        vals=st.lists(st.integers(0, 8).map(float), min_size=1, max_size=50),
        j0=st.integers(0, 49),
        j1=st.integers(0, 49),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_min_matches_scan(self, vals, j0, j1):
        from repro.calendar.timeline import StepFunction

        prof = StepFunction(
            np.arange(1.0, len(vals), 1.0), np.asarray(vals[1:]), base=vals[0]
        )
        idx = AvailabilityIndex(prof)
        n = len(vals)
        j0, j1 = min(j0, n - 1), min(j1, n - 1)
        if j1 < j0:
            j0, j1 = j1, j0
        assert idx.range_min(j0, j1) == min(vals[j0 : j1 + 1])


class TestDigest:
    """StepFunction.content_digest stability (satellite)."""

    @given(spec=_RESERVATIONS, cap=st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_digest_stable_across_canonical_roundtrip(self, spec, cap):
        prof = _build(cap, spec, True).availability()
        assert prof.canonical() is prof  # compiled profiles are canonical
        assert prof.canonical().content_digest() == prof.content_digest()

    @given(spec=_RESERVATIONS, cap=st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_digest_equals_iff_functions_equal(self, spec, cap):
        splice = _build(cap, spec, True).availability()
        rebuilt = _build(cap, spec, False).availability()
        assert splice == rebuilt
        assert splice.content_digest() == rebuilt.content_digest()
        if splice.values.size:
            bumped = splice + 1.0
            assert bumped.content_digest() != splice.content_digest()

    def test_digest_distinguishes_base_from_values(self):
        from repro.calendar.timeline import StepFunction

        a = StepFunction([1.0], [2.0], base=3.0)
        b = StepFunction([1.0], [3.0], base=2.0)
        assert a.content_digest() != b.content_digest()
        assert hash(a) != hash(b)  # __hash__ rides on the digest
