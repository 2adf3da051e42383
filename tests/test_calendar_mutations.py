"""Interleaved calendar mutations against a fresh compile.

``ResourceCalendar`` keeps its availability profile compiled and
mutates it in place: ``add`` and ``reserve_known_feasible`` book a
reservation by one rule, a splice into the profile (compiled first if
it was dropped), and ``remove`` splices it back out while the profile is
exact (nothing clamped since it was compiled), else drops it for a
recompile.  Whatever the interleaving, on strict and clamped calendars,
the profile must be bitwise the one ``ResourceCalendar(capacity,
reservations, clamp=...)`` compiles from scratch.

Commits may start one ulp before the start the calendar reported, which
lands a rounding-residue overlap on the reservation before them and
forces the residue clamp; a clamping calendar also clamps the
over-subscription of ``add``.  An unchecked commit books a drawn window
that may over-subscribe: it must be refused exactly when a fresh
compile with it would be, and a refused one must leave the calendar as
it was.  A remove may skip the profile query after it, so the next
booking meets a dropped profile.  The test tracks when a clamp happened
(the unclamped sum of the reservations goes negative) and checks, by
the ``calendar.remove.splice`` counter, that exactly the removes made
while the profile was exact took the splice.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.calendar import Reservation, ResourceCalendar, StepFunction
from repro.errors import CalendarError

CAPACITY = 6

_adds = st.tuples(
    st.just("add"),
    st.integers(0, 120),  # start
    st.integers(1, 30),  # duration
    st.integers(1, CAPACITY),  # nprocs
)
_commits = st.tuples(
    st.just("commit"),
    st.integers(0, 120),  # earliest
    st.integers(1, 30),  # duration
    st.integers(1, CAPACITY),  # nprocs
    st.booleans(),  # start one ulp before the reported start
)
_unchecked = st.tuples(
    st.just("unchecked"),
    st.integers(0, 120),  # start
    st.integers(1, 30),  # duration
    st.integers(1, CAPACITY + 1),  # nprocs, possibly over capacity
)
_removes = st.tuples(
    st.just("remove"),
    st.integers(0, 1_000),  # which reservation
    st.booleans(),  # query the profile after the remove
)
_programs = st.lists(
    st.one_of(_adds, _commits, _unchecked, _removes), max_size=40
)


def _unclamped_min(capacity, reservations):
    """Least value of the profile's unclamped sum (``capacity`` when
    there is nothing to sum)."""
    events = [(r.start, -float(r.nprocs)) for r in reservations]
    events += [(r.end, float(r.nprocs)) for r in reservations]
    prof = StepFunction.from_deltas(events, base=float(capacity))
    return min(prof.values.min(initial=prof.base), prof.base)


def _state(cal):
    """Everything a refused booking must leave as it was."""
    prof = cal.availability()
    return (
        prof.base,
        prof.times.tobytes(),
        prof.values.tobytes(),
        cal.reservations,
        cal.generation,
    )


def _refused(clamp, reservations):
    """Whether a fresh compile of ``reservations`` raises."""
    try:
        ResourceCalendar(CAPACITY, reservations, clamp=clamp)
    except CalendarError:
        return True
    return False


def _run(program, clamp):
    """Apply ``program``; after every step (but a remove that skips its
    query) the profile must equal a fresh compile.  Returns ``(removes
    expected to splice, counters)``."""
    cal = ResourceCalendar(CAPACITY, clamp=clamp)
    exact = True  # the profile is the exact sum of the reservations' deltas
    dropped = False  # a remove dropped the profile; nothing recompiled it
    expected = 0
    with obs.instrumented() as col:
        for op in program:
            kind = op[0]
            if kind != "remove" and dropped:
                # Every op below compiles the dropped profile first.
                exact = _unclamped_min(CAPACITY, cal.reservations) >= 0
                dropped = False
            if kind == "add":
                _, start, dur, nprocs = op
                try:
                    cal.add(Reservation(float(start), float(start + dur), nprocs))
                except CalendarError:
                    continue  # a refused add leaves the calendar as it was
            elif kind == "commit":
                _, earliest, dur, nprocs, early = op
                start = cal.earliest_start(float(earliest), float(dur), nprocs)
                if early:
                    start = float(np.nextafter(start, -np.inf))
                cal.reserve_known_feasible(start, float(dur), nprocs)
            elif kind == "unchecked":
                _, start, dur, nprocs = op
                r = Reservation(float(start), float(start + dur), nprocs)
                refused = _refused(clamp, cal.reservations + (r,))
                before = _state(cal)
                try:
                    cal.reserve_known_feasible(r.start, float(dur), nprocs)
                except CalendarError:
                    assert refused
                    assert _state(cal) == before
                    continue
                assert not refused
            else:
                if not len(cal):
                    continue
                if exact and not dropped:
                    expected += 1
                else:
                    dropped = True
                cal.remove(cal.reservations[op[1] % len(cal)])
                if not op[2]:
                    continue
            if dropped:
                # The query below recompiles the profile.
                exact = _unclamped_min(CAPACITY, cal.reservations) >= 0
                dropped = False
            else:
                exact = exact and _unclamped_min(CAPACITY, cal.reservations) >= 0
            got = cal.availability()
            want = ResourceCalendar(
                CAPACITY, cal.reservations, clamp=clamp
            ).availability()
            assert got.base == want.base
            assert got.times.tobytes() == want.times.tobytes()
            assert got.values.tobytes() == want.values.tobytes()
    return expected, col.counters


class TestInterleavedMutations:
    @settings(max_examples=200, deadline=None)
    @given(program=_programs, clamp=st.booleans())
    # A commit and its removal: the remove splices.
    @example(
        program=[("commit", 10, 5, 2, False), ("remove", 0, True)], clamp=False
    )
    # A one-ulp-early commit clamps its residue: the remove recompiles.
    @example(
        program=[
            ("add", 0, 10, CAPACITY),
            ("commit", 0, 5, 2, True),
            ("remove", 1, True),
            ("remove", 0, True),
        ],
        clamp=False,
    )
    # Over-subscription clamps on a clamping calendar.
    @example(
        program=[
            ("add", 0, 10, 4),
            ("add", 5, 10, 4),
            ("remove", 0, True),
            ("remove", 0, True),
        ],
        clamp=True,
    )
    # Bookings into a dropped profile compile it first: one clamps, ...
    @example(
        program=[
            ("add", 0, 10, 4),
            ("add", 5, 10, 4),
            ("remove", 0, False),
            ("add", 8, 10, 2),
            ("unchecked", 0, 30, 3),
        ],
        clamp=True,
    )
    # ... and one over-subscribes a strict calendar and is refused.
    @example(
        program=[
            ("add", 0, 10, CAPACITY),
            ("commit", 0, 5, 2, True),
            ("remove", 0, False),
            ("add", 0, 30, 5),
            ("unchecked", 0, 30, CAPACITY + 1),
        ],
        clamp=False,
    )
    def test_profile_equals_fresh_compile(self, program, clamp):
        expected, counters = _run(program, clamp)
        assert counters.get("calendar.remove.splice", 0) == expected

    def test_remove_splices_while_exact(self):
        expected, counters = _run(
            [("commit", 10, 5, 2, False), ("add", 12, 4, 3), ("remove", 0, True)],
            clamp=False,
        )
        assert expected == 1
        assert counters["calendar.remove.splice"] == 1

    def test_clamp_survives_copy(self):
        """``copy()`` carries exactness: a copy of a clamped calendar
        recompiles on remove instead of splicing."""
        cal = ResourceCalendar(CAPACITY)
        cal.add(Reservation(0.0, 10.0, CAPACITY))
        early = float(np.nextafter(10.0, -np.inf))
        r = cal.reserve_known_feasible(early, 5.0, 2)
        dup = cal.copy()
        with obs.instrumented() as col:
            dup.remove(r)
        assert "calendar.remove.splice" not in col.counters
        want = ResourceCalendar(CAPACITY, dup.reservations).availability()
        assert dup.availability() == want
