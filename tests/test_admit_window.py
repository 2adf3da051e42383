"""The clip-then-revoke kernel :func:`repro.resilience.admit_window`
against a from-scratch oracle.

The oracle is the rule as the repair engine first wrote it: clip the
window against a fresh strict calendar of the non-displaceable
reservations, then revoke the latest overlapping displaceable booking
still on the host until a fresh strict calendar of everything fits.
Displaceable bookings may be value-equal twins, some of them hosted
elsewhere (other shards); only as many as the host holds copies of can
be lifted or revoked.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calendar import Reservation, ResourceCalendar
from repro.errors import CalendarError
from repro.resilience import admit_window

CAPACITY = 8


def _overlaps(r: Reservation, w: Reservation) -> bool:
    return r.start < w.end and w.start < r.end


def _oracle(host, window, displaceable):
    fixed = list(host)
    for _, r in displaceable:
        if r in fixed:
            fixed.remove(r)
    free = ResourceCalendar(CAPACITY, fixed).min_available(
        window.start, window.end
    )
    m = min(window.nprocs, free)
    if m < 1:
        return None, []
    admitted = Reservation(window.start, window.end, m, window.label)
    books = list(host)
    revoked = []
    while True:
        try:
            ResourceCalendar(CAPACITY, books + [admitted])
            return admitted, revoked
        except CalendarError:
            _, key, r = max(
                (r.start, k, r)
                for k, r in displaceable
                if k not in revoked and _overlaps(r, window) and r in books
            )
            books.remove(r)
            revoked.append(key)


def _run(host_res, window, displaceable):
    host = ResourceCalendar(CAPACITY, host_res)
    got = admit_window(
        host, window, displaceable, add=host.add, remove=host.remove
    )
    return host, got


# Starts and ends on a coarse grid: equal starts and touching windows
# are common, and value-equal twins arise from a small label set.
_slot = st.tuples(
    st.integers(0, 12), st.integers(1, 5), st.integers(1, 4), st.sampled_from("ab")
).map(
    lambda t: Reservation(
        100.0 * t[0], 100.0 * (t[0] + t[1]), t[2], label=t[3]
    )
)


@st.composite
def _cases(draw):
    host: list[Reservation] = []
    displaceable: list[tuple[int, Reservation]] = []
    keys = iter(draw(st.permutations(range(64))))
    for r in draw(st.lists(_slot, max_size=14)):
        try:
            ResourceCalendar(CAPACITY, host + [r])
        except CalendarError:
            continue
        host.append(r)
        if draw(st.booleans()):
            displaceable.append((next(keys), r))
    # Value-equal twins of hosted bookings that live on another shard,
    # and bookings the host does not hold at all.
    if host:
        for r in draw(st.lists(st.sampled_from(host), max_size=3)):
            displaceable.append((next(keys), r))
    for r in draw(st.lists(_slot, max_size=2)):
        displaceable.append((next(keys), r))
    slot = draw(_slot)
    window = Reservation(
        slot.start, slot.end, draw(st.integers(1, CAPACITY)), "fault"
    )
    return host, window, displaceable


class TestAgainstOracle:
    @given(case=_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, case):
        host_res, window, displaceable = case
        host, got = _run(host_res, window, displaceable)
        assert got == _oracle(host_res, window, displaceable)
        admitted, revoked = got
        if admitted is not None:
            gone = dict(displaceable)
            expected = list(host_res) + [admitted]
            for key in revoked:
                expected.remove(gone[key])
            assert sorted(host.reservations) == sorted(expected)
        else:
            assert sorted(host.reservations) == sorted(host_res)


class TestRule:
    def test_denied_below_one_processor(self):
        wall = Reservation(0.0, 1000.0, CAPACITY, "ext")
        host, got = _run([wall], Reservation(100.0, 200.0, 2, "f"), [])
        assert got == (None, [])
        assert host.reservations == (wall,)

    def test_clipped_to_non_displaceable_room(self):
        ext = Reservation(0.0, 1000.0, 5, "ext")
        booked = Reservation(100.0, 300.0, 3, "t")
        _, (admitted, revoked) = _run(
            [ext, booked], Reservation(0.0, 500.0, 8, "f"), [(0, booked)]
        )
        assert admitted == Reservation(0.0, 500.0, 3, "f")
        assert revoked == [0]

    def test_equal_starts_revoke_the_larger_key_first(self):
        a = Reservation(200.0, 400.0, 4, "a")
        b = Reservation(200.0, 300.0, 4, "b")
        _, (admitted, revoked) = _run(
            [a, b], Reservation(250.0, 260.0, 4, "f"), [(("q1", 0), a), (("q2", 0), b)]
        )
        assert admitted is not None and admitted.nprocs == 4
        assert revoked == [("q2", 0)]

    @pytest.mark.parametrize("copies", [1, 2])
    def test_latest_keyed_twins_stand_for_the_hosted_copies(self, copies):
        twin = Reservation(100.0, 200.0, 4, "t")
        # Three value-equal bookings; the host holds ``copies`` of them.
        displaceable = [(1, twin), (3, twin), (2, twin)]
        host, (admitted, revoked) = _run(
            [twin] * copies, Reservation(0.0, 1000.0, CAPACITY, "f"), displaceable
        )
        assert revoked == [3, 2][:copies]
        assert admitted == Reservation(0.0, 1000.0, CAPACITY, "f")
        assert host.reservations == (admitted,)
