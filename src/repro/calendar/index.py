"""A min/max segment index over a :class:`StepFunction`.

The linear placement queries in :mod:`repro.calendar.calendar` scan every
segment of the availability profile — O(S) per probe.  On dense calendars
(thousands of reservations) the scan dominates scheduling time, exactly
as the paper's runtime study (Tables 9/10) predicts.  This module builds
two flat segment trees over the profile's segment values so the three
probe primitives become tree walks:

* ``first_at_least(j, m)`` — first segment at/after ``j`` with at least
  ``m`` processors free (the start of the next free run);
* ``first_below(j, m)`` / ``last_at_least`` / ``last_below`` — the
  forward and backward run-boundary walks;
* ``range_min(j0, j1)`` — minimum availability over a segment range.

Each walk is O(log S), so :meth:`earliest_start`, :meth:`latest_start`
and :meth:`min_over` answer a probe in O(log S) instead of O(S) —
*per run visited*, and schedulers only visit runs that actually reject
the window, which the candidate-monotonicity of both query directions
keeps small.

**Bitwise contract.**  Every high-level query here reproduces the exact
float arithmetic of the linear reference (`max`/`min` against the same
breakpoint values, candidate = ``boundary − duration`` in the same
order), so indexed and linear paths return bit-identical answers.
``tests/test_availability_index.py`` checks the walks against
exhaustive scans.

**Segment indexing.**  The tree works on *extended* segments: index 0 is
the base segment ``(-inf, times[0])`` and index ``i + 1`` is profile
segment ``i``.  Extended bounds carry ±inf sentinels so a run's start
and end times are single array reads.

The index is immutable, like the :class:`StepFunction` it summarizes.
No :class:`repro.calendar.ResourceCalendar` query reads it: every query
has one linear path, and no workload or result table reached the
profile sizes where the index paid for its rebuild after each commit.
The module stays while the end-to-end benchmark (``e2ebench/layers.py``)
wraps :class:`AvailabilityIndex` by name.
"""

from __future__ import annotations

import numpy as np

from repro.calendar.timeline import StepFunction


def _build_tree(leaves: np.ndarray, size: int, pad: float, reduce_fn) -> list[float]:
    """A flat 1-indexed segment tree: node ``k``'s children are ``2k`` and
    ``2k + 1``; leaves occupy ``[size, size + len(leaves))``.

    Built bottom-up with one vectorized reduction per level, then
    converted to a plain Python list — the walks are scalar-indexing
    bound, and list indexing beats ndarray scalar indexing ~5x.
    """
    tree = np.full(2 * size, pad)
    tree[size : size + leaves.size] = leaves
    lo = size
    while lo > 1:
        half = lo // 2
        level = tree[lo : 2 * lo]
        tree[half:lo] = reduce_fn(level[0::2], level[1::2])
        lo = half
    return tree.tolist()


class AvailabilityIndex:
    """Segment trees over one availability profile.

    Args:
        profile: The (canonical) availability :class:`StepFunction`.
    """

    __slots__ = ("n", "_size", "_min", "_max", "_bounds", "_vals")

    def __init__(self, profile: StepFunction):
        vals = np.concatenate(([profile.base], profile.values))
        #: Number of extended segments (base segment included).
        self.n: int = int(vals.size)
        size = 1
        while size < self.n:
            size *= 2
        self._size = size
        # Padding must fail both walk predicates: -inf never satisfies
        # "available >= m", +inf never satisfies "available < m".
        self._max = _build_tree(vals, size, -np.inf, np.maximum)
        self._min = _build_tree(vals, size, np.inf, np.minimum)
        # _bounds[j] is where extended segment j starts; the trailing
        # sentinel makes "end of segment j" = _bounds[j + 1] uniform.
        self._bounds: list[float] = np.concatenate(
            ([-np.inf], profile.times, [np.inf])
        ).tolist()
        self._vals: list[float] = vals.tolist()

    # ------------------------------------------------------------------
    # Tree walks (extended segment indices)
    # ------------------------------------------------------------------

    def first_at_least(self, j: int, m: float) -> int:
        """Smallest extended index ``>= j`` whose value is ``>= m``, or
        ``n`` when none exists."""
        size, n = self._size, self.n
        if j >= n:
            return n
        if j < 0:
            j = 0
        tree = self._max
        k = size + j
        while True:
            if tree[k] >= m:
                while k < size:
                    k <<= 1
                    if tree[k] < m:
                        k += 1
                return k - size
            # This subtree is exhausted: hop to the subtree covering the
            # next index range (right sibling of the deepest ancestor
            # reached from a left child).
            while k & 1:
                k >>= 1
            if k == 0:
                return n
            k += 1

    def first_below(self, j: int, m: float) -> int:
        """Smallest extended index ``>= j`` whose value is ``< m``, or
        ``n`` when none exists."""
        size, n = self._size, self.n
        if j >= n:
            return n
        if j < 0:
            j = 0
        tree = self._min
        k = size + j
        while True:
            if tree[k] < m:
                while k < size:
                    k <<= 1
                    if not tree[k] < m:
                        k += 1
                return k - size
            while k & 1:
                k >>= 1
            if k == 0:
                return n
            k += 1

    def last_at_least(self, j: int, m: float) -> int:
        """Largest extended index ``<= j`` whose value is ``>= m``, or
        ``-1`` when none exists."""
        size = self._size
        if j < 0:
            return -1
        if j >= self.n:
            j = self.n - 1
        tree = self._max
        k = size + j
        while True:
            if tree[k] >= m:
                while k < size:
                    k = (k << 1) + 1
                    if tree[k] < m:
                        k -= 1
                return k - size
            # Mirror image of the forward walk: hop to the left sibling
            # of the deepest ancestor reached from a right child.
            while not k & 1:
                k >>= 1
            if k == 1:
                return -1
            k -= 1

    def last_below(self, j: int, m: float) -> int:
        """Largest extended index ``<= j`` whose value is ``< m``, or
        ``-1`` when none exists."""
        size = self._size
        if j < 0:
            return -1
        if j >= self.n:
            j = self.n - 1
        tree = self._min
        k = size + j
        while True:
            if tree[k] < m:
                while k < size:
                    k = (k << 1) + 1
                    if not tree[k] < m:
                        k -= 1
                return k - size
            while not k & 1:
                k >>= 1
            if k == 1:
                return -1
            k -= 1

    def range_min(self, j0: int, j1: int) -> float:
        """Minimum value over extended segments ``j0..j1`` inclusive."""
        size = self._size
        tree = self._min
        lo = size + max(j0, 0)
        hi = size + min(j1, self.n - 1)
        m = np.inf
        while lo <= hi:
            if lo & 1:
                if tree[lo] < m:
                    m = tree[lo]
                lo += 1
            if not hi & 1:
                if tree[hi] < m:
                    m = tree[hi]
                hi -= 1
            lo >>= 1
            hi >>= 1
        return m

    # ------------------------------------------------------------------
    # High-level probes (bitwise-identical to the linear reference)
    # ------------------------------------------------------------------

    def earliest_start(
        self, jq: int, earliest: float, duration: float, nprocs: int
    ) -> float | None:
        """First start ``s >= earliest`` with ``nprocs`` free on
        ``[s, s + duration)``.

        ``jq`` is the extended segment containing ``earliest``
        (``searchsorted(times, earliest, side="right")``).  Walks free
        runs forward exactly as the linear reference enumerates them:
        per run, candidate = ``max(run start, earliest)``, feasible iff
        ``candidate + duration <= run end``.  Returns None only if
        availability never recovers (impossible for validated requests —
        the final segment is all-free).
        """
        bounds = self._bounds
        earliest = float(earliest)
        j = self.first_at_least(jq, nprocs)
        while j < self.n:
            # A run straddling `earliest` reports `earliest` itself, like
            # the reference's max(run_start, earliest) clipping.
            start = bounds[j]
            cand = start if start > earliest else earliest
            je = self.first_below(j + 1, nprocs)
            if cand + duration <= bounds[je]:
                return cand
            j = self.first_at_least(je + 1, nprocs)
        return None

    def latest_start(
        self,
        jq: int,
        latest_finish: float,
        duration: float,
        nprocs: int,
        earliest: float,
    ) -> float | None:
        """Latest start ``s >= earliest`` with ``s + duration <=
        latest_finish`` and ``nprocs`` free throughout, or None.

        ``jq`` is the extended segment holding instants just before
        ``latest_finish`` (``searchsorted(times, latest_finish,
        side="left")``).  Walks free runs backward; run candidates are
        non-increasing in that direction, so the first feasible run wins
        and a candidate dropping below ``earliest`` proves infeasibility.
        """
        bounds = self._bounds
        latest_finish = float(latest_finish)
        j = self.last_at_least(jq, nprocs)
        while j >= 0:
            if j == jq:
                # The run holding the deadline segment: every later
                # breakpoint is >= latest_finish, so min(run end,
                # latest_finish) is the deadline itself.
                end = latest_finish
            else:
                end = bounds[self.first_below(j + 1, nprocs)]
                if end > latest_finish:
                    end = latest_finish
            cand = end - duration
            if cand < earliest:
                # Earlier runs only produce earlier candidates.
                return None
            js = self.last_below(j, nprocs) + 1
            if cand >= bounds[js]:
                return cand
            if js == 0:
                return None
            j = self.last_at_least(js - 1, nprocs)
        return None

    def min_over(self, i0: int, i1: int, profile_base: float) -> float:
        """Minimum profile value over *profile* segments ``i0..i1``
        (``i0 = -1`` includes the base segment), matching
        :meth:`StepFunction.min_over`'s segment arithmetic."""
        if i1 < i0:
            i1 = i0
        return float(self.range_min(i0 + 1, i1 + 1))
