"""Piecewise-constant functions of time, backed by NumPy arrays.

A :class:`StepFunction` is defined by strictly increasing breakpoints
``times[0..k-1]`` and ``values[0..k-1]``::

    f(t) = base         for            t <  times[0]
    f(t) = values[i]    for times[i] <= t < times[i+1]
    f(t) = values[k-1]  for t >= times[k-1]

i.e. each value holds on a right-open interval and the last value extends
to +infinity.  An empty breakpoint set gives the constant function
``base``.  This is the compiled form of a reservation calendar's
occupancy/availability profile; queries on it are the hot path of every
scheduler, hence the array representation and ``searchsorted`` lookups.
"""

from __future__ import annotations

import struct
from hashlib import blake2b
from typing import Iterable, Sequence

import numpy as np


class StepFunction:
    """An immutable piecewise-constant function of time."""

    __slots__ = ("times", "values", "base")

    def __init__(
        self,
        times: Sequence[float] | np.ndarray,
        values: Sequence[float] | np.ndarray,
        base: float = 0.0,
    ):
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.shape != v.shape:
            raise ValueError(
                f"times and values must be equal-length 1-D arrays, got "
                f"shapes {t.shape} and {v.shape}"
            )
        if t.size and not np.all(np.diff(t) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        #: Breakpoint instants, strictly increasing.
        self.times: np.ndarray = t
        #: Value on ``[times[i], times[i+1])``.
        self.values: np.ndarray = v
        #: Value before the first breakpoint.
        self.base: float = float(base)
        t.setflags(write=False)
        v.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        """The constant function ``value``."""
        return cls(np.empty(0), np.empty(0), base=value)

    @classmethod
    def _make(
        cls, times: np.ndarray, values: np.ndarray, base: float
    ) -> "StepFunction":
        """Internal: wrap arrays already known to be valid and canonical.

        Skips the monotonicity re-check of ``__init__`` — used on hot
        paths (the incremental splice) whose outputs are sorted and
        canonical by construction.
        """
        f = cls.__new__(cls)
        f.times = times
        f.values = values
        f.base = base
        times.setflags(write=False)
        values.setflags(write=False)
        return f

    @classmethod
    def from_deltas(
        cls, events: Iterable[tuple[float, float]], base: float = 0.0
    ) -> "StepFunction":
        """Build from ``(time, delta)`` events.

        The function starts at ``base`` and jumps by the summed deltas at
        each event time.  This is how occupancy profiles are compiled from
        reservation start/end events.
        """
        ev = list(events)
        if not ev:
            return cls.constant(base)
        times = np.array([e[0] for e in ev], dtype=float)
        deltas = np.array([e[1] for e in ev], dtype=float)
        order = np.argsort(times, kind="stable")
        times, deltas = times[order], deltas[order]
        uniq, inverse = np.unique(times, return_inverse=True)
        summed = np.zeros(uniq.size)
        np.add.at(summed, inverse, deltas)
        values = base + np.cumsum(summed)
        # Drop zero-jump breakpoints so the representation is canonical.
        keep = np.empty(uniq.size, dtype=bool)
        keep[0] = values[0] != base
        keep[1:] = values[1:] != values[:-1]
        if not keep.any():
            return cls.constant(base)
        return cls(uniq[keep], values[keep], base=base)

    def splice(
        self, start: float, end: float, delta: float
    ) -> tuple["StepFunction", float]:
        """Copy of this function with ``delta`` added on ``[start, end)``,
        and the least value the copy takes there.

        This is the incremental-commit primitive: registering a
        reservation of ``n`` processors splices ``-n`` into the
        availability profile, and withdrawing it splices ``+n``.  The
        endpoints are located by ``searchsorted`` and each output array
        is written once: the untouched prefix and suffix are copied
        verbatim, and only the touched run — the ``start`` breakpoint
        through the ``end`` breakpoint — gets the delta and the
        zero-jump rule (a breakpoint whose value equals the one before
        it is dropped).  No re-sort, no event-list rebuild.  Those are
        the only values the splice changes, so a caller that knew the
        rest was non-negative needs no other scan to know the whole
        result is.

        Preconditions, unchecked: ``start < end``, both finite (a
        :class:`~repro.calendar.Reservation` refuses any other window),
        a nonzero ``delta``, and a canonical function (no zero-jump
        breakpoints).  Outside the touched run neither a value nor the
        value before it changes, so every breakpoint there keeps its
        jump; the result is then canonical too, and bit-identical to
        recompiling the profile from the event list.  Every profile a
        :class:`~repro.calendar.ResourceCalendar` holds is canonical: it
        comes from :meth:`from_deltas`, from a splice, or from a clamp
        followed by :meth:`canonical`.
        """
        t, v, base = self.times, self.values, self.base
        n = t.size
        i0 = int(t.searchsorted(start))
        i1 = int(t.searchsorted(end))
        before = base if i0 == 0 else float(v[i0 - 1])
        # The touched run: the `start` breakpoint through the `end`
        # breakpoint, as Python lists.  Bitwise breakpoint identity is
        # the contract of the canonical splice path: a breakpoint is
        # reused only if the float is the same value, so repeated
        # add/remove round-trips are exact.
        run_t = t[i0:i1].tolist()
        run_v = [x + delta for x in v[i0:i1].tolist()]
        if not (run_t and run_t[0] == start):  # lint: ignore[REP004] — bitwise breakpoint identity
            run_t.insert(0, start)
            run_v.insert(0, before + delta)
        least = min(run_v)
        if i1 < n and t[i1] == end:  # lint: ignore[REP004] — bitwise breakpoint identity
            run_v.append(float(v[i1]))
            tail = i1 + 1
        else:
            # A new `end` breakpoint reverts to the value held before it.
            run_v.append(base if i1 == 0 else float(v[i1 - 1]))
            tail = i1
        run_t.append(end)
        kept_t: list[float] = []
        kept_v: list[float] = []
        last = before
        for x, y in zip(run_t, run_v):
            if y != last:
                kept_t.append(x)
                kept_v.append(y)
            last = y
        k = len(kept_t)
        size = i0 + k + n - tail
        if not size:
            return StepFunction.constant(base), least
        new_t = np.empty(size)
        new_v = np.empty(size)
        new_t[:i0] = t[:i0]
        new_v[:i0] = v[:i0]
        new_t[i0 : i0 + k] = kept_t
        new_v[i0 : i0 + k] = kept_v
        new_t[i0 + k :] = t[tail:]
        new_v[i0 + k :] = v[tail:]
        # Sorted and canonical by construction: skip the constructor's
        # monotonicity re-check.
        return StepFunction._make(new_t, new_v, base), least

    def canonical(self) -> "StepFunction":
        """This function with zero-jump breakpoints dropped.

        Returns ``self`` when already canonical.  Needed after
        value-space operations like clamping, which can collapse adjacent
        segments onto the same value; keeping profiles canonical makes
        the incremental-splice and full-recompile paths produce
        *identical* representations, not just equal functions.
        """
        if self.values.size == 0:
            return self
        keep = np.empty(self.times.size, dtype=bool)
        keep[0] = self.values[0] != self.base
        keep[1:] = self.values[1:] != self.values[:-1]
        if keep.all():
            return self
        if not keep.any():
            return StepFunction.constant(self.base)
        return StepFunction._make(self.times[keep], self.values[keep], self.base)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def __call__(self, t: float) -> float:
        """Value at instant ``t``."""
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.base if i < 0 else float(self.values[i])

    def sample(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        """Vectorized evaluation at each instant in ``ts``."""
        ts = np.asarray(ts, dtype=float)
        if self.values.size == 0:
            return np.full(ts.shape, self.base)
        idx = np.searchsorted(self.times, ts, side="right") - 1
        return np.where(idx < 0, self.base, self.values[np.clip(idx, 0, None)])

    def segment_index(self, t: float) -> int:
        """Index ``i`` such that ``t`` lies in segment ``i`` (−1 = before
        the first breakpoint)."""
        return int(np.searchsorted(self.times, t, side="right")) - 1

    def segment_bounds(self, i: int) -> tuple[float, float]:
        """Time interval ``[lo, hi)`` of segment ``i``.

        Segment −1 spans ``(-inf, times[0])``; the last segment extends to
        ``+inf``.
        """
        lo = -np.inf if i < 0 else float(self.times[i])
        hi = (
            float(self.times[i + 1])
            if i + 1 < self.times.size
            else np.inf
        )
        return lo, hi

    def segment_value(self, i: int) -> float:
        """Value of segment ``i`` (−1 = ``base``)."""
        return self.base if i < 0 else float(self.values[i])

    @property
    def n_segments(self) -> int:
        """Number of breakpoint-delimited segments (excluding the base)."""
        return int(self.times.size)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def integral(self, t0: float, t1: float) -> float:
        """Integral of the function over ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError(f"integration bounds out of order: [{t0}, {t1}]")
        if t1 == t0:  # lint: ignore[REP004] — exact degenerate window; eps here would zero out genuine short integrals
            return 0.0
        # Clip all breakpoints into the window and integrate piecewise.
        pts = np.concatenate(([t0], self.times[(self.times > t0) & (self.times < t1)], [t1]))
        vals = self.sample(pts[:-1])
        return float(np.sum(vals * np.diff(pts)))

    def mean(self, t0: float, t1: float) -> float:
        """Time-weighted mean value over ``[t0, t1]``."""
        if t1 <= t0:
            raise ValueError(f"mean needs t1 > t0, got [{t0}, {t1}]")
        return self.integral(t0, t1) / (t1 - t0)

    def min_over(self, t0: float, t1: float) -> float:
        """Minimum value attained on ``[t0, t1)``."""
        if t1 <= t0:
            raise ValueError(f"min_over needs t1 > t0, got [{t0}, {t1})")
        if self.values.size == 0:
            return self.base
        i0 = self.segment_index(t0)
        # Last touched segment: the one containing instants just before t1,
        # i.e. after the last breakpoint strictly below t1.
        i1 = int(np.searchsorted(self.times, t1, side="left")) - 1
        if i1 < i0:
            i1 = i0
        lo = max(i0, 0)
        m = float(self.values[lo : i1 + 1].min()) if i1 >= lo else np.inf
        if i0 < 0:
            m = min(m, self.base)
        return float(m)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def map(self, fn) -> "StepFunction":
        """Apply ``fn`` elementwise to the values (and base)."""
        return StepFunction(
            self.times.copy(), fn(self.values.copy()), base=float(fn(self.base))
        )

    def __neg__(self) -> "StepFunction":
        return StepFunction(self.times.copy(), -self.values, base=-self.base)

    def __add__(self, other: "StepFunction | float") -> "StepFunction":
        if isinstance(other, (int, float)):
            return StepFunction(
                self.times.copy(), self.values + other, base=self.base + other
            )
        times = np.union1d(self.times, other.times)
        values = self.sample(times) + other.sample(times)
        return StepFunction(times, values, base=self.base + other.base)

    def __radd__(self, other: float) -> "StepFunction":
        return self.__add__(other)

    def __sub__(self, other: "StepFunction | float") -> "StepFunction":
        if isinstance(other, (int, float)):
            return self + (-other)
        return self + (-other)

    def __rsub__(self, other: float) -> "StepFunction":
        return (-self) + other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (
            self.base == other.base
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.values, other.values)
        )

    def content_digest(self) -> str:
        """Stable hex digest of the function's exact content.

        Hashes the IEEE-754 bit patterns of ``base``, ``times`` and
        ``values`` (little-endian float64), so two step functions share a
        digest iff they compare ``==`` — bitwise representation equality,
        the same contract the incremental-splice paths are held to.  The
        digest is therefore stable across :meth:`canonical` round-trips
        of canonical profiles (``canonical()`` returns ``self`` when
        nothing changes, and every profile a :class:`ResourceCalendar`
        compiles or splices is canonical) and across processes/runs
        (``blake2b`` is content-addressed, unlike ``hash()`` which is
        randomized per process for strings).  Used as the result-cache
        key for derived computations.
        """
        h = blake2b(digest_size=16)
        h.update(struct.pack("<d", self.base))
        h.update(np.ascontiguousarray(self.times).tobytes())
        h.update(np.ascontiguousarray(self.values).tobytes())
        return h.hexdigest()

    def __hash__(self) -> int:
        return hash(self.content_digest())

    def __repr__(self) -> str:
        return (
            f"StepFunction(segments={self.n_segments}, base={self.base}, "
            f"span=[{self.times[0] if self.times.size else None}, "
            f"{self.times[-1] if self.times.size else None}])"
        )
