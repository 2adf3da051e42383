"""SLO series: timeline events folded into time buckets (`repro.obs.slo`).

The streamed engine's service-level questions — how deep did the queue
get, how long did admissions take at p99, what fraction of requests was
rejected — are per-time-window facts, not end-of-run aggregates.  This
module folds :mod:`repro.obs.timeline` events into fixed-width
simulation-time buckets carrying:

* ``arrivals`` / ``admitted`` / ``rejected`` request counts (a
  quarantined request counts as rejected),
* ``queue_depth`` — admitted-but-not-yet-started backlog at bucket end
  (arrivals minus commits, rejections and quarantines, cumulative;
  deterministic because it is derived from simulation times, not wall
  clocks),
* ``probes`` / ``probe_tasks`` — in-flight batched placement probes,
* scheduling-latency ``p50``/``p95``/``p99`` (milliseconds), and
* ``rejection_rate``.

**Merge stability.**  Like :class:`repro.obs.Collector`, an
:class:`SloSeries` merges bitwise-stably at any worker count: bucket
state is integer counts plus latency value *lists*, merged by summing
and concatenation; percentiles are computed only at :meth:`to_dict`
time by **nearest-rank selection** (no interpolation, no float
arithmetic over the values), so any partitioning of the same event
multiset folds to the identical report section.

:func:`percentile_nearest_rank` is the single percentile definition
of the SLO buckets and the run-wide latency summary.

The events come from :class:`repro.service.ReservationService`, the
one admission loop; ``repro serve`` folds its timeline into 900 s
buckets whenever it records one.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

from repro.obs.timeline import REQUEST_CLOSING

__all__ = ["percentile_nearest_rank", "SloSeries"]


def percentile_nearest_rank(
    values: Sequence[float], q: float
) -> float:
    """The q-th percentile of ``values`` by the nearest-rank method.

    Nearest rank: the smallest element such that at least ``q`` percent
    of the data is <= it — ``sorted(values)[ceil(q/100 * n) - 1]``
    (``q = 0`` selects the minimum).  The result is always an element of
    ``values``: pure selection, no interpolation, hence bitwise-stable
    under any partition-and-merge of the same multiset.  Returns ``nan``
    for empty input.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    n = len(values)
    if n == 0:
        return math.nan
    rank = math.ceil(q / 100.0 * n)
    if rank < 1:
        rank = 1
    return sorted(values)[rank - 1]


#: Percentiles reported per bucket and overall, as (key, q) pairs.
_LATENCY_QS: tuple[tuple[str, float], ...] = (
    ("p50", 50.0),
    ("p95", 95.0),
    ("p99", 99.0),
)


def _latency_ms(latencies: Sequence[float]) -> dict[str, float | None]:
    """Percentile dict in milliseconds (``None`` entries when empty)."""
    if not latencies:
        return {key: None for key, _ in _LATENCY_QS}
    return {
        key: percentile_nearest_rank(latencies, q) * 1e3
        for key, q in _LATENCY_QS
    }


class _Bucket:
    """Mergeable per-window state (integers + latency value list)."""

    __slots__ = (
        "arrivals",
        "admitted",
        "rejected",
        "probes",
        "probe_tasks",
        "latencies",
    )

    def __init__(self) -> None:
        self.arrivals = 0
        self.admitted = 0
        self.rejected = 0
        self.probes = 0
        self.probe_tasks = 0
        self.latencies: list[float] = []

    def merge(self, other: "_Bucket") -> None:
        self.arrivals += other.arrivals
        self.admitted += other.admitted
        self.rejected += other.rejected
        self.probes += other.probes
        self.probe_tasks += other.probe_tasks
        self.latencies.extend(other.latencies)


class SloSeries:
    """Time-bucketed SLO state folded from timeline events.

    Args:
        bucket_s: Bucket width in simulation seconds (> 0).
        t0: Simulation time of bucket 0's left edge (events before it
            land in negative bucket indices — no silent clamping).
    """

    def __init__(self, *, bucket_s: float, t0: float = 0.0) -> None:
        if not bucket_s > 0.0:
            raise ValueError(f"bucket_s must be > 0, got {bucket_s}")
        self.bucket_s = float(bucket_s)
        self.t0 = float(t0)
        self._buckets: dict[int, _Bucket] = {}

    # -- folding -------------------------------------------------------

    def _bucket_at(self, sim_t: float) -> _Bucket:
        idx = math.floor((sim_t - self.t0) / self.bucket_s)
        b = self._buckets.get(idx)
        if b is None:
            b = self._buckets[idx] = _Bucket()
        return b

    def add_event(self, ev: dict[str, Any]) -> None:
        """Fold one timeline event (events without a sim time are
        ignored — span markers carry no service-level meaning)."""
        sim_t = ev.get("sim_t")
        if sim_t is None:
            return
        ev_type = ev["type"]
        if ev_type == "request_arrived":
            self._bucket_at(sim_t).arrivals += 1
        elif ev_type in REQUEST_CLOSING:
            b = self._bucket_at(sim_t)
            if ev_type == "placement_committed":
                b.admitted += 1
            else:
                b.rejected += 1
            latency = ev.get("latency_s")
            if latency is not None:
                b.latencies.append(float(latency))
        elif ev_type == "probe_batch":
            b = self._bucket_at(sim_t)
            b.probes += 1
            b.probe_tasks += int(ev.get("tasks", 0))

    @classmethod
    def from_events(
        cls,
        events: Iterable[dict[str, Any]],
        *,
        bucket_s: float,
        t0: float = 0.0,
    ) -> "SloSeries":
        series = cls(bucket_s=bucket_s, t0=t0)
        for ev in events:
            series.add_event(ev)
        return series

    # -- merging -------------------------------------------------------

    def merge(self, other: "SloSeries") -> None:
        """Fold another series in (associative; any partition of the
        same event multiset yields a bitwise-identical report)."""
        if other.bucket_s != self.bucket_s or other.t0 != self.t0:
            raise ValueError(
                "cannot merge SLO series with different bucketing: "
                f"(bucket_s={self.bucket_s}, t0={self.t0}) vs "
                f"(bucket_s={other.bucket_s}, t0={other.t0})"
            )
        for idx, b in other._buckets.items():
            mine = self._buckets.get(idx)
            if mine is None:
                mine = self._buckets[idx] = _Bucket()
            mine.merge(b)

    # -- reporting -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The schema-validated ``slo`` report section.

        Buckets are emitted densely from the first to the last non-empty
        index (gaps appear as zero rows so queue depth is continuous);
        ``queue_depth`` is the cumulative backlog at bucket end.
        """
        all_latencies: list[float] = []
        arrivals_total = admitted_total = rejected_total = 0
        buckets_out: list[dict[str, Any]] = []
        if self._buckets:
            indices = sorted(self._buckets)
            depth = 0
            empty = _Bucket()
            for idx in range(indices[0], indices[-1] + 1):
                b = self._buckets.get(idx, empty)
                depth += b.arrivals - b.admitted - b.rejected
                arrivals_total += b.arrivals
                admitted_total += b.admitted
                rejected_total += b.rejected
                all_latencies.extend(b.latencies)
                buckets_out.append(
                    {
                        "t": self.t0 + idx * self.bucket_s,
                        "arrivals": b.arrivals,
                        "admitted": b.admitted,
                        "rejected": b.rejected,
                        "queue_depth": depth,
                        "probes": b.probes,
                        "probe_tasks": b.probe_tasks,
                        "rejection_rate": (
                            b.rejected / b.arrivals if b.arrivals else 0.0
                        ),
                        "latency_ms": _latency_ms(b.latencies),
                    }
                )
        return {
            "bucket_s": self.bucket_s,
            "t0": self.t0,
            "requests": arrivals_total,
            "admitted": admitted_total,
            "rejected": rejected_total,
            "latency_ms": _latency_ms(all_latencies),
            "buckets": buckets_out,
        }

    def __repr__(self) -> str:
        return (
            f"SloSeries(bucket_s={self.bucket_s}, t0={self.t0}, "
            f"buckets={len(self._buckets)})"
        )
