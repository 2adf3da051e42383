"""Building reservation scenarios from workload logs (paper §3.2.1).

A *reservation scenario* captures everything the schedulers see at the
scheduling instant ``now``:

* the platform capacity ``p``;
* the competing reservation schedule — ongoing and future reservations by
  other users;
* the historical average number of available processors P' (used by the
  ``*_CPAR`` algorithm variants).

Scenarios are built the way the paper builds them: tag a fraction ``phi``
of a batch log's jobs as reservations, pick ``now`` inside the log, then
reshape the future part of the schedule with one of three methods —

* ``linear`` — reservations per day decay roughly linearly to zero at
  ``now + 7 days``;
* ``expo`` — same with an approximately exponential decay;
* ``real`` — keep only reservations already submitted by ``now``
  (bookings cannot be known before they are made).

For a *reservation log* (Grid'5000), every job already is a reservation
and the schedule is used as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.calendar import Reservation, ResourceCalendar
from repro.errors import CalendarError, GenerationError
from repro.rng import RNG
from repro.units import DAY
from repro.workloads.swf import Job

#: Valid reshaping methods.
RESHAPE_METHODS = ("linear", "expo", "real")

#: Time constant of the ``expo`` method's decay: chosen so that roughly
#: 5 % of the day-0 rate remains at day 7 (``exp(-7/tau) ~ 0.05``).
_EXPO_TAU_DAYS = 7.0 / 3.0


@dataclass(frozen=True)
class ReservationScenario:
    """A scheduling-time snapshot of the platform's reservation state.

    Attributes:
        name: Identifies the originating log/configuration.
        capacity: Platform size ``p``.
        now: The scheduling instant (application scheduling time ``T``).
        reservations: Competing reservations visible at ``now`` (ongoing
            plus future ones).
        hist_avg_available: P' — the time-weighted average number of free
            processors over the trailing history window, clamped to
            ``[1, capacity]``.
        phi: Tagging fraction used to build the scenario (NaN for pure
            reservation logs).
        method: Reshaping method (``"asis"`` for pure reservation logs).
    """

    name: str
    capacity: int
    now: float
    reservations: tuple[Reservation, ...]
    hist_avg_available: float
    phi: float = float("nan")
    method: str = "asis"

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise GenerationError(f"capacity must be >= 1, got {self.capacity}")
        if not 1.0 <= self.hist_avg_available <= self.capacity:
            raise GenerationError(
                f"hist_avg_available must lie in [1, {self.capacity}], got "
                f"{self.hist_avg_available}"
            )

    def calendar(self) -> ResourceCalendar:
        """A fresh calendar holding the competing reservations.

        Each scheduling run should take its own copy; schedulers mutate it
        by adding the application's task reservations.
        """
        return ResourceCalendar(self.capacity, self.reservations)

    @property
    def hist_avg_procs(self) -> int:
        """P' as a processor count: :attr:`hist_avg_available` rounded
        (validated to lie in ``[1, capacity]``, so the result does too)."""
        return int(round(self.hist_avg_available))

    @property
    def n_reservations(self) -> int:
        """Number of competing reservations."""
        return len(self.reservations)


def tag_reservations(jobs: Sequence[Job], phi: float, rng: RNG) -> list[Job]:
    """Select each job independently with probability ``phi``.

    This is the paper's tagging step: the selected jobs become advance
    reservations; all other jobs are dropped.
    """
    if not 0.0 <= phi <= 1.0:
        raise GenerationError(f"phi must be in [0, 1], got {phi}")
    mask = rng.uniform(size=len(jobs)) < phi
    return [job for job, keep in zip(jobs, mask) if keep]


def _job_to_reservation(job: Job) -> Reservation:
    return Reservation(
        start=job.start, end=job.end, nprocs=job.nprocs, label=f"job{job.job_id}"
    )


def pick_scheduling_time(
    jobs: Sequence[Job],
    rng: RNG,
    *,
    start_margin: float = 14 * DAY,
    end_margin: float = 14 * DAY,
) -> float:
    """Draw a random scheduling instant well inside the log's span.

    Margins keep the history window populated and leave future jobs to
    reshape.
    """
    if not jobs:
        raise GenerationError("cannot pick a scheduling time in an empty log")
    t0 = min(j.submit for j in jobs) + start_margin
    t1 = max(j.end for j in jobs) - end_margin
    if t1 <= t0:
        raise GenerationError(
            f"log span too short for margins ({start_margin} + {end_margin})"
        )
    return float(rng.uniform(t0, t1))


def _historical_average_available(
    tagged: Sequence[Job],
    capacity: int,
    now: float,
    window: float,
) -> float:
    """P': mean free processors over ``[now - window, now]`` under the
    tagged (reservation) jobs only, clamped to ``[1, capacity]``."""
    relevant = [
        _job_to_reservation(j)
        for j in tagged
        if j.start < now and j.end > now - window
    ]
    if not relevant:
        return float(capacity)
    cal = ResourceCalendar(capacity, relevant, clamp=True)
    avg = cal.average_available(now - window, now)
    return float(min(max(avg, 1.0), float(capacity)))


def _day_bucket(start: float, now: float) -> int:
    return int(math.floor((start - now) / DAY))


def _reshape_counts(n_days: int, n0: int, method: str) -> list[int]:
    """Target reservation counts per future day for linear/expo decay."""
    targets = []
    for d in range(n_days):
        if method == "linear":
            frac = max(0.0, 1.0 - d / 7.0)
        else:  # expo
            frac = math.exp(-d / _EXPO_TAU_DAYS)
        targets.append(int(round(n0 * frac)))
    return targets


def _reshape_future(
    future_jobs: list[Job],
    ongoing: list[Reservation],
    capacity: int,
    now: float,
    method: str,
    horizon: float,
    rng: RNG,
) -> list[Reservation]:
    """Apply the linear/expo/real reshaping to the future reservations."""
    if method == "real":
        kept = [j for j in future_jobs if j.submit <= now]
        return [_job_to_reservation(j) for j in kept]

    n_days = int(math.ceil(horizon / DAY))
    buckets: list[list[Job]] = [[] for _ in range(n_days)]
    for j in future_jobs:
        d = _day_bucket(j.start, now)
        if 0 <= d < n_days:
            buckets[d].append(j)

    n0 = max(1, len(buckets[0]))
    targets = _reshape_counts(n_days, n0, method)

    kept: list[Reservation] = []
    deficits: list[tuple[int, int]] = []  # (day, how many to add)
    for d, bucket in enumerate(buckets):
        target = targets[d]
        if len(bucket) > target:
            chosen = rng.choice(len(bucket), size=target, replace=False)
            kept.extend(_job_to_reservation(bucket[i]) for i in chosen)
        else:
            kept.extend(_job_to_reservation(j) for j in bucket)
            if len(bucket) < target:
                deficits.append((d, target - len(bucket)))

    # Cloning pool: shapes (duration, size) of all future tagged jobs.
    pool = future_jobs if future_jobs else None
    if pool is None:
        return kept

    # A strict calendar guards capacity while cloning; the kept originals
    # are a subset of a capacity-respecting log, so they always fit.
    guard = ResourceCalendar(capacity, ongoing + kept)
    clones: list[Reservation] = []
    for day, deficit in deficits:
        for _ in range(deficit):
            for _attempt in range(20):
                template = pool[int(rng.integers(len(pool)))]
                start = float(now + (day + rng.uniform(0.0, 1.0)) * DAY)
                cand = Reservation(
                    start=start,
                    end=start + template.runtime,
                    nprocs=template.nprocs,
                    label=f"clone-of-job{template.job_id}",
                )
                try:
                    guard.add(cand)
                except CalendarError:
                    continue
                clones.append(cand)
                break
            # Unplaceable after 20 draws: skip silently; the decay shape
            # is approximate by construction.
    return kept + clones


def build_reservation_scenario(
    jobs: Sequence[Job],
    capacity: int,
    phi: float,
    now: float,
    method: str,
    rng: RNG,
    *,
    horizon: float = 7 * DAY,
    history_window: float = 7 * DAY,
    name: str = "",
) -> ReservationScenario:
    """Build one scenario from a batch log (the paper's §3.2.1 pipeline).

    Args:
        jobs: The batch log.
        capacity: Platform size ``p``.
        phi: Fraction of jobs tagged as reservations (0.1 / 0.2 / 0.5 in
            the paper).
        now: The scheduling instant (see :func:`pick_scheduling_time`).
        method: ``"linear"``, ``"expo"``, or ``"real"``.
        rng: Random stream driving tagging and reshaping.
        horizon: Future window reshaped by linear/expo (7 days in the
            paper: no reservations remain after ``now + horizon``).
        history_window: Trailing window over which P' is averaged.
        name: Scenario label (defaults to the method and phi).

    Returns:
        The scenario snapshot, ready to hand to any scheduler.
    """
    if method not in RESHAPE_METHODS:
        raise GenerationError(
            f"unknown reshape method {method!r}; expected one of "
            f"{RESHAPE_METHODS}"
        )
    tagged = tag_reservations(jobs, phi, rng)

    ongoing = [
        _job_to_reservation(j) for j in tagged if j.start < now < j.end
    ]
    future_jobs = [j for j in tagged if j.start >= now]
    if method != "real":
        # linear/expo erase everything beyond the horizon.
        future_jobs = [j for j in future_jobs if j.start < now + horizon]

    hist = _historical_average_available(tagged, capacity, now, history_window)
    future = _reshape_future(
        future_jobs, ongoing, capacity, now, method, horizon, rng
    )
    return ReservationScenario(
        name=name or f"{method}-phi{phi}",
        capacity=capacity,
        now=now,
        reservations=tuple(ongoing + future),
        hist_avg_available=hist,
        phi=phi,
        method=method,
    )


def reservation_scenario_from_reservation_log(
    jobs: Sequence[Job],
    capacity: int,
    now: float,
    *,
    history_window: float = 7 * DAY,
    horizon: float = 21 * DAY,
    visible_only: bool = True,
    name: str = "reservation-log",
) -> ReservationScenario:
    """Build a scenario from a pure reservation log (the Grid'5000 case).

    Every job already is a reservation; the schedule contains the
    ongoing and future reservations within ``horizon``, with P' computed
    from the trailing window.

    ``visible_only`` keeps only reservations *booked* by ``now``
    (``submit <= now``) — what the reservation system actually shows at
    scheduling time; bookings made later cannot be known.  This is also
    what gives real reservation schedules their decaying-future shape
    (the paper's §3.2.1 premise).  The horizon cut is a tractability
    choice: a schedule months out never constrains the application
    (which spans hours to days), but would dominate every calendar
    query's cost.
    """
    ongoing_future = [
        _job_to_reservation(j)
        for j in jobs
        if j.end > now
        and j.start < now + horizon
        and (not visible_only or j.submit <= now)
    ]
    hist = _historical_average_available(list(jobs), capacity, now, history_window)
    return ReservationScenario(
        name=name,
        capacity=capacity,
        now=now,
        reservations=tuple(ongoing_future),
        hist_avg_available=hist,
        phi=float("nan"),
        method="asis",
    )


def reservations_to_jobs(reservations: Sequence[Reservation]) -> list[Job]:
    """View reservations as jobs (submit = start, zero wait).

    Used by the statistics module to run job-level metrics on reservation
    schedules.
    """
    return [
        Job(
            job_id=i + 1,
            submit=r.start,
            wait=0.0,
            runtime=r.duration,
            nprocs=r.nprocs,
        )
        for i, r in enumerate(reservations)
    ]
