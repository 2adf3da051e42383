"""Tests for the multi-cluster extension (repro.multi)."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calendar import Reservation, ResourceCalendar
from repro.core import ResSchedAlgorithm, schedule_ressched
from repro.dag import DagGenParams, random_task_graph
from repro.errors import CalendarError, GenerationError, ScheduleValidationError
from repro.multi import (
    MultiClusterScenario,
    MultiPlacement,
    MultiSchedule,
    schedule_ressched_multi,
    validate_multi_schedule,
)
from repro.rng import make_rng
from repro.workloads.reservations import ReservationScenario


def _cluster(name, capacity=16, hist=None, now=0.0, reservations=()):
    return ReservationScenario(
        name=name,
        capacity=capacity,
        now=now,
        reservations=tuple(reservations),
        hist_avg_available=float(hist if hist is not None else capacity),
    )


@pytest.fixture
def two_clusters():
    return MultiClusterScenario(
        clusters=(
            _cluster("alpha", capacity=16, hist=12.0),
            _cluster(
                "beta",
                capacity=8,
                hist=6.0,
                reservations=[Reservation(0.0, 30_000.0, 4)],
            ),
        )
    )


class TestScenario:
    def test_totals(self, two_clusters):
        assert two_clusters.n_clusters == 2
        assert two_clusters.total_capacity == 24
        assert two_clusters.now == 0.0

    def test_lookup(self, two_clusters):
        assert two_clusters.cluster("beta").capacity == 8
        with pytest.raises(GenerationError, match="no cluster"):
            two_clusters.cluster("gamma")

    def test_rejects_empty(self):
        with pytest.raises(GenerationError):
            MultiClusterScenario(clusters=())

    def test_rejects_duplicate_names(self):
        with pytest.raises(GenerationError, match="unique"):
            MultiClusterScenario(
                clusters=(_cluster("a"), _cluster("a"))
            )

    def test_rejects_mismatched_now(self):
        with pytest.raises(GenerationError, match="instant"):
            MultiClusterScenario(
                clusters=(_cluster("a", now=0.0), _cluster("b", now=5.0))
            )


class TestScheduler:
    def test_valid_schedule(self, medium_graph, two_clusters):
        sched = schedule_ressched_multi(medium_graph, two_clusters)
        validate_multi_schedule(sched, two_clusters)
        assert sched.algorithm == "MULTI_BD_CPAR"

    def test_bd_all_valid(self, medium_graph, two_clusters):
        sched = schedule_ressched_multi(
            medium_graph, two_clusters, bound_method="BD_ALL"
        )
        validate_multi_schedule(sched, two_clusters)

    def test_uses_both_clusters_under_parallel_load(self, two_clusters):
        graph = random_task_graph(
            DagGenParams(n=40, width=0.9), make_rng(8)
        )
        sched = schedule_ressched_multi(graph, two_clusters)
        assert set(sched.per_cluster()) == {"alpha", "beta"}

    def test_rejects_unknown_bound(self, medium_graph, two_clusters):
        with pytest.raises(GenerationError):
            schedule_ressched_multi(
                medium_graph, two_clusters, bound_method="BD_HALF"
            )

    def test_extra_cluster_never_hurts(self, medium_graph):
        one = MultiClusterScenario(clusters=(_cluster("a", hist=12.0),))
        two = MultiClusterScenario(
            clusters=(_cluster("a", hist=12.0), _cluster("b", hist=12.0))
        )
        t1 = schedule_ressched_multi(medium_graph, one).turnaround
        t2 = schedule_ressched_multi(medium_graph, two).turnaround
        assert t2 <= t1 + 1e-6

    def test_single_cluster_matches_single_scheduler(self, medium_graph):
        """One cluster, BD_CPAR: the multi scheduler reduces to the
        single-cluster BL_CPAR/BD_CPAR heuristic."""
        cluster = _cluster("only", capacity=16, hist=10.0)
        multi = schedule_ressched_multi(
            medium_graph, MultiClusterScenario(clusters=(cluster,))
        )
        single = schedule_ressched(
            medium_graph, cluster, ResSchedAlgorithm(bl="BL_CPAR", bd="BD_CPAR")
        )
        assert multi.turnaround == pytest.approx(single.turnaround)
        assert multi.cpu_hours == pytest.approx(single.cpu_hours)

    def test_avoids_blocked_cluster(self, medium_graph):
        """With one cluster fully reserved for a long time, everything
        lands on the free one."""
        scenario = MultiClusterScenario(
            clusters=(
                _cluster(
                    "busy",
                    capacity=16,
                    reservations=[Reservation(0.0, 1e7, 16)],
                ),
                _cluster("free", capacity=16),
            )
        )
        sched = schedule_ressched_multi(medium_graph, scenario)
        assert set(sched.per_cluster()) == {"free"}

    def test_deterministic(self, medium_graph, two_clusters):
        a = schedule_ressched_multi(medium_graph, two_clusters)
        b = schedule_ressched_multi(medium_graph, two_clusters)
        assert a.placements == b.placements


class TestMultiSchedule:
    def test_cluster_schedule_roundtrip(self, medium_graph, two_clusters):
        sched = schedule_ressched_multi(medium_graph, two_clusters)
        for name, group in sched.per_cluster().items():
            sub = sched.cluster_schedule(name)
            assert sub is not None
            assert sub.graph.n == len(group)

    def test_cluster_schedule_none_for_unused(self, medium_graph):
        scenario = MultiClusterScenario(
            clusters=(
                _cluster(
                    "busy", capacity=16,
                    reservations=[Reservation(0.0, 1e7, 16)],
                ),
                _cluster("free", capacity=16),
            )
        )
        sched = schedule_ressched_multi(medium_graph, scenario)
        assert sched.cluster_schedule("busy") is None

    def test_rejects_misindexed(self, small_graph):
        with pytest.raises(ScheduleValidationError):
            MultiSchedule(
                graph=small_graph,
                now=0.0,
                placements=tuple(
                    MultiPlacement(
                        task=(i + 1) % small_graph.n,
                        cluster="a",
                        start=0.0,
                        nprocs=1,
                        duration=1.0,
                    )
                    for i in range(small_graph.n)
                ),
            )


class TestValidation:
    def test_detects_unknown_cluster(self, small_graph, two_clusters):
        placements = tuple(
            MultiPlacement(
                task=i, cluster="gamma", start=i * 10_000.0, nprocs=1,
                duration=small_graph.task(i).seq_time,
            )
            for i in range(small_graph.n)
        )
        sched = MultiSchedule(
            graph=small_graph, now=0.0, placements=placements
        )
        with pytest.raises(ScheduleValidationError, match="unknown cluster"):
            validate_multi_schedule(sched, two_clusters)

    def test_detects_cross_cluster_precedence_violation(
        self, small_graph, two_clusters
    ):
        good = schedule_ressched_multi(small_graph, two_clusters)
        # Move the exit task's start before its predecessors' finish.
        bad_list = list(good.placements)
        exit_pl = bad_list[small_graph.exit]
        bad_list[small_graph.exit] = MultiPlacement(
            task=exit_pl.task,
            cluster=exit_pl.cluster,
            start=0.0,
            nprocs=exit_pl.nprocs,
            duration=exit_pl.duration,
        )
        bad = MultiSchedule(
            graph=small_graph, now=0.0, placements=tuple(bad_list)
        )
        with pytest.raises(ScheduleValidationError, match="precedence"):
            validate_multi_schedule(bad, two_clusters)


class TestMultiProperties:
    @given(
        seed=st.integers(0, 150),
        cap_a=st.integers(2, 16),
        cap_b=st.integers(2, 16),
        bound=st.sampled_from(["BD_CPAR", "BD_ALL"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_always_valid(self, seed, cap_a, cap_b, bound):
        rng = make_rng(seed)
        graph = random_task_graph(DagGenParams(n=12), rng)
        reservations = []
        if cap_a >= 4:
            reservations = [Reservation(0.0, 40_000.0, cap_a // 2)]
        scenario = MultiClusterScenario(
            clusters=(
                _cluster(
                    "a", capacity=cap_a,
                    hist=max(1.0, cap_a / 2),
                    reservations=reservations,
                ),
                _cluster("b", capacity=cap_b, hist=float(cap_b)),
            )
        )
        sched = schedule_ressched_multi(graph, scenario, bound_method=bound)
        validate_multi_schedule(sched, scenario)


#: Hash over every instance of ``GOLDEN_INSTANCES``, both bound methods
#: and one to three clusters.  Recorded while the scheduler still swept
#: every processor count of every cluster (``earliest_starts_multi``,
#: then the argmin of the completions); per-cluster
#: ``earliest_completion`` must place every task identically.
MULTI_GOLDEN = "a5eb5f17590be765558fb0140e830ad9050d2bafc3b121401116a7dcd6c7f2a5"

#: (graph seed, tasks, scheduling instant) per golden instance.
GOLDEN_INSTANCES = (
    (3, 10, 0.0),
    (17, 20, 1_500.0),
    (42, 30, 600.0),
    (8, 25, 4_000.0),
)


def _busy_cluster(name, seed, capacity, now):
    """A cluster whose random reservations fit a strict calendar."""
    rng = make_rng(seed)
    cal = ResourceCalendar(capacity)
    for i in range(40):
        # Whole-second bounds make breakpoints coincide.
        start = float(round(rng.uniform(0.0, 30_000.0)))
        length = float(round(rng.uniform(300.0, 6_000.0)))
        try:
            cal.add(
                Reservation(start, start + length, int(rng.integers(1, capacity + 1)))
            )
        except CalendarError:
            pass
    return _cluster(
        name,
        capacity=capacity,
        hist=float(rng.uniform(1.0, capacity)),
        now=now,
        reservations=cal.reservations,
    )


def _multi_digest():
    h = hashlib.sha256()
    for seed, n, now in GOLDEN_INSTANCES:
        graph = random_task_graph(DagGenParams(n=n), make_rng(seed))
        clusters = (
            _busy_cluster("a", seed + 1, 16, now),
            _busy_cluster("b", seed + 2, 8, now),
            # A twin of "a": equal completions go to the cluster listed
            # first until "a" fills up.
            _busy_cluster("c", seed + 1, 16, now),
        )
        for k in (1, 2, 3):
            scenario = MultiClusterScenario(clusters=clusters[:k])
            for bound in ("BD_CPAR", "BD_ALL"):
                sched = schedule_ressched_multi(
                    graph, scenario, bound_method=bound
                )
                validate_multi_schedule(sched, scenario)
                for p in sched.placements:
                    h.update(
                        f"{p.task}:{p.cluster}:{p.start!r}:{p.nprocs}:"
                        f"{p.duration!r};".encode()
                    )
    return h.hexdigest()


class TestGoldenDigest:
    def test_placements_digest(self):
        assert _multi_digest() == MULTI_GOLDEN
