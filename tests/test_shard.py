"""Tests for the sharded calendar engine (repro.shard).

Covers the partitioning/water-filling invariants, the deterministic
probe fan-out/reduce, the two-phase cross-shard commit protocol, the
K = 1 bitwise reduction of the faulted service to the unsharded one
(``test_engine_digests`` pins the fault-free stream's), whole-shard downtime faults forcing cross-shard repair, resume of a
sharded service over its journal, and the refusal of probe workers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.calendar import Reservation, ResourceCalendar
from repro.dag import DagGenParams, random_task_graph
from repro.errors import CalendarError, ServiceError, ShardCommitError
from repro.experiments.stream import StreamRequest
from repro.obs import core as obs_core
from repro.resilience.faults import FaultModel
from repro.rng import make_rng
from repro.service import ReservationService, ServiceConfig
from repro.shard import ShardedCalendar, shard_capacities
from repro.workloads.reservations import ReservationScenario


def _reservations(n=20, seed=5, capacity=32, horizon=30_000.0):
    rng = make_rng(seed)
    out = []
    for i in range(n):
        start = float(rng.uniform(0.0, horizon))
        dur = float(rng.uniform(300.0, 4_000.0))
        out.append(
            Reservation(
                start=start,
                end=start + dur,
                nprocs=int(rng.integers(1, max(2, capacity // 4))),
                label=f"r{i}",
            )
        )
    return tuple(out)


def _scenario(capacity=32, n_res=6, seed=5):
    return ReservationScenario(
        name="shard-test",
        capacity=capacity,
        now=0.0,
        reservations=_reservations(n=n_res, seed=seed, capacity=4),
        hist_avg_available=capacity / 2,
    )


def _requests(n=8, spacing=900.0, n_shapes=3, n_tasks=5):
    graphs = [
        random_task_graph(DagGenParams(n=n_tasks), make_rng(100 + i))
        for i in range(n_shapes)
    ]
    return [
        StreamRequest(
            request_id=f"q{k}",
            arrival_offset=k * spacing,
            graph=graphs[k % n_shapes],
        )
        for k in range(n)
    ]


def _profile_equal(a, b, lo=0.0, hi=60_000.0):
    """Two availability profiles agree at every breakpoint of either."""
    cuts = sorted(
        {lo, hi}
        | {float(t) for t in a.times if lo < t < hi}
        | {float(t) for t in b.times if lo < t < hi}
    )
    return all(
        a.min_over(x, y) == b.min_over(x, y)
        for x, y in zip(cuts[:-1], cuts[1:])
    )


#: Downtime-dominated model: each fault requests ~the whole platform,
#: which the sharded path clips to one shard — a whole-shard outage.
DOWNTIME = FaultModel(
    downtimes_per_day=400.0,
    downtime_procs=(0.9, 1.0),
    downtime_duration=(4 * 3600.0, 8 * 3600.0),
)


class TestPartition:
    def test_capacities_split_near_even_and_sum(self):
        assert shard_capacities(32, 4) == (8, 8, 8, 8)
        assert shard_capacities(10, 4) == (3, 3, 2, 2)
        assert sum(shard_capacities(67, 8)) == 67

    def test_capacity_smaller_than_shards_rejected(self):
        with pytest.raises(CalendarError, match="non-empty"):
            shard_capacities(3, 4)

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_water_filling_conserves_availability(self, n_shards):
        res = _reservations(n=25)
        sharded = ShardedCalendar.partition(32, res, n_shards=n_shards)
        unsharded = ResourceCalendar(32, res)
        assert _profile_equal(sharded.availability(), unsharded.availability())
        assert sharded.capacity == 32
        assert len(sharded) >= len(res)

    def test_availability_follows_every_mutation(self):
        sharded = ShardedCalendar.partition(8, (), n_shards=2)
        assert sharded.availability()(50.0) == 8
        r = Reservation(start=0.0, end=100.0, nprocs=6, label="a")
        sharded.add(r)
        assert sharded.availability()(50.0) == 2
        assert sharded.min_available(0.0, 200.0) == 2
        sharded.remove(r)
        assert sharded.availability()(50.0) == 8

    def test_min_available_names_an_empty_window(self):
        sharded = ShardedCalendar.partition(
            4, [Reservation(0.0, 10.0, 2)], n_shards=2
        )
        with pytest.raises(CalendarError, match=r"\[5\.0, 5\.0\)"):
            sharded.min_available(5.0, 5.0)

    def test_commit_names_an_empty_window(self):
        # 1e20 + 1.0 rounds back to 1e20: the routing loop must not
        # reach min_over with an empty window.
        sharded = ShardedCalendar.partition(4, [], n_shards=2)
        with pytest.raises(CalendarError, match=r"\[1e\+20, 1e\+20\)"):
            sharded.reserve_known_feasible(1e20, 1.0, 1)
        assert sharded.reservations == ()

    def test_overflow_raises_and_mutates_nothing(self):
        sharded = ShardedCalendar.partition(8, (), n_shards=4)
        sharded.add(Reservation(start=0.0, end=100.0, nprocs=6, label="a"))
        before = sharded.reservations
        with pytest.raises(CalendarError, match="exceeds"):
            sharded.add(Reservation(start=50.0, end=150.0, nprocs=3, label="b"))
        assert sharded.reservations == before

    def test_split_reservation_removes_whole(self):
        sharded = ShardedCalendar.partition(8, (), n_shards=4)
        r = Reservation(start=0.0, end=100.0, nprocs=6, label="wide")
        sharded.add(r)
        assert sharded.shard_of(r) is None  # split across shards
        sharded.remove(r)
        assert len(sharded) == 0
        with pytest.raises(CalendarError, match="not booked"):
            sharded.remove(r)


class TestProbeReduce:
    def _batch(self, seed=9, n=6, m=12):
        rng = make_rng(seed)
        return [
            (
                float(rng.uniform(0.0, 20_000.0)),
                np.asarray(rng.uniform(100.0, 5_000.0, size=m)),
            )
            for _ in range(n)
        ]

    def test_k1_batch_is_bitwise_unsharded(self):
        res = _reservations()
        sharded = ShardedCalendar.partition(32, res, n_shards=1)
        unsharded = ResourceCalendar(32, res)
        batch = self._batch()
        for a, b in zip(
            sharded.earliest_starts_batch(batch),
            unsharded.earliest_starts_batch(batch),
        ):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_reduce_is_elementwise_min_over_shards(self, n_shards):
        sharded = ShardedCalendar.partition(
            32, _reservations(), n_shards=n_shards
        )
        batch = self._batch(m=32)
        answers = sharded.earliest_starts_batch(batch)
        for (e, d), got in zip(batch, answers):
            legs = []
            for s in sharded.shards:
                cap = s.capacity
                starts = np.full(len(d), np.inf)
                starts[:cap] = s.earliest_starts_multi(e, d[:cap])
                legs.append(starts)
            assert np.array_equal(got, np.minimum.reduce(legs))

    def test_scalar_earliest_start_matches_min_over_shards(self):
        sharded = ShardedCalendar.partition(32, _reservations(), n_shards=4)
        expect = min(
            s.earliest_start(1_000.0, 800.0, 2) for s in sharded.shards
        )
        assert sharded.earliest_start(1_000.0, 800.0, 2) == expect

    def test_oversized_probe_rejected_platformwide(self):
        sharded = ShardedCalendar.partition(8, (), n_shards=4)
        with pytest.raises(CalendarError, match="capacity"):
            sharded.earliest_starts_batch([(0.0, np.ones(9) * 100.0)])


class TestTwoPhaseCommit:
    def test_commit_swaps_touched_legs_only(self):
        base = ShardedCalendar.partition(32, (), n_shards=4)
        staged = base.copy()
        staged.reserve_in(2, 0.0, 100.0, 3, label="staged")
        # Concurrent progress on an *untouched* shard must survive.
        base.reserve_in(0, 0.0, 100.0, 2, label="concurrent")
        base.commit(staged)
        labels = sorted(r.label for r in base.reservations)
        assert labels == ["concurrent", "staged"]

    def test_stale_touched_shard_aborts_with_names(self):
        base = ShardedCalendar.partition(32, (), n_shards=4)
        staged = base.copy()
        staged.reserve_in(1, 0.0, 100.0, 2, label="staged")
        base.reserve_in(1, 0.0, 100.0, 2, label="conflict")
        with pytest.raises(ShardCommitError) as exc:
            base.commit(staged)
        assert exc.value.stale_shards == (1,)
        # The abort left the base untouched by the staged leg.
        assert [r.label for r in base.reservations] == ["conflict"]

    def test_foreign_staged_copy_rejected(self):
        base = ShardedCalendar.partition(32, (), n_shards=4)
        other = ShardedCalendar.partition(32, (), n_shards=4)
        with pytest.raises(CalendarError, match="not copied"):
            base.commit(other.copy())

    @settings(max_examples=25, deadline=None)
    @given(
        n_shards=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(0, 2**16),
        n_ops=st.integers(1, 6),
    )
    def test_abort_retry_is_deterministic(self, n_shards, seed, n_ops):
        """Random conflicting interleavings: a staged copy either
        commits or aborts with ShardCommitError, a fresh retry always
        lands, and the whole dance replays bitwise."""

        def run():
            rng = make_rng(seed)
            base = ShardedCalendar.partition(16, (), n_shards=n_shards)
            aborted = 0
            for i in range(n_ops):
                staged = base.copy()
                t = float(rng.uniform(0.0, 10_000.0))
                staged.reserve_known_feasible(t, 500.0, 1, label=f"s{i}")
                if rng.uniform() < 0.5:
                    # Concurrent write racing the staged commit.
                    base.reserve_known_feasible(
                        float(rng.uniform(0.0, 10_000.0)),
                        500.0,
                        1,
                        label=f"c{i}",
                    )
                try:
                    base.commit(staged)
                except ShardCommitError:
                    aborted += 1
                    retry = base.copy()
                    retry.reserve_known_feasible(t, 500.0, 1, label=f"s{i}")
                    base.commit(retry)  # nothing raced: must land
            booked = tuple(
                sorted(
                    (r.start, r.end, r.nprocs, r.label)
                    for r in base.reservations
                )
            )
            return booked, base.generations, aborted

        first, second = run(), run()
        assert first == second
        booked, _, aborted = first
        assert len(booked) >= n_ops  # every staged op eventually landed
        if n_shards == 1:
            # One shard: every concurrent write conflicts by definition.
            assert aborted == sum(1 for s, e, n, lbl in booked
                                  if lbl.startswith("c"))


class TestK1Reduction:
    def test_faulted_service_digest_matches_unsharded(self):
        model = FaultModel.from_rate(150.0)
        plain = ReservationService(
            _scenario(), fault_model=model, seed=3
        ).run(_requests())
        k1 = ReservationService(
            _scenario(), fault_model=model, seed=3, shards=1
        ).run(_requests())
        assert k1.digest() == plain.digest()
        assert plain.revocations > 0  # the faults actually bit


class TestShardedService:
    def test_whole_shard_downtime_forces_cross_shard_repair(self):
        obs_core.enable()
        try:
            with obs.collecting() as col:
                svc = ReservationService(
                    _scenario(), fault_model=DOWNTIME, seed=3, shards=4
                )
                report = svc.run(_requests())
        finally:
            obs_core.disable()
        assert report.revocations > 0
        assert report.rebooked >= report.revocations
        # Repairs migrated off the faulted shard through the facade
        # reduce — the rebalance counter saw them.
        assert col.counters["shard.rebalances"] > 0
        assert col.counters["shard.commits"] > 0

    def test_sharded_faulted_run_is_deterministic(self):
        def run():
            svc = ReservationService(
                _scenario(), fault_model=DOWNTIME, seed=3, shards=4
            )
            return svc.run(_requests()).digest()

        assert run() == run()

    def test_all_requests_complete_despite_outages(self):
        report = ReservationService(
            _scenario(), fault_model=DOWNTIME, seed=3, shards=4
        ).run(_requests())
        assert report.n_admitted == len(_requests())


#: Cancel-heavy model: most faults withdraw competing reservations.
CANCEL_HEAVY = FaultModel(
    arrivals_per_day=40.0, cancels_per_day=200.0, downtimes_per_day=40.0
)

#: Fault setups for the resume test: model, competing reservations and
#: request spacing (seconds).
RESUME_SETUPS = {
    "faulted": (FaultModel.from_rate(150.0), 6, 900.0),
    "downtime": (DOWNTIME, 6, 900.0),
    "cancel-heavy": (CANCEL_HEAVY, 40, 600.0),
}


class TestShardedResume:
    @pytest.mark.parametrize("latency", [0.0, 1800.0])
    @pytest.mark.parametrize("setup", sorted(RESUME_SETUPS))
    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_resume_is_bitwise_identical(
        self, tmp_path, n_shards, setup, latency
    ):
        """A sharded service killed and resumed over its journal equals
        the uninterrupted run: every placement is re-committed into the
        shard that hosted it."""
        model, n_res, spacing = RESUME_SETUPS[setup]
        config = ServiceConfig(
            commit_latency=latency, retry_backoff_base=30.0
        )
        reqs = _requests(12, spacing=spacing)

        def service(journal=None):
            return ReservationService(
                _scenario(n_res=n_res),
                config=config,
                fault_model=model,
                seed=3,
                journal_path=journal,
                shards=n_shards,
            )

        uninterrupted = service().run(reqs)
        for stop in (4, 8):
            journal = str(tmp_path / f"stop{stop}.jsonl")
            service(journal).run(reqs, stop_after=stop)
            resumed = service(journal).run(reqs)
            assert resumed.resumed == stop
            assert resumed.digest() == uninterrupted.digest()
            assert resumed.booked == uninterrupted.booked


    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda shards: None, "no hosting shards"),
            (lambda shards: shards[:-1], "hosting shards for"),
            (lambda shards: [9] * len(shards), "the calendar has 4 shards"),
            (lambda shards: [0] * len(shards), "does not fit"),
        ],
    )
    def test_corrupt_hosting_shards_refused(self, tmp_path, corrupt, match):
        """A journal whose hosting shards disagree with the calendar
        raises a ServiceError instead of over-booking a shard."""
        journal = tmp_path / "svc.jsonl"

        def service():
            return ReservationService(
                _scenario(), journal_path=str(journal), shards=4
            )

        service().run(_requests(12))
        lines = journal.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        for rec in records[1:]:
            shards = corrupt(rec.pop("shards"))
            if shards is not None:
                rec["shards"] = shards
        journal.write_text(
            "".join(json.dumps(rec) + "\n" for rec in records),
            encoding="utf-8",
        )
        with pytest.raises(ServiceError, match=match) as info:
            service().run(_requests(12))
        assert "svc.jsonl: line" in str(info.value)


class TestProbePool:
    def test_service_refuses_probe_workers(self):
        with pytest.raises(ServiceError, match="fan out serially"):
            ReservationService(_scenario(), shards=4, shard_workers=2)
