"""Tests for the RESSCHEDDL backward schedulers (repro.core.deadline)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.calendar import Reservation, ResourceCalendar
from repro.core import (
    DEADLINE_ALGORITHMS,
    ProblemContext,
    ResSchedAlgorithm,
    schedule_deadline,
    schedule_ressched,
    tightest_deadline,
)
from repro.dag import DagGenParams, random_task_graph
from repro.errors import GenerationError
from repro.rng import make_rng
from repro.schedule import validate_schedule
from repro.workloads.reservations import ReservationScenario

ALG_NAMES = tuple(DEADLINE_ALGORITHMS)


def _scenario(capacity=16, hist=None, now=0.0, reservations=()):
    return ReservationScenario(
        name="test",
        capacity=capacity,
        now=now,
        reservations=tuple(reservations),
        hist_avg_available=float(hist if hist is not None else capacity),
    )


@pytest.fixture
def loose_deadline(medium_graph, osc_scenario):
    """A comfortably loose absolute deadline for the shared instance."""
    base = schedule_ressched(medium_graph, osc_scenario)
    return osc_scenario.now + 2.5 * base.turnaround


class TestRegistry:
    def test_paper_algorithms_present(self):
        assert set(ALG_NAMES) == {
            "DL_BD_ALL",
            "DL_BD_CPA",
            "DL_BD_CPAR",
            "DL_RC_CPA",
            "DL_RC_CPAR",
            "DL_RC_CPAR-lambda",
            "DL_RCBD_CPAR-lambda",
        }

    def test_unknown_algorithm_rejected(self, medium_graph, osc_scenario):
        with pytest.raises(GenerationError, match="unknown deadline"):
            schedule_deadline(medium_graph, osc_scenario, 1e9, "DL_NOPE")


class TestFeasibleSchedules:
    @pytest.mark.parametrize("alg", ALG_NAMES)
    def test_valid_and_meets_deadline(
        self, medium_graph, osc_scenario, loose_deadline, alg
    ):
        res = schedule_deadline(
            medium_graph, osc_scenario, loose_deadline, alg
        )
        if not res.feasible:
            # RC variants may legitimately fail when caught in a bind;
            # aggressive ones must succeed at a loose deadline.
            assert alg.startswith("DL_RC")
            assert res.schedule is None
            return
        validate_schedule(
            res.schedule,
            osc_scenario.capacity,
            osc_scenario.reservations,
            deadline=loose_deadline,
        )
        assert res.algorithm == alg
        assert np.isfinite(res.cpu_hours)

    def test_infeasible_before_now(self, medium_graph, osc_scenario):
        res = schedule_deadline(
            medium_graph, osc_scenario, osc_scenario.now - 1.0, "DL_BD_CPA"
        )
        assert not res.feasible
        assert res.schedule is None
        assert np.isnan(res.cpu_hours)

    def test_impossibly_tight_deadline(self, medium_graph, osc_scenario):
        res = schedule_deadline(
            medium_graph, osc_scenario, osc_scenario.now + 1.0, "DL_BD_ALL"
        )
        assert not res.feasible

    def test_deterministic(self, medium_graph, osc_scenario, loose_deadline):
        a = schedule_deadline(
            medium_graph, osc_scenario, loose_deadline, "DL_BD_CPAR"
        )
        b = schedule_deadline(
            medium_graph, osc_scenario, loose_deadline, "DL_BD_CPAR"
        )
        assert a.schedule.placements == b.schedule.placements


class TestAggressiveBehaviour:
    def test_latest_start_leaning(self, medium_graph):
        """Aggressive schedules cluster near the deadline on an idle
        machine: the exit task finishes exactly at K."""
        sc = _scenario(capacity=16)
        deadline = 1_000_000.0
        res = schedule_deadline(medium_graph, sc, deadline, "DL_BD_ALL")
        assert res.feasible
        assert res.schedule.completion == pytest.approx(deadline)

    def test_bd_all_spends_more_cpu_hours(
        self, medium_graph, osc_scenario, loose_deadline
    ):
        a = schedule_deadline(
            medium_graph, osc_scenario, loose_deadline, "DL_BD_ALL"
        )
        b = schedule_deadline(
            medium_graph, osc_scenario, loose_deadline, "DL_BD_CPAR"
        )
        assert a.feasible and b.feasible
        assert a.cpu_hours > b.cpu_hours

    def test_respects_competing_block(self, medium_graph):
        block = Reservation(40_000.0, 200_000.0, 16)
        sc = _scenario(reservations=[block])
        res = schedule_deadline(medium_graph, sc, 400_000.0, "DL_BD_CPA")
        assert res.feasible
        validate_schedule(res.schedule, 16, [block], deadline=400_000.0)


class TestResourceConservativeBehaviour:
    def test_rc_saves_cpu_hours_at_loose_deadline(
        self, medium_graph, osc_scenario, loose_deadline
    ):
        rc = schedule_deadline(
            medium_graph, osc_scenario, loose_deadline, "DL_RC_CPAR"
        )
        ag = schedule_deadline(
            medium_graph, osc_scenario, loose_deadline, "DL_BD_CPA"
        )
        assert ag.feasible
        if rc.feasible:
            assert rc.cpu_hours <= ag.cpu_hours

    def test_rc_on_idle_machine_matches_cpa_shape(self, medium_graph):
        """With no reservations and a loose deadline, RC schedules early
        (near the CPA guideline), not against the deadline."""
        sc = _scenario(capacity=16)
        deadline = 10_000_000.0
        res = schedule_deadline(medium_graph, sc, deadline, "DL_RC_CPAR")
        assert res.feasible
        # Completion far before the deadline (unlike the aggressive rule).
        assert res.schedule.completion < deadline / 2

    def test_hybrid_lambda_reported(self, medium_graph, osc_scenario, loose_deadline):
        res = schedule_deadline(
            medium_graph, osc_scenario, loose_deadline, "DL_RC_CPAR-lambda"
        )
        if res.feasible:
            assert res.lam is not None
            assert 0.0 <= res.lam <= 1.0

    def test_lam_start_skips_lower_values(self, medium_graph, osc_scenario, loose_deadline):
        res = schedule_deadline(
            medium_graph,
            osc_scenario,
            loose_deadline,
            "DL_RC_CPAR-lambda",
            lam_start=0.5,
        )
        if res.feasible:
            assert res.lam >= 0.5

    def test_hybrid_no_worse_than_rc_feasibility(
        self, medium_graph, osc_scenario
    ):
        """Wherever plain RC succeeds, the λ-hybrid succeeds too (λ=0 is
        its first attempt)."""
        base = schedule_ressched(medium_graph, osc_scenario)
        for factor in (1.2, 1.6, 2.4):
            deadline = osc_scenario.now + factor * base.turnaround
            rc = schedule_deadline(
                medium_graph, osc_scenario, deadline, "DL_RC_CPAR"
            )
            hy = schedule_deadline(
                medium_graph, osc_scenario, deadline, "DL_RC_CPAR-lambda"
            )
            if rc.feasible:
                assert hy.feasible
                assert hy.lam == 0.0
                assert hy.cpu_hours == pytest.approx(rc.cpu_hours)

    def test_hybrid_can_recover_from_binds(self, medium_graph):
        """A near-term availability squeeze defeats λ=0 but not the
        sweep: construct a scenario busy now, free later."""
        reservations = [Reservation(0.0, 80_000.0, 15)]
        sc = _scenario(capacity=16, hist=14.0, reservations=reservations)
        base = schedule_ressched(medium_graph, sc, ResSchedAlgorithm())
        deadline = sc.now + 1.05 * base.turnaround
        hy = schedule_deadline(
            medium_graph, sc, deadline, "DL_RC_CPAR-lambda"
        )
        rc = schedule_deadline(medium_graph, sc, deadline, "DL_RC_CPAR")
        # The hybrid dominates plain RC on feasibility by construction.
        if rc.feasible:
            assert hy.feasible
        if hy.feasible and hy.lam is not None and not rc.feasible:
            assert hy.lam > 0.0


class TestDeadlineProperties:
    @given(
        seed=st.integers(0, 200),
        alg=st.sampled_from(ALG_NAMES),
        factor=st.floats(1.05, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_feasible_results_always_validate(self, seed, alg, factor):
        rng = make_rng(seed)
        graph = random_task_graph(DagGenParams(n=10), rng)
        capacity = int(rng.integers(4, 32))
        cal = ResourceCalendar(capacity)
        reservations = []
        for _ in range(rng.integers(0, 6)):
            start = float(rng.uniform(0, 100_000))
            dur = float(rng.uniform(1_000, 50_000))
            procs = int(rng.integers(1, capacity + 1))
            if cal.min_available(start, start + dur) >= procs:
                reservations.append(cal.reserve(start, dur, procs))
        sc = _scenario(
            capacity=capacity,
            hist=float(rng.uniform(1, capacity)),
            reservations=reservations,
        )
        base = schedule_ressched(graph, sc)
        deadline = sc.now + factor * base.turnaround
        res = schedule_deadline(graph, sc, deadline, alg)
        if res.feasible:
            validate_schedule(
                res.schedule, capacity, reservations, deadline=deadline
            )

    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_aggressive_feasibility_monotone_in_deadline(self, seed):
        """If DL_BD_CPA meets K it meets every K' > K (spot-checked)."""
        rng = make_rng(seed)
        graph = random_task_graph(DagGenParams(n=8), rng)
        sc = _scenario(capacity=8, hist=6.0)
        base = schedule_ressched(graph, sc)
        k = sc.now + 1.1 * base.turnaround
        first = schedule_deadline(graph, sc, k, "DL_BD_CPA")
        if first.feasible:
            for factor in (1.5, 2.0, 4.0):
                later = schedule_deadline(
                    graph, sc, k * factor, "DL_BD_CPA"
                )
                assert later.feasible


class TestDeadlineValidation:
    @pytest.mark.parametrize("alg", ALG_NAMES)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_deadline_rejected(
        self, medium_graph, osc_scenario, alg, bad
    ):
        with pytest.raises(GenerationError, match=f"got {bad!r}"):
            schedule_deadline(medium_graph, osc_scenario, bad, alg)


def _instances():
    """A few (graph, scenario, deadline) triples: a loose and a tight
    deadline on a busy platform, and a λ-sweeping hybrid's range."""
    out = []
    for seed in (3, 8):
        rng = make_rng(seed)
        graph = random_task_graph(DagGenParams(n=12), rng)
        capacity = 16
        cal = ResourceCalendar(capacity)
        reservations = []
        for _ in range(25):
            start = float(np.round(rng.uniform(0, 40_000)))
            dur = float(np.round(rng.uniform(600, 6_000)))
            procs = int(rng.integers(1, capacity + 1))
            if cal.min_available(start, start + dur) >= procs:
                reservations.append(cal.reserve(start, dur, procs))
        sc = _scenario(capacity=capacity, hist=10.0, reservations=reservations)
        base = schedule_ressched(graph, sc)
        for factor in (1.05, 2.0):
            out.append((graph, sc, sc.now + factor * base.turnaround))
    return out


class TestBackwardKernels:
    @pytest.mark.parametrize("alg", ALG_NAMES)
    def test_obs_on_equals_obs_off(self, alg, monkeypatch):
        resolved = [0]

        def tallying(kernel):
            def wrapper(self, *args, probed=None, **kwargs):
                mine: list = []
                found = kernel(self, *args, probed=mine, **kwargs)
                resolved[0] += sum(p[3] for p in mine)
                if probed is not None:
                    probed.extend(mine)
                return found

            return wrapper

        for graph, sc, deadline in _instances():
            plain = schedule_deadline(graph, sc, deadline, alg)
            for name in ("fewest_placement", "latest_placement"):
                monkeypatch.setattr(
                    ResourceCalendar, name,
                    tallying(getattr(ResourceCalendar, name)),
                )
            resolved[0] = 0
            with obs.instrumented() as col:
                traced = schedule_deadline(graph, sc, deadline, alg)
            monkeypatch.undo()
            assert traced.feasible == plain.feasible
            assert traced.lam == plain.lam
            assert traced.schedule == plain.schedule
            # The counter holds exactly the starts the kernels resolved.
            assert col.counters.get("deadline.placement_probes", 0) == resolved[0]
            assert resolved[0] > 0

    @pytest.mark.parametrize("alg", ALG_NAMES)
    def test_records_name_the_chosen_count_once(self, alg):
        for graph, sc, deadline in _instances():
            with obs.instrumented():
                res = schedule_deadline(graph, sc, deadline, alg)
            if not res.feasible:
                continue
            for rec in res.schedule.provenance:
                placement = res.schedule.placements[rec["task"]]
                chosen = [c for c in rec["candidates"] if c["reason"] == "chosen"]
                assert len(chosen) == 1
                assert chosen[0]["m"] == placement.nprocs
                assert chosen[0]["start"] == placement.start
                for c in rec["candidates"] + rec.get("rc_candidates", []):
                    if c["reason"] != "pruned_bound":
                        continue
                    if rec["rule"] == "rc_window" or c in rec.get(
                        "rc_candidates", []
                    ):
                        # A finish bound that already missed the deadline.
                        assert "start" not in c
                        assert c["finish"] > rec["deadline"]
                    else:
                        # A start bound that cannot beat the chosen start.
                        assert "finish" not in c
                        assert c["start"] <= placement.start

    def test_one_calendar_build_per_context(
        self, medium_graph, osc_scenario, monkeypatch
    ):
        builds = []
        init = ResourceCalendar.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ResourceCalendar, "__init__", counting)
        ctx = ProblemContext(medium_graph, osc_scenario)
        assert builds == []  # compiled on the first backward pass
        for alg in ("DL_BD_CPA", "DL_RC_CPAR", "DL_RCBD_CPAR-lambda"):
            td = tightest_deadline(medium_graph, osc_scenario, alg, context=ctx)
            assert td.evaluations > 1
        assert builds == [1]
        # Every pass booked into its own copy: the base is untouched.
        assert len(ctx.base_calendar) == len(osc_scenario.reservations)
