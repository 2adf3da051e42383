"""Equivalence tests for the incremental / vectorized hot paths.

The optimization pass (incremental profile splices, 2-D placement
sweeps, incremental CPA levels, parallel table drivers) is only
admissible because every fast path is *bit-identical* to the
straightforward computation it replaces.  This file is that contract:

* ``earliest_starts_multi`` / ``latest_starts_multi`` agree with their
  scalar counterparts for **every** processor count (property-based).
* ``StepFunction.with_interval_delta`` equals an event-list rebuild, and
  incremental calendar commits equal full recompiles.
* The CPA level refresh matches full recomputes through arbitrary
  sequences of up/down weight changes.
* ``cpa_allocation`` equals the seed's full-recompute loop bit for bit
  (Hypothesis), including gain-0 exits, exact gain ties and the
  end-to-end benchmark's DAG pool.
* The parallel table drivers return bitwise-identical tables at any
  worker count.
* The bench harness's seed baseline is self-checking and reversible.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import repro.calendar.calendar as calmod
import repro.cpa.allocation as allocmod
from repro.bench import _seed_cpa_allocation, bench_calendar_commit, seed_baseline
from repro.calendar import Reservation, ResourceCalendar, StepFunction
from repro.cli import build_parser
from repro.cpa.allocation import _Levels, cpa_allocation
from repro.dag import DagGenParams, Task, TaskGraph, random_task_graph
from repro.dag.graph import chain_graph, fork_join_graph
from repro.errors import CalendarError, GenerationError
from repro.experiments.parallel import run_sweep
from repro.experiments.scenarios import ExperimentScale, table1_app_scenarios
from repro.experiments.table4 import format_table4, run_table4
from repro.model import AmdahlModel, DowneyModel
from repro.rng import derive_rng, make_rng

# ----------------------------------------------------------------------
# Shared strategies
# ----------------------------------------------------------------------

CAPACITY = 12

#: A busy-but-feasible calendar: clamped, so any reservation mix is legal
#: and the availability profile still never goes negative.
reservation_lists = st.lists(
    st.tuples(
        st.integers(0, 200),          # start
        st.integers(1, 40),           # duration
        st.integers(1, CAPACITY),     # nprocs
    ),
    min_size=0,
    max_size=25,
)


def _calendar(spec) -> ResourceCalendar:
    cal = ResourceCalendar(CAPACITY, clamp=True)
    for start, dur, nprocs in spec:
        cal.add(Reservation(float(start), float(start + dur), nprocs))
    return cal


durations_vec = st.lists(
    st.integers(1, 60), min_size=CAPACITY, max_size=CAPACITY
).map(lambda xs: np.asarray(xs, dtype=float))


# ----------------------------------------------------------------------
# Scalar vs multi placement queries
# ----------------------------------------------------------------------


class TestScalarMultiEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(spec=reservation_lists, earliest=st.integers(-10, 250), d=durations_vec)
    def test_earliest_starts_multi_matches_scalar(self, spec, earliest, d):
        cal = _calendar(spec)
        multi = cal.earliest_starts_multi(float(earliest), d)
        for m in range(1, CAPACITY + 1):
            scalar = cal.earliest_start(float(earliest), float(d[m - 1]), m)
            assert multi[m - 1] == scalar, f"count {m} diverges"

    @settings(max_examples=150, deadline=None)
    @given(
        spec=reservation_lists,
        finish=st.integers(0, 300),
        d=durations_vec,
        earliest=st.integers(-50, 250) | st.none(),
    )
    def test_latest_starts_multi_matches_scalar(self, spec, finish, d, earliest):
        cal = _calendar(spec)
        lo = -np.inf if earliest is None else float(earliest)
        multi = cal.latest_starts_multi(float(finish), d, earliest=lo)
        for m in range(1, CAPACITY + 1):
            scalar = cal.latest_start(float(finish), float(d[m - 1]), m, earliest=lo)
            if scalar is None:
                assert np.isnan(multi[m - 1]), f"count {m}: multi found a start"
            else:
                assert multi[m - 1] == scalar, f"count {m} diverges"


# ----------------------------------------------------------------------
# Incremental profile maintenance
# ----------------------------------------------------------------------


class TestIncrementalProfile:
    @settings(max_examples=300, deadline=None)
    @given(
        spec=reservation_lists,
        data=st.data(),
        delta=st.integers(-6, 6).filter(lambda x: x != 0),
    )
    def test_with_interval_delta_equals_rebuild(self, spec, data, delta):
        base_events = [(float(s), -float(n)) for s, d, n in spec] + [
            (float(s + d), float(n)) for s, d, n in spec
        ]
        prof = StepFunction.from_deltas(base_events, base=CAPACITY)
        # Whole, fractional, or on an existing breakpoint (where the
        # delta may cancel the jump and drop the breakpoint).
        bound = st.one_of(
            st.integers(-20, 260).map(float),
            st.floats(-20.0, 260.0, allow_nan=False),
            st.sampled_from(prof.times.tolist() or [0.0]),
        )
        a, b = data.draw(bound), data.draw(bound)
        assume(a != b)
        start, end = min(a, b), max(a, b)
        spliced = prof.with_interval_delta(start, end, float(delta))
        rebuilt = StepFunction.from_deltas(
            base_events + [(start, float(delta)), (end, -float(delta))],
            base=CAPACITY,
        )
        assert spliced == rebuilt
        # Bitwise, not just value-wise.
        assert spliced.times.tobytes() == rebuilt.times.tobytes()
        assert spliced.values.tobytes() == rebuilt.values.tobytes()

    def test_with_interval_delta_zero_is_identity(self):
        prof = StepFunction.from_deltas([(1.0, -2.0), (3.0, 2.0)], base=8.0)
        assert prof.with_interval_delta(0.0, 5.0, 0.0) is prof

    def test_with_interval_delta_rejects_bad_interval(self):
        prof = StepFunction.constant(4.0)
        with pytest.raises(ValueError):
            prof.with_interval_delta(3.0, 3.0, -1.0)
        with pytest.raises(ValueError):
            prof.with_interval_delta(0.0, np.inf, -1.0)

    @settings(max_examples=100, deadline=None)
    @given(spec=reservation_lists)
    def test_incremental_commits_equal_full_recompile(self, spec):
        # The constructor compiles the profile, so every add splices; a
        # freshly built calendar is the full-recompile reference.
        inc = ResourceCalendar(CAPACITY, clamp=True)
        for start, dur, nprocs in spec:
            inc.add(Reservation(float(start), float(start + dur), nprocs))
            full = ResourceCalendar(CAPACITY, inc.reservations, clamp=True)
            assert inc.availability() == full.availability()


# ----------------------------------------------------------------------
# CPA level refresh
# ----------------------------------------------------------------------


class TestIncrementalLevels:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_update_levels_matches_full_recompute(self, seed):
        rng = make_rng(seed)
        graph = random_task_graph(DagGenParams(n=60), rng)
        levels = _Levels(graph, list(rng.uniform(0.5, 100.0, size=graph.n)))
        w = levels.w
        for _ in range(120):
            i = int(rng.integers(0, graph.n))
            # Alternate growth and shrinkage: CPA only shrinks times,
            # but the refresh must not depend on the direction.
            w[i] = float(w[i] * rng.choice([0.3, 0.9, 1.2, 4.0]))
            levels.refresh(i)
            assert levels.bl == graph.bottom_levels(w).tolist()
            assert levels.tl == graph.top_levels(w).tolist()

    def test_update_on_unchanged_weight_is_noop(self):
        graph = random_task_graph(DagGenParams(n=20), make_rng(7))
        levels = _Levels(graph, [1.0] * graph.n)
        before = (list(levels.bl), list(levels.tl))
        levels.refresh(0)
        assert (levels.bl, levels.tl) == before


# ----------------------------------------------------------------------
# CPA allocation loop vs the seed loop
# ----------------------------------------------------------------------


def _bits(result):
    """Every field of a CpaAllocation, floats as their exact bits."""
    return (
        result.allocations,
        tuple(t.hex() for t in result.exec_times),
        result.critical_path.hex(),
        result.area.hex(),
        result.iterations,
        result.q,
    )


def _assert_matches_seed(graph, q, stopping, max_iterations=None):
    live = cpa_allocation(
        graph, q, stopping=stopping, max_iterations=max_iterations, memoize=False
    )
    assert _bits(live) == _bits(
        _seed_cpa_allocation(graph, q, stopping, max_iterations)
    )
    return live


#: Speedup models for the random DAGs: Amdahl up to alpha = 1 (no
#: speedup, gain 0) and Downey curves that plateau at their average
#: parallelism (gain 0 from there on).
_models = st.one_of(
    st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]).map(AmdahlModel),
    st.builds(
        DowneyModel,
        avg_parallelism=st.sampled_from([1.0, 2.0, 3.5, 8.0]),
        sigma=st.sampled_from([0.0, 0.5, 2.0]),
    ),
)


@st.composite
def _dags(draw):
    """Random DAGs with several sources and sinks; tasks are drawn from a
    few kinds, so identical tasks tie exactly on gain."""
    kinds = draw(
        st.lists(
            st.tuples(st.sampled_from([60.0, 600.0, 1800.0, 7200.0]), _models),
            min_size=1,
            max_size=4,
        )
    )
    n = draw(st.integers(1, 12))
    picks = draw(st.lists(st.integers(0, len(kinds) - 1), min_size=n, max_size=n))
    tasks = [
        Task(name=f"t{i}", seq_time=kinds[k][0], model=kinds[k][1])
        for i, k in enumerate(picks)
    ]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return TaskGraph(tasks, edges)


#: Fixed inputs for the differential test.  A chain of alpha = 1 tasks
#: gains nothing from any processor, and Downey tasks with A = 2,
#: sigma = 0 stop gaining at m = 2: both leave the loop through the
#: no-positive-gain exit.  The identical branches of the fork-join tie
#: exactly on every gain and level, so the lowest index must grow first,
#: as np.argmax picks.
_FLAT_CHAIN = chain_graph([Task(f"t{i}", 600.0, AmdahlModel(1.0)) for i in range(4)])
_PLATEAU_CHAIN = chain_graph(
    [Task(f"t{i}", 600.0, DowneyModel(2.0, 0.0)) for i in range(4)]
)
_TIED_FORK = fork_join_graph(
    Task("in", 60.0, AmdahlModel(0.1)),
    [Task(f"b{i}", 3600.0, AmdahlModel(0.1)) for i in range(4)],
    Task("out", 60.0, AmdahlModel(0.1)),
)


class TestCpaIncremental:
    @pytest.mark.parametrize("seed", [0, 11, 23])
    @pytest.mark.parametrize("q", [4, 32])
    @pytest.mark.parametrize("stopping", ["classic", "stringent"])
    def test_incremental_matches_full(self, seed, q, stopping):
        graph = random_task_graph(DagGenParams(n=40), make_rng(seed))
        _assert_matches_seed(graph, q, stopping)

    @settings(max_examples=200, deadline=None)
    @given(
        graph=_dags(),
        q=st.integers(1, 256),
        stopping=st.sampled_from(["classic", "stringent"]),
        cut=st.floats(0.0, 1.0, exclude_max=True),
    )
    @example(graph=_FLAT_CHAIN, q=16, stopping="classic", cut=0.0)
    @example(graph=_PLATEAU_CHAIN, q=64, stopping="stringent", cut=0.5)
    @example(graph=_TIED_FORK, q=16, stopping="classic", cut=0.3)
    def test_matches_seed_loop(self, graph, q, stopping, cut):
        # Also stopped by max_iterations, below the natural stop.
        natural = _assert_matches_seed(graph, q, stopping)
        if natural.iterations:
            _assert_matches_seed(graph, q, stopping, int(cut * natural.iterations))

    @pytest.mark.parametrize("q", [213, 224])
    def test_benchmark_pool_shape(self, q):
        # Table-1 n=10 / n=25 applications with tasks of at most 30
        # minutes: the recurring DAG pool of the end-to-end benchmark.
        shapes = {a.name: a.params for a in table1_app_scenarios()}
        for shape in ("n=10", "n=25"):
            for k in range(4):
                graph = random_task_graph(
                    replace(shapes[shape], max_seq_time=1800.0),
                    derive_rng(2008, "e2ebench", "dag", shape, k),
                )
                _assert_matches_seed(graph, q, "stringent")


# ----------------------------------------------------------------------
# Parallel experiment drivers
# ----------------------------------------------------------------------

_TINY_SCALE = ExperimentScale(
    logs=("OSC_Cluster",),
    phis=(0.2,),
    methods=("expo",),
    app_scenarios=1,
    dag_instances=2,
    start_times=1,
    taggings=1,
)


class TestParallelDeterminism:
    def test_table4_identical_at_any_worker_count(self):
        serial = run_table4(_TINY_SCALE)
        from dataclasses import replace

        par = run_table4(replace(_TINY_SCALE, n_workers=2))
        assert format_table4(serial) == format_table4(par)

    def test_run_sweep_rejects_bad_worker_count(self):
        with pytest.raises(GenerationError):
            run_sweep(len, iter, ((),), n_workers=0)

    def test_scale_rejects_bad_worker_count(self):
        with pytest.raises(GenerationError):
            ExperimentScale(n_workers=0)


# ----------------------------------------------------------------------
# Bench harness
# ----------------------------------------------------------------------


class TestBenchHarness:
    def test_calendar_commit_bench_self_checks(self):
        # The bench asserts profile equality between paths internally.
        entry = bench_calendar_commit(n_res=40, repeats=1)
        assert entry["speedup"] > 0
        assert entry["seed_s"] > 0 and entry["incremental_s"] > 0

    def test_seed_baseline_restores_everything(self):
        flags = (calmod.VALIDATE_COMMITS, allocmod.MEMOIZE_ALLOCATIONS)
        methods = (
            TaskGraph.bottom_levels,
            ResourceCalendar.earliest_starts_multi,
            ResourceCalendar.add,
            ResourceCalendar.reserve_known_feasible,
        )
        loop = allocmod._cpa_allocation
        with seed_baseline():
            assert allocmod._cpa_allocation is _seed_cpa_allocation
            assert allocmod.MEMOIZE_ALLOCATIONS is False
            assert TaskGraph.bottom_levels is not methods[0]
            assert ResourceCalendar.add is not methods[2]
            assert ResourceCalendar.reserve_known_feasible is not methods[3]
            # The seed commits recompile the whole profile: a strict
            # known-feasible commit that overflows now raises.
            cal = ResourceCalendar(4)
            cal.reserve_known_feasible(0.0, 10.0, 3)
            with pytest.raises(CalendarError):
                cal.reserve_known_feasible(5.0, 10.0, 2)
            assert len(cal) == 1
        assert flags == (calmod.VALIDATE_COMMITS, allocmod.MEMOIZE_ALLOCATIONS)
        assert allocmod._cpa_allocation is loop
        assert TaskGraph.bottom_levels is methods[0]
        assert ResourceCalendar.earliest_starts_multi is methods[1]
        assert ResourceCalendar.add is methods[2]
        assert ResourceCalendar.reserve_known_feasible is methods[3]

    def test_seed_baseline_produces_identical_schedules(self):
        with seed_baseline():
            seed_run = run_table4(_TINY_SCALE)
        assert format_table4(seed_run) == format_table4(run_table4(_TINY_SCALE))

    def test_cli_has_bench_subcommand(self):
        args = build_parser().parse_args(["bench", "--quick"])
        assert args.quick is True
        assert args.out.name == "BENCH_hotpath.json"
