"""Tests for the one visiting order every list scheduler uses
(:meth:`repro.dag.TaskGraph.priority_order`).

The order is Kahn's algorithm with a ready heap keyed
``(-bottom_level, task id)``: always topological, and equal to the plain
``sorted(range(n), key=(-bl[i], i))`` whenever bottom levels strictly
decrease along every edge.  The regression case is a chain whose
predecessor's time vanishes in float rounding next to its successor's,
so both bottom levels read the same and the plain sort visits the
successor first.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DEADLINE_ALGORITHMS,
    ProblemContext,
    ResSchedAlgorithm,
    build_plan,
    schedule_deadline,
    schedule_ressched,
    schedule_ressched_incremental,
)
from repro.core.bottom_levels import (
    BL_METHODS_EXTENDED,
    bl_exec_times,
    bl_priority_order,
)
from repro.core.opaque import schedule_ressched_opaque
from repro.cpa import cpa_map
from repro.dag import Task, TaskGraph
from repro.multi import MultiClusterScenario, schedule_ressched_multi
from repro.schedule import validate_schedule
from repro.workloads.reservations import ReservationScenario


def _chain() -> TaskGraph:
    """``tiny -> big``: both bottom levels round to 1000.0."""
    return TaskGraph([Task("big", 1000.0), Task("tiny", 1e-20)], [(1, 0)])


def _empty(capacity: int = 16) -> ReservationScenario:
    return ReservationScenario(
        name="empty",
        capacity=capacity,
        now=0.0,
        reservations=(),
        hist_avg_available=float(capacity),
    )


def _signature(schedule):
    return [(p.task, p.start, p.nprocs, p.duration) for p in schedule.placements]


def _precedence_holds(graph, placements) -> bool:
    return all(
        placements[u].start + placements[u].duration <= placements[v].start
        for u, v in graph.edges
    )


class TestVanishingPredecessor:
    EXPECTED = [(0, 6.666666666666666e-22, 16, 62.5), (1, 0.0, 15, 6.666666666666666e-22)]

    def test_bottom_levels_tie(self):
        graph = _chain()
        bl = graph.bottom_levels(np.array([1000.0, 1e-20]))
        assert bl[0] == bl[1]
        assert sorted(range(2), key=lambda i: (-bl[i], i)) == [0, 1]
        assert graph.priority_order(bl) == [1, 0]

    def test_ressched_places_the_predecessor_first(self):
        schedule = schedule_ressched(_chain(), _empty())
        assert _signature(schedule) == self.EXPECTED

    def test_streamed_entry_point_agrees(self):
        graph, scenario = _chain(), _empty()
        algorithm = ResSchedAlgorithm()
        schedule = schedule_ressched_incremental(
            graph,
            algorithm,
            plan=build_plan(ProblemContext(graph, scenario), algorithm),
            calendar=scenario.calendar(),
            now=scenario.now,
        )
        assert _signature(schedule) == self.EXPECTED

    def test_deadline_fails_as_a_domain_error(self):
        # The backward pass visits the chain in reverse topological
        # order.  The aggressive rule books "big" flush against the
        # deadline, where "tiny"'s duration vanishes in the start's
        # rounding: no count has a bookable window, so the verdict is
        # infeasible.  The resource-conservative rules book "tiny" at 0.
        for name in DEADLINE_ALGORITHMS:
            result = schedule_deadline(_chain(), _empty(), 10_000.0, name)
            if name.startswith("DL_BD_"):
                assert not result.feasible, name
                assert result.schedule is None, name
            else:
                assert result.feasible, name
                validate_schedule(result.schedule, 16, deadline=10_000.0)

    def test_multi_cluster_respects_precedence(self):
        graph = _chain()
        scenario = MultiClusterScenario(clusters=(_empty(),))
        schedule = schedule_ressched_multi(graph, scenario)
        assert _precedence_holds(graph, schedule.placements)

    def test_opaque_respects_precedence(self):
        graph = _chain()
        result = schedule_ressched_opaque(graph, _empty())
        assert _precedence_holds(graph, result.schedule.placements)

    def test_cpa_mapping_respects_precedence(self):
        graph = _chain()
        schedule = cpa_map(graph, [1, 1], 16)
        assert _precedence_holds(graph, schedule.placements)


@st.composite
def _dags(draw):
    """Random DAGs whose sequential times come from a small set, so
    tasks with no edge between them often share a bottom level."""
    n = draw(st.integers(1, 14))
    times = draw(
        st.lists(
            st.sampled_from([1.0, 2.0, 3.0, 1e-20]), min_size=n, max_size=n
        )
    )
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    # Relabel so task ids do not follow the topological order.
    perm = draw(st.permutations(range(n)))
    edges = [(perm[u], perm[v]) for (u, v), keep in zip(pairs, mask) if keep]
    tasks = [Task(f"t{i}", times[i]) for i in range(n)]
    return TaskGraph(tasks, edges)


class TestPriorityOrder:
    @given(graph=_dags(), method=st.sampled_from(BL_METHODS_EXTENDED))
    @settings(max_examples=80, deadline=None)
    def test_topological_and_sorted_when_strict(self, graph, method):
        ctx = ProblemContext(graph, _empty(capacity=8))
        bl = graph.bottom_levels(bl_exec_times(ctx, method))
        order = bl_priority_order(ctx, method)
        assert order == graph.priority_order(bl)
        assert sorted(order) == list(range(graph.n))
        pos = {task: k for k, task in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in graph.edges)
        if all(bl[u] > bl[v] for u, v in graph.edges):
            assert order == sorted(range(graph.n), key=lambda i: (-bl[i], i))
