"""Tests for the observability subsystem (repro.obs).

Covers the collection primitives (spans, counters, histograms, decision
records), merge associativity and parallel determinism, JSONL trace
round-trips, RunReport schema validation, scheduler decision provenance,
the strict-validation commit path, the disabled-mode overhead bound, and
the new CLI commands.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.calendar import ResourceCalendar
from repro.calendar import calendar as calmod
from repro.cli import main
from repro.core import schedule_deadline, schedule_ressched
from repro.errors import CalendarError
from repro.experiments import ExperimentScale, run_table4
from repro.experiments.reporting import run_instrumented
from repro.obs import core as obs_core
from repro.units import HOUR


@pytest.fixture(autouse=True)
def _obs_disabled_between_tests():
    """Every test starts and ends with instrumentation off and a fresh
    ambient collector (the process default)."""
    obs_core.disable()
    obs_core.reset()
    yield
    obs_core.disable()
    obs_core.reset()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_nested_spans_record_paths_and_depths(self):
        with obs.instrumented(keep_events=True) as col:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        events = [e for e in col.events if e["type"] == "span"]
        # Inner spans exit (and record) before the outer one.
        assert [e["path"] for e in events] == [
            "outer/inner",
            "outer/inner",
            "outer",
        ]
        assert [e["depth"] for e in events] == [1, 1, 0]
        assert col.spans["inner"].count == 2
        assert col.spans["outer"].count == 1
        # Nesting means containment: the outer span's wall time covers
        # both inner ones.
        assert col.spans["outer"].wall_s >= col.spans["inner"].wall_s

    def test_span_measures_elapsed_time(self):
        with obs.instrumented() as col:
            with obs.span("sleepy"):
                time.sleep(0.01)
        assert col.spans["sleepy"].wall_s >= 0.009

    def test_disabled_span_is_shared_noop(self):
        a, b = obs.span("x"), obs.span("y")
        assert a is b  # one preallocated object, nothing per call
        with a:
            pass
        assert obs.current().spans == {}

    def test_stopwatch_measures_even_when_disabled(self):
        with obs.stopwatch("timed") as sw:
            time.sleep(0.01)
        assert sw.wall_s >= 0.009
        assert obs.current().spans == {}  # measured, not recorded

    def test_stopwatch_records_when_enabled(self):
        with obs.instrumented() as col:
            with obs.stopwatch("timed") as sw:
                pass
        assert col.spans["timed"].count == 1
        assert col.spans["timed"].wall_s == sw.wall_s

    def test_span_stack_survives_exceptions(self):
        with obs.instrumented() as col:
            with pytest.raises(ValueError):
                with obs.span("failing"):
                    raise ValueError("boom")
            with obs.span("after"):
                pass
        assert col.spans["failing"].count == 1
        assert obs_core._SPAN_STACK == []


# ----------------------------------------------------------------------
# Counters, histograms, merging
# ----------------------------------------------------------------------


def _collector(counters, hist_values=(), decisions=()):
    c = obs_core.Collector()
    for name, n in counters.items():
        c.incr(name, n)
    for v in hist_values:
        c.observe("h", v)
    for d in decisions:
        c.decision(d)
    return c


def _copy(col):
    return obs_core.Collector.from_dict(col.to_dict())


class TestMerge:
    def test_counter_merge_is_associative(self):
        a = _collector({"x": 1, "y": 5}, hist_values=(1.0, 3.0))
        b = _collector({"x": 2, "z": 7}, hist_values=(0.5,))
        c = _collector({"y": 4}, hist_values=(100.0, 2.0))

        left = _copy(a)
        left.merge(_copy(b))
        left.merge(_copy(c))

        bc = _copy(b)
        bc.merge(_copy(c))
        right = _copy(a)
        right.merge(bc)

        assert left.to_dict() == right.to_dict()

    def test_merge_accepts_snapshots(self):
        a = _collector({"x": 1})
        a.merge(_collector({"x": 2}).to_dict())
        assert a.counters["x"] == 3

    def test_merge_snapshot_with_missing_keys(self):
        # A partial snapshot (e.g. from an older writer) merges as if
        # the absent sections were empty rather than raising.
        a = _collector({"x": 1}, hist_values=(1.0,))
        a.merge({"counters": {"x": 2, "y": 5}})
        assert a.counters == {"x": 3, "y": 5}
        assert a.hists["h"].count == 1
        assert a.decisions_dropped == 0
        a.merge({})
        assert a.counters == {"x": 3, "y": 5}

    def test_merge_snapshot_ignores_extra_keys(self):
        a = _collector({"x": 1})
        a.merge(
            {
                "counters": {"x": 1},
                "format": "repro-run-report",
                "some_future_section": {"ignored": True},
            }
        )
        assert a.counters == {"x": 2}
        assert "some_future_section" not in a.to_dict()

    def test_histogram_merge_empty_operands(self):
        empty = obs_core.Histogram()
        empty.merge(obs_core.Histogram())
        assert empty.count == 0
        d = empty.to_dict()
        assert d["min"] is None and d["max"] is None and d["buckets"] == {}

        populated = obs_core.Histogram()
        for v in (0.5, 8.0):
            populated.observe(v)
        single = populated.to_dict()

        # empty -> populated and populated -> empty both equal the
        # single-stream histogram.
        into_populated = obs_core.Histogram.from_dict(single)
        into_populated.merge(obs_core.Histogram())
        assert into_populated.to_dict() == single
        from_empty = obs_core.Histogram()
        from_empty.merge(obs_core.Histogram.from_dict(single))
        assert from_empty.to_dict() == single

    def test_histogram_buckets_and_stats(self):
        h = obs_core.Histogram()
        for v in (0.0, 1.0, 1.5, 3.0, 1000.0):
            h.observe(v)
        assert h.count == 5
        assert h.min == 0.0 and h.max == 1000.0
        assert h.mean == pytest.approx(1005.5 / 5)
        # frexp exponents: 1.0 -> 1, 1.5 -> 1, 3.0 -> 2, 1000 -> 10;
        # non-positive values land in bucket 0.
        assert h.buckets == {0: 1, 1: 2, 2: 1, 10: 1}

    def test_histogram_merge_matches_single_stream(self):
        values = [0.25, 1.0, 2.0, 9.0, 70.0, 0.0]
        whole = obs_core.Histogram()
        for v in values:
            whole.observe(v)
        left, right = obs_core.Histogram(), obs_core.Histogram()
        for v in values[:3]:
            left.observe(v)
        for v in values[3:]:
            right.observe(v)
        left.merge(right)
        assert left.to_dict() == whole.to_dict()

    def test_empty_histogram_serializes_without_infinities(self):
        d = obs_core.Histogram().to_dict()
        assert d["min"] is None and d["max"] is None
        assert json.loads(json.dumps(d)) == d

    def test_decision_cap_counts_drops_explicitly(self):
        with obs.instrumented(max_decisions=3) as col:
            for i in range(5):
                obs.decision({"task": i})
        assert [d["task"] for d in col.decisions] == [0, 1, 2]
        assert col.decisions_dropped == 2

    def test_decision_cap_respected_across_merges(self):
        a = obs_core.Collector(max_decisions=3)
        a.decision({"task": 0})
        b = _collector({}, decisions=[{"task": i} for i in range(1, 5)])
        a.merge(b)
        assert [d["task"] for d in a.decisions] == [0, 1, 2]
        assert a.decisions_dropped == 2

    def test_collecting_restores_previous_collector(self):
        obs_core.enable()
        ambient = obs.current()
        with obs.collecting() as col:
            obs.incr("inside")
        assert obs.current() is ambient
        assert col.counters == {"inside": 1}
        assert "inside" not in ambient.counters

    def test_disabled_records_nothing(self):
        obs.incr("x")
        obs.observe("h", 1.0)
        obs.decision({"task": 0})
        col = obs.current()
        assert not col.counters and not col.hists and not col.decisions


# ----------------------------------------------------------------------
# Traces and RunReports
# ----------------------------------------------------------------------


class TestTraceRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        with obs.instrumented(keep_events=True) as col:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            obs.decision({"task": 0, "chosen": {"m": 2}})
        path = tmp_path / "run.trace.jsonl"
        n = obs.write_trace(path, col, meta={"cell": "unit"})
        records = obs.read_trace(path)
        assert len(records) == n == 4  # header + 2 spans + 1 decision
        header = records[0]
        assert header["format"] == "repro-trace"
        assert header["meta"] == {"cell": "unit"}
        spans = [r for r in records if r["type"] == "span"]
        assert [r["path"] for r in spans] == ["outer/inner", "outer"]
        decisions = list(obs.iter_decisions(records))
        assert decisions == [{"type": "decision", "task": 0, "chosen": {"m": 2}}]

    def test_aggregate_only_trace_exports_span_totals(self, tmp_path):
        with obs.instrumented() as col:  # no keep_events
            with obs.span("a"):
                pass
        path = tmp_path / "agg.trace.jsonl"
        obs.write_trace(path, col)
        records = obs.read_trace(path)
        totals = [r for r in records if r["type"] == "span_total"]
        assert totals and totals[0]["name"] == "a" and totals[0]["count"] == 1


class TestRunReport:
    def _report(self):
        with obs.instrumented() as col:
            obs.incr("x", 3)
            obs.observe("h", 2.0)
            with obs.span("s"):
                pass
            obs.decision(
                {"task": 0, "algorithm": "A", "rule": "r", "chosen": {"m": 1}}
            )
        return obs.RunReport(name="unit", wall_s=0.5, collector=col)

    def test_json_round_trip_validates(self):
        report = self._report()
        text = report.to_json()
        back = obs.RunReport.from_json(text)
        assert back.name == "unit"
        assert back.collector.to_dict() == report.collector.to_dict()

    def test_schema_rejects_missing_keys_and_bad_types(self):
        doc = json.loads(self._report().to_json())
        bad = dict(doc)
        del bad["counters"]
        with pytest.raises(obs.SchemaError, match="counters"):
            obs.validate_run_report(bad)
        bad = dict(doc)
        bad["wall_s"] = "fast"
        with pytest.raises(obs.SchemaError, match="wall_s"):
            obs.validate_run_report(bad)
        bad = dict(doc)
        bad["format"] = "something-else"
        with pytest.raises(obs.SchemaError, match="format"):
            obs.validate_run_report(bad)
        bad = dict(doc)
        bad["decisions"] = [{"task": 0}]  # missing required decision keys
        with pytest.raises(obs.SchemaError, match="decisions"):
            obs.validate_run_report(bad)

    def test_run_instrumented_packages_a_valid_report(self):
        scale = ExperimentScale.smoke()
        result, report = run_instrumented(
            "table4", run_table4, scale, scale=scale
        )
        doc = json.loads(report.to_json())  # to_json validates
        assert doc["name"] == "table4"
        assert doc["meta"]["scale"]["logs"] == ["OSC_Cluster"]
        assert doc["counters"]["ressched.tasks"] > 0
        assert doc["spans"]["run.table4"]["count"] == 1
        assert result.turnaround.n_scenarios > 0
        # Instrumentation was scoped: the ambient state is untouched.
        assert not obs.is_enabled()
        assert obs.current().counters == {}


# ----------------------------------------------------------------------
# Scheduler provenance
# ----------------------------------------------------------------------


class TestProvenance:
    def test_ressched_provenance_explains_every_task(
        self, small_graph, osc_scenario
    ):
        with obs.instrumented() as col:
            sched = schedule_ressched(small_graph, osc_scenario)
        assert sched.provenance is not None
        assert len(sched.provenance) == small_graph.n
        assert {d["task"] for d in sched.provenance} == set(
            range(small_graph.n)
        )
        for rec in sched.provenance:
            placement = sched.placements[rec["task"]]
            assert rec["chosen"]["m"] == placement.nprocs
            assert rec["chosen"]["start"] == placement.start
            reasons = [c["reason"] for c in rec["candidates"]]
            assert reasons.count("chosen") == 1
            chosen = rec["candidates"][reasons.index("chosen")]
            # The chosen candidate completes no later than any other.
            assert all(
                c["finish"] >= chosen["finish"] for c in rec["candidates"]
            )
            json.dumps(rec)  # plain scalars only
        # The same records were retained by the ambient collector.
        assert list(sched.provenance) == col.decisions

    def test_deadline_provenance_names_the_rule(
        self, small_graph, osc_scenario
    ):
        with obs.instrumented():
            base = schedule_ressched(small_graph, osc_scenario)
            deadline = osc_scenario.now + 2.0 * base.turnaround
            result = schedule_deadline(
                small_graph, osc_scenario, deadline, "DL_RCBD_CPAR-lambda"
            )
        assert result.feasible and result.schedule is not None
        prov = result.schedule.provenance
        assert prov is not None and len(prov) == small_graph.n
        assert {d["rule"] for d in prov} <= {
            "aggressive",
            "rc_window",
            "rc_fallback",
        }
        for rec in prov:
            # The recorded deadline is the task's own latest finish,
            # derived backward from its successors — never beyond the
            # application deadline.
            assert rec["deadline"] <= deadline + 1e-6
            assert 0.0 <= rec["lam"] <= 1.0

    def test_provenance_absent_when_disabled(self, small_graph, osc_scenario):
        sched = schedule_ressched(small_graph, osc_scenario)
        assert sched.provenance is None

    def test_provenance_does_not_affect_equality(
        self, small_graph, osc_scenario
    ):
        plain = schedule_ressched(small_graph, osc_scenario)
        with obs.instrumented():
            traced = schedule_ressched(small_graph, osc_scenario)
        assert plain == traced


# ----------------------------------------------------------------------
# Parallel determinism
# ----------------------------------------------------------------------


class TestParallelDeterminism:
    def test_aggregates_identical_serial_vs_parallel(self):
        scale = ExperimentScale.smoke()

        def run_at(n_workers):
            with obs.instrumented() as col:
                run_table4(replace(scale, n_workers=n_workers))
            snap = col.to_dict()
            del snap["spans"]  # timings are inherently nondeterministic
            # cache.alloc.* are honest per-process hit/miss observations:
            # which worker's memo already holds an allocation depends on
            # the chunk partition (and on what ran in the process
            # before), so they legitimately vary with worker count.
            # Every compute-derived aggregate must NOT — the memo replays
            # a cached compute's counters on hits exactly for this test.
            snap["counters"] = {
                k: v
                for k, v in snap["counters"].items()
                if not k.startswith("cache.alloc.")
            }
            return snap

        serial = run_at(1)
        parallel = run_at(2)
        assert serial == parallel
        assert serial["counters"]["ressched.tasks"] > 0
        assert serial["decisions"]  # provenance crossed the pool too


# ----------------------------------------------------------------------
# Strict-validation commits (REPRO_VALIDATE_COMMITS)
# ----------------------------------------------------------------------


class TestValidateCommits:
    def test_strict_path_validates_and_counts(self, monkeypatch):
        monkeypatch.setattr(calmod, "VALIDATE_COMMITS", True)
        cal = ResourceCalendar(8)
        with obs.instrumented() as col:
            r = cal.reserve_known_feasible(0.0, 100.0, 4, label="ok")
        assert r.nprocs == 4 and len(cal.reservations) == 1
        assert col.counters["calendar.commit.validated"] == 1
        assert "calendar.commit.splice" not in col.counters
        assert col.counters["calendar.validate"] >= 1

    def test_strict_path_rejects_infeasible_commit(self, monkeypatch):
        monkeypatch.setattr(calmod, "VALIDATE_COMMITS", True)
        cal = ResourceCalendar(8)
        cal.reserve_known_feasible(0.0, 100.0, 4)
        with pytest.raises(CalendarError):
            # Only 4 processors free on [0, 100): full validation catches
            # the bogus "known feasible" claim instead of committing it.
            cal.reserve_known_feasible(50.0, 100.0, 8)
        assert len(cal.reservations) == 1  # failed commit left no trace

    def test_fast_path_counts_splices(self):
        cal = ResourceCalendar(8)
        with obs.instrumented() as col:
            cal.reserve_known_feasible(0.0, 100.0, 4)
        assert col.counters["calendar.commit.splice"] == 1
        assert "calendar.commit.validated" not in col.counters
        assert col.spans["calendar.commit"].count == 1

    def test_env_var_enables_the_flag(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.calendar.calendar import VALIDATE_COMMITS; "
                "print(VALIDATE_COMMITS)",
            ],
            env={
                "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
                "REPRO_VALIDATE_COMMITS": "1",
            },
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "True"


# ----------------------------------------------------------------------
# Disabled-mode overhead
# ----------------------------------------------------------------------


def _per_call(fn, n, repeats=3):
    """Best-of-``repeats`` mean seconds per call of ``fn``."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n


class TestDisabledOverhead:
    """The disabled guard must add <2% to the instrumented hot paths.

    Direct A/B timing of ~50 us operations is too noisy for CI, so the
    bound is established analytically: measure the cost of one guard
    site (a branch on ``ENABLED``, or a guarded no-op call — whichever
    is dearer) in a tight loop, multiply by the number of sites on the
    hot path, and compare against the measured cost of the operation
    itself.  The margin is ~10x in practice (guards are tens of
    nanoseconds, the operations tens of microseconds).
    """

    def _site_cost(self):
        def guarded_noop():
            if obs_core.ENABLED:
                pass  # pragma: no cover

        branch = _per_call(guarded_noop, 20_000)
        call = _per_call(lambda: obs_core.incr("x"), 20_000)
        return max(branch, call)

    def test_earliest_starts_multi_guard_overhead(self, busy_calendar):
        assert not obs.is_enabled()
        durations = np.linspace(3600.0, 600.0, 12)
        busy_calendar.earliest_starts_multi(0.0, durations)  # warm profile
        per_query = _per_call(
            lambda: busy_calendar.earliest_starts_multi(0.0, durations), 300
        )
        # Two guard sites, the public wrapper and the kernel's record
        # block (repro/calendar/calendar.py), charged twice over.
        assert 4 * self._site_cost() < 0.02 * per_query

    def test_splice_commit_guard_overhead(self):
        assert not obs.is_enabled()
        cal = ResourceCalendar(10**6)
        counter = iter(range(10**9))

        def commit():
            k = next(counter)
            cal.reserve_known_feasible(100.0 * k, 50.0, 1)

        per_commit = _per_call(commit, 300, repeats=1)
        # Three sites: the VALIDATE_COMMITS branch, the ENABLED branch,
        # and the guarded incr inside _validated().
        assert 3 * self._site_cost() < 0.02 * per_commit


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


@pytest.fixture
def dag_file(tmp_path):
    out = tmp_path / "app.json"
    assert main(["gen-dag", "--n", "8", "--seed", "5", "--out", str(out)]) == 0
    return out


class TestCli:
    def test_trace_writes_jsonl(self, dag_file, tmp_path, capsys):
        out = tmp_path / "run.trace.jsonl"
        rc = main(
            [
                "trace",
                "--dag", str(dag_file),
                "--preset", "OSC_Cluster",
                "--out", str(out),
            ]
        )
        assert rc == 0
        records = obs.read_trace(out)
        assert records[0]["format"] == "repro-trace"
        assert any(r["type"] == "span" for r in records)
        assert any(r["type"] == "decision" for r in records)
        assert not obs.is_enabled()  # the command cleaned up after itself

    def test_stats_prints_counters(self, dag_file, capsys):
        rc = main(["stats", "--dag", str(dag_file), "--preset", "OSC_Cluster"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "ressched.tasks" in text
        assert "calendar.commit.splice" in text

    def test_stats_with_deadline_covers_backward_pass(self, dag_file, capsys):
        rc = main(
            [
                "stats",
                "--dag", str(dag_file),
                "--preset", "OSC_Cluster",
                "--deadline-hours", "100",
            ]
        )
        assert rc == 0
        assert "deadline.backward_passes" in capsys.readouterr().out

    def test_report_emits_valid_run_report(self, tmp_path, capsys):
        out = tmp_path / "run_report.json"
        trace = tmp_path / "cell.trace.jsonl"
        rc = main(
            [
                "report",
                "--cell", "table4",
                "--out", str(out),
                "--trace-out", str(trace),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        obs.validate_run_report(doc)
        assert doc["counters"]["ressched.tasks"] > 0
        assert doc["decisions"]
        assert trace.exists()


class TestTimingUsesStopwatch:
    def test_timed_sections_appear_as_spans(self):
        from repro.experiments.timing import _time_algorithm
        from repro.experiments.runner import iter_grid5000_instances

        inst = next(iter(iter_grid5000_instances(ExperimentScale.smoke())))
        with obs.instrumented() as col:
            elapsed = _time_algorithm("BD_CPAR", inst)
        assert elapsed > 0
        # The driver's return value IS the recorded span measurement.
        assert col.spans["timing.BD_CPAR"].wall_s == elapsed


# ----------------------------------------------------------------------
# Cache counters (availability index, allocation memo)
# ----------------------------------------------------------------------


class TestCacheCounters:
    """Every cache layer reports hits/misses/invalidations under the
    ``cache.*`` namespace, and the counters flow into RunReports."""

    def test_calendar_cache_counters(self, monkeypatch):
        monkeypatch.setattr(calmod, "INDEX_MIN_SEGMENTS", 0)
        cal = ResourceCalendar(16)
        d = np.linspace(900.0, 100.0, 8)
        with obs.instrumented() as col:
            starts = cal.earliest_starts_multi(0.0, d)  # builds the index
            cal.latest_start(5000.0, 100.0, 4)          # reuses it
            cal.reserve_known_feasible(float(starts[3]), d[3], 4)
            cal.earliest_starts_multi(0.0, d)           # new generation
        c = col.counters
        assert c["cache.calendar.invalidate"] == 1
        assert c["cache.calendar.index_build"] == 2

    def test_alloc_memo_counters_and_replay(self, small_graph):
        from repro.cpa import allocation as allocmod

        allocmod.clear_memo()
        with obs.instrumented() as col_a:
            allocmod.cpa_allocation(small_graph, 16)
        with obs.instrumented() as col_b:
            allocmod.cpa_allocation(small_graph, 16)
        assert col_a.counters["cache.alloc.miss"] == 1
        assert col_b.counters["cache.alloc.hit"] == 1
        # Replay keeps every compute-derived aggregate identical between
        # the computing and the recalling run.
        strip = lambda c: {
            k: v for k, v in c.items() if not k.startswith("cache.alloc.")
        }
        assert strip(col_a.counters) == strip(col_b.counters)
        a, b = col_a.to_dict(), col_b.to_dict()
        assert a["histograms"] == b["histograms"]

    def test_cache_counters_reach_run_report(self, small_graph):
        from repro.cpa import allocation as allocmod
        from repro.obs import validate_run_report
        from repro.obs.report import RunReport

        allocmod.clear_memo()
        with obs.instrumented() as col:
            allocmod.cpa_allocation(small_graph, 16)
            allocmod.cpa_allocation(small_graph, 16)
        doc = RunReport(name="cache-smoke", wall_s=0.0, collector=col).to_dict()
        validate_run_report(doc)
        assert doc["counters"]["cache.alloc.hit"] == 1
        assert doc["counters"]["cache.alloc.miss"] == 1
