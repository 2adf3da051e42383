"""Tests for the crash-tolerant sweep harness (repro.experiments.parallel)."""

from __future__ import annotations

import json
import os
import time

import pytest

import repro.experiments.table4 as table4
from repro.errors import ExecutionError
from repro.experiments.parallel import (
    _POOLS,
    FaultTolerance,
    QuarantinedInstance,
    _pool,
    run_sweep,
)
from repro.experiments.runner import InstanceStream, iter_problem_instances
from repro.experiments.scenarios import ExperimentScale
from repro.obs import core as obs

N = 7


def _toy_stream(n):
    """A regenerable stream of featherweight instances."""
    for i in range(n):
        yield InstanceStream(f"k{i}", None, None)


def _toy_work(inst, *, crash=None, slow=None, boom=None, delay=5.0):
    """Deterministic per-instance work with optional pathologies,
    selected by scenario key so healthy instances are unaffected."""
    if inst.scenario_key == crash:
        os._exit(17)
    if inst.scenario_key == slow:
        time.sleep(delay)
    if inst.scenario_key == boom:
        raise ValueError("pathological instance")
    return (inst.scenario_key, sum(i * i for i in range(200)))


def _keys(outcome):
    return [k for k, _ in outcome.results]


class TestTablePathWorkerCrash:
    def test_raises_and_refreshes_pool(self):
        """The table drivers' path: a dead worker is retried, then
        isolated, then reported as one ExecutionError naming the
        instance; the poisoned pool is replaced, so the next call
        succeeds on a fresh one instead of failing forever."""
        poisoned = _pool(2)
        with pytest.raises(
            ExecutionError, match=r"#3 \[k3\]: worker process died"
        ):
            run_sweep(
                _toy_work, _toy_stream, (N,), n_workers=2,
                work_kwargs={"crash": "k3"},
            ).require_complete()
        assert _POOLS.get(2) is not poisoned
        out = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=2
        ).require_complete()
        assert [k for k, _ in out] == [f"k{i}" for i in range(N)]


class TestTableDriverRefusal:
    def test_failed_instance_named_after_the_sweep(self, monkeypatch):
        """A table driver runs its whole sweep, then refuses it with one
        ExecutionError naming the failed instance's index, key and
        reason."""
        scale = ExperimentScale(
            logs=("OSC_Cluster",), phis=(0.2,), methods=("expo",),
            app_scenarios=1, dag_instances=3, start_times=1, taggings=1,
        )
        bad = list(iter_problem_instances(scale))[1]
        real = table4.schedule_ressched
        planned = []

        def exploding(graph, scenario, *args, **kwargs):
            planned.append(graph.content_digest)
            if graph.content_digest == bad.graph.content_digest:
                raise ValueError("planner exploded")
            return real(graph, scenario, *args, **kwargs)

        monkeypatch.setattr(table4, "schedule_ressched", exploding)
        with pytest.raises(ExecutionError) as info:
            table4.run_table4(scale)
        assert str(info.value) == (
            f"1 instance(s) of the sweep failed: #1 [{bad.scenario_key}]: "
            "ValueError: planner exploded"
        )
        # The instance after the failed one still ran.
        assert len(set(planned)) == 3


class TestRunSweep:
    def test_matches_plain_loop(self):
        plain = [(i.scenario_key, _toy_work(i)) for i in _toy_stream(N)]
        serial = run_sweep(_toy_work, _toy_stream, (N,), n_workers=1)
        parallel = run_sweep(_toy_work, _toy_stream, (N,), n_workers=3)
        assert serial.results == plain
        assert parallel.results == plain
        assert serial.quarantined == [] and parallel.quarantined == []

    def test_worker_crash_isolated(self):
        """A dying worker loses only the pathological instance: the
        chunk is retried, then isolated, and the sweep completes."""
        outcome = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=2,
            work_kwargs={"crash": "k4"},
            fault_tolerance=FaultTolerance(
                max_chunk_retries=1, retry_backoff_s=0.01,
            ),
        )
        assert _keys(outcome) == [f"k{i}" for i in range(N) if i != 4]
        assert len(outcome.quarantined) == 1
        q = outcome.quarantined[0]
        assert q == QuarantinedInstance(4, "k4", "worker process died")

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_timeout_quarantine(self, n_workers):
        outcome = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=n_workers,
            work_kwargs={"slow": "k2"},
            fault_tolerance=FaultTolerance(instance_timeout=0.3),
        )
        assert _keys(outcome) == [f"k{i}" for i in range(N) if i != 2]
        (q,) = outcome.quarantined
        assert q.idx == 2
        assert "timed out after 0.3s" in q.reason

    def test_exception_quarantine(self):
        outcome = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=1,
            work_kwargs={"boom": "k5"},
        )
        assert _keys(outcome) == [f"k{i}" for i in range(N) if i != 5]
        (q,) = outcome.quarantined
        assert q.reason == "ValueError: pathological instance"

    def test_quarantine_stable_across_worker_counts(self):
        a = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=1,
            work_kwargs={"boom": "k1"},
        )
        b = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=3,
            work_kwargs={"boom": "k1"},
        )
        assert a.results == b.results
        assert a.quarantined == b.quarantined

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_quarantine_counted_at_any_worker_count(self, n_workers):
        with obs.instrumented() as col:
            run_sweep(
                _toy_work, _toy_stream, (N,), n_workers=n_workers,
                work_kwargs={"boom": "k1"},
            )
        assert col.counters["harness.quarantined"] == 1


class TestJournal:
    def test_resume_identity_after_truncation(self, tmp_path):
        """An interrupted sweep — journal cut mid-record — resumes and
        produces results identical to the uninterrupted run."""
        path = str(tmp_path / "sweep.jsonl")
        full = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=1,
            work_kwargs={"boom": "k5"},
            fault_tolerance=FaultTolerance(journal=path),
        )
        lines = open(path).read().splitlines(True)
        assert len(lines) == 1 + N  # header + one record per instance
        # Keep the header and three records, plus half of a fourth —
        # the torn write of a crashed process.
        with open(path, "w") as fh:
            fh.writelines(lines[:4] + [lines[4][: len(lines[4]) // 2]])
        resumed = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=2,
            work_kwargs={"boom": "k5"},
            fault_tolerance=FaultTolerance(journal=path),
        )
        assert resumed.resumed == 3
        assert resumed.results == full.results
        assert resumed.quarantined == full.quarantined

    def test_torn_tail_survives_a_second_resume(self, tmp_path):
        """The torn fragment is cut off before the resumed sweep appends,
        so the next resume trusts every record."""
        path = str(tmp_path / "sweep.jsonl")
        ft = FaultTolerance(journal=path)
        full = run_sweep(_toy_work, _toy_stream, (N,), fault_tolerance=ft)
        lines = open(path).read().splitlines(True)
        with open(path, "w") as fh:
            fh.writelines(lines[:4] + [lines[4][: len(lines[4]) // 2]])
        run_sweep(_toy_work, _toy_stream, (N,), fault_tolerance=ft)
        again = run_sweep(_toy_work, _toy_stream, (N,), fault_tolerance=ft)
        assert again.resumed == N
        assert again.results == full.results

    def test_undecodable_line_before_the_last_refused(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ft = FaultTolerance(journal=str(path))
        run_sweep(_toy_work, _toy_stream, (N,), fault_tolerance=ft)
        lines = path.read_text().splitlines(True)
        lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ExecutionError, match=r"sweep\.jsonl: line 3 "):
            run_sweep(_toy_work, _toy_stream, (N,), fault_tolerance=ft)

    def test_payload_in_another_codec_refused(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ft = FaultTolerance(journal=str(path))
        run_sweep(_toy_work, _toy_stream, (N,), fault_tolerance=ft)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        next(r for r in records if "payload" in r)["payload"]["codec"] = "marshal"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ExecutionError, match="unknown payload codec 'marshal'"):
            run_sweep(_toy_work, _toy_stream, (N,), fault_tolerance=ft)

    def test_file_without_a_whole_record_refused(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text("not json")
        ft = FaultTolerance(journal=str(path))
        with pytest.raises(ExecutionError, match="not a sweep journal"):
            run_sweep(_toy_work, _toy_stream, (N,), fault_tolerance=ft)
        assert path.read_text() == "not json"

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda recs: recs[0].update(version=99),
             r"sweep\.jsonl: journal version 99 cannot be resumed"),
            (lambda recs: recs[2].update(type="reslut"),
             r"sweep\.jsonl: line 3: unknown record type 'reslut'"),
            (lambda recs: recs[2].pop("payload"),
             r"sweep\.jsonl: line 3: a result record needs the fields"),
            (lambda recs: recs[2].update(idx="2"),
             r"sweep\.jsonl: line 3: a result record needs the fields"),
            (lambda recs: recs.__setitem__(2, [1, 2]),
             r"sweep\.jsonl: line 3 is not a JSON object"),
            (lambda recs: recs[2].update(payload={"codec": "pickle"}),
             r"sweep\.jsonl: line 3: payload without its data"),
            (lambda recs: recs[2].update(payload="x"),
             r"sweep\.jsonl: line 3: payload is not a JSON object"),
            (lambda recs: recs[2].update(
                payload={"codec": "pickle", "data": "!!!"}),
             r"sweep\.jsonl: line 3: payload does not decode"),
        ],
        ids=["version", "type", "payload", "idx", "list", "payload-data",
             "payload-object", "payload-pickle"],
    )
    def test_malformed_record_refused(self, tmp_path, corrupt, match):
        path = tmp_path / "sweep.jsonl"
        ft = FaultTolerance(journal=str(path))
        run_sweep(_toy_work, _toy_stream, (N,), fault_tolerance=ft)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        corrupt(records)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ExecutionError, match=match):
            run_sweep(_toy_work, _toy_stream, (N,), fault_tolerance=ft)

    def test_journal_records_quarantines(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=1,
            work_kwargs={"boom": "k0"},
            fault_tolerance=FaultTolerance(journal=path),
        )
        # Resuming recomputes nothing: every instance (including the
        # quarantined one) is loaded from the journal.
        resumed = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=1,
            fault_tolerance=FaultTolerance(journal=path),
        )
        assert resumed.resumed == N
        (q,) = resumed.quarantined
        assert q.scenario_key == "k0"
