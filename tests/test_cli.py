"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import _parse_ressched_algorithm, build_parser, main
from repro.errors import GenerationError


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_algorithm_name_parsing(self):
        alg = _parse_ressched_algorithm("BL_CPAR_BD_CPAR")
        assert alg.bl == "BL_CPAR"
        assert alg.bd == "BD_CPAR"
        alg = _parse_ressched_algorithm("BL_1_BD_ALL")
        assert alg.bl == "BL_1"
        assert alg.bd == "BD_ALL"

    def test_algorithm_name_rejects_garbage(self):
        with pytest.raises(GenerationError):
            _parse_ressched_algorithm("nonsense")


class TestGenDag:
    def test_writes_json(self, tmp_path, capsys):
        out = tmp_path / "dag.json"
        rc = main(["gen-dag", "--n", "8", "--seed", "1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["tasks"]) == 8

    def test_stdout_when_no_out(self, capsys):
        rc = main(["gen-dag", "--n", "3", "--seed", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro-dag"

    def test_template(self, tmp_path):
        out = tmp_path / "m.json"
        rc = main(
            ["gen-dag", "--template", "montage", "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        names = [t["name"] for t in doc["tasks"]]
        assert "madd" in names

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen-dag", "--n", "10", "--seed", "7", "--out", str(a)])
        main(["gen-dag", "--n", "10", "--seed", "7", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_invalid_params_exit_code(self, capsys):
        rc = main(["gen-dag", "--n", "0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestGenLog:
    def test_writes_swf(self, tmp_path):
        out = tmp_path / "log.swf"
        rc = main(
            ["gen-log", "--preset", "OSC_Cluster", "--seed", "1",
             "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith(";")
        assert len(lines) > 100

    def test_unknown_preset(self, capsys):
        rc = main(["gen-log", "--preset", "NOPE"])
        assert rc == 2


class TestInfoScheduleDeadline:
    @pytest.fixture
    def dag_file(self, tmp_path):
        out = tmp_path / "dag.json"
        main(["gen-dag", "--n", "10", "--seed", "3", "--out", str(out)])
        return str(out)

    def test_info(self, dag_file, capsys):
        rc = main(["info", "--dag", dag_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tasks" in out
        assert "critical path" in out

    def test_schedule(self, dag_file, capsys):
        rc = main(
            ["schedule", "--dag", dag_file, "--preset", "OSC_Cluster",
             "--seed", "5", "--gantt"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "turn-around" in out
        assert "CPU-hours" in out
        assert "#" in out  # gantt bars

    def test_schedule_with_explicit_log(self, dag_file, tmp_path, capsys):
        log = tmp_path / "log.swf"
        main(["gen-log", "--preset", "OSC_Cluster", "--seed", "1",
              "--out", str(log)])
        rc = main(
            ["schedule", "--dag", dag_file, "--log", str(log),
             "--preset", "OSC_Cluster", "--seed", "5"]
        )
        assert rc == 0

    def test_deadline_met(self, dag_file, capsys):
        rc = main(
            ["deadline", "--dag", dag_file, "--preset", "OSC_Cluster",
             "--seed", "5", "--deadline-hours", "200",
             "--algorithm", "DL_BD_CPA"]
        )
        assert rc == 0
        assert "met" in capsys.readouterr().out

    @pytest.mark.parametrize("hours", ["nan", "inf"])
    def test_non_finite_deadline_is_an_error(self, dag_file, capsys, hours):
        rc = main(
            ["deadline", "--dag", dag_file, "--preset", "OSC_Cluster",
             "--seed", "5", "--deadline-hours", hours,
             "--algorithm", "DL_BD_CPA"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert f"error: deadline must be finite, got {hours}" in captured.err

    def test_deadline_missed_exit_code(self, dag_file, capsys):
        rc = main(
            ["deadline", "--dag", dag_file, "--preset", "OSC_Cluster",
             "--seed", "5", "--deadline-hours", "0.01",
             "--algorithm", "DL_BD_CPA"]
        )
        assert rc == 1
        assert "CANNOT" in capsys.readouterr().out


class TestExecute:
    @pytest.fixture
    def dag_file(self, tmp_path):
        out = tmp_path / "dag.json"
        main(["gen-dag", "--n", "10", "--seed", "3", "--out", str(out)])
        return str(out)

    def test_execute_exact_no_faults_reproduces_plan(self, dag_file, capsys):
        rc = main(
            ["execute", "--dag", dag_file, "--preset", "OSC_Cluster",
             "--seed", "5", "--fault-rate", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "slowdown 1.000" in out
        assert "efficiency 1.000" in out
        assert "0 injected" in out

    def test_execute_with_faults_writes_report(self, dag_file, tmp_path, capsys):
        report = tmp_path / "exec.json"
        rc = main(
            ["execute", "--dag", dag_file, "--preset", "OSC_Cluster",
             "--seed", "5", "--policy", "replan-remaining",
             "--fault-rate", "6", "--noise", "0.2",
             "--out", str(report)]
        )
        out = capsys.readouterr().out
        assert rc in (0, 1)  # structured failure is a valid outcome
        assert "faults" in out
        doc = json.loads(report.read_text())
        assert doc["name"] == "execute"
        assert doc["meta"]["policy"] == "replan-remaining"

    def test_execute_deterministic(self, dag_file, capsys):
        args = ["execute", "--dag", dag_file, "--preset", "OSC_Cluster",
                "--seed", "9", "--fault-rate", "4", "--noise", "0.15"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


class TestReportResilience:
    def test_writes_schema_valid_report(self, tmp_path, capsys):
        from repro.obs import validate_run_report

        report = tmp_path / "resilience.json"
        journal = tmp_path / "sweep.jsonl"
        rc = main(
            ["report", "--cell", "resilience", "--out", str(report),
             "--journal", str(journal)]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        validate_run_report(doc)
        assert doc["meta"]["quarantined"] == []
        assert doc["meta"]["resumed"] == 0
        out = capsys.readouterr().out
        assert "repair policies under fault injection" in out
        # The journal recorded every instance; re-running resumes all.
        rc = main(
            ["report", "--cell", "resilience", "--out", str(report),
             "--journal", str(journal)]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["meta"]["resumed"] > 0


class TestStream:
    """``repro serve`` at its defaults replays a request stream."""

    @pytest.fixture()
    def dag_file(self, tmp_path):
        out = tmp_path / "app.json"
        main(["gen-dag", "--n", "6", "--seed", "3", "--out", str(out)])
        return str(out)

    def test_replays_csv_and_writes_report(self, dag_file, tmp_path, capsys):
        from repro.obs import validate_run_report

        csv_path = tmp_path / "reqs.csv"
        csv_path.write_text(
            "request_id,arrival_offset,mode,priority\n"
            "r1,0,interactive,high\n"
            "r2,900000,batch,low\n"
            "r3,1800000,,\n"
        )
        report = tmp_path / "stream.json"
        rc = main(
            ["serve", "--requests", str(csv_path), "--dag", dag_file,
             "--out", str(report)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 admitted" in out
        doc = json.loads(report.read_text())
        validate_run_report(doc)
        assert doc["counters"]["service.admitted"] == 3
        assert doc["counters"]["stream.events"] == 18  # 3 requests x 6 tasks

    def test_bad_csv_exit_code(self, dag_file, tmp_path, capsys):
        csv_path = tmp_path / "reqs.csv"
        csv_path.write_text("request_id,arrival_offset\nx,not-a-number\n")
        rc = main(
            ["serve", "--requests", str(csv_path), "--dag", dag_file]
        )
        assert rc == 2
        assert "row 1" in capsys.readouterr().err


class TestServe:
    """``repro serve`` on the committed request-stream fixture."""

    REQUESTS = str(Path(__file__).parent / "data" / "stream_requests.csv")

    @pytest.fixture()
    def dag_file(self, tmp_path):
        out = tmp_path / "app.json"
        main(["gen-dag", "--n", "6", "--seed", "3", "--out", str(out)])
        return str(out)

    def _summary(self, dag_file, out, *flags):
        rc = main(
            ["serve", "--requests", self.REQUESTS, "--dag", dag_file,
             "--out", str(out), *flags]
        )
        assert rc == 0
        return json.loads(out.read_text())["meta"]["service"]

    def test_serial_shard_workers_flag_changes_nothing(
        self, dag_file, tmp_path
    ):
        with_flag = self._summary(
            dag_file, tmp_path / "a.json", "--shards", "2",
            "--shard-workers", "0",
        )
        without = self._summary(dag_file, tmp_path / "b.json", "--shards", "2")
        assert with_flag["digest"] == without["digest"]

    def test_shard_workers_refused(self, dag_file, capsys):
        rc = main(
            ["serve", "--requests", self.REQUESTS, "--dag", dag_file,
             "--shards", "2", "--shard-workers", "1"]
        )
        assert rc == 2
        assert "shard_workers" in capsys.readouterr().err

    def test_sharded_kill_and_resume_matches_uninterrupted(
        self, dag_file, tmp_path
    ):
        flags = ["--shards", "4", "--faults", "8", "--seed", "11"]
        journal = str(tmp_path / "svc.jsonl")
        uninterrupted = self._summary(dag_file, tmp_path / "ref.json", *flags)
        rc = main(
            ["serve", "--requests", self.REQUESTS, "--dag", dag_file,
             *flags, "--journal", journal, "--stop-after", "2"]
        )
        assert rc == 0
        resumed = self._summary(
            dag_file, tmp_path / "resumed.json", *flags, "--journal", journal
        )
        assert resumed["resumed"] == 2
        assert resumed["digest"] == uninterrupted["digest"]
