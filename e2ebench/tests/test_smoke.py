"""Tiny-size runs of every workload through the output checks.

Each run starts fresh interpreters, so this file takes about a minute.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2ebench import run
from e2ebench.layers import per_layer_metrics
from e2ebench.metrics import END_TO_END
from e2ebench.workloads import WORKLOADS, ServiceWorkload

SCALE = 0.05
SEED = 7


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_passes_checks(name):
    result = run.measure(name, SEED, seconds=0.0, trace=False, scale=SCALE)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, _, _, _ in END_TO_END}
    for value in result["metrics"].values():
        assert value["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_attributes_every_layer(name):
    result = run.measure(name, SEED, seconds=0.0, trace=True, scale=SCALE)
    assert result["correct"] is True
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(values) == {m["name"] for m in per_layer_metrics()}
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(values["trace.wall_s"], rel=1e-6)
    shard_calls = sum(v for k, v in values.items() if k.startswith("shard.") and k.endswith(".calls"))
    service_calls = sum(
        v
        for k, v in values.items()
        if k.startswith(("journal.", "service.")) and k.endswith(".calls")
    )
    assert (shard_calls > 0) == (name == "svc_sharded")
    assert (service_calls > 0) == (name != "offline_cells")


@pytest.mark.parametrize(
    "name", [n for n, w in WORKLOADS.items() if isinstance(w, ServiceWorkload)]
)
def test_repro_serve_replays_the_digest(name, tmp_path):
    _, rep, served = run.replay(name, SEED, SCALE, tmp_path)
    assert rep["digest"] == served


def test_run_short_of_its_repetitions_fails_its_checks(monkeypatch):
    monkeypatch.setattr(run, "MAX_REPS", 2)
    result = run.measure("svc_steady", SEED, seconds=0.0, trace=False, scale=SCALE)
    assert result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    root = Path(run.__file__).resolve().parents[1]
    shutil.copytree(root / "e2ebench", tmp_path / "e2ebench")
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "svc_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
