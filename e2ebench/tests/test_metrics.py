"""The metric name and unit listing, and BENCHMARK.json against it."""

import json
import re
from pathlib import Path

import pytest

from e2ebench import layers, metrics, run
from e2ebench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == metrics.benchmark_json(run.RUN_SECONDS)


def test_end_to_end_listing():
    listed = metrics.end_to_end_metrics()
    names = [m["name"] for m in listed]
    assert names == [
        "admitted_per_s",
        "instances_per_s",
        "verdict_p50_ms",
        "verdict_p99_ms",
        "served_share",
        "mean_turnaround_h",
        "setup_s",
        "peak_rss_mb",
    ]
    for m in listed:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in listed if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in listed)


def test_per_layer_listing_covers_every_span():
    listed = layers.per_layer_metrics()
    names = [m["name"] for m in listed]
    assert len(names) == len(set(names)) <= 128
    for m in listed:
        assert set(m) == {"name", "unit", "better"}
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
    for span in layers.span_names():
        assert f"{span}.self_s" in names
    for span, _, _ in layers.SPANS:
        assert f"{span}.calls" in names


def test_workload_listing():
    assert list(WORKLOADS) == ["svc_steady", "svc_faulted", "svc_sharded", "offline_cells"]
    for w in WORKLOADS.values():
        assert NAME.match(w.name)
        assert 0 < len(w.why) <= 200 and "\n" not in w.why


def test_percentile_nearest_rank():
    values = list(range(1, 1001))
    assert metrics.percentile(values, 50) == 500
    assert metrics.percentile(values, 99) == 990
    assert sum(v > metrics.percentile(values, 99) for v in values) == 10
    assert metrics.median([3, 1, 2, 4]) == 2.5
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_reference_seconds_cancel_a_uniform_slowdown():
    fast = {
        "completed": 90, "attempted": 100, "run_s": 2.0, "setup_s": 0.1,
        "verdict_s": [0.01, 0.02, 0.03], "probe_s": 3 * 2e-4, "probes": 3,
        "mean_turnaround_h": 1.0, "peak_rss_mb": 50.0,
    }
    slow = dict(
        fast, run_s=3.0, setup_s=0.15, verdict_s=[0.015, 0.03, 0.045], probe_s=3 * 3e-4
    )
    assert run.end_to_end([slow])[0] == pytest.approx(run.end_to_end([fast])[0])
    assert run.end_to_end([fast])[0]["admitted_per_s"] == pytest.approx(
        90 / (2.0 * metrics.PROBE_REF_S / 2e-4)
    )
