"""Tracer accounting: nesting, raising calls, and restoring originals."""

import sys
import types

import pytest

from e2ebench import layers
from e2ebench.tracer import ROOT, Patcher, Tracer


@pytest.fixture
def toy():
    """A module whose functions call each other through module globals."""
    mod = types.ModuleType("e2ebench_toy")
    exec(
        "def inner(x):\n"
        "    return sum(i * i for i in range(x))\n"
        "def boom():\n"
        "    inner(10)\n"
        "    raise ValueError('boom')\n"
        "def outer(x):\n"
        "    total = 0\n"
        "    for _ in range(3):\n"
        "        total += inner(x)\n"
        "    try:\n"
        "        boom()\n"
        "    except ValueError:\n"
        "        pass\n"
        "    return total\n",
        mod.__dict__,
    )
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def _traced(toy, fn):
    tracer = Tracer()
    with Patcher() as patcher:
        for name in ("outer", "inner", "boom"):
            patcher.wrap(toy.__name__, name, tracer.span(name))
        tracer.start()
        result = fn()
        tracer.stop()
    return tracer, result


def test_nested_spans_self_time_sums_to_wall(toy):
    tracer, result = _traced(toy, lambda: toy.outer(20_000))
    assert result == 3 * sum(i * i for i in range(20_000))
    calls = tracer.calls()
    assert calls == {ROOT: 1, "outer": 1, "inner": 4, "boom": 1}
    self_s = tracer.self_seconds()
    assert sum(self_s.values()) == pytest.approx(tracer.wall_s, rel=1e-9, abs=1e-12)
    # Each inner span's parent is outer or boom; outer's parent is root.
    names = tracer.names
    parents = {
        names[n]: names[tracer.span_name[p]] if p >= 0 else None
        for n, p in zip(tracer.span_name, tracer.span_parent)
        if names[n] != "inner"
    }
    assert parents == {ROOT: None, "outer": ROOT, "boom": "outer"}
    inner_parents = {
        names[tracer.span_name[p]]
        for n, p in zip(tracer.span_name, tracer.span_parent)
        if names[n] == "inner"
    }
    assert inner_parents == {"outer", "boom"}
    # outer's self time is its duration minus its children's durations.
    idx = {names[n]: i for i, n in enumerate(tracer.span_name) if names[n] != "inner"}
    dur = lambda i: tracer.span_end[i] - tracer.span_start[i]  # noqa: E731
    children = [
        dur(i)
        for i, p in enumerate(tracer.span_parent)
        if p == idx["outer"]
    ]
    assert self_s["outer"] == pytest.approx(dur(idx["outer"]) - sum(children), abs=1e-6)


def test_raising_call_closes_its_span(toy):
    tracer, _ = _traced(toy, lambda: toy.outer(10))
    boom = [
        i for i, n in enumerate(tracer.span_name) if tracer.names[n] == "boom"
    ]
    assert len(boom) == 1
    assert tracer.span_end[boom[0]] >= tracer.span_start[boom[0]]

    tracer = Tracer()
    with Patcher() as patcher:
        patcher.wrap(toy.__name__, "boom", tracer.span("boom"))
        tracer.start()
        with pytest.raises(ValueError):
            toy.boom()
        tracer.stop()  # raises if the span had stayed open
    assert tracer.calls()["boom"] == 1


def test_boundaries_split_self_time_per_verdict(toy):
    tracer = Tracer()
    with Patcher() as patcher:
        patcher.wrap(toy.__name__, "inner", tracer.span("inner"))
        tracer.start()
        for _ in range(4):
            toy.inner(5_000)
            tracer.boundary()
            tracer.request += 1
        tracer.stop()
    assert len(tracer.rows) == 5
    assert sum(map(sum, tracer.rows)) == pytest.approx(tracer.wall_s, rel=1e-9)
    inner = tracer.names.index("inner")
    assert all(row[inner] > 0 for row in tracer.rows[:4])
    requests = [
        r for n, r in zip(tracer.span_name, tracer.span_request) if tracer.names[n] == "inner"
    ]
    assert requests == [0, 1, 2, 3]


def test_originals_restored_after_run(toy):
    import os

    import repro.core.incremental as incremental
    import repro.experiments.stream as stream
    from repro.calendar.calendar import ResourceCalendar
    from repro.shard.calendar import ShardedCalendar

    before_fn = toy.inner
    before_method = ResourceCalendar.__dict__["earliest_starts_batch"]
    before_init = ResourceCalendar.__dict__["__init__"]
    before_classmethod = ShardedCalendar.__dict__["partition"]
    before_engine = incremental.schedule_ressched_incremental
    before_fsync = os.fsync
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with Patcher() as patcher:
            layers.install(tracer, patcher)
            patcher.wrap(toy.__name__, "inner", tracer.span("inner"))
            assert toy.inner is not before_fn
            assert stream.schedule_ressched_incremental is not before_engine
            assert isinstance(ShardedCalendar.__dict__["partition"], classmethod)
            assert os.fsync is not before_fsync
            raise RuntimeError("the traced run failed")
    assert toy.inner is before_fn
    assert ResourceCalendar.__dict__["earliest_starts_batch"] is before_method
    assert ResourceCalendar.__dict__["__init__"] is before_init
    assert ShardedCalendar.__dict__["partition"] is before_classmethod
    assert incremental.schedule_ressched_incremental is before_engine
    assert stream.schedule_ressched_incremental is before_engine
    assert os.fsync is before_fsync


def test_layer_spans_record_real_calls():
    from repro.calendar.calendar import ResourceCalendar
    from repro.calendar.reservation import Reservation
    from repro.shard.calendar import ShardedCalendar

    tracer = Tracer()
    with Patcher() as patcher:
        layers.install(tracer, patcher)
        tracer.start()
        res = [Reservation(start=0.0, end=10.0, nprocs=2, label="a")]
        cal = ResourceCalendar(8, res)
        cal.earliest_starts_batch([(0.0, [5.0, 3.0])])
        ShardedCalendar.partition(8, res, n_shards=2)
        tracer.stop()
    calls = tracer.calls()
    assert calls["calendar.batch"] == 1
    assert calls["shard.partition"] == 1
    assert calls["calendar.build"] >= 3  # one here, two shards
    assert tracer.total_size("calendar.batch") == 1
    assert sum(tracer.self_seconds().values()) == pytest.approx(tracer.wall_s, rel=1e-9)
