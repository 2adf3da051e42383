"""Acceptance: the full Table 4 and Table 6 suites are bitwise-identical
with every cache layer (availability index, allocation memo) forced on
vs forced off.

This is the end-to-end counterpart of the per-primitive property tests
in ``tests/test_availability_index.py``: whatever the schedulers ask of
the calendar and the allocator across a real experiment grid, the fast
paths must change *nothing* about the results — numeric cells AND
formatted output.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.calendar.calendar as calmod
from repro.cpa import allocation as allocmod
from repro.experiments.memo import caching
from repro.experiments.scenarios import ExperimentScale
from repro.experiments.table4 import format_table4, run_table4
from repro.experiments.table6 import format_table6, run_table6


@pytest.fixture
def forced_index(monkeypatch):
    """Cache layers on, with the index threshold dropped to zero so even
    smoke-size profiles exercise the tree walks."""
    monkeypatch.setattr(calmod, "INDEX_MIN_SEGMENTS", 0)


def _canon(result):
    """A comparable deep snapshot of a table result structure."""
    import json

    def default(x):
        if hasattr(x, "_asdict"):
            return x._asdict()
        if hasattr(x, "__dict__"):
            return x.__dict__
        return repr(x)

    return json.dumps(result, sort_keys=True, default=default)


class TestSuiteBitwiseEquivalence:
    def test_table4_identical_with_and_without_caches(self, forced_index):
        scale = ExperimentScale.smoke()
        with caching(False):
            allocmod.clear_memo()
            off = run_table4(scale)
        with caching(True):
            allocmod.clear_memo()
            on = run_table4(scale)
        assert format_table4(off) == format_table4(on)
        assert _canon(off) == _canon(on)

    def test_table6_identical_with_and_without_caches(self, forced_index):
        scale = replace(ExperimentScale.smoke(), phis=(0.2, 0.4))
        with caching(False):
            allocmod.clear_memo()
            off = run_table6(scale)
        with caching(True):
            allocmod.clear_memo()
            on = run_table6(scale)
        assert format_table6(off) == format_table6(on)
        assert _canon(off) == _canon(on)

    def test_alloc_memo_hits_do_not_change_results(self):
        # Same sweep twice in one process: the second run is served
        # almost entirely from the allocation memo and must match the
        # first bitwise.
        scale = ExperimentScale.smoke()
        allocmod.clear_memo()
        with caching(True):
            first = run_table4(scale)
            assert allocmod.memo_stats()["entries"] > 0
            second = run_table4(scale)
        assert _canon(first) == _canon(second)
