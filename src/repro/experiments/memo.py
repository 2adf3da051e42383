"""Sweep-facing policy for result caches (`repro.experiments.memo`).

The mechanism lives next to what it caches — the allocation memo in
:mod:`repro.cpa.allocation`, the availability index in
:mod:`repro.calendar.calendar` — because the core layers cannot
import the experiments package.  This module is the experiments-side
policy surface: one place for a sweep driver (or a test, or the bench
harness) to toggle and introspect every cache at once.

Cache layers and their obs counters (all under the ``cache.*``
namespace of a RunReport):

========================  ==========================================
layer                     counters
========================  ==========================================
allocation memo           ``cache.alloc.hit`` / ``.miss`` / ``.evict``
availability index        ``cache.calendar.index_build``
cache invalidation        ``cache.calendar.invalidate`` (one per commit
                          generation)
========================  ==========================================

``cache.alloc.*`` counters are honest per-process observations: with
parallel workers, which instance hits and which misses depends on the
chunk partition, so those counters legitimately vary with worker count
(schedule outputs and every compute-derived aggregate do NOT — replay
keeps them bitwise-invariant; see
:func:`repro.cpa.allocation._memo_replay`).  The calendar-layer counters
are partition-independent because calendars never outlive one instance.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Any, Iterator

from repro.calendar import calendar as _calmod
from repro.cpa import allocation as _allocmod


def cache_stats() -> dict[str, Any]:
    """Configuration and occupancy of every cache layer, JSON-ready."""
    return {
        "alloc_memo": _allocmod.memo_stats(),
        "calendar": {
            "index_min_segments": _calmod.INDEX_MIN_SEGMENTS,
        },
    }


@contextmanager
def caching(enabled: bool) -> Iterator[None]:
    """Force every cache layer on or off for the enclosed region.

    Restores the previous flags on exit.  Disabling turns the
    availability index off (threshold above any profile size) and also
    clears the allocation memo so a later re-enable cannot serve
    entries computed under different module flags.
    """
    prev_alloc = _allocmod.MEMOIZE_ALLOCATIONS
    prev_index = _calmod.INDEX_MIN_SEGMENTS
    _allocmod.MEMOIZE_ALLOCATIONS = bool(enabled)
    if not enabled:
        _calmod.INDEX_MIN_SEGMENTS = sys.maxsize
        _allocmod.clear_memo()
    try:
        yield
    finally:
        _allocmod.MEMOIZE_ALLOCATIONS = prev_alloc
        _calmod.INDEX_MIN_SEGMENTS = prev_index
        if not enabled:
            _allocmod.clear_memo()
