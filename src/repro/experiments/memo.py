"""Sweep-facing policy for result caches (`repro.experiments.memo`).

The one result cache a sweep can toggle is the allocation memo.  Its
mechanism lives next to what it caches, in :mod:`repro.cpa.allocation`,
because the core layers cannot import the experiments package.  This
module is the experiments-side policy surface: one place for a table
sweep (or a test, or the bench harness) to toggle and introspect it.

Cache layers and their obs counters (all under the ``cache.*``
namespace of a RunReport):

========================  ==========================================
layer                     counters
========================  ==========================================
allocation memo           ``cache.alloc.hit`` / ``.miss`` / ``.evict``
cache invalidation        ``cache.calendar.invalidate`` (one per commit
                          generation)
========================  ==========================================

``cache.alloc.*`` counters are honest per-process observations: with
parallel workers, which instance hits and which misses depends on the
chunk partition, so those counters legitimately vary with worker count
(schedule outputs and every compute-derived aggregate do NOT — replay
keeps them bitwise-invariant; see
:func:`repro.cpa.allocation._memo_replay`).  The calendar-layer counter
is partition-independent because calendars never outlive one instance.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.cpa import allocation as _allocmod


def cache_stats() -> dict[str, Any]:
    """Configuration and occupancy of every cache layer, JSON-ready."""
    return {"alloc_memo": _allocmod.memo_stats()}


@contextmanager
def caching(enabled: bool) -> Iterator[None]:
    """Force the allocation memo on or off for the enclosed region.

    Restores the previous flag on exit.  Disabling also clears the memo
    so a later re-enable cannot serve entries computed under different
    module flags.
    """
    prev_alloc = _allocmod.MEMOIZE_ALLOCATIONS
    _allocmod.MEMOIZE_ALLOCATIONS = bool(enabled)
    if not enabled:
        _allocmod.clear_memo()
    try:
        yield
    finally:
        _allocmod.MEMOIZE_ALLOCATIONS = prev_alloc
        if not enabled:
            _allocmod.clear_memo()
