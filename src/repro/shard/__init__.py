"""Sharded calendar engine: partitioned platforms behind one facade.

:class:`ShardedCalendar` splits a platform into K independent shard
calendars: probes fan out and reduce by ``(earliest_start, shard_id)``,
commits route to one shard, and cross-shard staging commits two-phase
with per-shard generation tokens.  See docs/PERFORMANCE.md ("Sharded
calendars").
"""

from repro.shard.calendar import ShardedCalendar, shard_capacities

__all__ = ["ShardedCalendar", "shard_capacities"]
