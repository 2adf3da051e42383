#!/usr/bin/env python
"""Gate a BENCH_hotpath.json report against regression thresholds.

CI runs ``repro bench --quick`` on whatever runner it lands on, so
absolute seconds are not comparable across runs; what must hold
everywhere is that the optimized paths still *beat* their seed
counterparts.  This script checks the speedup of every section against a
floor, and — when the committed baseline was produced at the same sizes
(same ``quick`` flag) — that no section's speedup collapsed relative to
it.

Exit status: 0 when every check passes, 1 otherwise (messages on
stderr).  Dependency-free on purpose: it runs before anything is
installed beyond the test requirements.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

#: Minimum acceptable speedup per bench section.  The kernel sections
#: must never fall below parity with the seed implementation; the
#: table4_cell section measures end-to-end parallel scaling, which on a
#: throttled 2-core CI runner can dip below 1 from pool overhead alone,
#: so it only has to clear half of parity.
SPEEDUP_FLOORS: dict[str, float] = {
    "calendar_commit": 1.0,
    "placement_query": 1.0,
    "placement_query_dense": 2.0,
    "sweep_alloc_memo": 1.5,
    "cpa_allocation": 1.0,
    "table4_cell": 0.5,
    # The streamed engine must beat N naive full passes by a wide margin
    # even at --quick sizes (the full-size run in the committed baseline
    # clears 5x; quick sizes shrink the stream, and the advantage grows
    # with stream length).
    "streamed_throughput": 2.0,
    # Robustness-layer overhead gate: the ReservationService at fault
    # rate zero with unlimited quotas reduces to the bare stream, so its
    # "speedup" (the median over interleaved pairs of bare time over
    # service time) is an overhead ratio.  The floor guarantees the
    # CAS-token/journal/quota machinery costs less than 15% on the
    # fault-free fast path (1 / 1.15 ~= 0.87).
    "service_faulted_stream": 0.87,
    # Sharded streamed admission (K=8 vs K=1 on the same dense-calendar
    # stream).  The advantage grows with calendar density: the committed
    # full-size report (100k reservations) clears 3x, while --quick
    # sizes (40k reservations) land in the 1.4-2.2x band — the floor
    # has headroom for runner noise at quick sizes without letting the
    # sharded path regress to parity.
    "sharded_throughput": 1.2,
}

#: When comparing against a same-size baseline, each section may lose at
#: most this fraction of its baseline speedup (runner-to-runner noise on
#: microsecond sections is real; a genuine regression loses far more).
MAX_RELATIVE_LOSS = 0.5


def bench_sections(report: dict[str, Any]) -> list[str]:
    """The report's bench sections (entries carrying a speedup)."""
    return [
        section
        for section, entry in report.items()
        if isinstance(entry, dict) and "speedup" in entry
    ]


def check(
    report: dict[str, Any], baseline: dict[str, Any] | None
) -> list[str]:
    """All failed checks, as human-readable messages."""
    failures: list[str] = []
    # Both directions must cover: a floored section silently dropped
    # from the report is a regression escape, and a bench section with
    # no configured floor is ungated — fail loudly on each.
    for section in bench_sections(report):
        if section not in SPEEDUP_FLOORS:
            failures.append(
                f"{section}: present in report but has no entry in "
                "SPEEDUP_FLOORS — add a floor so it is gated"
            )
    for section, floor in SPEEDUP_FLOORS.items():
        if section not in report:
            failures.append(
                f"{section}: has a configured floor but is missing "
                "from the report — bench sections must not be dropped "
                "silently"
            )
            continue
        speedup = float(report[section]["speedup"])
        if speedup < floor:
            failures.append(
                f"{section}: speedup {speedup:.2f} below floor {floor:.2f}"
            )
        if baseline is None or section not in baseline:
            continue
        if baseline.get("quick") != report.get("quick"):
            continue  # different sizes — speedups are not comparable
        base = float(baseline[section]["speedup"])
        allowed = (1.0 - MAX_RELATIVE_LOSS) * base
        if speedup < allowed:
            failures.append(
                f"{section}: speedup {speedup:.2f} lost more than "
                f"{MAX_RELATIVE_LOSS:.0%} of baseline {base:.2f}"
            )
    sharded = report.get("sharded_throughput")
    if isinstance(sharded, dict):
        # Correctness rider on the sharded section: a K=1 facade must
        # reduce bitwise to the unsharded engine (same report digest).
        if sharded.get("k1_digest") != sharded.get("unsharded_digest"):
            failures.append(
                "sharded_throughput: K=1 digest "
                f"{sharded.get('k1_digest')!r} != unsharded digest "
                f"{sharded.get('unsharded_digest')!r} — the K=1 bitwise "
                "reduction is broken"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=(__doc__ or "").splitlines()[0]
    )
    parser.add_argument("report", type=Path, help="fresh bench JSON to gate")
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="committed bench JSON to compare speedups against",
    )
    args = parser.parse_args(argv)
    report: dict[str, Any] = json.loads(args.report.read_text())
    baseline: dict[str, Any] | None = (
        json.loads(args.baseline.read_text()) if args.baseline else None
    )
    failures = check(report, baseline)
    # Always print what was actually checked, pass or fail, so a CI log
    # shows section coverage at a glance.
    checked = [s for s in SPEEDUP_FLOORS if s in report]
    print(f"checked {len(checked)}/{len(SPEEDUP_FLOORS)} floored "
          f"section(s): {', '.join(checked) if checked else '(none)'}")
    for section in checked:
        speedup = float(report[section]["speedup"])
        floor = SPEEDUP_FLOORS[section]
        verdict = "ok" if speedup >= floor else "FAIL"
        print(f"{verdict} {section}: speedup {speedup:.2f} "
              f"(floor {floor:.2f})")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
