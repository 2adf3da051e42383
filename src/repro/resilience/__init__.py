"""Fault injection and reactive schedule repair.

The paper's schedulers plan against a *static* reservation schedule and
exact estimates; this package executes those plans in a world that
breaks both assumptions:

* :mod:`repro.resilience.faults` — deterministic fault traces
  (competing-reservation arrivals, cancellations, node downtime) drawn
  from :func:`repro.rng.derive_rng` streams;
* :mod:`repro.resilience.repair` — pluggable repair policies
  (``local-rebook``, ``replan-remaining``, ``degrade-to-deadline``);
* :mod:`repro.resilience.engine` — the event loop interleaving task
  starts, runtime-noise kills, and fault events, and
  :func:`~repro.resilience.engine.admit_window`, the one clip-then-revoke
  rule for a competing window landing on booked reservations (the
  online service applies its faults through it too).

See ``docs/RESILIENCE.md``.
"""

from repro.resilience.engine import (
    ResilienceResult,
    admit_window,
    execute_resilient,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultModel,
    faults_for_schedule,
    generate_faults,
)
from repro.resilience.repair import (
    REPAIR_POLICIES,
    RepairAction,
    RepairConfig,
    snapshot_scenario,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultModel",
    "REPAIR_POLICIES",
    "RepairAction",
    "RepairConfig",
    "ResilienceResult",
    "admit_window",
    "execute_resilient",
    "faults_for_schedule",
    "generate_faults",
    "snapshot_scenario",
]
