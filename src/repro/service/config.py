"""Service configuration: tenant quotas, load shedding, retry policy.

The :class:`ServiceConfig` defaults are the *reduction* configuration:
unlimited quotas, no shedding, no admission window, zero commit latency.
With those defaults and a zero fault rate,
:class:`repro.service.ReservationService` admits every request and
reproduces :func:`repro.experiments.stream.schedule_stream_naive`
bitwise — every knob here only ever *adds* behaviour on top of the bare
stream.

The commit-retry backoff mirrors the capped exponential shape of
:class:`repro.resilience.repair.RepairConfig` (``base * 2**(k-1)``,
clipped at a cap); the deterministic jitter on top is drawn by the
service from a :func:`repro.rng.derive_rng` stream keyed by the request,
so retry outcomes are identical at any worker count and fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import QuotaError, ServiceError
from repro.units import HOUR


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant.

    Attributes:
        max_active: Cap on *concurrently active* admitted requests — a
            request is active at instant ``t`` while its last booked
            task reservation ends after ``t``.  ``None`` = unlimited.
        max_cpu_hours: Cap on the tenant's cumulative booked CPU-hours
            across all admitted requests.  ``None`` = unlimited.
    """

    max_active: int | None = None
    max_cpu_hours: float | None = None

    def __post_init__(self) -> None:
        if self.max_active is not None and self.max_active < 1:
            raise QuotaError(
                f"max_active must be >= 1, got {self.max_active}"
            )
        if self.max_cpu_hours is not None and self.max_cpu_hours <= 0:
            raise QuotaError(
                f"max_cpu_hours must be > 0, got {self.max_cpu_hours}"
            )

    @property
    def unlimited(self) -> bool:
        """Whether this quota never rejects anything."""
        return self.max_active is None and self.max_cpu_hours is None


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the online reservation service.

    Attributes:
        quotas: Per-tenant quota overrides; tenants not listed fall back
            to ``default_quota``.
        default_quota: Quota applied to tenants without an override
            (default: unlimited).
        admission_window: Admission-control bound, seconds: a request
            whose earliest tentative start exceeds
            ``arrival + admission_window`` is rejected, and its
            tentative placements (planned on a calendar copy) are never
            booked.  ``None`` admits everything.
        shed_backlog: Load-shedding pressure threshold, measured as the
            number of admitted-but-not-yet-started requests at arrival.
            Batch-class requests degrade first: at ``>= shed_backlog``
            backlog, batch requests below ``"high"`` priority are shed;
            at ``>= 2 * shed_backlog``, every batch request is shed.
            Interactive requests are never load-shed (they answer to the
            admission window and quotas only).  ``None`` disables
            shedding.
        commit_latency: Simulated seconds between planning a tentative
            placement and committing it.  Faults falling inside that
            window invalidate the CAS token and force a retry; ``0``
            (the default) makes admissions atomic.
        commit_retry_cap: Bound on CAS-commit retries per request;
            exhausting it dead-letters the request.
        retry_backoff_base: Seconds of backoff before the first commit
            retry; doubles per retry (capped), like
            :meth:`repro.resilience.repair.RepairConfig.backoff`.
        retry_backoff_cap: Upper bound on one backoff delay, seconds.
        placement_attempts: Bound on scheduling attempts when placement
            *raises* (a poison request); exhausting it dead-letters the
            request and leaves the shared calendar untouched.
        fault_slack: Fault-trace horizon, as a multiple of the stream
            span (floored at one day) — the streaming analogue of
            :func:`repro.resilience.faults.faults_for_schedule`.
    """

    quotas: Mapping[str, TenantQuota] = field(default_factory=dict)
    default_quota: TenantQuota = TenantQuota()
    admission_window: float | None = None
    shed_backlog: int | None = None
    commit_latency: float = 0.0
    commit_retry_cap: int = 8
    retry_backoff_base: float = 60.0
    retry_backoff_cap: float = 4 * HOUR
    placement_attempts: int = 3
    fault_slack: float = 1.5

    def __post_init__(self) -> None:
        if self.admission_window is not None and not self.admission_window >= 0:
            raise ServiceError(
                f"admission_window must be >= 0, got {self.admission_window}"
            )
        if self.shed_backlog is not None and self.shed_backlog < 1:
            raise ServiceError(
                f"shed_backlog must be >= 1, got {self.shed_backlog}"
            )
        if self.commit_latency < 0:
            raise ServiceError(
                f"commit_latency must be >= 0, got {self.commit_latency}"
            )
        if self.commit_retry_cap < 1:
            raise ServiceError(
                f"commit_retry_cap must be >= 1, got {self.commit_retry_cap}"
            )
        if self.retry_backoff_base < 0 or self.retry_backoff_cap < 0:
            raise ServiceError("retry backoff parameters must be >= 0")
        if self.placement_attempts < 1:
            raise ServiceError(
                f"placement_attempts must be >= 1, got "
                f"{self.placement_attempts}"
            )
        if self.fault_slack <= 0:
            raise ServiceError(
                f"fault_slack must be > 0, got {self.fault_slack}"
            )

    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota governing ``tenant``."""
        return self.quotas.get(tenant, self.default_quota)

    def retry_backoff(self, attempt: int) -> float:
        """Deterministic backoff before commit retry ``attempt`` (1-based):
        capped exponential, the :class:`~repro.resilience.repair.RepairConfig`
        shape."""
        if self.retry_backoff_base <= 0 or attempt < 1:
            return 0.0
        return min(
            self.retry_backoff_base * 2.0 ** (attempt - 1),
            self.retry_backoff_cap,
        )

    @property
    def is_reduction(self) -> bool:
        """Whether this configuration adds nothing over the bare stream
        (every knob at its pass-through default)."""
        return (
            not self.quotas
            and self.default_quota.unlimited
            and self.admission_window is None
            and self.shed_backlog is None
            and self.commit_latency == 0
        )
