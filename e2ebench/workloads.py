"""The benchmark's workloads and the seeded inputs each one feeds the program.

Three service workloads replay one request stream through
``ReservationService.run``; they differ in one factor each:

* ``svc_steady``  -- fault-free, unsharded, with a journal, per-tenant
  quotas and batch shedding;
* ``svc_faulted`` -- the same stream and limits plus ``FaultModel``
  arrivals, cancels and downtimes and a nonzero commit latency;
* ``svc_sharded`` -- ``svc_faulted`` on an 8-shard calendar with serial
  fan-out.

``offline_cells`` runs one Table-4 cell, one Table-6 cell and one
repair-policy cell through the serial experiment drivers.

The seed is a benchmark argument and samples the traffic: the arrival
times (from a seeded synthetic log of the preset) and each request's
mode, priority and tenant.  The platform snapshot, the fault process and
the DAG pool -- a site's recurring applications -- are the same for every
seed, so runs under different seeds measure one system under
statistically equal load.  The offline cells are one fixed set of problem
instances (:data:`OFFLINE_SEED`) for every seed: with a handful of
instances per cell, the drawn instances alone move the cells' cost by
1.5x between seeds.  The program only ever
sees the generated inputs -- a request CSV, DAG JSON files and the flags
``repro serve`` exposes -- so ``repro serve`` with :func:`serve_flags`
replays a service workload exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

#: Seed whose digests ``recorded.json`` pins.
DEFAULT_SEED = 1

# ----------------------------------------------------------------------
# Service stream: shared by every svc_* workload.

#: Platform: built exactly as ``repro serve --preset/--phi/--method/--seed``;
#: the ``--seed`` also keys the fault trace and the retry jitter.
PRESET = "SDSC_DS"
PLATFORM_SEED = 1
PHI = 0.2
METHOD = "expo"
#: Table-1 application shapes the DAG pool recurs over.
DAG_SHAPES = ("n=10", "n=25")
DAGS_PER_SHAPE = 4
#: Seed of the DAG pool, fixed across benchmark seeds.
POOL_SEED = 2008
#: Longest sequential task time in the pool, seconds.  Keeps the offered
#: load below saturation so the booking wait does not grow along the
#: stream.
MAX_TASK_S = 1800.0
TENANTS = ("t0", "t1", "t2", "t3")
#: Share of requests in the sheddable batch class.
BATCH_SHARE = 0.6
#: Admission limits, as ``repro serve --quota-active/--shed-backlog``.
QUOTA_ACTIVE = 2
SHED_BACKLOG = 2


@dataclass(frozen=True)
class ServiceWorkload:
    """One service workload: the shared stream plus its own factors."""

    name: str
    why: str
    n_requests: int = 300
    faults_per_day: float = 0.0
    commit_latency_s: float = 0.0
    shards: int | None = None


@dataclass(frozen=True)
class OfflineWorkload:
    """One Table-4, one Table-6 and one repair-policy cell, run serially.

    Every instance pairs a distinct DAG with the cell's one reservation
    scenario, so no CPA allocation is ever served from the memo.
    """

    name: str
    why: str
    table4_instances: int = 6
    table6_instances: int = 2
    resilience_instances: int = 6


WORKLOADS: dict[str, ServiceWorkload | OfflineWorkload] = {
    w.name: w
    for w in (
        ServiceWorkload(
            name="svc_steady",
            why=(
                "common online path: admission scans, batch probes, commit "
                "splices, incremental engine and journal; no faults or shards"
            ),
        ),
        ServiceWorkload(
            name="svc_faulted",
            why=(
                "same stream plus arrivals, cancels, downtimes and commit "
                "latency: clip-then-revoke, strict add/remove, CAS re-plans"
            ),
            faults_per_day=6.0,
            commit_latency_s=300.0,
        ),
        ServiceWorkload(
            name="svc_sharded",
            why=(
                "svc_faulted on 8 shards with serial fan-out: the only "
                "workload reaching repro.shard"
            ),
            faults_per_day=6.0,
            commit_latency_s=300.0,
            shards=8,
        ),
        OfflineWorkload(
            name="offline_cells",
            why=(
                "Table-4, Table-6 and repair-policy cells: non-memoized CPA, "
                "batch and backward schedulers, multi-queries, resilient runs"
            ),
        ),
    )
}


def workload(name: str) -> ServiceWorkload | OfflineWorkload:
    """Look a workload up by name (``KeyError`` lists the valid ones)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None


def sized(w: ServiceWorkload | OfflineWorkload, scale: float) -> Any:
    """``w`` with its instance counts multiplied by ``scale`` (tests use a
    tiny scale; the benchmark always runs at 1)."""
    if scale == 1:
        return w
    if isinstance(w, ServiceWorkload):
        return replace(w, n_requests=max(8, int(w.n_requests * scale)))
    return replace(
        w,
        table4_instances=max(1, int(w.table4_instances * scale)),
        table6_instances=max(1, int(w.table6_instances * scale)),
        resilience_instances=max(1, int(w.resilience_instances * scale)),
    )


# ----------------------------------------------------------------------
# Service inputs


def platform(seed: int = PLATFORM_SEED):
    """``(jobs, scenario)``: the platform ``repro serve`` builds from
    ``--preset/--phi/--method/--seed`` without ``--log``.

    The call sequence mirrors the CLI's, so both see the same scenario.
    """
    from repro.rng import make_rng
    from repro.workloads import build_reservation_scenario, generate_log, preset
    from repro.workloads.reservations import pick_scheduling_time

    params = preset(PRESET)
    jobs = generate_log(params, make_rng(seed))
    rng = make_rng(seed + 1)
    now = pick_scheduling_time(jobs, rng)
    scenario = build_reservation_scenario(
        jobs, params.n_procs, phi=PHI, now=now, method=METHOD, rng=rng
    )
    return jobs, scenario


def dag_pool() -> list:
    """The recurring DAG pool: ``DAGS_PER_SHAPE`` instances of each Table-1
    shape in :data:`DAG_SHAPES`, interleaved by shape, drawn from
    :data:`POOL_SEED`."""
    from repro.dag import random_task_graph
    from repro.experiments.scenarios import table1_app_scenarios
    from repro.rng import derive_rng

    shapes = {a.name: a.params for a in table1_app_scenarios()}
    return [
        random_task_graph(
            replace(shapes[shape], max_seq_time=MAX_TASK_S),
            derive_rng(POOL_SEED, "e2ebench", "dag", shape, k),
        )
        for k in range(DAGS_PER_SHAPE)
        for shape in DAG_SHAPES
    ]


def write_service_inputs(
    w: ServiceWorkload, seed: int, out_dir: Path
) -> dict[str, Any]:
    """Write the request CSV and DAG JSON files for ``w`` under ``out_dir``.

    Arrivals are the submit times, after a seeded instant, of a synthetic
    log of the preset drawn from ``seed``; mode, priority and tenant are
    seeded draws too.

    Returns:
        ``{"requests": csv path, "dags": [json paths], "serve_flags":
        [...], "generation": {...}}``: the ``repro serve`` arguments that
        replay the stream from ``out_dir``, and its generation parameters.
    """
    from repro.dag import to_json
    from repro.rng import derive_rng
    from repro.workloads import REQUEST_PRIORITIES, generate_log, preset
    from repro.workloads.reservations import pick_scheduling_time

    out_dir.mkdir(parents=True, exist_ok=True)
    _, scenario = platform()
    traffic = generate_log(preset(PRESET), derive_rng(seed, "e2ebench", "arrivals"))
    instant = pick_scheduling_time(traffic, derive_rng(seed, "e2ebench", "instant"))
    offsets = sorted(j.submit - instant for j in traffic if j.submit > instant)
    offsets = offsets[: w.n_requests]
    if len(offsets) < w.n_requests:
        raise ValueError(
            f"the {PRESET} log has only {len(offsets)} arrivals after the "
            f"scheduling instant; {w.n_requests} requested"
        )
    rng = derive_rng(seed, "e2ebench", "stream")
    batch = rng.uniform(size=len(offsets)) < BATCH_SHARE
    priorities = rng.integers(0, len(REQUEST_PRIORITIES), size=len(offsets))
    tenants = rng.integers(0, len(TENANTS), size=len(offsets))
    csv_path = out_dir / "requests.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["request_id", "arrival_offset", "mode", "priority", "tenant"])
        for k, offset in enumerate(offsets):
            writer.writerow(
                [
                    f"req-{k:05d}",
                    repr(offset * 1e3),  # the CSV format is milliseconds
                    "batch" if batch[k] else "interactive",
                    REQUEST_PRIORITIES[int(priorities[k])],
                    TENANTS[int(tenants[k])],
                ]
            )
    graphs = dag_pool()
    dag_paths = []
    for k, g in enumerate(graphs):
        path = out_dir / f"dag-{k:02d}.json"
        path.write_text(to_json(g), encoding="utf-8")
        dag_paths.append(path)
    # Offered load: the pool's sequential CPU-hours over the stream span,
    # as a share of the platform's CPU-hours in that span.
    seq_h = [sum(t.seq_time for t in g.tasks) / 3600.0 for g in graphs]
    demand_h = sum(seq_h[k % len(graphs)] for k in range(len(offsets)))
    span_h = offsets[-1] / 3600.0
    capacity = preset(PRESET).n_procs
    return {
        "requests": str(csv_path),
        "dags": [str(p) for p in dag_paths],
        "serve_flags": serve_flags(w, csv_path.name, [p.name for p in dag_paths]),
        "generation": {
            "preset": PRESET,
            "phi": PHI,
            "method": METHOD,
            "dag_pool": [f"{s} (max task {MAX_TASK_S:g} s)" for s in DAG_SHAPES],
            "dags_per_shape": DAGS_PER_SHAPE,
            "requests": len(offsets),
            "stream_span_h": span_h,
            "offered_load": demand_h / (capacity * span_h),
            "competing_reservations": scenario.n_reservations,
            "faults_per_day": w.faults_per_day,
            "commit_latency_s": w.commit_latency_s,
            "shards": w.shards or 1,
        },
    }


def serve_flags(w: ServiceWorkload, requests: str, dags: list[str]) -> list[str]:
    """The ``repro serve`` arguments that replay ``w`` from the request CSV
    ``requests`` and the DAG JSON files ``dags``.

    Only settings ``repro serve`` exposes are used, with serial shard
    fan-out and no worker processes.
    """
    flags = ["--requests", requests]
    for path in dags:
        flags += ["--dag", path]
    flags += [
        "--preset", PRESET,
        "--phi", repr(PHI),
        "--method", METHOD,
        "--seed", str(PLATFORM_SEED),
        "--quota-active", str(QUOTA_ACTIVE),
        "--shed-backlog", str(SHED_BACKLOG),
    ]
    if w.faults_per_day:
        flags += ["--faults", repr(w.faults_per_day)]
    if w.commit_latency_s:
        flags += ["--commit-latency", repr(w.commit_latency_s)]
    if w.shards is not None:
        flags += ["--shards", str(w.shards), "--shard-workers", "0"]
    return flags


def service_config(w: ServiceWorkload):
    """The ``ServiceConfig`` ``repro serve`` builds from :func:`serve_flags`."""
    from repro.service import ServiceConfig, TenantQuota

    return ServiceConfig(
        default_quota=TenantQuota(max_active=QUOTA_ACTIVE),
        shed_backlog=SHED_BACKLOG,
        commit_latency=w.commit_latency_s,
    )


def fault_model(w: ServiceWorkload):
    """The fault model ``repro serve --faults`` builds (``None`` at 0)."""
    from repro.resilience.faults import FaultModel

    return FaultModel.from_rate(w.faults_per_day) if w.faults_per_day > 0 else None


# ----------------------------------------------------------------------
# Offline inputs

#: ``ExperimentScale`` seed of the offline cells (the drivers' default).
OFFLINE_SEED = 20080623
#: The cells' one log, phi and reservation method.
OFFLINE_LOG = "SDSC_DS"
OFFLINE_PHI = 0.2
OFFLINE_METHOD = "expo"


def offline_scales(w: OfflineWorkload) -> dict[str, Any]:
    """The three cells' ``ExperimentScale`` values: serial, one application
    scenario, one DAG per instance, seeded by :data:`OFFLINE_SEED`."""
    from repro.experiments.scenarios import ExperimentScale

    def cell(instances: int) -> ExperimentScale:
        return ExperimentScale(
            logs=(OFFLINE_LOG,),
            phis=(OFFLINE_PHI,),
            methods=(OFFLINE_METHOD,),
            app_scenarios=1,
            dag_instances=instances,
            start_times=1,
            taggings=1,
            seed=OFFLINE_SEED,
            n_workers=1,
        )

    return {
        "table4": cell(w.table4_instances),
        "table6": cell(w.table6_instances),
        "resilience": cell(w.resilience_instances),
    }


def offline_generation(w: OfflineWorkload) -> dict[str, Any]:
    """Generation parameters of the offline cells, for the record."""
    return {
        "log": OFFLINE_LOG,
        "phi": OFFLINE_PHI,
        "method": OFFLINE_METHOD,
        "app_scenarios": 1,
        "table4_instances": w.table4_instances,
        "table6_instances": w.table6_instances,
        "table6_columns": [f"phi={OFFLINE_PHI}", "Grid5000"],
        "resilience_instances": w.resilience_instances,
        "seed": OFFLINE_SEED,
        "n_workers": 1,
    }
