"""Command-line interface: generate, inspect, schedule.

Installed as the ``repro`` console script::

    repro gen-dag --n 50 --out app.json
    repro gen-dag --template montage --out app.json
    repro gen-log --preset SDSC_BLUE --out cluster.swf
    repro info --dag app.json
    repro schedule --dag app.json --log cluster.swf --preset SDSC_BLUE \
        --phi 0.2 --method expo --gantt
    repro deadline --dag app.json --log cluster.swf --preset SDSC_BLUE \
        --phi 0.2 --method expo --deadline-hours 24
    repro trace --dag app.json --preset SDSC_BLUE --out run.trace.jsonl
    repro stats --dag app.json --preset SDSC_BLUE
    repro report --cell table4 --out run_report.json

Every command is deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.deadline import DEADLINE_ALGORITHMS, schedule_deadline
from repro.core.ressched import ResSchedAlgorithm, schedule_ressched
from repro.dag import DagGenParams, from_json, random_task_graph, summarize, to_json
from repro.dag.templates import TEMPLATES
from repro.errors import GenerationError, ReproError
from repro.rng import make_rng
from repro.units import HOUR
from repro.viz import ascii_gantt
from repro.workloads import (
    build_reservation_scenario,
    generate_log,
    parse_swf,
    preset,
    write_swf,
)
from repro.workloads.reservations import pick_scheduling_time

#: Width of the SLO buckets in a ``repro serve`` RunReport, in
#: simulation seconds.
_SLO_BUCKET_S = 900.0


def _parse_ressched_algorithm(name: str) -> ResSchedAlgorithm:
    """Parse a paper-style name like ``BL_CPAR_BD_CPAR``."""
    marker = "_BD_"
    if marker not in name:
        raise GenerationError(
            f"algorithm name {name!r} must look like BL_<x>_BD_<y>"
        )
    bl, bd_suffix = name.split(marker, 1)
    return ResSchedAlgorithm(bl=bl, bd=f"BD_{bd_suffix}")


def _cmd_gen_dag(args: argparse.Namespace) -> int:
    rng = make_rng(args.seed)
    if args.template:
        graph = TEMPLATES[args.template](rng)
    else:
        params = DagGenParams(
            n=args.n,
            width=args.width,
            regularity=args.regularity,
            density=args.density,
            jump=args.jump,
            alpha_max=args.alpha_max,
        )
        graph = random_task_graph(params, rng)
    text = to_json(graph)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {graph.n}-task DAG to {args.out}")
    else:
        print(text)
    return 0


def _cmd_gen_log(args: argparse.Namespace) -> int:
    params = preset(args.preset)
    jobs = generate_log(params, make_rng(args.seed))
    lines = "\n".join(write_swf(jobs, header=f"synthetic {params.name} log"))
    if args.out:
        Path(args.out).write_text(lines + "\n")
        print(f"wrote {len(jobs)} jobs to {args.out}")
    else:
        print(lines)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = from_json(Path(args.dag).read_text())
    s = summarize(graph)
    print(f"tasks            {s.n_tasks}")
    print(f"edges            {s.n_edges}")
    print(f"levels           {s.n_levels}")
    print(f"max width        {s.max_width}")
    print(f"layered          {s.is_layered}")
    print(f"critical path    {s.seq_critical_path / HOUR:.2f} h (sequential)")
    print(f"total work       {s.total_seq_work / HOUR:.2f} CPU-hours (seq)")
    print(f"parallelism      {s.parallelism:.2f}")
    print(f"mean alpha       {s.mean_alpha:.3f}")
    return 0


def _load_platform(args: argparse.Namespace):
    """The reservation scenario named by ``--preset``, ``--log`` (or a
    log generated from ``--seed``), ``--phi`` and ``--method``."""
    params = preset(args.preset)
    if args.log:
        with open(args.log) as fh:
            jobs = parse_swf(fh)
    else:
        jobs = generate_log(params, make_rng(args.seed))
    rng = make_rng(args.seed + 1)
    now = pick_scheduling_time(jobs, rng)
    return build_reservation_scenario(
        jobs, params.n_procs, phi=args.phi, now=now, method=args.method,
        rng=rng,
    )


def _load_scenario(args: argparse.Namespace):
    graph = from_json(Path(args.dag).read_text())
    return graph, _load_platform(args)


def _cmd_schedule(args: argparse.Namespace) -> int:
    graph, scenario = _load_scenario(args)
    algorithm = _parse_ressched_algorithm(args.algorithm)
    schedule = schedule_ressched(graph, scenario, algorithm)
    print(f"algorithm     {schedule.algorithm}")
    print(f"platform      {scenario.capacity} processors, "
          f"{scenario.n_reservations} competing reservations")
    print(f"turn-around   {schedule.turnaround / HOUR:.2f} h")
    print(f"CPU-hours     {schedule.cpu_hours:.1f}")
    if args.gantt:
        print()
        print(ascii_gantt(schedule))
    return 0


def _cmd_deadline(args: argparse.Namespace) -> int:
    graph, scenario = _load_scenario(args)
    deadline = scenario.now + args.deadline_hours * HOUR
    result = schedule_deadline(graph, scenario, deadline, args.algorithm)
    print(f"algorithm     {result.algorithm}")
    print(f"deadline      now + {args.deadline_hours:.1f} h")
    if not result.feasible:
        print("verdict       CANNOT be met")
        return 1
    print("verdict       met")
    if result.lam is not None:
        print(f"lambda        {result.lam:.2f}")
    print(f"CPU-hours     {result.cpu_hours:.1f}")
    if args.gantt and result.schedule is not None:
        print()
        print(ascii_gantt(result.schedule))
    return 0


def _run_instrumented_schedule(args: argparse.Namespace, *, keep_events: bool):
    """Shared body of ``trace`` and ``stats``: one instrumented run.

    Runs the RESSCHED heuristic, and additionally the deadline procedure
    when ``--deadline-hours`` is given, with instrumentation
    force-enabled (no ``REPRO_OBS`` needed), returning the collector.
    """
    from repro import obs

    graph, scenario = _load_scenario(args)
    algorithm = _parse_ressched_algorithm(args.algorithm)
    with obs.instrumented(keep_events=keep_events) as col:
        schedule = schedule_ressched(graph, scenario, algorithm)
        if args.deadline_hours is not None:
            deadline = scenario.now + args.deadline_hours * HOUR
            schedule_deadline(graph, scenario, deadline, args.dl_algorithm)
    return schedule, col


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs import timeline as tl

    if args.format == "chrome":
        # Record the span timeline alongside the aggregates so the run
        # opens as a nested trace in Perfetto / chrome://tracing.
        with tl.recording() as timeline:
            schedule, col = _run_instrumented_schedule(args, keep_events=True)
        n = tl.write_chrome_trace(
            args.out, timeline, meta={"algorithm": args.algorithm}
        )
        print(f"wrote {n} chrome trace events to {args.out}")
    else:
        schedule, col = _run_instrumented_schedule(args, keep_events=True)
        n = obs.write_trace(args.out, col, meta={"algorithm": args.algorithm})
        print(f"wrote {n} trace records to {args.out}")
    print(f"turn-around   {schedule.turnaround / HOUR:.2f} h")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro import obs

    _, col = _run_instrumented_schedule(args, keep_events=False)
    print(obs.format_collector(col))
    return 0


def _cmd_execute(args: argparse.Namespace) -> int:
    # Deferred import: the resilience engine is not needed by the
    # lightweight commands.
    from repro.experiments.reporting import run_instrumented
    from repro.resilience import (
        FaultModel,
        execute_resilient,
        faults_for_schedule,
    )
    from repro.rng import derive_rng
    from repro.sim.noise import LognormalNoise
    from repro.units import format_duration

    graph, scenario = _load_scenario(args)
    algorithm = _parse_ressched_algorithm(args.algorithm)
    schedule = schedule_ressched(graph, scenario, algorithm)
    if args.fault_rate > 0:
        faults = faults_for_schedule(
            schedule, scenario, FaultModel.from_rate(args.fault_rate),
            derive_rng(args.seed, "execute-faults", f"{args.fault_rate:g}"),
        )
    else:
        faults = ()
    noise = LognormalNoise(args.noise) if args.noise > 0 else None
    deadline = (
        scenario.now + args.deadline_hours * HOUR
        if args.deadline_hours is not None else None
    )

    meta = {
        "command": "execute", "policy": args.policy,
        "fault_rate": args.fault_rate, "noise_sigma": args.noise,
        "seed": args.seed,
    }
    result, report = run_instrumented(
        "execute", execute_resilient, schedule, graph, scenario,
        policy=args.policy, faults=faults, runtime_model=noise,
        rng=derive_rng(args.seed, "execute-noise"), deadline=deadline,
        meta=meta,
    )
    print(f"algorithm     {schedule.algorithm}+{args.policy}")
    print(f"planned       {schedule.turnaround / HOUR:.2f} h turn-around")
    print(f"faults        {len(faults)} injected, "
          f"{len(result.faults_applied)} applied, "
          f"{result.faults_denied} denied")
    print(f"repairs       {len(result.repairs)} "
          f"({result.revocations} bookings revoked, "
          f"{result.total_kills} kills)")
    if result.success:
        print(f"turn-around   {result.realized_turnaround / HOUR:.2f} h "
              f"(slowdown {result.slowdown:.3f})")
        print(f"CPU-hours     {result.cpu_hours_booked:.1f} booked, "
              f"{result.cpu_hours_used:.1f} used "
              f"(efficiency {result.booking_efficiency:.3f})")
        if deadline is not None:
            print(f"deadline      now + "
                  f"{format_duration(deadline - scenario.now)}: "
                  f"{'met' if result.deadline_met else 'MISSED'}")
    else:
        for f in result.failures:
            print(f"FAILED        task {f.task} ({f.reason}, "
                  f"{f.attempts} attempts, "
                  f"{f.booked_cpu_seconds / HOUR:.1f} CPU-hours burned)")
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"wrote run report to {args.out}")
    if args.gantt and result.executed is not None:
        print()
        print(ascii_gantt(result.executed))
    return 0 if result.success else 1


def _cmd_report(args: argparse.Namespace) -> int:
    # Deferred import: the experiment drivers are heavy.
    from repro import obs
    from repro.experiments import (
        ExperimentScale,
        FaultTolerance,
        run_resilience,
        run_table4,
    )
    from repro.experiments.reporting import run_instrumented
    from repro.experiments.resilience import format_resilience
    from repro.experiments.table4 import format_table4

    from dataclasses import asdict, replace

    scale = replace(
        ExperimentScale.smoke(), seed=args.seed, n_workers=args.workers
    )
    meta = {}
    if args.cell == "resilience":
        ft = FaultTolerance(
            instance_timeout=args.instance_timeout, journal=args.journal,
        )
        result, report = run_instrumented(
            args.cell, run_resilience, scale, scale=scale,
            fault_tolerance=ft,
        )
        report.meta["quarantined"] = [asdict(q) for q in result.quarantined]
        report.meta["resumed"] = result.resumed
    else:
        from repro.experiments.memo import cache_stats

        cells = {"table4": run_table4}
        if args.cell == "table4":
            # Pair each drawn DAG with several reservation scenarios
            # (start-time x tagging draws) so the allocation memo sees
            # every graph more than once within the cell; CI asserts a
            # nonzero cache.alloc.hit on this report.
            scale = replace(scale, start_times=2, taggings=2)
        result, report = run_instrumented(
            args.cell, cells[args.cell], scale, scale=scale
        )
        report.meta["cache"] = cache_stats()
    text = report.to_json()  # validates against RUN_REPORT_SCHEMA
    args.out.write_text(text + "\n")
    print(f"wrote run report to {args.out}")
    if args.trace_out:
        n = obs.write_trace(
            args.trace_out, report.collector, meta={"cell": args.cell}
        )
        print(f"wrote {n} trace records to {args.trace_out}")
    if args.cell == "table4":
        print(format_table4(result))
    elif args.cell == "resilience":
        print(format_resilience(result))
    print()
    print(obs.format_collector(report.collector))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # Deferred import: the bench module drags in the experiment drivers,
    # which the lightweight commands should not pay for.
    import json

    from repro.bench import run_benchmarks

    # Fail on an unwritable --out before spending minutes benchmarking.
    try:
        args.out.touch()
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    report = run_benchmarks(quick=args.quick)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Deferred import: the service pulls in the stream + resilience
    # layers.
    from repro.experiments.reporting import run_instrumented
    from repro.experiments.stream import requests_from_specs
    from repro.obs import timeline as tl
    from repro.resilience.faults import FaultModel
    from repro.service import ReservationService, ServiceConfig, TenantQuota
    from repro.workloads.requests import load_request_stream

    specs = load_request_stream(args.requests)
    graphs = [from_json(Path(p).read_text()) for p in args.dag]
    scenario = _load_platform(args)
    algorithm = _parse_ressched_algorithm(args.algorithm)
    requests = requests_from_specs(specs, graphs)
    model = FaultModel.from_rate(args.faults) if args.faults > 0 else None
    config = ServiceConfig(
        default_quota=TenantQuota(
            max_active=args.quota_active,
            max_cpu_hours=args.quota_cpu_hours,
        ),
        admission_window=args.admission_window,
        shed_backlog=args.shed_backlog,
        commit_latency=args.commit_latency,
        commit_retry_cap=args.retry_cap,
    )

    def _run():
        return ReservationService(
            scenario,
            algorithm,
            config=config,
            fault_model=model,
            seed=args.seed,
            journal_path=args.journal,
            dead_letter_path=args.dead_letter,
            shards=args.shards,
            shard_workers=args.shard_workers,
        ).run(requests, stop_after=args.stop_after)

    meta = {
        "requests": str(args.requests),
        "dags": len(graphs),
        "fault_rate": args.faults,
        "shards": args.shards or 1,
    }
    want_timeline = args.timeline or args.trace_out is not None
    if want_timeline:
        from repro.obs.slo import SloSeries

        with tl.recording(sim_epoch=scenario.now) as timeline:
            result, report = run_instrumented("serve", _run, meta=meta)
        report.timeline = timeline.summary()
        report.slo = SloSeries.from_events(
            timeline.events, bucket_s=_SLO_BUCKET_S, t0=scenario.now
        ).to_dict()
        if args.trace_out is not None:
            n = tl.write_chrome_trace(
                args.trace_out, timeline, meta={"requests": str(args.requests)}
            )
            print(f"wrote {n} chrome trace events to {args.trace_out}")
    else:
        result, report = run_instrumented("serve", _run, meta=meta)
    summary = result.summary()
    # The digest pins the run's compute-derived state; CI compares it
    # across a kill-and-resume pair to prove crash-safe identity.
    report.meta["service"] = summary
    print(f"algorithm     {algorithm.name}")
    print(f"platform      {scenario.capacity} processors, "
          f"{scenario.n_reservations} competing reservations")
    print(f"requests      {summary['admitted']} admitted, "
          f"{summary['rejected']} rejected, "
          f"{summary['dead_letter']} dead-lettered"
          + (f", {summary['resumed']} resumed from journal"
             if summary["resumed"] else ""))
    print(f"faults        {summary['faults_applied']} applied "
          f"({summary['faults_denied']} denied), "
          f"{summary['revocations']} revocations, "
          f"{summary['rebooked']} re-bookings")
    print(f"digest        {summary['digest']}")
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"wrote run report to {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Deferred import: the checker is pure stdlib but cold-start weight
    # belongs only to the command that needs it.
    from repro.lint import (
        all_rules,
        baseline_key,
        format_findings,
        lint_project,
        load_baseline,
    )

    if args.explain:
        for rule in all_rules():
            print(f"{rule.rule_id} {rule.title}")
            print(f"    {rule.rationale}")
        return 0
    if not args.paths:
        print("error: lint needs at least one path", file=sys.stderr)
        return 2
    findings = lint_project(args.paths, cache_path=args.cache)
    if args.baseline:
        known = load_baseline(args.baseline)
        baselined = [f for f in findings if baseline_key(f) in known]
        findings = [f for f in findings if baseline_key(f) not in known]
        if baselined:
            print(
                f"{len(baselined)} baselined finding(s) suppressed "
                f"by {args.baseline}",
                file=sys.stderr,
            )
    text = format_findings(findings, fmt=args.format)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {len(findings)} finding(s) to {args.out}")
    else:
        print(text)
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Scheduling mixed-parallel applications with advance "
            "reservations (Aida & Casanova, HPDC 2008 — reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dag", help="generate a random application DAG")
    p.add_argument("--n", type=int, default=50, help="number of tasks")
    p.add_argument("--width", type=float, default=0.5)
    p.add_argument("--regularity", type=float, default=0.5)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--jump", type=int, default=1)
    p.add_argument("--alpha-max", type=float, default=0.2, dest="alpha_max")
    p.add_argument(
        "--template", choices=sorted(TEMPLATES), default=None,
        help="use a workflow template instead of the random generator",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="output JSON path")
    p.set_defaults(func=_cmd_gen_dag)

    p = sub.add_parser("gen-log", help="generate a synthetic SWF batch log")
    p.add_argument("--preset", type=str, default="SDSC_BLUE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="output SWF path")
    p.set_defaults(func=_cmd_gen_log)

    p = sub.add_parser("info", help="summarize a DAG JSON file")
    p.add_argument("--dag", type=str, required=True)
    p.set_defaults(func=_cmd_info)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dag", type=str, required=True, help="DAG JSON path")
        p.add_argument(
            "--log", type=str, default=None,
            help="SWF log path (default: generate from --preset)",
        )
        p.add_argument("--preset", type=str, default="SDSC_BLUE")
        p.add_argument("--phi", type=float, default=0.2)
        p.add_argument(
            "--method", choices=("linear", "expo", "real"), default="expo"
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--gantt", action="store_true")

    p = sub.add_parser("schedule", help="minimize turn-around (RESSCHED)")
    add_common(p)
    p.add_argument("--algorithm", type=str, default="BL_CPAR_BD_CPAR")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("deadline", help="meet a deadline (RESSCHEDDL)")
    add_common(p)
    p.add_argument(
        "--algorithm", choices=sorted(DEADLINE_ALGORITHMS),
        default="DL_RCBD_CPAR-lambda",
    )
    p.add_argument(
        "--deadline-hours", type=float, required=True, dest="deadline_hours",
        help="deadline as hours after the scheduling instant",
    )
    p.set_defaults(func=_cmd_deadline)

    def add_obs_common(p: argparse.ArgumentParser) -> None:
        add_common(p)
        p.add_argument("--algorithm", type=str, default="BL_CPAR_BD_CPAR")
        p.add_argument(
            "--deadline-hours", type=float, default=None,
            dest="deadline_hours",
            help="also run the deadline procedure with this deadline",
        )
        p.add_argument(
            "--dl-algorithm", choices=sorted(DEADLINE_ALGORITHMS),
            default="DL_RCBD_CPAR-lambda", dest="dl_algorithm",
            help="deadline algorithm when --deadline-hours is given",
        )

    p = sub.add_parser(
        "trace", help="export a JSONL trace of one instrumented run"
    )
    add_obs_common(p)
    p.add_argument(
        "--out", type=str, default="run.trace.jsonl",
        help="output JSONL path (default: ./run.trace.jsonl)",
    )
    p.add_argument(
        "--format", choices=("jsonl", "chrome"), default="jsonl",
        help="jsonl = aggregate span/decision records; chrome = "
        "Chrome trace-event JSON (opens in Perfetto / chrome://tracing)",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "stats", help="print counters/spans of one instrumented run"
    )
    add_obs_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "execute",
        help="execute a plan through faults under a repair policy",
    )
    add_common(p)
    p.add_argument("--algorithm", type=str, default="BL_CPAR_BD_CPAR")
    p.add_argument(
        "--policy",
        choices=("local-rebook", "replan-remaining", "degrade-to-deadline"),
        default="local-rebook", help="repair policy",
    )
    p.add_argument(
        "--fault-rate", type=float, default=2.0, dest="fault_rate",
        help="competing-arrival rate per day (cancels and downtimes at "
        "a quarter each); 0 disables fault injection",
    )
    p.add_argument(
        "--noise", type=float, default=0.0,
        help="lognormal sigma of runtime noise (0 = exact runtimes)",
    )
    p.add_argument(
        "--deadline-hours", type=float, default=None, dest="deadline_hours",
        help="deadline as hours after the scheduling instant "
        "(required context for degrade-to-deadline; defaults to the "
        "planned completion)",
    )
    p.add_argument(
        "--out", type=str, default=None,
        help="also write a RunReport JSON with the repair counters here",
    )
    p.set_defaults(func=_cmd_execute)

    p = sub.add_parser(
        "report",
        help="run one instrumented experiment cell, emit a RunReport JSON",
    )
    p.add_argument(
        "--cell", choices=("table4", "resilience"), default="table4",
        help="which experiment cell to run (smoke scale)",
    )
    p.add_argument(
        "--out", type=Path, default=Path("run_report.json"),
        help="RunReport JSON path (default: ./run_report.json)",
    )
    p.add_argument(
        "--trace-out", type=str, default=None, dest="trace_out",
        help="also write the aggregate JSONL trace here",
    )
    p.add_argument("--seed", type=int, default=20080623)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--instance-timeout", type=float, default=None,
        dest="instance_timeout",
        help="resilience cell: wall-clock seconds per instance before "
        "it is quarantined",
    )
    p.add_argument(
        "--journal", type=str, default=None,
        help="resilience cell: checkpoint journal path; an interrupted "
        "sweep resumes from it",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "bench", help="hot-path performance regression benchmarks"
    )
    p.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for CI smoke runs",
    )
    p.add_argument(
        "--out", type=Path, default=Path("BENCH_hotpath.json"),
        help="output JSON path (default: ./BENCH_hotpath.json)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "serve",
        help="fault-tolerant multi-tenant service replay with quotas, "
        "fault injection and a crash-safe journal",
    )
    p.add_argument(
        "--requests", type=str, required=True,
        help="request-stream CSV "
        "(request_id,arrival_offset,mode,priority,tenant)",
    )
    p.add_argument(
        "--dag", action="append", required=True,
        help="DAG JSON path; repeat to round-robin several applications",
    )
    p.add_argument(
        "--log", type=str, default=None,
        help="SWF log path (default: generate from --preset)",
    )
    p.add_argument("--preset", type=str, default="SDSC_BLUE")
    p.add_argument("--phi", type=float, default=0.2)
    p.add_argument(
        "--method", choices=("linear", "expo", "real"), default="expo"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm", type=str, default="BL_CPAR_BD_CPAR")
    p.add_argument(
        "--faults", type=float, default=0.0,
        help="fault intensity in events/day (FaultModel.from_rate); "
        "0 disables injection (default)",
    )
    p.add_argument(
        "--quota-active", type=int, default=None, dest="quota_active",
        help="per-tenant cap on concurrently active requests",
    )
    p.add_argument(
        "--quota-cpu-hours", type=float, default=None,
        dest="quota_cpu_hours",
        help="per-tenant cap on booked CPU-hours",
    )
    p.add_argument(
        "--shed-backlog", type=int, default=None, dest="shed_backlog",
        help="backlog depth at which batch traffic is load-shed "
        "(default: no shedding)",
    )
    p.add_argument(
        "--admission-window", type=float, default=None,
        dest="admission_window",
        help="reject requests whose earliest start exceeds arrival by "
        "more than this many seconds (default: admit everything)",
    )
    p.add_argument(
        "--commit-latency", type=float, default=0.0,
        dest="commit_latency",
        help="simulated plan-to-commit seconds; faults inside the "
        "window force CAS retries (default: 0, atomic commits)",
    )
    p.add_argument(
        "--retry-cap", type=int, default=8, dest="retry_cap",
        help="commit retries before a request is dead-lettered",
    )
    p.add_argument(
        "--journal", type=str, default=None,
        help="fsync'd admission-journal path; an existing journal for "
        "the same stream resumes it",
    )
    p.add_argument(
        "--dead-letter", type=str, default=None, dest="dead_letter",
        help="quarantine JSONL path (default: <journal>.deadletter)",
    )
    p.add_argument(
        "--stop-after", type=int, default=None, dest="stop_after",
        help="process at most this many requests then exit (crash "
        "simulation for resume testing)",
    )
    p.add_argument(
        "--out", type=str, default=None,
        help="write a RunReport JSON (service.* counters + digest) here",
    )
    p.add_argument(
        "--timeline", action="store_true",
        help="record the event timeline; adds the timeline and slo "
        "sections to the RunReport (implied by --trace-out)",
    )
    p.add_argument(
        "--trace-out", type=str, default=None, dest="trace_out",
        help="write a Chrome trace-event JSON of the replay here",
    )
    p.add_argument(
        "--shards", type=int, default=None,
        help="partition the platform into this many calendar shards; "
        "faults then land per-shard and commits go two-phase "
        "(default: unsharded; --shards 1 is bitwise identical)",
    )
    p.add_argument(
        "--shard-workers", type=int, default=0, dest="shard_workers",
        help="must be 0; shard probes always fan out serially (the "
        "flag is accepted for existing command lines)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "lint",
        help="determinism & invariant checks (per-module + "
        "interprocedural rules REP001-REP010)",
    )
    p.add_argument(
        "paths", nargs="*",
        help="files or directories of python sources to check",
    )
    p.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (json carries the rule catalog)",
    )
    p.add_argument(
        "--out", type=str, default=None,
        help="write the findings report here instead of stdout",
    )
    p.add_argument(
        "--baseline", type=str, default=None,
        help="a prior `--format json` report; findings recorded there "
        "are suppressed, only new ones fail the run (warn-first "
        "adoption of new rules)",
    )
    p.add_argument(
        "--cache", type=str, default=None,
        help="analysis cache file keyed by content digests; warm runs "
        "re-analyze only changed modules",
    )
    p.add_argument(
        "--explain", action="store_true",
        help="print every rule's id, name and rationale, then exit",
    )
    p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
