"""End-to-end benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload svc_steady --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload svc_steady --seed 1 --seconds 10 --trace 1
    python3 e2ebench/run.py --record            # refresh recorded.json

Workloads (see :mod:`e2ebench.workloads`): ``svc_steady``,
``svc_faulted``, ``svc_sharded`` and ``offline_cells``.

``--trace 0`` runs repetitions of the workload, each in a fresh
interpreter with its own journal, until the timed regions add up to
``--seconds``, at least five repetitions have run and at least 1,000
verdict samples are pooled; a run that stops short of the repetitions
or the samples fails its checks.  It prints every end-to-end metric of
:mod:`e2ebench.metrics` by name and unit, with times in reference
seconds (wall seconds scaled by a host-speed probe run between verdicts).  ``--trace 1`` runs one
untraced and one traced repetition on the same inputs and prints the
per-layer self-time table, the tracing overhead, the ten slowest
verdicts and every per-layer metric of :mod:`e2ebench.layers`.

Load model: each service workload is one client replaying its stream
back to back, a closed loop with zero think time; ``run()`` consumes the
whole stream and the service is a single-threaded simulated-time loop.
No worker processes are started (serial shard fan-out, serial drivers).

Output checks run outside the timed regions: every repetition must
yield one digest, equal to the one in ``recorded.json`` for the default
seed; every admitted schedule must pass ``validate_schedule``; the final
bookings must fit the platform (per shard when sharded).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts operations
that failed (dead-lettered requests, quarantined instances); requests
the configured limits refuse are verdicts, reported by ``served_share``.

Temporary files live under ``.e2ebench-out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as _platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench-out"
RECORD = Path(__file__).resolve().parent / "recorded.json"

#: Repetitions per timed run: at least, at most.
MIN_REPS = 5
MAX_REPS = 12
#: A run stops starting repetitions once another one could end past this
#: many seconds after it began.
WALL_BUDGET_S = 140.0
#: Limit on one repetition, seconds.
REP_TIMEOUT_S = 170.0
#: ``run_seconds`` of ``BENCHMARK.json``.
RUN_SECONDS = 12


class BenchError(RuntimeError):
    """A repetition failed to run (not an output mismatch)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(SRC)])
    # The program's own instrumentation and commit validation stay off.
    env.pop("REPRO_OBS", None)
    env.pop("REPRO_VALIDATE_COMMITS", None)
    return env


def run_rep(spec: dict[str, Any], work: Path, tag: str) -> dict[str, Any]:
    """Run one repetition in a fresh interpreter and return its result."""
    spec = dict(spec)
    spec["journal"] = str(work / f"{tag}.journal.jsonl")
    spec_path = work / f"{tag}.spec.json"
    out_path = work / f"{tag}.out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "e2ebench.rep", str(spec_path), str(out_path)],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"repetition {tag} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    result = json.loads(out_path.read_text(encoding="utf-8"))
    for path in (spec["journal"], spec["journal"] + ".deadletter"):
        if os.path.exists(path):
            os.remove(path)
    return result


def prepare(name: str, seed: int, scale: float, work: Path) -> dict[str, Any]:
    """Write the workload's inputs under ``work``; returns the rep spec."""
    from e2ebench.workloads import ServiceWorkload, sized, workload, write_service_inputs

    w = sized(workload(name), scale)
    spec: dict[str, Any] = {"workload": name, "seed": seed, "scale": scale, "trace": False}
    if isinstance(w, ServiceWorkload):
        spec.update(write_service_inputs(w, seed, work / "inputs"))
    return spec


def load_record() -> dict[str, Any]:
    """``recorded.json``, or an empty record when it does not exist yet."""
    if RECORD.exists():
        return json.loads(RECORD.read_text(encoding="utf-8"))
    return {}


def check_digests(
    name: str, seed: int, scale: float, reps: list[dict[str, Any]]
) -> list[str]:
    """Mismatches among the repetitions' digests and against the record."""
    from e2ebench.workloads import DEFAULT_SEED

    errors = []
    for r in reps:
        errors += r["errors"]
    digests = sorted({r["digest"] for r in reps})
    if len(digests) != 1:
        errors.append(f"repetitions disagree on the digest: {digests}")
    if seed == DEFAULT_SEED and scale == 1:
        recorded = load_record().get("workloads", {}).get(name, {}).get("digest")
        if recorded is None:
            errors.append(f"no digest recorded for {name} in {RECORD.name}")
        elif digests != [recorded]:
            errors.append(f"digest {digests} differs from the recorded {recorded}")
    return errors


def timed_run(
    spec: dict[str, Any], work: Path, seconds: float, min_samples: int
) -> list[dict[str, Any]]:
    """Probed repetitions until the measurement targets are met."""
    spec = dict(spec, probe=True)
    began = time.perf_counter()
    reps: list[dict[str, Any]] = []
    while True:
        t = time.perf_counter()
        reps.append(run_rep(spec, work, f"rep{len(reps)}"))
        last = time.perf_counter() - t
        measured = sum(r["run_s"] for r in reps)
        samples = sum(len(r["verdict_s"]) for r in reps)
        if (
            len(reps) >= MIN_REPS
            and measured >= seconds
            and samples >= min_samples
        ) or len(reps) >= MAX_REPS:
            return reps
        if time.perf_counter() - began + 1.5 * last > WALL_BUDGET_S:
            return reps


def end_to_end(reps: list[dict[str, Any]]) -> tuple[dict[str, float], int]:
    """End-to-end metric values over a run's probed repetitions, in
    reference seconds, and the verdict sample count."""
    from e2ebench.metrics import median, percentile, reference_scale

    scaled = [(r, reference_scale(r)) for r in reps]
    pooled = [s * k for r, k in scaled for s in r["verdict_s"]]
    first = reps[0]
    return (
        {
            "admitted_per_s": median([r["completed"] / (r["run_s"] * k) for r, k in scaled]),
            "instances_per_s": median([r["attempted"] / (r["run_s"] * k) for r, k in scaled]),
            "verdict_p50_ms": percentile(pooled, 50) * 1e3,
            "verdict_p99_ms": percentile(pooled, 99) * 1e3,
            "served_share": first["completed"] / first["attempted"],
            "mean_turnaround_h": first["mean_turnaround_h"],
            "setup_s": median([r["setup_s"] * k for r, k in scaled]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        },
        len(pooled),
    )


def _print_layers(result: dict[str, Any], untraced_wall: float) -> None:
    from e2ebench.layers import span_names

    metrics = result["layers"]
    wall = metrics["trace.wall_s"]
    rows = sorted(
        ((n, metrics[f"{n}.self_s"], metrics.get(f"{n}.calls", 1)) for n in span_names()),
        key=lambda r: -r[1],
    )
    print(f"{'span':<24} {'calls':>9} {'self s':>10} {'share':>7}")
    for name, self_s, calls in rows:
        if calls:
            print(f"{name:<24} {calls:>9} {self_s:>10.4f} {self_s / wall:>7.1%}")
    total = sum(r[1] for r in rows)
    print(f"{'sum of self times':<24} {'':>9} {total:>10.4f}  (traced wall {wall:.4f} s)")
    print(
        f"tracing overhead: traced {wall:.3f} s vs untraced {untraced_wall:.3f} s "
        f"({metrics['trace.overhead']:+.1%})"
    )
    print("slowest verdicts (self ms per span):")
    for v in result["slowest"]:
        top = ", ".join(f"{k} {ms:.2f}" for k, ms in list(v["self_ms"].items())[:5])
        print(f"  {v['verdict']:<16} {v['ms']:>9.2f} ms  {top}")


def traced_run(name: str, spec: dict[str, Any], work: Path, seed: int) -> tuple[dict[str, Any], list[str], dict[str, Any]]:
    """One untraced and one traced repetition on the same inputs."""
    from e2ebench.layers import per_layer_metrics

    untraced = run_rep(spec, work, "untraced")
    OUT.mkdir(exist_ok=True)
    traced_spec = dict(spec, trace=True, spans=str(OUT / f"{name}-seed{seed}.spans.jsonl"))
    traced = run_rep(traced_spec, work, "traced")
    metrics = traced["layers"]
    metrics["trace.untraced_wall_s"] = untraced["wall_s"]
    metrics["trace.overhead"] = metrics["trace.wall_s"] / untraced["wall_s"] - 1.0
    errors = check_digests(name, seed, spec.get("scale", 1.0), [untraced, traced])
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    if abs(self_total - metrics["trace.wall_s"]) > 1e-6 * max(1.0, metrics["trace.wall_s"]):
        errors.append(
            f"self times sum to {self_total} s, traced wall is {metrics['trace.wall_s']} s"
        )
    for prefix, allowed in (
        ("shard.", name == "svc_sharded"),
        ("journal.", name != "offline_cells"),
        ("service.", name != "offline_cells"),
        ("offline.", name == "offline_cells"),
    ):
        if not allowed:
            hit = [k for k, v in metrics.items() if k.startswith(prefix) and k.endswith(".calls") and v]
            if hit:
                errors.append(f"unexpected spans on {name}: {hit}")
    (OUT / f"{name}-seed{seed}.layers.json").write_text(
        json.dumps({"metrics": metrics, "slowest": traced["slowest"]}, indent=1),
        encoding="utf-8",
    )
    _print_layers(traced, untraced["wall_s"])
    values = {}
    for m in per_layer_metrics():
        values[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    return values, errors, traced


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict[str, Any]:
    """Run one benchmark invocation; returns the final JSON object."""
    from e2ebench.metrics import MIN_VERDICT_SAMPLES, median, reference_scale, unit_of

    work = OUT / f"work-{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=False)
    try:
        spec = prepare(name, seed, scale, work)
        if trace:
            values, errors, traced = traced_run(name, spec, work, seed)
            attempted, failed = traced["attempted"], traced["failed"]
        else:
            # Tiny test scales cannot pool enough samples for a p99.
            min_samples = MIN_VERDICT_SAMPLES if scale == 1 else 0
            reps = timed_run(spec, work, seconds, min_samples)
            errors = check_digests(name, seed, scale, reps)
            e2e, n_samples = end_to_end(reps)
            if len(reps) < MIN_REPS or n_samples < min_samples:
                errors.append(
                    f"the run stopped after {len(reps)} repetitions and "
                    f"{n_samples} verdict samples; it needs {MIN_REPS} and "
                    f"{min_samples}"
                )
            values = {k: {"value": v, "unit": unit_of(k)} for k, v in e2e.items()}
            attempted = sum(r["attempted"] for r in reps)
            failed = sum(r["failed"] for r in reps)
            first = reps[0]
            print(f"workload {name}  seed {seed}  repetitions {len(reps)}  "
                  f"verdict samples {n_samples}")
            for k, v in values.items():
                print(f"  {k:<20} {v['value']:>14.6g} {v['unit']}")
            print(f"  {'failed_share':<20} {1.0 - e2e['served_share']:>14.6g} fraction "
                  f"({first['refused']} refused, {first['failed']} failed "
                  f"of {first['attempted']})")
            print(f"  {'reference scale':<20} {median([reference_scale(r) for r in reps]):>14.6g} "
                  f"(reference seconds = wall seconds x this)")
            if "wait_h_first_quarter" in first:
                print(f"  booking wait        {first['wait_h_first_quarter']:.3f} h "
                      f"(first quarter) -> {first['wait_h_last_quarter']:.3f} h (last quarter)")
        for e in errors:
            print(f"CHECK FAILED: {e}")
        return {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": values,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# Record and replay


def serve_digest(flags: list[str], cwd: Path) -> str:
    """Run ``repro serve`` with ``flags`` in ``cwd``; return its digest."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", *flags],
        cwd=cwd,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"repro serve exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    for line in proc.stdout.splitlines():
        if line.startswith("digest"):
            return line.split()[-1]
    raise BenchError(f"repro serve printed no digest:\n{proc.stdout}")


def replay(
    name: str, seed: int, scale: float, work: Path
) -> tuple[dict[str, Any], dict[str, Any], str]:
    """Run a service workload once, then ``repro serve`` with the flags
    :func:`prepare` wrote on the same inputs.

    Returns ``(spec, repetition result, repro serve digest)``.
    """
    spec = prepare(name, seed, scale, work)
    rep = run_rep(spec, work, "replay")
    served = serve_digest(spec["serve_flags"] + ["--journal", "serve.journal.jsonl"], work / "inputs")
    return spec, rep, served


def record() -> dict[str, Any]:
    """Run every workload once at the default seed and write ``recorded.json``
    and ``BENCHMARK.json``."""
    import numpy

    from e2ebench.metrics import benchmark_json
    from e2ebench.workloads import DEFAULT_SEED, WORKLOADS, ServiceWorkload, offline_generation

    doc: dict[str, Any] = {
        "default_seed": DEFAULT_SEED,
        "host": {
            "nproc": os.cpu_count(),
            "python": _platform.python_version(),
            "numpy": numpy.__version__,
        },
        "workloads": {},
    }
    for name, w in WORKLOADS.items():
        work = OUT / f"record-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            if isinstance(w, ServiceWorkload):
                spec, rep, served = replay(name, DEFAULT_SEED, 1.0, work)
                if served != rep["digest"]:
                    raise BenchError(f"{name}: repro serve digest {served} != {rep['digest']}")
                entry = {
                    "digest": rep["digest"],
                    "generation": spec["generation"],
                    "serve_flags": spec["serve_flags"],
                    "refused": rep["refused"],
                    "booking_wait_h": {
                        "first_quarter": rep["wait_h_first_quarter"],
                        "last_quarter": rep["wait_h_last_quarter"],
                    },
                    "summary": {k: v for k, v in rep["summary"].items() if k != "digest"},
                }
            else:
                rep = run_rep(prepare(name, DEFAULT_SEED, 1.0, work), work, "record")
                entry = {"digest": rep["digest"], "generation": offline_generation(w)}
            if rep["errors"]:
                raise BenchError(f"{name}: output checks failed: {rep['errors']}")
            doc["workloads"][name] = entry
            print(f"recorded {name}: {rep['digest']}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    RECORD.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(benchmark_json(RUN_SECONDS), indent=2) + "\n", encoding="utf-8"
    )
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rerun the default seed and rewrite recorded.json")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from e2ebench.workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    try:
        if args.record:
            record()
            return 0
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
        result = measure(args.workload, seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
