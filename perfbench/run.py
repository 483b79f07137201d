"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload interval-pool --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` runs it untraced, then traced, and prints the per-layer
metrics.  Every answer passes the correctness gate or the run fails.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--out FILE`` also appends a full record (environment fingerprint,
sample counts, failure causes) to a JSONL file that
``perfbench/compare.py`` reads.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib.env import (  # noqa: E402
    SrcMissing,
    adopt_orphans,
    fingerprint,
    stop_descendants,
    use_src,
)

#: End-to-end metrics (``--trace 0``) and their units, in print order.
END_TO_END = {
    "tasks_per_s": "tasks/s",
    "solve_p50_ms": "ms",
    "solve_p95_ms": "ms",
    "batch_ttfr_ms": "ms",
    "ratio_to_lb": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed with the end-to-end metrics but not a bounded metric: it is 0
#: on a healthy program, and the result line carries ``failed`` anyway.
REPORTED_ONLY = {"failed_share": "fraction"}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "runner.queue_wait_ms.p50": "ms",
    "runner.queue_wait_ms.p95": "ms",
    "runner.overhead_share": "fraction",
    "workers.solving_ms.p50": "ms",
    "workers.ipc_bytes": "bytes",
    "cache.lookup_ms.p50": "ms",
    "cache.hit_share": "fraction",
    "cache.disk_bytes_written": "bytes",
    "serve.overhead_ms.p50": "ms",
    "serve.overhead_ms.p95": "ms",
    "serve.batch_gap_ms.p50": "ms",
    "serve.backpressure_stalls": "count",
    "flow.oracles": "count",
    "flow.network_nodes.mean": "count",
    "flow.probes": "count",
    "flow.probe_ms": "ms",
    "flow.probe_ms.p50": "ms",
    "flow.feasible_share": "fraction",
    "lp.self_ms": "ms",
    "solvers.lp_solves": "count",
    "solvers.milp_solves": "count",
    "solvers.lp_ms": "ms",
    "solvers.milp_ms": "ms",
    "solvers.not_optimal": "count",
    "solvers.warm_share": "fraction",
    "busytime.opt_inf_ms": "ms",
    "busytime.pack_ms": "ms",
    "busytime.lower_bound_ms": "ms",
    "busytime.verify_ms": "ms",
    "activetime.minimal_self_ms": "ms",
    "activetime.rounding_self_ms": "ms",
    "activetime.verify_ms": "ms",
    "core.active_jobs_at.calls": "count",
    "core.active_jobs_at_ms": "ms",
    "bench.trace_overhead_share": "fraction",
}

WORKLOADS = ("interval-pool", "solver-mix", "serve-mixed")


def _workload(name: str, seed: int, seconds: float, scale):
    from benchlib.inproc import IntervalPool, SolverMix
    from benchlib.servemixed import ServeMixed

    return {
        "interval-pool": IntervalPool,
        "solver-mix": SolverMix,
        "serve-mixed": ServeMixed,
    }[name](seed, scale, seconds)


def measure(name: str, seed: int, seconds: float, trace: bool, scale) -> dict:
    """Run one workload; answer the full run record (metrics as plain numbers)."""
    from benchlib.phase import end_to_end, per_layer
    from benchlib.stats import Tally
    from benchlib.tracer import Tracer

    workload = _workload(name, seed, seconds, scale)
    try:
        if not trace:
            setup = workload.setup()
            phase = workload.phase(seconds)
            tally = phase.tally
            metrics = end_to_end(phase, setup)
            samples = {
                "solve_latency": len(phase.latency_ms),
                "ttfr": len(phase.ttfr_ms),
                "ratio": len(phase.ratios),
                "setup": len(setup),
            }
            method = {}
        else:
            # Runner, worker, cache and serve metrics come from the untraced
            # phase; the traced phase gives the algorithm layers (in process)
            # and, against the untraced one, the cost of the spans.
            phase = workload.phase(seconds)
            tracer = Tracer()
            traced = workload.phase(seconds, tracer)
            tally = Tally()
            tally.merge(phase.tally)
            tally.merge(traced.tally)
            if workload.layers_in_phase:
                traced_tasks = sum(1 for _, cached in traced.traces if not cached)
                where = "benchmark-side spans during the traced phase (serial runner, in process)"
            else:
                tracer = Tracer()
                traced_tasks = workload.replay(tracer)
                where = (
                    f"benchmark-side spans over a serial in-process replay of "
                    f"{traced_tasks} tasks of this run"
                )
            metrics = per_layer(phase, tracer, traced_tasks, traced.tasks_per_s)
            samples = {"results": len(phase.traces), "layer_tasks": traced_tasks}
            method = {
                "runner/workers/cache": "trace spans in each result of the untraced phase",
                "serve": "client-side timing of the untraced phase and GET /stats",
                "flow/lp/solvers/busytime/activetime/core": where,
            }
    finally:
        workload.close()
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failure_kinds": tally.kinds,
        "failure_examples": tally.examples,
        "metrics": metrics,
        "samples": samples,
        "layer_method": method,
        "notes": phase.notes,
    }


def _print_table(record: dict, units: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    for name, value in record["metrics"].items():
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {units.get(name, '')}")
    print(f"  samples: {json.dumps(record['samples'])}")
    if record["notes"]:
        print(f"  notes: {json.dumps(record['notes'], sort_keys=True)}")
    for layer, how in record["layer_method"].items():
        print(f"  measured {layer}: {how}")
    if record["failed"]:
        print(f"  FAILED {record['failed']}/{record['attempted']}: "
              f"{json.dumps(record['failure_kinds'])}")
        for example in record["failure_examples"]:
            print(f"    {example}")


def _sweep_at_exit() -> None:
    stopped = stop_descendants()
    if stopped:
        print(f"perfbench: stopped {stopped} leftover process(es) at exit",
              file=sys.stderr)


def _exit_on_term(signum, frame) -> None:
    raise SystemExit(128 + signum)


def _own_processes() -> None:
    """Leave no process behind, on every way out of the run.

    Registered before anything imports ``multiprocessing``, the sweep
    runs after every other exit handler has joined its workers.  SIGTERM
    unwinds like ``SystemExit``, so each workload's ``close`` runs.
    """
    adopt_orphans()
    atexit.register(_sweep_at_exit)
    signal.signal(signal.SIGTERM, _exit_on_term)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="input sizes: 'smoke' is a quick functional check, not a measurement",
    )
    parser.add_argument("--out", default=None, help="append the run record to this JSONL file")
    args = parser.parse_args(argv)
    _own_processes()

    try:
        use_src()
    except SrcMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from benchlib.tasks import SCALES

    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), SCALES[args.scale]
    )
    record["env"] = fingerprint()
    units = {**END_TO_END, **REPORTED_ONLY} if not args.trace else PER_LAYER
    record["units"] = units
    _print_table(record, units)
    print("# env " + json.dumps(record["env"], sort_keys=True))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    reported = END_TO_END if not args.trace else PER_LAYER
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in reported.items()
        },
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
