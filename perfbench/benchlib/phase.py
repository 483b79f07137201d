"""What one timed phase of a workload leaves behind, and its metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .stats import Tally, mean, percentile, quartiles
from .tracer import Tracer

__all__ = ["Phase", "end_to_end", "per_layer"]


@dataclass
class Phase:
    """Measurements of one timed phase (seconds, counts as observed)."""

    wall: float = 0.0
    workers: int = 1
    tally: Tally = field(default_factory=Tally)
    #: Per-task latency the caller sees (see README for each workload).
    latency_ms: list[float] = field(default_factory=list)
    #: Time to first result of each stream / ``/batch`` request.
    ttfr_ms: list[float] = field(default_factory=list)
    #: ``objective / lower_bound`` over the workload's fixed ratio set.
    ratios: list[float] = field(default_factory=list)
    #: Trace spans of every successful result, plus whether it was cached.
    traces: list[tuple[dict[str, float], bool]] = field(default_factory=list)
    rss_mb: float = 0.0
    #: Workload-specific per-layer numbers (IPC bytes, serve, cache disk bytes).
    layer: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    def add_ratio(self, record: dict[str, Any]) -> None:
        """Count a successful record in ``ratio_to_lb``."""
        bound = record["metrics"]["lower_bound"]
        if bound > 0:
            self.ratios.append(record["objective"] / bound)

    @property
    def tasks_per_s(self) -> float:
        return self.tally.ok / self.wall if self.wall > 0 else 0.0


def end_to_end(phase: Phase, setup: list[float]) -> dict[str, float | None]:
    return {
        "tasks_per_s": phase.tasks_per_s,
        "solve_p50_ms": percentile(phase.latency_ms, 50),
        "solve_p95_ms": percentile(phase.latency_ms, 95),
        "batch_ttfr_ms": percentile(phase.ttfr_ms, 50),
        "failed_share": phase.tally.failed_share,
        "ratio_to_lb": mean(phase.ratios),
        "setup_s": quartiles(setup)[1],
        "peak_rss_mb": phase.rss_mb,
    }


def _p(values: list[float], q: float) -> float | None:
    return percentile(values, q) if values else 0.0


def per_layer(
    phase: Phase,
    tracer: Tracer,
    traced_tasks: int,
    traced_tps: float,
) -> dict[str, float | None]:
    """Per-layer metrics: runner/cache/serve from ``phase``, algorithm layers from ``tracer``.

    ``phase`` is the untraced phase.  ``traced_tasks`` is the number of
    tasks the tracer saw solved; its counts and times are divided by it
    (per completed task).  ``traced_tps`` is ``tasks_per_s`` of the
    traced phase.
    """
    solved = [s for s, cached in phase.traces if not cached]
    queued = [s["queued"] * 1e3 for s in solved if "queued" in s]
    solving = [s["solving"] * 1e3 for s in solved if "solving" in s]
    lookups = [s["cache_lookup"] * 1e3 for s, _ in phase.traces if "cache_lookup" in s]
    completed = len(phase.traces)
    hits = sum(1 for _, cached in phase.traces if cached)
    busy = sum(solving) / 1e3
    capacity = phase.wall * phase.workers

    per = 1.0 / traced_tasks if traced_tasks else 0.0
    t, c = tracer.total, tracer.counts
    probes = tracer.samples.get("flow.probe", [])
    solves = tracer.calls.get("solvers.solve", 0)
    oracles = c.get("flow.oracles", 0.0)
    out = {
        "runner.queue_wait_ms.p50": _p(queued, 50),
        "runner.queue_wait_ms.p95": _p(queued, 95),
        "runner.overhead_share": 1.0 - busy / capacity if capacity else 0.0,
        "workers.solving_ms.p50": _p(solving, 50),
        "workers.ipc_bytes": 0.0,
        "cache.lookup_ms.p50": _p(lookups, 50),
        "cache.hit_share": hits / completed if completed else 0.0,
        "cache.disk_bytes_written": 0.0,
        "serve.overhead_ms.p50": 0.0,
        "serve.overhead_ms.p95": 0.0,
        "serve.batch_gap_ms.p50": 0.0,
        "serve.backpressure_stalls": 0.0,
        "flow.oracles": oracles * per,
        "flow.network_nodes.mean": (
            c.get("flow.network_nodes", 0.0) / oracles if oracles else 0.0
        ),
        "flow.probes": len(probes) * per,
        "flow.probe_ms": sum(probes) * 1e3 * per,
        "flow.probe_ms.p50": _p([p * 1e3 for p in probes], 50),
        "flow.feasible_share": (
            c.get("flow.feasible", 0.0) / len(probes) if probes else 0.0
        ),
        "lp.self_ms": tracer.self_time.get("lp", 0.0) * 1e3 * per,
        "solvers.lp_solves": c.get("solvers.lp_solves", 0.0) * per,
        "solvers.milp_solves": c.get("solvers.milp_solves", 0.0) * per,
        "solvers.lp_ms": c.get("solvers.lp_ms", 0.0) * per,
        "solvers.milp_ms": c.get("solvers.milp_ms", 0.0) * per,
        "solvers.not_optimal": c.get("solvers.not_optimal", 0.0) * per,
        "solvers.warm_share": c.get("solvers.warm", 0.0) / solves if solves else 0.0,
        "busytime.opt_inf_ms": t.get("busytime.opt_inf", 0.0) * 1e3 * per,
        "busytime.pack_ms": t.get("busytime.pack", 0.0) * 1e3 * per,
        "busytime.lower_bound_ms": t.get("busytime.lower_bound", 0.0) * 1e3 * per,
        "busytime.verify_ms": t.get("busytime.verify", 0.0) * 1e3 * per,
        "activetime.minimal_self_ms": (
            tracer.self_time.get("activetime.minimal", 0.0) * 1e3 * per
        ),
        "activetime.rounding_self_ms": (
            tracer.self_time.get("activetime.rounding", 0.0) * 1e3 * per
        ),
        "activetime.verify_ms": t.get("activetime.verify", 0.0) * 1e3 * per,
        "core.active_jobs_at.calls": tracer.calls.get("core.active_jobs_at", 0) * per,
        "core.active_jobs_at_ms": t.get("core.active_jobs_at", 0.0) * 1e3 * per,
        "bench.trace_overhead_share": (
            1.0 - traced_tps / phase.tasks_per_s if phase.tasks_per_s else 0.0
        ),
    }
    out.update(phase.layer)
    return out
