"""Seeded inputs for the three workloads and the correctness gate.

Only the benchmark sees the seed: the program receives the generated
instances, through the same public API a user would call
(``make_task``/``build_sweep_tasks`` in process, the JSON wire format
for ``repro serve``).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "PACKERS",
    "Scale",
    "classify",
    "interval_pool_tasks",
    "serve_sequences",
    "solver_mix_sweep",
]

PACKERS = ("chain_peeling", "first_fit", "greedy_tracking", "kumar_rudra")

#: Relative tolerance when comparing objectives with a reference.
_TOL = 1e-9


@dataclass(frozen=True)
class Scale:
    """Input sizes for one run; ``FULL`` is the benchmark, ``SMOKE`` a quick check."""

    # interval-pool
    pool_instances: int = 40
    pool_n: int = 20
    pool_g: tuple[int, ...] = (2, 3, 4)
    # solver-mix (one sweep per stream)
    flex_n: int = 16
    flex_reps: int = 2
    active_n: int = 24
    active_horizon: int = 200
    active_reps: int = 3
    ratio_streams: int = 8
    # serve-mixed
    #: ``/solve`` and ``/batch`` requests prepared per second of the run:
    #: about twice what the server answers here, so no sequence wraps.
    solve_per_s: float = 150.0
    batch_per_s: float = 30.0
    batch_size: int = 16
    serve_n: int = 10
    setup_launches: int = 5
    serve_setup_launches: int = 5
    replay_tasks: int = 240
    #: Fixed prefix of answers whose objective/lower-bound ratio is reported.
    ratio_solves: int = 300
    ratio_batches: int = 20


FULL = Scale()
SMOKE = Scale(
    pool_instances=3,
    pool_n=8,
    pool_g=(2,),
    flex_n=6,
    flex_reps=1,
    active_n=6,
    active_horizon=20,
    active_reps=1,
    ratio_streams=1,
    solve_per_s=40.0,
    batch_per_s=6.0,
    batch_size=4,
    serve_n=6,
    setup_launches=1,
    serve_setup_launches=1,
    replay_tasks=10,
)
SCALES = {"full": FULL, "smoke": SMOKE}


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _TOL * max(1.0, abs(a), abs(b))


def classify(
    record: dict[str, Any] | None,
    *,
    index: int,
    digest: str,
    expected: float | None = None,
    status: int = 200,
) -> tuple[str, str]:
    """``(outcome, detail)`` for one answer; outcome ``"ok"`` passes the gate.

    ``record`` is a ``TaskResult.to_record()``-shaped dict.  A non-200
    HTTP status is a refusal; an ``ok: false`` answer is a timeout or an
    error; a result at the wrong position, with the wrong digest, below
    its own lower bound or different from the in-process reference
    objective breaks the gate.
    """
    if status != 200:
        return "refused", f"HTTP {status}"
    if record is None:
        return "missing", f"no result for task {index}"
    if record.get("index") != index or record.get("digest") != digest:
        return "misordered", (
            f"expected task {index} ({digest[:12]}), got "
            f"{record.get('index')} ({str(record.get('digest'))[:12]})"
        )
    if not record.get("ok"):
        error = str(record.get("error"))
        return ("timeout" if "timed out" in error else "error"), error
    objective = record.get("objective")
    bound = (record.get("metrics") or {}).get("lower_bound")
    if objective is None or bound is None:
        return "no_objective", f"task {index}: objective/lower_bound missing"
    if objective < bound and not _close(objective, bound):
        return "below_lower_bound", f"task {index}: {objective} < {bound}"
    if expected is not None and not _close(objective, expected):
        return "wrong_objective", (
            f"task {index}: {objective} != reference {expected}"
        )
    return "ok", ""


# ----------------------------------------------------------------------
# interval-pool
# ----------------------------------------------------------------------
def interval_pool_tasks(seed: int, scale: Scale) -> list:
    """``repro batch``-shaped interval busy-time tasks: no group, no timeout."""
    from repro.engine import backend_task_params, make_task
    from repro.instances import random_interval_instance

    rng = np.random.default_rng([seed, 1])
    tasks = []
    for i in range(scale.pool_instances):
        instance = random_interval_instance(
            scale.pool_n, 30.0, rng=rng
        )
        for algorithm in PACKERS:
            for g in scale.pool_g:
                tasks.append(
                    make_task(
                        index=len(tasks),
                        problem="busy",
                        algorithm=algorithm,
                        g=g,
                        instance=instance,
                        params=backend_task_params("busy", algorithm, None),
                        meta={"path": f"interval-pool#{i}"},
                    )
                )
    return tasks


# ----------------------------------------------------------------------
# solver-mix
# ----------------------------------------------------------------------
def solver_mix_sweep(seed: int, stream: int, scale: Scale) -> list:
    """One sweep: flexible busy time (all packers) plus active minimal/rounding."""
    from repro.engine import SweepGrid, build_sweep_tasks

    # Active grid first: every stream then opens with a minimal-feasible
    # solve, whose cost is set by n and the horizon rather than by how
    # hard one random MILP happens to be, which keeps batch_ttfr_ms steady.
    grids = [
        SweepGrid(
            problem="active",
            generators=("active",),
            algorithms=("minimal", "rounding"),
            g_values=(3,),
            instances_per_cell=scale.active_reps,
            n=scale.active_n,
            horizon=scale.active_horizon,
        ),
        SweepGrid(
            problem="busy",
            generators=("flexible",),
            algorithms=PACKERS,
            g_values=(2, 3),
            instances_per_cell=scale.flex_reps,
            n=scale.flex_n,
            horizon=30,
        ),
    ]
    # A sweep seeds each instance with base_seed + 101 * g + rep (plus a
    # per-generator offset), so consecutive base seeds would share
    # instances; a stride of 1000 keeps every stream's inputs distinct and
    # a run averages over as many instances as it solves.
    tasks = build_sweep_tasks(grids, base_seed=seed * 100_003 + stream * 1_000)
    # A random active-time instance can be infeasible for its g; such an
    # input has no schedule, so it is left out rather than counted failed.
    return [
        t for t in tasks if t.problem != "active" or _feasible(t.instance, t.g)
    ]


def _feasible(instance, g: int) -> bool:
    from repro.flow import is_feasible_slot_set

    return is_feasible_slot_set(instance, g, range(1, instance.horizon + 1))


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
_SOLVE_TIMEOUT = 60.0


def _payload(rng, kind: str, n: int, *, timeout: float | None) -> dict:
    from repro.instances import (
        random_active_time_instance,
        random_flexible_instance,
        random_interval_instance,
    )
    from repro.io import instance_to_payload

    g = int(rng.integers(2, 4))
    if kind == "interval":
        instance = random_interval_instance(n, 20.0, rng=rng)
        problem, algorithm = "busy", PACKERS[int(rng.integers(4))]
    elif kind == "flexible":
        instance = random_flexible_instance(n, 20, rng=rng)
        problem, algorithm = "busy", PACKERS[int(rng.integers(4))]
    else:
        instance = random_active_time_instance(n, 30, rng=rng)
        while not _feasible(instance, g):
            instance = random_active_time_instance(n, 30, rng=rng)
        problem = "active"
        algorithm = ("minimal", "rounding")[int(rng.integers(2))]
    payload = {
        "instance": instance_to_payload(instance),
        "problem": problem,
        "algorithm": algorithm,
        "g": g,
    }
    if timeout is not None:
        payload["timeout"] = timeout
    return payload


@dataclass
class ServeSequences:
    """Wire payloads for the two connections, with reference answers."""

    solve: list[dict]
    solve_repeat: list[bool]
    batches: list[list[dict]]
    #: Parallel to ``solve`` / ``batches``: (digest, reference objective).
    solve_ref: list[tuple[str, float]] = field(default_factory=list)
    batch_ref: list[list[tuple[str, float]]] = field(default_factory=list)
    warmup: list[dict] = field(default_factory=list)


def serve_sequences(seed: int, scale: Scale, seconds: float) -> ServeSequences:
    """``/solve`` payloads (about a quarter exact repeats) and unique ``/batch`` bodies."""
    solve_requests = max(10, math.ceil(scale.solve_per_s * seconds))
    batch_requests = max(2, math.ceil(scale.batch_per_s * seconds))
    rng = np.random.default_rng([seed, 3])
    kinds = ("interval", "flexible", "active")
    solve: list[dict] = []
    repeat: list[bool] = []
    unique: list[int] = []
    for i in range(solve_requests):
        if unique and rng.random() < 0.25:
            solve.append(copy.deepcopy(solve[unique[int(rng.integers(len(unique)))]]))
            repeat.append(True)
            continue
        unique.append(len(solve))
        solve.append(
            _payload(rng, kinds[i % 3], scale.serve_n, timeout=_SOLVE_TIMEOUT)
        )
        repeat.append(False)
    batches = [
        [
            _payload(
                rng,
                "active" if j % 8 == 7 else "interval",
                scale.serve_n + 2,
                timeout=None,
            )
            for j in range(scale.batch_size)
        ]
        for _ in range(batch_requests)
    ]
    # Warm-up payloads use their own stream so they never repeat a timed one.
    warm_rng = np.random.default_rng([seed, 4])
    warmup = [
        _payload(warm_rng, kind, scale.serve_n, timeout=_SOLVE_TIMEOUT)
        for kind in kinds
    ]
    seqs = ServeSequences(solve, repeat, batches, warmup=warmup)
    _reference(seqs)
    return seqs


def reference_answer(payload_json: str) -> tuple[str, float]:
    """``(digest, objective)`` of one wire payload, solved through the registry."""
    from repro.engine.registry import solve
    from repro.serve import parse_task_request

    task = parse_task_request(json.loads(payload_json))
    outcome = solve(
        task.problem, task.algorithm, task.instance, task.g, **task.params
    )
    return task.digest, float(outcome.objective)


def _reference(seqs: ServeSequences) -> None:
    """Solve every distinct payload by calling the solver registry directly.

    The server is not involved.  Large sequences are split over one
    plain process per core, since this runs before every serve-mixed
    measurement.
    """
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    from .env import cores

    keys = [json.dumps(p, sort_keys=True) for p in seqs.solve]
    batch_keys = [
        [json.dumps(p, sort_keys=True) for p in body] for body in seqs.batches
    ]
    distinct = sorted(set(keys).union(*map(set, batch_keys)))
    if len(distinct) < 64:
        answers = [reference_answer(k) for k in distinct]
    else:
        # Fork, as the program's own pools do: a spawn context would
        # start a resource-tracker process that outlives this one.
        with ProcessPoolExecutor(
            cores(), mp_context=mp.get_context("fork")
        ) as pool:
            answers = list(pool.map(reference_answer, distinct, chunksize=32))
    memo = dict(zip(distinct, answers))
    seqs.solve_ref = [memo[k] for k in keys]
    seqs.batch_ref = [[memo[k] for k in body] for body in batch_keys]
