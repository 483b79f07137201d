"""The in-process workloads: ``interval-pool`` and ``solver-mix``.

Both drive :class:`repro.engine.BatchRunner.run_stream` from this
process, stream after stream, until the timed phase has lasted the
requested seconds.  Only the stream itself is timed: building the next
stream's tasks and checking its answers happen between streams.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from itertools import zip_longest

from .env import REPO, cores, peak_rss_mb
from .phase import Phase
from .tasks import Scale, classify, interval_pool_tasks, solver_mix_sweep
from .tracer import Tracer, install_layer_spans

__all__ = ["IntervalPool", "SolverMix", "ipc_bytes", "serial_replay", "setup_samples"]

#: What a fresh interpreter does before it can submit the first task.
_SETUP_SNIPPET = """\
import sys
from repro.engine import BatchRunner, make_task
runner = BatchRunner(jobs=int(sys.argv[1]))
print("ready", flush=True)
runner.close()
"""


def setup_samples(jobs: int, launches: int) -> list[float]:
    """Seconds from launching a fresh interpreter until it can submit a task."""
    out = []
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_SNIPPET, str(jobs)],
            stdout=subprocess.PIPE,
            cwd=REPO,
        )
        try:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - start)
            proc.wait(60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed (rc={proc.returncode}, said {line!r})"
            )
    return out


class _InProcess:
    """Shared timed-phase loop; subclasses say which tasks each stream holds."""

    name = ""
    jobs = 1
    #: Streams always run, however short the phase (the ratio set).
    min_streams = 1
    #: Whether the algorithm layers run in this process during the
    #: traced phase; otherwise ``replay`` attributes them.
    layers_in_phase = False

    def __init__(self, seed: int, scale: Scale, seconds: float) -> None:
        self.seed = seed
        self.scale = scale
        self.expected: dict[str, float] = {}

    def stream(self, k: int) -> list:
        raise NotImplementedError

    def setup(self) -> list[float]:
        return setup_samples(self.jobs, self.scale.setup_launches)

    def close(self) -> None:
        """Nothing outlives a phase: each closes its own runner."""

    def phase(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        """Run streams for ``seconds`` of stream time; wrap layers if ``tracer``."""
        from repro.engine import BatchRunner

        restore = install_layer_spans(tracer) if tracer is not None else None
        runner = BatchRunner(jobs=self.jobs)
        phase = Phase(workers=self.jobs)
        try:
            list(runner.run_stream(self.stream(-1)))  # warm-up, untimed
            if tracer is not None:
                tracer.reset()
            k = 0
            last: list = []
            while phase.wall < seconds or k < self.min_streams:
                tasks = self.stream(k)
                results = []
                start = time.perf_counter()
                first = None
                for result in runner.run_stream(tasks):
                    if first is None:
                        first = time.perf_counter()
                    results.append(result)
                end = time.perf_counter()
                phase.wall += end - start
                if first is not None:
                    phase.ttfr_ms.append((first - start) * 1e3)
                self._check(phase, tasks, results, ratio=k < self.min_streams)
                last = list(zip(tasks, results))
                k += 1
            phase.rss_mb = peak_rss_mb(os.getpid())
            phase.notes["streams"] = k
            if self.jobs > 1:
                phase.layer["workers.ipc_bytes"] = ipc_bytes(last[:200])
        finally:
            runner.close()
            if restore is not None:
                restore()
        return phase

    def _check(self, phase: Phase, tasks, results, *, ratio: bool) -> None:
        from repro.obs import trace_spans

        for task, result in zip_longest(tasks, results):
            if task is None:
                phase.tally.record("extra", "stream yielded more results than tasks")
                continue
            record = result.to_record() if result is not None else None
            kind, detail = classify(
                record,
                index=task.index,
                digest=task.digest,
                expected=self.expected.get(task.digest),
            )
            phase.tally.record(kind, detail)
            if kind != "ok":
                continue
            span = trace_spans(record["metrics"])
            phase.traces.append((span, record["cached"]))
            if "total" in span:
                service = span["total"] - span.get("queued", 0.0)
                phase.latency_ms.append(service * 1e3)
            if ratio:
                phase.add_ratio(record)



def ipc_bytes(pairs) -> float:
    """Mean pickled size of a task plus its result, as the pool ships them."""
    from multiprocessing.reduction import ForkingPickler

    if not pairs:
        return 0.0
    total = sum(
        len(ForkingPickler.dumps(task)) + len(ForkingPickler.dumps(result))
        for task, result in pairs
    )
    return total / len(pairs)


def serial_replay(tasks: list, tracer: Tracer) -> int:
    """Solve ``tasks`` through a serial runner with layer spans installed."""
    from repro.engine import BatchRunner

    restore = install_layer_spans(tracer)
    try:
        with BatchRunner(jobs=1) as runner:
            results = runner.run(tasks)
    finally:
        restore()
    return sum(1 for r in results if r.ok and not r.cached)


class IntervalPool(_InProcess):
    """Tiny interval busy-time tasks on a ``jobs=cores`` pool: dispatch and IPC bound."""

    name = "interval-pool"

    def __init__(self, seed: int, scale: Scale, seconds: float) -> None:
        from repro.engine import execute_task

        super().__init__(seed, scale, seconds)
        self.jobs = cores()
        self.pool = interval_pool_tasks(seed, scale)
        # Reference answers: the same tasks solved in this process.
        for task in self.pool:
            result = execute_task(task)
            if result.ok:
                self.expected[task.digest] = float(result.objective)

    def stream(self, k: int) -> list:
        return self.pool

    def replay(self, tracer: Tracer) -> int:
        return serial_replay(self.pool, tracer)


class SolverMix(_InProcess):
    """Sweep-shaped flexible busy-time and active-time tasks on a serial runner."""

    name = "solver-mix"
    jobs = 1
    layers_in_phase = True

    def __init__(self, seed: int, scale: Scale, seconds: float) -> None:
        super().__init__(seed, scale, seconds)
        self.min_streams = scale.ratio_streams

    def stream(self, k: int) -> list:
        return solver_mix_sweep(self.seed, k, self.scale)
