"""The ``serve-mixed`` workload: a ``repro serve`` subprocess under a closed loop.

One client process (this one) holds two keep-alive connections, each
driven by its own thread with no think time:

* ``/solve`` — small interval, flexible and active instances, each with
  a per-request timeout (so it takes the urgent watchdog lease); about
  a quarter repeat an earlier payload exactly and hit the cache;
* ``/batch`` — bodies of unique tasks with no timeout.

Request bodies are encoded, and every answer's reference objective is
computed in process, before the clock starts; answers are parsed and
checked after it stops.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .env import REPO, cores, peak_rss_mb, remove_tree, run_dir, stop_process
from .inproc import ipc_bytes, serial_replay
from .phase import Phase
from .stats import percentile
from .tasks import Scale, classify, serve_sequences
from .tracer import Tracer

__all__ = ["ServeMixed"]

_HEADERS = {"Content-Type": "application/json"}
_READY_SECONDS = 60.0

#: ``python -m repro ...`` that gets SIGTERM (and so closes its workers)
#: when the process that launched it dies, even by SIGKILL.  The first
#: argument is that process's pid, to catch a death before the prctl.
_LAUNCH = """\
import ctypes, os, runpy, signal, sys
parent = int(sys.argv.pop(1))
prctl = getattr(ctypes.CDLL(None), "prctl", None)
if prctl is not None:
    prctl(1, signal.SIGTERM, 0, 0, 0)  # PR_SET_PDEATHSIG
if os.getppid() != parent:
    sys.exit("launcher is gone")
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


class _Server:
    """One ``repro serve`` subprocess on an ephemeral port with a fresh disk cache."""

    def __init__(self, jobs: int) -> None:
        self.cache_dir = run_dir("serve-cache")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-c", _LAUNCH, str(os.getpid()), "serve",
                "--port", "0",
                "--jobs", str(jobs),
                "--cache-dir", str(self.cache_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=REPO,
            start_new_session=True,
        )
        try:
            line = self.proc.stdout.readline().decode()
            if "listening on" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            hostport = line.rsplit("//", 1)[1].strip()
            self.host, port = hostport.rsplit(":", 1)
            self.port = int(port)
            self._await_health(start)
        except BaseException:
            self.close()
            raise
        #: Seconds from launch until ``/healthz`` answered.
        self.setup_s = time.perf_counter() - start

    def _await_health(self, start: float) -> None:
        while time.perf_counter() - start < _READY_SECONDS:
            try:
                if self.get("/healthz").get("ok"):
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve never answered /healthz")

    def connect(self) -> http.client.HTTPConnection:
        """An open keep-alive connection with Nagle off, as curl and urllib3 do.

        ``http.client`` sends a request's head and body in two writes;
        with Nagle on, the body waits for the server's delayed ACK of
        the head (40 ms on Linux), which would swamp what is measured.
        """
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def get(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return json.loads(resp.read())
        finally:
            conn.close()

    def close(self) -> None:
        stop_process(self.proc, group=True)
        remove_tree(self.cache_dir)

    def disk_bytes(self) -> int:
        return sum(
            p.stat().st_size for p in Path(self.cache_dir).rglob("*") if p.is_file()
        )


def _solve_loop(conn, bodies, deadline, out) -> None:
    i = 0
    while time.perf_counter() < deadline:
        body = bodies[i % len(bodies)]
        t0 = time.perf_counter()
        conn.request("POST", "/solve", body, _HEADERS)
        resp = conn.getresponse()
        data = resp.read()
        out.append((i, resp.status, data, time.perf_counter() - t0))
        i += 1


def _batch_loop(conn, bodies, deadline, out) -> None:
    i = 0
    while time.perf_counter() < deadline:
        body = bodies[i % len(bodies)]
        t0 = time.perf_counter()
        conn.request("POST", "/batch", body, _HEADERS)
        resp = conn.getresponse()
        lines, stamps = [], []
        if resp.status == 200:
            while True:
                line = resp.readline()
                if not line:
                    break
                stamps.append(time.perf_counter() - t0)
                lines.append(line)
        else:
            resp.read()
        out.append((i, resp.status, lines, stamps))
        i += 1


def _closed_loop(server: "_Server", loops, seconds: float) -> float:
    """Run each ``(loop, bodies, out)`` on its own connection for ``seconds``.

    Both connections are open before the clock starts.  Answers the
    wall time from the start until the last in-flight request returned;
    an exception on either connection fails the run.
    """
    conns = [server.connect() for _ in loops]
    try:
        with ThreadPoolExecutor(len(loops)) as pool:
            start = time.perf_counter()
            futures = [
                pool.submit(loop, conn, bodies, start + seconds, out)
                for conn, (loop, bodies, out) in zip(conns, loops)
            ]
            for future in futures:
                future.result()
            return time.perf_counter() - start
    finally:
        for conn in conns:
            conn.close()


class ServeMixed:
    name = "serve-mixed"
    #: The layers run in the server's workers; ``replay`` attributes them.
    layers_in_phase = False

    def __init__(self, seed: int, scale: Scale, seconds: float) -> None:
        self.seed = seed
        self.scale = scale
        self.jobs = cores()
        self.seqs = serve_sequences(seed, scale, seconds)
        self.solve_bodies = [json.dumps(p).encode() for p in self.seqs.solve]
        self.batch_bodies = [
            "".join(json.dumps(p) + "\n" for p in body).encode()
            for body in self.seqs.batches
        ]
        self._ready: _Server | None = None
        self._replay: list[dict] = []

    # ------------------------------------------------------------------
    def setup(self) -> list[float]:
        """Launch the server several times; the last one serves the first phase."""
        samples = []
        for i in range(self.scale.serve_setup_launches):
            server = _Server(self.jobs)
            samples.append(server.setup_s)
            if i + 1 < self.scale.serve_setup_launches:
                server.close()
            else:
                self._ready = server
        return samples

    def close(self) -> None:
        if self._ready is not None:
            self._ready.close()
            self._ready = None

    def _warm(self, server: _Server) -> None:
        """Spin up both worker pools with payloads outside the timed sequences."""
        conn = server.connect()
        try:
            for payload in self.seqs.warmup:
                conn.request("POST", "/solve", json.dumps(payload).encode(), _HEADERS)
                conn.getresponse().read()
            body = "".join(
                json.dumps({k: v for k, v in p.items() if k != "timeout"}) + "\n"
                for p in self.seqs.warmup
            ).encode()
            conn.request("POST", "/batch", body, _HEADERS)
            conn.getresponse().read()
        finally:
            conn.close()

    # ------------------------------------------------------------------
    def phase(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        """One closed-loop phase on a fresh server (the set-up one, if ready).

        ``tracer`` is accepted like the in-process workloads' but no span
        reaches the server process; ``replay`` attributes its layers.
        """
        server, self._ready = self._ready, None
        if server is None:
            server = _Server(self.jobs)
        phase = Phase(workers=self.jobs)
        solves: list = []
        batches: list = []
        try:
            self._warm(server)
            stalls0 = server.get("/stats").get("backpressure_stalls", 0)
            phase.wall = _closed_loop(
                server,
                [
                    (_solve_loop, self.solve_bodies, solves),
                    (_batch_loop, self.batch_bodies, batches),
                ],
                seconds,
            )
            stalls = server.get("/stats").get("backpressure_stalls", 0) - stalls0
            phase.rss_mb = peak_rss_mb(server.proc.pid)
            disk = server.disk_bytes()
        finally:
            server.close()
        self._score(phase, solves, batches)
        done = max(1, len(phase.traces))
        phase.layer["cache.disk_bytes_written"] = disk / done
        phase.layer["serve.backpressure_stalls"] = float(stalls)
        phase.notes.update(
            solve_requests=len(solves),
            batch_requests=len(batches),
            exhausted=(
                len(solves) > len(self.solve_bodies)
                or len(batches) > len(self.batch_bodies)
            ),
        )
        return phase

    def _score(self, phase: Phase, solves: list, batches: list) -> None:
        from repro.engine import TaskResult
        from repro.obs import trace_spans
        from repro.serve import parse_task_request

        overheads, gaps, sent_solve, sent_batch = [], [], [], []
        shipped = []  # (Task, TaskResult) pairs a worker exchanged
        for i, status, data, rtt in solves:
            pos = i % len(self.solve_bodies)
            digest, expected = self.seqs.solve_ref[pos]
            record = json.loads(data) if status == 200 else None
            kind, detail = classify(
                record, index=0, digest=digest, expected=expected, status=status
            )
            phase.tally.record(kind, detail)
            phase.latency_ms.append(rtt * 1e3)
            if kind != "ok":
                continue
            span = trace_spans(record["metrics"])
            phase.traces.append((span, record["cached"]))
            server_time = span.get("total", sum(span.values()))
            overheads.append((rtt - server_time) * 1e3)
            if not self.seqs.solve_repeat[pos] and i < len(self.solve_bodies):
                if i < self.scale.ratio_solves:
                    phase.add_ratio(record)
                sent_solve.append(self.seqs.solve[pos])
            if len(shipped) < 200 and not record["cached"]:
                shipped.append((
                    parse_task_request(self.seqs.solve[pos]),
                    TaskResult.from_record(record),
                ))
        for i, status, lines, stamps in batches:
            pos = i % len(self.batch_bodies)
            refs = self.seqs.batch_ref[pos]
            if status != 200:
                for _ in refs:
                    phase.tally.record("refused", f"HTTP {status}")
                continue
            records = [json.loads(line) for line in lines]
            if stamps:
                phase.ttfr_ms.append(stamps[0] * 1e3)
                gaps.extend((b - a) * 1e3 for a, b in zip(stamps, stamps[1:]))
            for j in range(max(len(refs), len(records))):
                if j >= len(refs):
                    phase.tally.record("extra", "batch answered more lines than tasks")
                    continue
                record = records[j] if j < len(records) else None
                digest, expected = refs[j]
                kind, detail = classify(record, index=j, digest=digest, expected=expected)
                phase.tally.record(kind, detail)
                if kind != "ok":
                    continue
                phase.traces.append((trace_spans(record["metrics"]), record["cached"]))
                if i < self.scale.ratio_batches:
                    phase.add_ratio(record)
                if i < len(self.batch_bodies):
                    sent_batch.append((pos, j))
        phase.layer.update({
            "workers.ipc_bytes": ipc_bytes(shipped),
            "serve.overhead_ms.p50": percentile(overheads, 50) if overheads else 0.0,
            "serve.overhead_ms.p95": percentile(overheads, 95) if overheads else 0.0,
            "serve.batch_gap_ms.p50": percentile(gaps, 50) if gaps else 0.0,
        })
        # The replay interleaves the two connections' solved tasks.
        self._replay = [
            p
            for pair in zip(
                sent_solve, (self.seqs.batches[b][j] for b, j in sent_batch)
            )
            for p in pair
        ][: self.scale.replay_tasks]

    def replay(self, tracer: Tracer) -> int:
        """Algorithm layers from a serial traced run of tasks the server solved."""
        from repro.serve import parse_task_request

        tasks = [
            parse_task_request(p, index=i) for i, p in enumerate(self._replay)
        ]
        return serial_replay(tasks, tracer)
