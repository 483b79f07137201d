"""Tests of the benchmark itself: statistics rules, spans, gate, smoke runs."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

from benchlib.env import stop_process, use_src  # noqa: E402

use_src()

import compare  # noqa: E402
import run  # noqa: E402
from benchlib.stats import Tally, percentile, reportable  # noqa: E402
from benchlib.tasks import classify  # noqa: E402
from benchlib.tracer import Tracer, install_layer_spans  # noqa: E402


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_p95_needs_ten_samples_beyond_it():
    assert percentile(range(199), 95) is None
    assert percentile(range(200), 95) == pytest.approx(199 * 0.95)
    assert not reportable(95, 199)
    assert reportable(95, 200)
    assert not reportable(99, 999)
    assert reportable(99, 1000)


def test_median_always_reported():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile([5.0], 50) == 5.0
    assert percentile([], 50) is None


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _fake_clock():
    now = [0.0]
    return now, (lambda: now[0])


def test_self_time_subtracts_nested_spans():
    now, clock = _fake_clock()
    tracer = Tracer(clock)

    def leaf():
        now[0] += 2.0

    def middle():
        now[0] += 1.0
        w_leaf()
        now[0] += 0.5

    def outer():
        now[0] += 3.0
        w_middle()
        w_leaf()

    w_leaf = tracer.wrap("leaf", leaf)
    w_middle = tracer.wrap("middle", middle)
    w_outer = tracer.wrap("outer", outer)
    w_outer()

    assert tracer.total == {"leaf": 4.0, "middle": 3.5, "outer": 8.5}
    assert tracer.self_time == {"leaf": 4.0, "middle": 1.5, "outer": 3.0}
    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}
    # Self times partition the outermost span.
    assert sum(tracer.self_time.values()) == tracer.total["outer"]


def test_same_name_nesting_counts_once():
    now, clock = _fake_clock()
    tracer = Tracer(clock)

    def pack(depth):
        now[0] += 1.0
        if depth:
            w_pack(depth - 1)

    w_pack = tracer.wrap("busytime.pack", pack)
    w_pack(2)
    assert tracer.calls["busytime.pack"] == 1
    assert tracer.total["busytime.pack"] == 3.0
    assert tracer.self_time["busytime.pack"] == 3.0


def test_layer_spans_install_and_restore():
    from repro.busytime import flexible
    from repro.core.jobs import Instance
    from repro.engine import execute_task, make_task
    from repro.instances import random_flexible_instance

    original = flexible.opt_infinity
    tracer = Tracer()
    restore = install_layer_spans(tracer)
    try:
        assert flexible.opt_infinity is not original
        task = make_task(0, "busy", "first_fit", 2, random_flexible_instance(5, 12, rng=1))
        assert execute_task(task).ok
    finally:
        restore()
    assert flexible.opt_infinity is original
    assert "__perfbench_original__" not in Instance.__dict__["active_jobs_at"].__dict__
    assert tracer.calls["busytime.opt_inf"] == 1
    assert tracer.counts["solvers.milp_solves"] == 1
    assert tracer.self_time["lp"] > 0


# ----------------------------------------------------------------------
# Correctness gate and failed_share
# ----------------------------------------------------------------------
def _record(**over):
    record = {
        "index": 0, "digest": "d0", "ok": True, "objective": 4.0,
        "metrics": {"lower_bound": 3.0}, "error": None,
    }
    record.update(over)
    return record


def test_failed_share_counts_timeouts_and_refusals():
    tally = Tally()
    outcomes = [
        classify(_record(), index=0, digest="d0", expected=4.0),
        classify(
            _record(ok=False, objective=None, error="task d0: timed out after 1s"),
            index=0, digest="d0",
        ),
        classify(None, index=0, digest="d0", status=503),
        classify(_record(ok=False, error="ValueError: boom"), index=0, digest="d0"),
        classify(_record(), index=0, digest="d0", expected=5.0),
        classify(_record(index=1), index=0, digest="d0"),
        classify(_record(objective=2.0), index=0, digest="d0"),
        classify(_record(), index=0, digest="d0"),
    ]
    for kind, detail in outcomes:
        tally.record(kind, detail)
    assert [kind for kind, _ in outcomes] == [
        "ok", "timeout", "refused", "error", "wrong_objective",
        "misordered", "below_lower_bound", "ok",
    ]
    assert tally.attempted == 8
    assert tally.failed == 6
    assert tally.failed_share == pytest.approx(6 / 8)
    assert tally.kinds["timeout"] == 1 and tally.kinds["refused"] == 1


# ----------------------------------------------------------------------
# BENCHMARK.json and compare mode
# ----------------------------------------------------------------------
def test_benchmark_json_names_what_run_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_compare_orders_layers_by_change(tmp_path, capsys):
    def write(path, value):
        with open(path, "w") as fh:
            for seed in range(3):
                fh.write(json.dumps({
                    "workload": "solver-mix", "trace": 0,
                    "metrics": {"tasks_per_s": value + seed},
                }) + "\n")
                fh.write(json.dumps({
                    "workload": "solver-mix", "trace": 1,
                    "metrics": {"flow.probe_ms": value, "lp.self_ms": 1.0},
                }) + "\n")

    write(tmp_path / "a.jsonl", 10.0)
    write(tmp_path / "b.jsonl", 20.0)
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "new/base = 1.909 (base = 11 tasks/s)" in out
    layers = [line.split()[0] for line in out.splitlines() if "->" in line]
    assert layers == ["flow.probe_ms", "lp.self_ms"]


# ----------------------------------------------------------------------
# Smoke runs of the command itself
# ----------------------------------------------------------------------
def _run(tmp_path, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--trace", str(trace),
         "--scale", "smoke", "--out", str(tmp_path / "out.jsonl")],
        cwd=REPO, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(names)
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end(tmp_path, workload):
    metrics = _run(tmp_path, workload, 0)
    assert metrics["tasks_per_s"] > 0
    assert metrics["setup_s"] > 0
    assert metrics["ratio_to_lb"] >= 1.0
    assert metrics["peak_rss_mb"] > 0


def test_smoke_traced_interval_pool_bypasses_flow_and_solvers(tmp_path):
    metrics = _run(tmp_path, "interval-pool", 1)
    for name, value in metrics.items():
        if name.startswith(("flow.", "solvers.")):
            assert value == 0, name
    assert metrics["cache.hit_share"] == 0
    assert metrics["busytime.pack_ms"] > 0
    assert metrics["workers.ipc_bytes"] > 0


def test_smoke_traced_solver_mix_reaches_flow_and_solvers(tmp_path):
    metrics = _run(tmp_path, "solver-mix", 1)
    assert metrics["cache.hit_share"] == 0
    assert metrics["workers.ipc_bytes"] == 0
    assert metrics["flow.probes"] > 0
    assert metrics["solvers.milp_solves"] > 0
    assert metrics["busytime.opt_inf_ms"] > 0


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_stop_process_takes_the_group_with_it(tmp_path):
    # The parent ignores SIGTERM and so is killed; its child is orphaned.
    parent = subprocess.Popen(
        [sys.executable, "-c",
         "import signal, subprocess, sys, time\n"
         "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
         "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
         "print(child.pid, flush=True)\n"
         "time.sleep(60)\n"],
        stdout=subprocess.PIPE, start_new_session=True,
    )
    child = int(parent.stdout.readline())
    try:
        assert _running(child)
        stop_process(parent, grace=1.0, group=True)
        assert parent.returncode is not None
        for _ in range(200):
            if not _running(child):
                break
            time.sleep(0.01)
        assert not _running(child)
    finally:
        if _running(child):
            os.kill(child, signal.SIGKILL)


_MIDDLE = """\
import subprocess, sys
sleeper = subprocess.Popen(
    [sys.executable, "-c", "import time; time.sleep(60)"],
    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
)
print(sleeper.pid)
"""

_ADOPTER = """\
import subprocess, sys
sys.path.insert(0, sys.argv[1])
from benchlib.env import adopt_orphans, stop_descendants
assert adopt_orphans()
middle = subprocess.run([sys.executable, "-c", sys.argv[2]], capture_output=True, text=True)
print(int(middle.stdout), stop_descendants(grace=2.0))
"""


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_exit_sweep_reaps_an_adopted_orphan():
    # The middle process exits at once, orphaning its sleeper; the
    # process that adopted the sleeper must find, stop and reap it.
    proc = subprocess.run(
        [sys.executable, "-c", _ADOPTER, str(BENCH), _MIDDLE],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    orphan, stopped = map(int, proc.stdout.split())
    try:
        assert stopped == 1
        assert not _running(orphan)
    finally:
        if _running(orphan):
            os.kill(orphan, signal.SIGKILL)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interval-pool",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
