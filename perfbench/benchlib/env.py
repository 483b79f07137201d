"""Checkout layout, environment fingerprint, memory and process helpers."""

from __future__ import annotations

import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

__all__ = [
    "REPO",
    "SRC",
    "SrcMissing",
    "adopt_orphans",
    "cores",
    "fingerprint",
    "peak_rss_mb",
    "remove_tree",
    "run_dir",
    "stop_descendants",
    "stop_process",
    "use_src",
]

#: Root of the checkout: the directory holding ``perfbench/``.
REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


class SrcMissing(RuntimeError):
    """The checkout holds no program to measure."""


def use_src() -> None:
    """Make the checkout's ``src/`` importable here and in child processes.

    Child processes (servers, set-up probes) inherit ``PYTHONPATH``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SrcMissing(f"no program sources at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def run_dir(label: str) -> Path:
    """A fresh directory for this run's files, inside the checkout."""
    path = REPO / ".perfbench-tmp" / f"{label}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        for child in children.get(pid, ()):
            out.append(child)
            todo.append(child)
    return out


def peak_rss_mb(root: int) -> float:
    """Summed peak resident set (VmHWM) of ``root`` and its live descendants.

    Falls back to ``ru_maxrss`` of this process where ``/proc`` is absent.
    """
    if not os.path.isdir("/proc"):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pids = [root, *_descendants(root)]
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the reaper of its orphaned descendants (Linux).

    A worker whose parent died (a server stopped by SIGKILL) is then
    re-parented here rather than to init, so :func:`stop_process` and
    :func:`stop_descendants` can reap it.  Answers whether it took.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _stop_group(pgid: int, grace: float) -> None:
    """SIGKILL what is left of process group ``pgid`` and reap it."""
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        try:
            while os.waitpid(-pgid, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        time.sleep(0.01)


def stop_process(
    proc: subprocess.Popen, grace: float = 10.0, *, group: bool = False
) -> None:
    """SIGTERM ``proc``, escalate to SIGKILL after ``grace`` s, and reap it.

    With ``group``, ``proc`` was started with ``start_new_session=True``
    and leads its own process group: whatever of that group outlives it
    (workers orphaned by a SIGKILL) is killed and reaped too.
    """
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(grace)
    if group:
        _stop_group(proc.pid, grace)
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()


def _signal_all(pids: list[int], signum: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def stop_descendants(grace: float = 5.0) -> int:
    """Stop and reap every process still below this one; answer how many.

    Meant to run last at exit, after the workloads closed what they
    started and the libraries joined their workers, so it finds nothing
    on a clean run.  Stragglers get SIGTERM, then SIGKILL after
    ``grace`` s.
    """
    if not os.path.isdir("/proc"):
        return 0
    pids = _descendants(os.getpid())
    if pids:
        _signal_all(pids, signal.SIGTERM)
    found = len(pids)
    deadline = time.monotonic() + grace
    killed = False
    while pids:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        pids = _descendants(os.getpid())
        if not pids:
            break
        if time.monotonic() > deadline:
            if killed:
                break
            _signal_all(pids, signal.SIGKILL)
            killed = True
            deadline = time.monotonic() + grace
        time.sleep(0.01)
    return found


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def _git_commit() -> str:
    head = REPO / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = REPO / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _src_lines() -> int:
    total = 0
    for path in SRC.rglob("*.py"):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def fingerprint() -> dict:
    """Where a result was measured: hardware, toolchain, backends, commit."""
    import numpy
    import scipy

    from repro.solvers import available_backend_names, resolve_backend

    return {
        "cores": cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backends_available": list(available_backend_names()),
        "backend_default": resolve_backend(None).name,
        "commit": _git_commit(),
        "src_lines": _src_lines(),
        "platform": platform.platform(),
    }
