"""Benchmark-side spans around the program's layer entry points.

The program records only flat per-task spans (``cache_lookup``,
``queued``, ``solving``, ``total``).  To split ``solving`` into layers
without touching the program, :class:`Tracer` wraps public functions and
methods of the layers in *this* process and keeps, per span name:

* ``calls`` — how many outermost calls ran,
* ``total`` — their inclusive wall time,
* ``self`` — inclusive time minus the time covered by child spans
  (any wrapped call made while it ran), so nested layers are not
  counted twice.

A span nested inside a span of the same name (a packer calling another
packer) adds to ``self`` but not again to ``calls``/``total``.

:func:`install_layer_spans` wraps the entry points listed in
``LAYER_TARGETS`` wherever the program's modules bind them (``from x
import f`` copies included) and returns a callable that restores the
originals.  Wrapping happens in the benchmark process only; layers that
run in worker or server processes are attributed elsewhere (see
``README.md``).
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable

__all__ = ["LAYER_TARGETS", "Tracer", "install_layer_spans"]


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Span recorder with self-time subtraction (single-threaded use)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        #: Per-call inclusive durations, for span names listed in ``keep``.
        self.samples: dict[str, list[float]] = {}
        #: Free-form counters filled by ``on_exit`` hooks.
        self.counts: dict[str, float] = {}
        self.keep: set[str] = set()
        self._stack: list[_Frame] = []
        self._open: dict[str, int] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        if self._stack:
            raise RuntimeError("reset() while spans are open")
        for table in (self.calls, self.total, self.self_time,
                      self.samples, self.counts, self._open):
            table.clear()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock())
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame`` (the innermost open span); answer its duration."""
        dur = self.clock() - frame.start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(
                f"span {frame.name!r} closed while {popped.name!r} was open"
            )
        name = frame.name
        self._open[name] -= 1
        self.self_time[name] = (
            self.self_time.get(name, 0.0) + dur - frame.child
        )
        if self._open[name] == 0:  # outermost span of this name
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            if name in self.keep:
                self.samples.setdefault(name, []).append(dur)
        if self._stack:
            self._stack[-1].child += dur
        return dur

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_exit: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``on_exit(tracer, args, result)`` runs after."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if on_exit is not None:
                on_exit(self, args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper


# ----------------------------------------------------------------------
# Layer entry points
# ----------------------------------------------------------------------
def _on_oracle(tracer: Tracer, args: tuple, result: Any) -> None:
    oracle = args[0]
    tracer.count("flow.oracles")
    tracer.count("flow.network_nodes", oracle.instance.n + oracle.T + 2)


def _on_flow_value(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("flow.feasible", result == args[0].P)


def _on_assignment(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("flow.feasible", result is not None)


def _on_solve_ir(tracer: Tracer, args: tuple, result: Any) -> None:
    kind = args[0].required_capability  # "lp" or "milp"
    tracer.count(f"solvers.{kind}_solves")
    tracer.count(f"solvers.{kind}_ms", tracer.samples["solvers.solve"][-1] * 1e3)
    if result.status != "optimal":
        tracer.count("solvers.not_optimal")
    if (result.extra or {}).get("warm_start_used"):
        tracer.count("solvers.warm")


#: ``(module, attribute path, span name, on_exit hook)``.  A dotted
#: attribute path names a method; it is wrapped on its class.
LAYER_TARGETS: tuple[tuple[str, str, str, Any], ...] = (
    ("repro.flow.feasibility", "ActiveTimeFeasibility.__init__",
     "flow.build", _on_oracle),
    ("repro.flow.feasibility", "ActiveTimeFeasibility.max_flow_value",
     "flow.probe", _on_flow_value),
    ("repro.flow.feasibility", "ActiveTimeFeasibility.assignment",
     "flow.probe", _on_assignment),
    ("repro.solvers.registry", "solve_ir", "solvers.solve", _on_solve_ir),
    ("repro.lp.model", "build_active_time_model", "lp", None),
    ("repro.lp.solve", "solve_active_time_lp", "lp", None),
    ("repro.lp.milp", "solve_active_time_exact", "lp", None),
    ("repro.lp.milp", "solve_busy_time_interval_exact", "lp", None),
    ("repro.lp.milp", "solve_unbounded_span_exact", "lp", None),
    ("repro.lp.milp", "solve_busy_time_flexible_exact", "lp", None),
    ("repro.busytime.unbounded", "opt_infinity", "busytime.opt_inf", None),
    ("repro.busytime.firstfit", "first_fit", "busytime.pack", None),
    ("repro.busytime.greedy_tracking", "greedy_tracking",
     "busytime.pack", None),
    ("repro.busytime.two_approx", "chain_peeling_two_approx",
     "busytime.pack", None),
    ("repro.busytime.kumar_rudra", "kumar_rudra", "busytime.pack", None),
    ("repro.busytime.bounds", "best_lower_bound",
     "busytime.lower_bound", None),
    ("repro.busytime.bounds", "mass_lower_bound",
     "busytime.lower_bound", None),
    ("repro.busytime.schedule", "BusyTimeSchedule.verify",
     "busytime.verify", None),
    ("repro.activetime.minimal_feasible", "minimal_feasible_schedule",
     "activetime.minimal", None),
    ("repro.activetime.rounding", "round_active_time",
     "activetime.rounding", None),
    ("repro.activetime.schedule", "ActiveTimeSchedule.verify",
     "activetime.verify", None),
    ("repro.core.jobs", "Instance.active_jobs_at",
     "core.active_jobs_at", None),
)


def install_layer_spans(tracer: Tracer) -> Callable[[], None]:
    """Wrap every ``LAYER_TARGETS`` entry point; answer the restore callable.

    A module-level function is replaced in every loaded ``repro``
    module that binds it and in every ``repro`` module-level dict that
    holds it (the packer table); a method is replaced on its class.
    """
    import importlib

    tracer.keep.update({"flow.probe", "solvers.solve"})
    undo: list[Callable[[], None]] = []
    for module_name, path, span, hook in LAYER_TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(span, original, hook))
            undo.append(functools.partial(setattr, owner, attr, original))
            continue
        original = getattr(module, path)
        wrapper = tracer.wrap(span, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append(functools.partial(setattr, mod, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dval in list(value.items()):
                        if dval is original:
                            value[dkey] = wrapper
                            undo.append(
                                functools.partial(
                                    value.__setitem__, dkey, original
                                )
                            )

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore
