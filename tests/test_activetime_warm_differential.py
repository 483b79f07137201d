"""Differential checks: warm-started probes leave the algorithms' output unchanged.

Minimal-feasible closing and LP rounding probe one warm
:class:`ActiveTimeFeasibility` oracle.  Each check here reruns the
algorithm against probes that build a fresh network every time (the path
the warm oracle replaces) and asserts identical schedules: the same slots
and the same job-to-slot assignment, and for rounding the same iteration
trace and repair slots.
"""

import numpy as np
import pytest

import repro.activetime.rounding as rounding_module
from repro.activetime import minimal_feasible_schedule, round_active_time
from repro.activetime.minimal_feasible import _ordering
from repro.core import Instance
from repro.flow import (
    ActiveTimeFeasibility,
    extract_assignment,
    is_feasible_slot_set,
)
from repro.instances import (
    figure3,
    lp_gap,
    random_active_time_instance,
    tight_window_instance,
)
from repro.lp import solve_active_time_lp

FUZZ_SEEDS = range(12)


def fuzz_instances():
    for seed in FUZZ_SEEDS:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 14))
        T = int(rng.integers(6, 24))
        g = int(rng.integers(1, 4))
        inst = random_active_time_instance(n, T, rng=rng)
        if is_feasible_slot_set(inst, g, range(1, inst.horizon + 1)):
            yield f"seed{seed}", inst, g


def gadget_instances():
    for g in (3, 4, 5):
        yield f"figure3-{g}", figure3(g).instance, g
    for g in (2, 3):
        yield f"lp_gap-{g}", lp_gap(g).instance, g
        rng = np.random.default_rng(g)
        yield f"tight-{g}", tight_window_instance(12, g, rng=rng), g


CASES = list(gadget_instances()) + list(fuzz_instances())
ORDERS = ["left", "right", "inside_out", "random", "explicit"]


def resolve(order, inst):
    if order == "explicit":
        return list(range(inst.horizon, 0, -2))
    return order


def reference_minimal(inst, g, order, rng):
    """Theorem 1's closing loop with a fresh network per probe."""
    active = set(range(1, inst.horizon + 1))
    for t in _ordering(order, sorted(active), rng):
        trial = active - {t}
        if is_feasible_slot_set(inst, g, trial):
            active = trial
    return tuple(sorted(active)), extract_assignment(inst, g, active)


@pytest.mark.parametrize("order", ORDERS)
def test_minimal_feasible_matches_fresh_probes(order):
    for name, inst, g in CASES:
        spec = resolve(order, inst)
        warm = minimal_feasible_schedule(
            inst, g, order=spec, rng=np.random.default_rng(5)
        )
        slots, assignment = reference_minimal(
            inst, g, spec, np.random.default_rng(5)
        )
        assert warm.active_slots == slots, name
        assert warm.assignment == {
            jid: tuple(ts) for jid, ts in assignment.items()
        }, name


class FreshProbes(ActiveTimeFeasibility):
    """Oracle double: every probe solves a new network over the admitted jobs."""

    def admit(self, job_ids):
        self._admitted = set(job_ids)
        super().admit(self._admitted)

    def max_flow_value(self, active_slots):
        admitted = getattr(self, "_admitted", None)
        jobs = tuple(
            j for j in self.instance.jobs if admitted is None or j.id in admitted
        )
        return ActiveTimeFeasibility(Instance(jobs), self.g).max_flow_value(
            active_slots
        )

    def assignment(self, active_slots):
        return extract_assignment(self.instance, self.g, active_slots)


def test_rounding_matches_fresh_probes(monkeypatch):
    actions = set()
    for name, inst, g in CASES:
        lp = solve_active_time_lp(inst, g)
        warm = round_active_time(inst, g, lp=lp)
        with monkeypatch.context() as m:
            m.setattr(rounding_module, "ActiveTimeFeasibility", FreshProbes)
            fresh = round_active_time(inst, g, lp=lp)
        assert warm.iterations == fresh.iterations, name
        assert warm.repair_slots == fresh.repair_slots, name
        assert warm.charging_failures == fresh.charging_failures, name
        assert warm.schedule.active_slots == fresh.schedule.active_slots, name
        assert warm.schedule.assignment == fresh.schedule.assignment, name
        actions.update(it.action for it in warm.iterations)
    # the corpus reaches the block probes ("carry" closes, "charged" opens)
    assert {"carry", "charged"} <= actions
