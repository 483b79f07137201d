"""Stateful property test: warm feasibility probes match fresh ones.

:class:`ActiveTimeFeasibility` keeps its residual flow between probes and
re-routes only what a probe's closed slots carried.  This hypothesis
rule-based machine drives one warm oracle through random probe sequences
(opening and closing slots, repeating a set, padding with out-of-range
slots, probing the empty set, changing the admitted jobs) and checks every
answer against a fresh network built for that probe alone, the
:func:`is_feasible_slot_set` path the warm oracle replaces.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import Instance, Job
from repro.flow import (
    ActiveTimeFeasibility,
    extract_assignment,
    is_feasible_slot_set,
)

MAX_T = 10


@st.composite
def instances(draw):
    jobs = []
    for i in range(draw(st.integers(1, 6))):
        r = draw(st.integers(0, MAX_T - 1))
        d = draw(st.integers(r + 1, MAX_T))
        p = draw(st.integers(1, d - r))
        jobs.append(Job(r, d, p, id=i))
    return Instance(tuple(jobs))


class WarmVsFresh(RuleBasedStateMachine):
    @initialize(inst=instances(), g=st.integers(1, 3))
    def build(self, inst, g):
        self.inst = inst
        self.g = g
        self.oracle = ActiveTimeFeasibility(inst, g)
        self.admitted = {j.id for j in inst.jobs}
        self.slots: set[int] = set()
        self.value: int | None = None

    def _probe(self, slots):
        self.slots = set(slots)
        self.value = self.oracle.max_flow_value(slots)

    @rule(t=st.integers(1, MAX_T))
    def open_slot(self, t):
        self._probe(self.slots | {t})

    @rule(t=st.integers(1, MAX_T))
    def close_slot(self, t):
        self._probe(self.slots - {t})

    @rule(slots=st.sets(st.integers(1, MAX_T)))
    def probe_set(self, slots):
        self._probe(slots)

    @rule()
    def repeat(self):
        self._probe(self.slots)

    @rule(pad=st.sets(st.integers(-3, MAX_T + 5), min_size=1, max_size=4))
    def padded(self, pad):
        self._probe(self.slots | pad)

    @rule()
    def empty(self):
        self._probe(())

    @rule(data=st.data())
    def admit(self, data):
        ids = sorted(j.id for j in self.inst.jobs)
        self.admitted = data.draw(st.sets(st.sampled_from(ids)))
        self.oracle.admit(self.admitted)
        self.value = None

    @precondition(lambda self: self.value is not None)
    @invariant()
    def matches_fresh_probe(self):
        jobs = tuple(j for j in self.inst.jobs if j.id in self.admitted)
        if not jobs:
            assert self.value == 0
            return
        fresh = Instance(jobs)
        assert self.value == ActiveTimeFeasibility(
            fresh, self.g
        ).max_flow_value(self.slots)
        assert (self.value == self.oracle.P) == is_feasible_slot_set(
            fresh, self.g, self.slots
        )

    @rule()
    def assignment_is_history_free(self):
        self.oracle.admit(j.id for j in self.inst.jobs)
        self.admitted = {j.id for j in self.inst.jobs}
        assert self.oracle.assignment(self.slots) == extract_assignment(
            self.inst, self.g, self.slots
        )
        self.value = self.oracle.max_flow_value(self.slots)


WarmVsFresh.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestWarmVsFresh = WarmVsFresh.TestCase
