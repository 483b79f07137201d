"""The feasibility network ``G_feas`` of Figure 2 and fast repeated probes.

Given an integral active-time instance, a capacity ``g`` and a set ``A`` of
active slots, the paper observes that a feasible (integral, slot-preemptive)
schedule exists if and only if the maximum ``s -> v`` flow on the network

    source --(p_j)--> job j --(1)--> slot t --(g or 0)--> sink

has value ``P = sum_j p_j``, where slot-to-sink edges carry capacity ``g``
exactly on active slots and ``0`` elsewhere.

Both approximation algorithms in Sections 2–3 call this probe many times with
active sets that differ in a few slots, so :class:`ActiveTimeFeasibility`
builds the network once and keeps its maximum flow between probes: a probe
only re-routes the units of the slots it closes.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..core.jobs import Instance
from ..core.validation import require_capacity, require_integral
from .dinic import Dinic

__all__ = ["ActiveTimeFeasibility", "is_feasible_slot_set", "extract_assignment"]


class ActiveTimeFeasibility:
    """Reusable, warm-started feasibility oracle for the active-time problem.

    Parameters
    ----------
    instance:
        Integral instance (releases, deadlines, lengths all integers).
    g:
        Machine capacity: at most ``g`` distinct jobs per active slot.

    Notes
    -----
    Slots are numbered ``1..T`` with ``T = max_j d_j`` (slot ``t`` is the unit
    ``[t-1, t)``).  Probes accept any iterable of slot numbers.

    The oracle keeps its residual flow, its open-slot set and its flow value
    between probes.  A probe diffs the requested slots against the open ones:
    each slot it closes gives back its at most ``g`` units along
    slot -> sink, job -> slot, source -> job; the new slots open; then Dinic
    augments from the current residual until the flow reaches ``P`` or no
    path is left.  The result is a maximum flow for the requested slots, so
    answers never depend on probe history.  Only :meth:`assignment` resets
    the flow to zero, so its schedule depends on the slot set alone.
    """

    def __init__(self, instance: Instance, g: int):
        require_integral(instance, "feasibility network")
        require_capacity(g)
        self.instance = instance
        self.g = g
        self.T = instance.horizon
        #: Mass a feasible probe must route: the admitted jobs' total length.
        self.P = int(round(instance.total_length))

        n = instance.n
        # node layout: 0 = source, 1..n = jobs, n+1..n+T = slots, n+T+1 = sink
        self._source = 0
        self._sink = n + self.T + 1
        net = Dinic(n + self.T + 2)

        self._job_edge: dict[int, int] = {}
        # (job id, source->job, job->slot) handles entering each slot, 1-based
        self._into_slot: list[list[tuple[int, int, int]]] = [
            [] for _ in range(self.T + 1)
        ]
        self._slot_edge: list[int] = [-1] * (self.T + 1)  # 1-based by slot

        for pos, job in enumerate(instance.jobs):
            jn = 1 + pos
            job_edge = net.add_edge(self._source, jn, job.integral_length())
            self._job_edge[job.id] = job_edge
            for t in job.feasible_slots():
                unit = net.add_edge(jn, n + t, 1)
                self._into_slot[t].append((job.id, job_edge, unit))
        for t in range(1, self.T + 1):
            self._slot_edge[t] = net.add_edge(n + t, self._sink, 0)

        self._net = net
        self._open: set[int] = set()
        self._value = 0

    # ------------------------------------------------------------------
    def _withdraw_slot(self, t: int) -> None:
        """Cancel every unit routed through slot ``t``."""
        net = self._net
        slot_edge = self._slot_edge[t]
        for _, job_edge, unit in self._into_slot[t]:
            if not net.flow(slot_edge):
                break
            if net.flow(unit):
                net.withdraw((job_edge, unit, slot_edge))
                self._value -= 1

    def _configure(self, active_slots: Iterable[int]) -> None:
        wanted = set(active_slots)
        net = self._net
        closing = self._open - wanted
        for t in closing:
            self._withdraw_slot(t)
            net.set_capacity(self._slot_edge[t], 0)
        self._open -= closing
        for t in wanted - self._open:
            # slots outside [1, T] can never host a job; ignore silently so
            # callers may pass padded candidate sets.
            if 1 <= t <= self.T:
                net.set_capacity(self._slot_edge[t], self.g)
                self._open.add(t)

    def admit(self, job_ids: Iterable[int]) -> None:
        """Probe only the jobs in ``job_ids`` from now on.

        The other jobs' source edges drop to zero and :attr:`P` becomes the
        admitted jobs' total length.  Every job is admitted at construction.
        Admitting more jobs keeps the current flow, so a growing job prefix
        costs only augmentations; dropping a job that carries flow resets
        the flow to zero.
        """
        wanted = set(job_ids)
        net = self._net
        total = 0
        for job in self.instance.jobs:
            job_edge = self._job_edge[job.id]
            length = job.integral_length() if job.id in wanted else 0
            total += length
            if net.flow(job_edge) > length:
                net.reset()
                self._value = 0
            net.set_capacity(job_edge, length)
        self.P = total

    def max_flow_value(self, active_slots: Iterable[int]) -> int:
        """Maximum schedulable job mass using only the given active slots."""
        self._configure(active_slots)
        self._value += self._net.augment(
            self._source, self._sink, self.P - self._value
        )
        return self._value

    def is_feasible(self, active_slots: Iterable[int]) -> bool:
        """True when *all* admitted jobs fit into the given active slots."""
        return self.max_flow_value(active_slots) == self.P

    def assignment(
        self, active_slots: Iterable[int]
    ) -> dict[int, list[int]] | None:
        """An integral assignment ``job id -> sorted list of slots``, if feasible.

        Returns ``None`` when the slot set cannot accommodate all admitted
        jobs.  Each job appears in exactly ``p_j`` slots, each slot hosts at
        most ``g`` jobs, and no job occupies a slot twice — the schedule
        properties of Section 2.  The flow is solved from zero, so the
        assignment does not depend on earlier probes.
        """
        net = self._net
        net.reset()
        self._value = 0
        self._configure(active_slots)
        self._value = net.augment(self._source, self._sink, self.P)
        if self._value != self.P:
            return None
        out: dict[int, list[int]] = {j.id: [] for j in self.instance.jobs}
        for t in range(1, self.T + 1):
            for job_id, _, unit in self._into_slot[t]:
                if net.flow(unit):
                    out[job_id].append(t)
        return out


def is_feasible_slot_set(
    instance: Instance, g: int, active_slots: Iterable[int]
) -> bool:
    """One-shot feasibility probe (builds the network, solves once)."""
    return ActiveTimeFeasibility(instance, g).is_feasible(active_slots)


def extract_assignment(
    instance: Instance, g: int, active_slots: Iterable[int]
) -> dict[int, list[int]] | None:
    """One-shot assignment extraction (``None`` when infeasible)."""
    return ActiveTimeFeasibility(instance, g).assignment(active_slots)
