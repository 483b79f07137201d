"""Kumar–Rudra-style level assignment with parity splitting (Appendix A.1).

Kumar and Rudra's fiber-minimization algorithm assigns jobs to *levels* within
the demand profile — level ``l`` only exists over ``{t : |A(t)| >= l}`` — with
at most two mutually overlapping jobs per level, then resolves each group of
``g`` levels onto **two** machines, separating same-level overlaps by a
2-coloring (their "parity based assignment").  The cost is then at most

    sum_k 2 * Sp({t : |A(t)| >= (k-1)g + 1})  =  2 * profile.

This module implements that scheme with a greedy level chooser (process jobs
by release time; take the lowest level with a free overlap slot).  The greedy
does not enforce the level-region constraint, so a level can in principle
exceed its region — the returned schedule therefore carries a runtime
certificate check against the rigorous bound ``2 * profile``, and
:func:`repro.busytime.two_approx.chain_peeling_two_approx` provides the
variant whose guarantee holds unconditionally by construction.  Dummy-job
padding (Appendix A.1) is applied first so the raw demand is a multiple of
``g`` everywhere, exactly as the paper prescribes.

Cost: the padding and the certificate are one ``O(n log n)`` demand-profile
sweep each; level placement scans the open levels, each holding at most two
live members; the per-level overlap graphs come from a release-order sweep
rather than all pairs.

Per-level overlap graphs are triangle-free interval graphs (at most 2 jobs
overlap pointwise), hence chordal and triangle-free — i.e. forests — so the
2-coloring always exists.
"""

from __future__ import annotations

from collections import deque

from ..core.jobs import TIME_EPS, Instance, Job
from ..core.validation import require_capacity, require_interval_jobs
from .demand_profile import (
    DUMMY_LABEL,
    compute_demand_profile,
    pad_to_multiple_of_g,
)
from .schedule import BusyTimeSchedule

__all__ = ["kumar_rudra", "assign_levels", "two_color_level"]


def assign_levels(padded: Instance, g: int) -> dict[int, int]:
    """Assign each padded job to a level (1-based), <= 2 overlapping per level.

    Jobs are processed by release time; each takes the lowest level that
    currently has at most one assigned job live at its release, or opens a
    new level.  Because every previously assigned job overlapping the
    newcomer is live at its release, this caps the pointwise overlap per
    level at two globally.

    Preferring levels under the level-region ceiling (the minimum raw
    demand over the job) would not change any choice: the lowest free
    level is either under the ceiling, or it is what falling back to "any
    free level" picks; and a new level opens exactly when none is free.
    So the ceiling is not computed; the ``2 * profile`` certificate is
    checked downstream.

    Each level keeps only its members still live — releases only grow, so
    a member that has ended never counts again — which makes a placement
    cost one pass over the levels with at most two members each.
    """
    ordered = sorted(padded.jobs, key=lambda j: (j.release, -j.length, j.id))
    level_of: dict[int, int] = {}
    # levels[l] = jobs assigned to level l+1 that may still be live
    levels: list[list[Job]] = []

    def live_count(l: int, t: float) -> int:
        # every member was released no later than t; drop the ended ones
        live = [j for j in levels[l] if j.deadline > t + TIME_EPS]
        levels[l] = live
        return len(live)

    for job in ordered:
        chosen = next(
            (l for l in range(len(levels)) if live_count(l, job.release) <= 1),
            None,
        )
        if chosen is None:
            chosen = len(levels)
            levels.append([])
        levels[chosen].append(job)
        level_of[job.id] = chosen + 1
    return level_of


def two_color_level(jobs: list[Job]) -> dict[int, int]:
    """2-color the overlap graph of one level's jobs (a forest).

    Returns ``job id -> 0/1``.  Raises if the level is not 2-colorable,
    which would mean three jobs overlap at a point — excluded by the level
    assignment invariant.

    The overlap edges come from a sweep in release order that tests each
    job only against the earlier jobs whose windows have not yet ended.
    Each component is colored from its first job in input order, so the
    coloring does not depend on the order the edges were found in.
    """
    adj: dict[int, list[int]] = {j.id: [] for j in jobs}
    open_jobs: list[Job] = []
    for b in sorted(jobs, key=lambda j: j.release):
        # a job ended by b's release overlaps no later-released job either
        open_jobs = [a for a in open_jobs if b.release < a.deadline - TIME_EPS]
        for a in open_jobs:
            if a.release < b.deadline - TIME_EPS:
                adj[a.id].append(b.id)
                adj[b.id].append(a.id)
        open_jobs.append(b)
    color: dict[int, int] = {}
    for j in jobs:
        if j.id in color:
            continue
        color[j.id] = 0
        queue = deque([j.id])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    raise RuntimeError(
                        "level overlap graph not bipartite — more than two "
                        "jobs overlap at a point"
                    )
    return color


def kumar_rudra(instance: Instance, g: int) -> BusyTimeSchedule:
    """Run the Kumar–Rudra-style 2-approximation on an interval instance.

    Pads the instance (Appendix A.1), assigns levels, groups ``g`` levels per
    machine pair with a parity split, strips the dummies and verifies the
    ``2 * profile`` certificate.
    """
    require_interval_jobs(instance, "Kumar-Rudra")
    require_capacity(g)
    if instance.n == 0:
        return BusyTimeSchedule.from_bundle_jobs(instance, g, [])

    padded, _dummy_ids = pad_to_multiple_of_g(instance, g)
    level_of = assign_levels(padded, g)
    max_level = max(level_of.values())

    jobs_by_level: dict[int, list[Job]] = {}
    for job in padded.jobs:
        jobs_by_level.setdefault(level_of[job.id], []).append(job)

    groups: list[list[Job]] = []
    num_groups = -(-max_level // g)
    for k in range(num_groups):
        lo, hi = k * g + 1, (k + 1) * g
        machine0: list[Job] = []
        machine1: list[Job] = []
        for l in range(lo, hi + 1):
            members = jobs_by_level.get(l, [])
            if not members:
                continue
            coloring = two_color_level(members)
            for job in members:
                (machine0 if coloring[job.id] == 0 else machine1).append(job)
        for machine in (machine0, machine1):
            real = [j for j in machine if j.label != DUMMY_LABEL]
            if real:
                groups.append(real)

    schedule = BusyTimeSchedule.from_bundle_jobs(instance, g, groups)
    certificate = 2.0 * compute_demand_profile(instance, g).cost
    if schedule.total_busy_time > certificate + 1e-6:
        raise RuntimeError(
            "Kumar-Rudra level assignment exceeded the 2x profile "
            f"certificate: {schedule.total_busy_time} > {certificate}"
        )
    return schedule
