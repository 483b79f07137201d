"""The 2-approximation for interval jobs (Theorem 3) via chain peeling.

Appendix A shows that the wavelength-assignment algorithms of Kumar–Rudra and
Alicherry–Bhatia charge the **demand profile** at most twice.  This module
implements that charging scheme directly, as *chain peeling*:

A **chain** is a sequence of jobs ``j_1, j_2, ...`` picked by the classic
interval-covering greedy over the residual demand region ``R`` (segments with
at least one remaining job): at the leftmost uncovered demanded point ``x``,
pick the job covering ``x`` with the latest deadline.  Two standard facts
follow from the max-deadline choice (proved inline, asserted in tests):

* non-consecutive chain jobs are disjoint, so at most 2 chain jobs overlap
  anywhere and the chain's odd/even subsequences are *tracks*;
* the chain covers all of ``R``, so removing it lowers the raw demand by at
  least 1 on every demanded segment.

Each **round** extracts ``g`` chains and opens two bundles: one takes every
chain's odd-indexed jobs (``g`` tracks), the other the even-indexed jobs.
After round ``k`` the residual raw demand is at most ``max(0, |A(t)| - kg)``,
hence round ``k``'s region is contained in ``{t : D(t) >= k}`` and

    cost  <=  sum_k 2 * Sp({t : D(t) >= k})  =  2 * profile  <=  2 * OPT.

No dummy-job padding is needed — the covering greedy works directly on the
residual demand.  This matches the guarantee (and the Figure-8 tightness) of
the algorithms the paper cites, with machinery that is checkable at runtime.
"""

from __future__ import annotations

import heapq

from ..core.intervals import merge_intervals
from ..core.jobs import TIME_EPS, Instance, Job
from ..core.validation import require_capacity, require_interval_jobs
from .demand_profile import compute_demand_profile
from .schedule import BusyTimeSchedule

__all__ = ["chain_peeling_two_approx", "extract_chain"]


def _demanded_region(jobs: list[Job]) -> list[tuple[float, float]]:
    """Union of the residual jobs' windows — where residual demand >= 1."""
    return merge_intervals(j.window for j in jobs)


def extract_chain(jobs: list[Job]) -> list[Job]:
    """Greedy max-deadline cover of the jobs' own demand region.

    Returns the chain in pick order; at most two chain jobs overlap at any
    point and the chain covers every point covered by ``jobs``.

    The cover point ``x`` only moves right, so the jobs covering it are
    kept in a heap keyed by deadline: a job enters once ``x`` reaches its
    release and leaves once ``x`` passes its deadline — ``O(n log n)`` per
    chain instead of a scan of all jobs per pick.
    """
    if not jobs:
        return []
    by_release = sorted(jobs, key=lambda j: j.release)
    # max-heap on (deadline, -release, id), the pick order
    covering: list[tuple[float, float, int, Job]] = []
    admitted = 0
    chain: list[Job] = []
    cur_end = -float("inf")
    for a, b in _demanded_region(jobs):
        x = max(a, cur_end)
        while x < b - TIME_EPS:
            # candidates covering the point x (half-open windows)
            while (
                admitted < len(by_release)
                and by_release[admitted].release <= x + TIME_EPS
            ):
                j = by_release[admitted]
                heapq.heappush(covering, (-j.deadline, j.release, -j.id, j))
                admitted += 1
            while covering and -covering[0][0] <= x + TIME_EPS:
                heapq.heappop(covering)  # ended before x, and x only grows
            if not covering:  # pragma: no cover - region built from jobs
                raise RuntimeError(
                    f"no residual job covers demanded point {x}"
                )
            pick = heapq.heappop(covering)[3]
            chain.append(pick)
            cur_end = pick.deadline
            x = max(x, cur_end)
    return chain


def chain_peeling_two_approx(instance: Instance, g: int) -> BusyTimeSchedule:
    """Theorem-3 2-approximation for interval jobs via chain peeling.

    The returned schedule's total busy time is at most twice the demand
    profile lower bound, hence at most ``2 * OPT`` (Observation 4); the
    certificate is re-checked before returning.
    """
    require_interval_jobs(instance, "chain peeling")
    require_capacity(g)
    residual: list[Job] = list(instance.jobs)
    groups: list[list[Job]] = []

    while residual:
        odd_bundle: list[Job] = []
        even_bundle: list[Job] = []
        for _ in range(g):
            if not residual:
                break
            chain = extract_chain(residual)
            taken = {j.id for j in chain}
            residual = [j for j in residual if j.id not in taken]
            odd_bundle.extend(chain[0::2])
            even_bundle.extend(chain[1::2])
        if odd_bundle:
            groups.append(odd_bundle)
        if even_bundle:
            groups.append(even_bundle)

    schedule = BusyTimeSchedule.from_bundle_jobs(instance, g, groups)
    certificate = 2.0 * compute_demand_profile(instance, g).cost
    if schedule.total_busy_time > certificate + 1e-6:
        raise RuntimeError(
            "chain peeling exceeded its 2x demand-profile certificate: "
            f"{schedule.total_busy_time} > {certificate}"
        )
    return schedule
