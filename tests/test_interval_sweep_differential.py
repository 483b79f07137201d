"""Differential tests: the breakpoint sweep against the per-point scans.

The interval busy-time core computes the demand profile (Definitions 11–13)
in one sorted sweep.  The Kumar–Rudra packer prunes ended level members,
finds overlap edges with a release-order sweep, and skips the level-region
ceiling, which never changes a level choice; chain peeling keeps the jobs
covering its sweep point in a heap.  The references below are the
straightforward versions — recount ``|A(t)|`` at every segment midpoint,
take the minimum over every segment a job spans, count every level member
per placement, test every pair of a level, scan every job per chain pick —
and the fast paths must agree with them exactly (``==``, not approximately),
including on windows a few ``TIME_EPS`` apart.
"""

from __future__ import annotations

import pickle
from collections import deque

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.busytime import compute_demand_profile, kumar_rudra
from repro.busytime.demand_profile import DUMMY_LABEL
from repro.busytime.kumar_rudra import assign_levels, two_color_level
from repro.busytime.two_approx import extract_chain
from repro.core import merge_intervals
from repro.core import TIME_EPS, Instance, Job, interesting_intervals

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Reference implementations (per-point scans)
# ----------------------------------------------------------------------
def ref_interesting_intervals(instance):
    if not instance.jobs:
        return []
    points = instance.event_points()
    segments = []
    for a, b in zip(points, points[1:]):
        if b - a <= TIME_EPS:
            continue
        if instance.raw_demand_at(0.5 * (a + b)) > 0:
            segments.append((a, b))
    return segments


def ref_profile(instance):
    segments = ref_interesting_intervals(instance)
    raw = tuple(instance.raw_demand_at(0.5 * (a + b)) for a, b in segments)
    return tuple(segments), raw


def ref_pad(instance, g):
    segments, raws = ref_profile(instance)
    next_id = 1 + max((j.id for j in instance.jobs), default=-1)
    dummies = []
    for (a, b), raw in zip(segments, raws):
        for _ in range(-(-raw // g) * g - raw):
            dummies.append(
                Job(a, b, b - a, id=next_id, label=DUMMY_LABEL)
            )
            next_id += 1
    return Instance(instance.jobs + tuple(dummies))


def ref_assign_levels(padded):
    segments, raw = ref_profile(padded)

    def min_demand_over(job):
        vals = [
            raw[i]
            for i, (a, b) in enumerate(segments)
            if a < job.deadline - TIME_EPS and b > job.release + TIME_EPS
        ]
        return min(vals) if vals else 0

    def live_count(level_jobs, t):
        return sum(
            1
            for j in level_jobs
            if j.release <= t + TIME_EPS and j.deadline > t + TIME_EPS
        )

    ordered = sorted(padded.jobs, key=lambda j: (j.release, -j.length, j.id))
    level_of = {}
    levels = []
    for job in ordered:
        ceiling = min_demand_over(job)
        chosen = None
        for l in range(min(ceiling, len(levels))):
            if live_count(levels[l], job.release) <= 1:
                chosen = l
                break
        if chosen is None and ceiling > len(levels):
            chosen = len(levels)
            levels.append([])
        if chosen is None:
            for l in range(len(levels)):
                if live_count(levels[l], job.release) <= 1:
                    chosen = l
                    break
            if chosen is None:
                chosen = len(levels)
                levels.append([])
        levels[chosen].append(job)
        level_of[job.id] = chosen + 1
    return level_of


def ref_two_color_level(jobs):
    adj = {j.id: [] for j in jobs}
    for i, a in enumerate(jobs):
        for b in jobs[i + 1 :]:
            if a.release < b.deadline - TIME_EPS and b.release < a.deadline - TIME_EPS:
                adj[a.id].append(b.id)
                adj[b.id].append(a.id)
    color = {}
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


def ref_kumar_rudra_bundles(instance, g):
    """Job ids per bundle, grouped exactly as :func:`kumar_rudra` groups."""
    padded = ref_pad(instance, g)
    level_of = ref_assign_levels(padded)
    by_level = {}
    for job in padded.jobs:
        by_level.setdefault(level_of[job.id], []).append(job)
    bundles = []
    for k in range(-(-max(level_of.values()) // g)):
        machines = ([], [])
        for l in range(k * g + 1, (k + 1) * g + 1):
            members = by_level.get(l, [])
            if members:
                coloring = ref_two_color_level(members)
                for job in members:
                    machines[coloring[job.id]].append(job)
        for machine in machines:
            real = [j.id for j in machine if j.label != DUMMY_LABEL]
            if real:
                bundles.append(real)
    return bundles


def ref_extract_chain(jobs):
    """Chain peeling's cover greedy, scanning every job at each pick."""
    pool = list(jobs)
    chain = []
    cur_end = -float("inf")
    for a, b in merge_intervals(j.window for j in jobs):
        x = max(a, cur_end)
        while x < b - TIME_EPS:
            candidates = [
                j
                for j in pool
                if j.release <= x + TIME_EPS and j.deadline > x + TIME_EPS
            ]
            if not candidates:
                raise RuntimeError(f"no residual job covers demanded point {x}")
            pick = max(candidates, key=lambda j: (j.deadline, -j.release, j.id))
            chain.append(pick)
            pool.remove(pick)
            cur_end = pick.deadline
            x = max(x, cur_end)
    return chain


def outcome(fn, *args):
    """``("ok", value)`` or ``("error", message)`` for a call."""
    try:
        return "ok", fn(*args)
    except RuntimeError as exc:
        return "error", str(exc)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def random_intervals(draw, max_n=40):
    n = draw(st.integers(0, max_n))
    jobs = []
    for i in range(n):
        a = draw(st.floats(0, 30, allow_nan=False))
        ln = draw(st.floats(0.2, 6, allow_nan=False))
        jobs.append(Job(a, a + ln, ln, id=i))
    return Instance(tuple(jobs))


#: Offsets that put breakpoints 0.5e-9 apart and make segments of length
#: in (1e-9, 2e-9] — right at the resolution of ``TIME_EPS``.  ``a + 1e-9``
#: often rounds to a window a hair longer than ``TIME_EPS`` whose end is
#: still exactly ``a + TIME_EPS``, the comparisons' own boundary.
TICKS = st.integers(0, 6).map(lambda k: k * 0.5e-9)
TINY_LENGTHS = st.sampled_from([TIME_EPS, 1.2e-9, 1.5e-9, 2e-9])


@st.composite
def adversarial_intervals(draw, max_n=24):
    """Windows on a coarse grid, shifted by ticks, TIME_EPS-tight or nested.

    ``eps_shift`` starts a window exactly ``TIME_EPS`` before or after an
    existing endpoint (the comparisons' own boundary), and ``inverted``
    makes an interval job whose deadline lies up to ``0.5e-9`` *before* its
    release — a window that is live nowhere, yet valid within tolerance.
    """
    base = draw(st.lists(st.integers(0, 8).map(float), min_size=1, max_size=5))
    windows = []
    for _ in range(draw(st.integers(1, max_n))):
        kind = draw(st.sampled_from(
            ["tick", "tiny", "duplicate", "nested", "eps_shift", "inverted"]
        ))
        if kind == "duplicate" and windows:
            windows.append(draw(st.sampled_from(windows)))
            continue
        if kind == "nested" and windows:
            a, b = draw(st.sampled_from(windows))
            lo = a + draw(st.floats(0, 1)) * (b - a) / 2
            hi = b - draw(st.floats(0, 1)) * (b - a) / 2
            if hi - lo > 0:
                windows.append((lo, hi))
                continue
        if kind == "eps_shift" and windows:
            point = draw(st.sampled_from(windows))[draw(st.integers(0, 1))]
            a = draw(st.sampled_from([point - TIME_EPS, point + TIME_EPS]))
            windows.append((a, a + draw(st.sampled_from([2e-9, 1.0]))))
            continue
        a = draw(st.sampled_from(base)) + draw(TICKS)
        if kind == "inverted":
            windows.append((a, a - draw(st.sampled_from([0.0, 0.5e-9]))))
            continue
        if kind == "tiny":
            b = a + draw(TINY_LENGTHS)
        else:
            b = draw(st.sampled_from(base)) + draw(TICKS) + draw(
                st.sampled_from([0.0, 1.0, 2.0, 3.0])
            )
            if b - a <= 0:
                b = a + draw(TINY_LENGTHS)
        windows.append((a, b))
    return Instance(tuple(
        Job(a, b, b - a if b > a else 1e-10, id=i)
        for i, (a, b) in enumerate(windows)
    ))


instances = st.one_of(random_intervals(), adversarial_intervals())


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=300, **COMMON)
@given(instances)
def test_segments_equal_per_point_scan(inst):
    segments, raw = ref_profile(inst)
    assert interesting_intervals(inst) == list(segments)
    for g in (1, 2, 3):
        profile = compute_demand_profile(inst, g)
        assert profile.segments == segments
        assert profile.raw == raw


@settings(max_examples=200, **COMMON)
@given(instances, st.integers(1, 4))
def test_levels_and_bundles_equal_reference(inst, g):
    if inst.n == 0:
        return
    padded = ref_pad(inst, g)
    assert outcome(assign_levels, padded, g) == outcome(ref_assign_levels, padded)
    fast = outcome(kumar_rudra, inst, g)
    ref = outcome(ref_kumar_rudra_bundles, inst, g)
    if fast[0] == "ok":
        assert ref == ("ok", [[j.id for j in b.jobs] for b in fast[1].bundles])
    elif "certificate" in fast[1]:
        assert ref[0] == "ok"  # the reference checks no certificate
    else:
        assert ref == fast


@settings(max_examples=200, **COMMON)
@given(adversarial_intervals(max_n=12))
def test_two_coloring_equals_pairwise_reference(inst):
    jobs = list(inst.jobs)
    assert outcome(two_color_level, jobs) == outcome(ref_two_color_level, jobs)


@settings(max_examples=300, **COMMON)
@given(instances)
def test_chain_equals_scanning_reference(inst):
    jobs = list(inst.jobs)
    assert outcome(extract_chain, jobs) == outcome(ref_extract_chain, jobs)


@settings(max_examples=100, **COMMON)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 10), st.integers(1, 4), st.sampled_from([0.0, 0.5e-9, 2.0])
        ),
        max_size=10,
    )
)
def test_cached_all_interval_matches_predicate(triples):
    inst = Instance.from_tuples((r, r + p + slack, p) for r, p, slack in triples)
    cold = pickle.dumps(inst)
    twin = Instance(inst.jobs)
    assert "all_interval" not in vars(inst)
    assert inst.all_interval == all(j.is_interval for j in inst.jobs)
    assert vars(inst)["all_interval"] == inst.all_interval  # evaluated once
    assert inst == twin and hash(inst) == hash(twin)
    warm = pickle.dumps(inst)
    assert warm == cold  # the cached value never rides in a pickle
    back = pickle.loads(warm)
    assert back == inst and hash(back) == hash(inst)
    assert back.all_interval == inst.all_interval
