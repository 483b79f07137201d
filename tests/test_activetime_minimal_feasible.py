"""Tests for the Theorem-1 minimal-feasible 3-approximation."""

import pytest

from repro.activetime import (
    close_slots_greedily,
    exact_active_time,
    minimal_feasible_schedule,
)
from repro.activetime.minimal_feasible import _ordering
from repro.core import Instance
from repro.flow import ActiveTimeFeasibility, is_feasible_slot_set
from repro.instances import figure3, random_active_time_instance


class TestBasics:
    def test_result_is_feasible(self, tiny_instance):
        s = minimal_feasible_schedule(tiny_instance, 2)
        s.verify()

    def test_empty_instance(self):
        s = minimal_feasible_schedule(Instance(tuple()), 1)
        assert s.cost == 0

    def test_infeasible_instance_raises(self):
        inst = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        with pytest.raises(ValueError):
            minimal_feasible_schedule(inst, 1)

    def test_explicit_start_slots(self, tiny_instance):
        s = minimal_feasible_schedule(
            tiny_instance, 2, start_slots=range(1, 7)
        )
        s.verify()

    def test_infeasible_start_slots_raise(self, tiny_instance):
        with pytest.raises(ValueError):
            minimal_feasible_schedule(tiny_instance, 2, start_slots=[1])


class TestMinimality:
    @pytest.mark.parametrize("order", ["left", "right", "inside_out", "random"])
    def test_no_slot_closable(self, order, rng):
        """Definition 4: closing any single active slot breaks feasibility."""
        for _ in range(6):
            inst = random_active_time_instance(6, 8, rng=rng)
            g = int(rng.integers(1, 4))
            try:
                s = minimal_feasible_schedule(inst, g, order=order, rng=rng)
            except ValueError:
                continue
            oracle = ActiveTimeFeasibility(inst, g)
            active = set(s.active_slots)
            for t in s.active_slots:
                assert not oracle.is_feasible(active - {t})

    def test_explicit_order_prefix(self, tiny_instance):
        # force trying slots 6, 5, 4 first
        slots = close_slots_greedily(
            tiny_instance, 2, range(1, 7), order=[6, 5, 4]
        )
        assert is_feasible_slot_set(tiny_instance, 2, slots)

    def test_explicit_order_tries_each_slot_once(self):
        # A repeated slot is tried once, at its first occurrence.
        assert _ordering([3, 3, 2], [1, 2, 3], None) == [3, 2, 1]
        assert _ordering([9, 2, 2, 1], [1, 2, 3], None) == [2, 1, 3]


class TestApproximationGuarantee:
    @pytest.mark.parametrize("order", ["left", "right", "inside_out"])
    def test_within_3_opt_random(self, order, rng):
        for _ in range(10):
            inst = random_active_time_instance(6, 9, rng=rng)
            g = int(rng.integers(1, 4))
            try:
                exact = exact_active_time(inst, g)
            except RuntimeError:
                continue
            s = minimal_feasible_schedule(inst, g, order=order)
            assert s.cost <= 3 * exact.cost

    def test_figure3_adversarial_slot_set(self):
        """The paper's Figure-3 witness: feasible at cost 3g-2 vs OPT g."""
        for g in (3, 4, 6):
            gad = figure3(g)
            slots = gad.witness["adversarial_slots"]
            assert len(slots) == 3 * g - 2
            assert is_feasible_slot_set(gad.instance, g, slots)
            exact = exact_active_time(gad.instance, g)
            assert exact.cost == g

    def test_figure3_ratio_approaches_3(self):
        ratios = []
        for g in (3, 5, 8):
            gad = figure3(g)
            ratios.append((3 * g - 2) / g)
        assert ratios == sorted(ratios)
        assert ratios[-1] > 2.7

    def test_figure3_greedy_can_reach_adversarial_cost(self):
        """inside-out closing lands on the 3g-2 minimal solution."""
        g = 4
        gad = figure3(g)
        s = minimal_feasible_schedule(gad.instance, g, order="inside_out")
        assert s.cost == 3 * g - 2


class TestOrderSensitivity:
    def test_orders_can_differ(self, rng):
        """Different closing orders may land on different minimal solutions."""
        seen_difference = False
        for _ in range(20):
            inst = random_active_time_instance(7, 9, rng=rng)
            try:
                a = minimal_feasible_schedule(inst, 2, order="left")
                b = minimal_feasible_schedule(inst, 2, order="right")
            except ValueError:
                continue
            if a.active_slots != b.active_slots:
                seen_difference = True
                break
        assert seen_difference

    def test_unknown_order_rejected(self, tiny_instance):
        with pytest.raises(ValueError, match="order"):
            minimal_feasible_schedule(tiny_instance, 2, order="sideways")
