"""The paired A/B runner's gain rule (``benchmarks/ab.py``), on fixed numbers."""

import importlib.util
import os

import pytest

AB_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "ab.py"
)


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", AB_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [2.00, 2.02, 1.98, 2.01, 1.99, 2.03, 2.00, 1.97, 2.02, 2.01]


class TestWins:
    def test_lower_is_better(self, ab):
        assert ab.wins([2.0, 2.0, 2.0], [1.0, 3.0, 1.5], "lower") == 2

    def test_higher_is_better(self, ab):
        assert ab.wins([2.0, 2.0, 2.0], [1.0, 3.0, 2.5], "higher") == 2

    def test_ties_count_for_neither(self, ab):
        assert ab.wins([2.0, 2.0], [2.0, 2.0], "lower") == 0
        assert ab.wins([2.0, 2.0], [2.0, 2.0], "higher") == 0


class TestGainRule:
    def test_clear_gain_holds(self, ab):
        change = [value * 0.8 for value in PARENT]
        assert ab.gain_holds(PARENT, change, "lower")
        assert ab.gain_holds(change, PARENT, "higher")

    def test_eight_wins_of_ten_is_not_enough(self, ab):
        change = [value * 0.8 for value in PARENT[:8]] + [3.0, 3.0]
        assert ab.wins(PARENT, change, "lower") == 8
        assert not ab.gain_holds(PARENT, change, "lower")

    def test_nine_wins_of_ten_is_enough(self, ab):
        change = [value * 0.8 for value in PARENT[:9]] + [3.0]
        assert ab.gain_holds(PARENT, change, "lower")

    def test_gap_within_the_parent_iqr_does_not_hold(self, ab):
        # Every pair a win, but by less than the parent's own spread.
        change = [value - 0.005 for value in PARENT]
        q1, _median, q3 = ab.quartiles(PARENT)
        assert q3 - q1 > 0.005
        assert ab.wins(PARENT, change, "lower") == 10
        assert not ab.gain_holds(PARENT, change, "lower")

    def test_a_loss_never_holds(self, ab):
        change = [value * 1.2 for value in PARENT]
        assert not ab.gain_holds(PARENT, change, "lower")
        # The same numbers are a gain where higher is better.
        assert ab.gain_holds(PARENT, change, "higher")

    def test_quartiles_of_one_value(self, ab):
        assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
