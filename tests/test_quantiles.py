"""Quantile estimators: exact and windowed."""

import random

import pytest

from repro.telemetry.quantiles import WindowedQuantile, exact_quantile


class TestExactQuantile:
    def test_median_odd(self):
        assert exact_quantile([3, 1, 2], 0.5) == 2

    def test_median_even_interpolates(self):
        assert exact_quantile([1, 2, 3, 4], 0.5) == 2.5

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert exact_quantile(data, 0.0) == 1
        assert exact_quantile(data, 1.0) == 9

    def test_single_element(self):
        assert exact_quantile([7], 0.37) == 7.0

    def test_p95_of_uniform_ramp(self):
        data = list(range(101))  # 0..100
        assert exact_quantile(data, 0.95) == pytest.approx(95.0)

    def test_does_not_mutate_input(self):
        data = [3, 1, 2]
        exact_quantile(data, 0.5)
        assert data == [3, 1, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_quantile([], 0.5)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            exact_quantile([1], 1.5)
        with pytest.raises(ValueError):
            exact_quantile([1], -0.1)


class TestWindowedQuantile:
    def test_empty_returns_none(self):
        assert WindowedQuantile(4).quantile(0.5) is None

    def test_matches_exact_within_window(self):
        wq = WindowedQuantile(100)
        data = [random.Random(1).uniform(0, 100) for _ in range(50)]
        for value in data:
            wq.observe(value)
        assert wq.quantile(0.9) == pytest.approx(exact_quantile(data, 0.9))

    def test_eviction_slides_window(self):
        wq = WindowedQuantile(3)
        for value in (1, 2, 3, 100, 100, 100):
            wq.observe(value)
        assert wq.quantile(0.5) == 100

    def test_len_tracks_window(self):
        wq = WindowedQuantile(3)
        for value in range(10):
            wq.observe(value)
        assert len(wq) == 3

    def test_duplicates_evict_correctly(self):
        wq = WindowedQuantile(2)
        wq.observe(5)
        wq.observe(5)
        wq.observe(7)
        assert len(wq) == 2
        assert wq.quantile(0.0) == 5
        assert wq.quantile(1.0) == 7

    def test_reset(self):
        wq = WindowedQuantile(4)
        wq.observe(1)
        wq.reset()
        assert len(wq) == 0
        assert wq.quantile(0.5) is None

    def test_window_validation(self):
        with pytest.raises(ValueError):
            WindowedQuantile(0)

