"""The α-shift controller."""

import pytest

from repro.core.controller import AlphaShiftController, ControllerConfig
from repro.core.estimator import BackendLatencyEstimator, EstimatorConfig
from repro.errors import ConfigError
from repro.lb.backend import Backend, BackendPool
from repro.units import MICROSECONDS, MILLISECONDS


def make(n=2, alpha=0.10, floor=0.02, min_interval=0, hysteresis=1.0,
         min_samples=1, quality=None):
    pool = BackendPool([Backend("s%d" % i) for i in range(n)])
    estimator = BackendLatencyEstimator(
        EstimatorConfig(min_samples=min_samples), quality=quality
    )
    controller = AlphaShiftController(
        pool,
        estimator,
        ControllerConfig(
            alpha=alpha,
            weight_floor=floor,
            min_interval=min_interval,
            hysteresis_ratio=hysteresis,
        ),
    )
    return pool, estimator, controller


def feed(estimator, now, slow="s0", fast="s1", slow_lat=1000 * MICROSECONDS,
         fast_lat=100 * MICROSECONDS):
    estimator.observe(slow, now, slow_lat)
    estimator.observe(fast, now, fast_lat)


class TestShiftMechanics:
    def test_alpha_of_total_moves_from_worst(self):
        pool, estimator, controller = make(n=2, alpha=0.10)
        feed(estimator, now=0)
        event = controller.maybe_update(now=0)
        assert event is not None
        # Total weight 2.0; alpha=0.1 -> shift 0.2.
        assert pool.weights() == {"s0": pytest.approx(0.8),
                                  "s1": pytest.approx(1.2)}
        assert event.from_backend == "s0"

    def test_shift_spread_equally_over_others(self):
        pool, estimator, controller = make(n=4, alpha=0.12)
        estimator.observe("s0", 0, 1000)
        for name in ("s1", "s2", "s3"):
            estimator.observe(name, 0, 100)
        controller.maybe_update(0)
        weights = pool.weights()
        # 0.12 * 4 = 0.48 off s0; 0.16 onto each other.
        assert weights["s0"] == pytest.approx(4 - 0.48 - 3)
        for name in ("s1", "s2", "s3"):
            assert weights[name] == pytest.approx(1.16)

    def test_total_weight_conserved(self):
        pool, estimator, controller = make(n=3)
        estimator.observe("s0", 0, 1000)
        estimator.observe("s1", 0, 100)
        estimator.observe("s2", 0, 200)
        for now in range(5):
            feed(estimator, now)
            controller.maybe_update(now)
        assert sum(pool.weights().values()) == pytest.approx(3.0)

    def test_no_shift_with_single_estimate(self):
        pool, estimator, controller = make()
        estimator.observe("s0", 0, 1000)
        assert controller.maybe_update(0) is None

    def test_no_shift_when_equal(self):
        pool, estimator, controller = make()
        estimator.observe("s0", 0, 500)
        estimator.observe("s1", 0, 500)
        assert controller.maybe_update(0) is None


class TestGuardRails:
    def test_weight_floor_never_starves(self):
        pool, estimator, controller = make(alpha=0.25, floor=0.05)
        for now in range(50):
            feed(estimator, now)
            controller.maybe_update(now)
        weights = pool.weights()
        # Floor = 0.05 * total (2.0) = 0.1.
        assert weights["s0"] >= 0.1 - 1e-9
        assert weights["s0"] == pytest.approx(0.1)

    def test_min_interval_throttles(self):
        pool, estimator, controller = make(min_interval=10 * MILLISECONDS)
        feed(estimator, 0)
        assert controller.maybe_update(0) is not None
        feed(estimator, 1 * MILLISECONDS)
        assert controller.maybe_update(1 * MILLISECONDS) is None
        feed(estimator, 11 * MILLISECONDS)
        assert controller.maybe_update(11 * MILLISECONDS) is not None

    def test_hysteresis_blocks_small_differences(self):
        pool, estimator, controller = make(hysteresis=1.5)
        estimator.observe("s0", 0, 120)
        estimator.observe("s1", 0, 100)
        assert controller.maybe_update(0) is None  # 1.2x < 1.5x
        # Much later (>> tau), fresh samples dominate the time-decay EWMA.
        later = 200 * MILLISECONDS
        estimator.observe("s0", later, 200)
        estimator.observe("s1", later, 100)
        assert controller.maybe_update(later) is not None

    def test_shift_events_recorded(self):
        pool, estimator, controller = make()
        feed(estimator, 0)
        controller.maybe_update(0)
        assert len(controller.updates) == 1
        event = controller.updates[0]
        assert event.worst_estimate > event.best_estimate
        assert event.weights_after == pool.weights()


class TestValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            ControllerConfig(alpha=0.0).validate()
        with pytest.raises(ConfigError):
            ControllerConfig(alpha=1.0).validate()

    def test_floor_bounds(self):
        with pytest.raises(ConfigError):
            ControllerConfig(weight_floor=1.0).validate()
        with pytest.raises(ConfigError):
            ControllerConfig(weight_floor=-0.1).validate()

    def test_interval_bounds(self):
        with pytest.raises(ConfigError):
            ControllerConfig(min_interval=-1).validate()

    def test_hysteresis_bounds(self):
        with pytest.raises(ConfigError):
            ControllerConfig(hysteresis_ratio=0.9).validate()


class TestStaleGuard:
    """Never shift on a signal you don't trust — the controller-side
    backstop.  In a wired scenario the degradation ladder usually
    pre-empts this (it downgrades before the controller runs), but the
    guard must hold even when the controller is driven directly."""

    def make_graded(self):
        from repro.resilience.quality import (
            SignalQualityConfig,
            SignalQualityTracker,
        )

        tracker = SignalQualityTracker(
            SignalQualityConfig(
                stale_after=50 * MILLISECONDS,
                invalid_after=200 * MILLISECONDS,
                min_samples=1,
            )
        )
        return make(quality=tracker)

    def test_declines_to_shift_on_stale_estimates(self):
        pool, estimator, controller = self.make_graded()
        feed(estimator, now=0)
        stale_now = 60 * MILLISECONDS  # past stale_after, both stale
        assert controller.maybe_update(stale_now) is None
        assert controller.stale_holds == 1
        assert pool.weights() == {"s0": 1.0, "s1": 1.0}  # frozen

    def test_one_stale_backend_is_enough_to_hold(self):
        """The consulted pair is worst/best; either one stale blocks."""
        pool, estimator, controller = self.make_graded()
        feed(estimator, now=0)
        now = 60 * MILLISECONDS
        estimator.observe("s1", now, 100 * MICROSECONDS)  # s0 still stale
        assert controller.maybe_update(now) is None
        assert controller.stale_holds == 1

    def test_shifts_again_once_signal_refreshes(self):
        pool, estimator, controller = self.make_graded()
        feed(estimator, now=0)
        assert controller.maybe_update(60 * MILLISECONDS) is None
        feed(estimator, now=61 * MILLISECONDS)
        event = controller.maybe_update(61 * MILLISECONDS)
        assert event is not None
        assert event.reason == "hysteresis-pass"

    def test_pending_reason_tags_the_executed_shift(self):
        pool, estimator, controller = make()
        feed(estimator, 0)
        controller.pending_reason = "post-fallback-rebalance"
        event = controller.maybe_update(0)
        assert event.reason == "post-fallback-rebalance"
        assert controller.pending_reason is None
        # Consumed: the next shift is a plain hysteresis pass again.
        feed(estimator, 1 * MILLISECONDS)
        event = controller.maybe_update(1 * MILLISECONDS)
        assert event is not None and event.reason == "hysteresis-pass"
