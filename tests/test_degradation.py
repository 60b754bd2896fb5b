"""The degradation ladder: FEEDBACK → HOLD → FALLBACK with hysteresis.

Pure state-machine tests against a pool and a quality tracker driven
by hand — no simulator.  The invariants under test: downgrades are
immediate, upgrades wait out ``reentry_hold``, FALLBACK relaxes the
pool to uniform weights and logs a ``mode-change`` shift, and leaving
FALLBACK tags the controller's next shift as the post-fallback
rebalance.
"""

import pytest

from repro.lb.backend import Backend, BackendPool
from repro.resilience.ladder import (
    ControllerMode,
    DegradationConfig,
    DegradationLadder,
)
from repro.resilience.quality import SignalQualityConfig, SignalQualityTracker
from repro.units import MILLISECONDS


class ControllerStub:
    """Just enough of AlphaShiftController for the ladder to talk to."""

    def __init__(self):
        self.updates = []
        self.pending_reason = None


def build(n=2, controller=None, **ladder_kwargs):
    pool = BackendPool([Backend("s%d" % i) for i in range(n)])
    tracker = SignalQualityTracker(
        SignalQualityConfig(
            window=100 * MILLISECONDS,
            stale_after=50 * MILLISECONDS,
            invalid_after=200 * MILLISECONDS,
            min_samples=1,
        )
    )
    defaults = dict(
        fallback_fraction=0.5,
        reentry_hold=100 * MILLISECONDS,
        check_interval=10 * MILLISECONDS,
    )
    defaults.update(ladder_kwargs)
    ladder = DegradationLadder(
        pool, tracker, DegradationConfig(**defaults), controller=controller
    )
    return pool, tracker, ladder


def all_fresh(tracker, pool, now):
    for name in pool.names():
        tracker.observe(name, now, 1.0)


class TestLadderWalk:
    def test_starts_in_hold(self):
        _, _, ladder = build()
        assert ladder.mode is ControllerMode.HOLD

    def test_upgrade_requires_persistence(self):
        """Fresh signal must hold for reentry_hold before FEEDBACK."""
        pool, tracker, ladder = build()
        t0 = 10 * MILLISECONDS
        all_fresh(tracker, pool, t0)
        assert ladder.evaluate(t0) is ControllerMode.HOLD  # candidate armed
        all_fresh(tracker, pool, 50 * MILLISECONDS)  # keep the signal fresh
        assert ladder.evaluate(55 * MILLISECONDS) is ControllerMode.HOLD
        all_fresh(tracker, pool, 105 * MILLISECONDS)
        assert (
            ladder.evaluate(t0 + 100 * MILLISECONDS) is ControllerMode.FEEDBACK
        )

    def test_flapping_signal_cannot_pump_the_ladder(self):
        """Candidate resets whenever the target degrades mid-hold."""
        pool, tracker, ladder = build()
        all_fresh(tracker, pool, 0)
        ladder.evaluate(0)  # candidate FEEDBACK armed at t=0
        all_fresh(tracker, pool, 40 * MILLISECONDS)
        # Signal goes stale before the hold elapses: candidate dropped.
        ladder.evaluate(95 * MILLISECONDS)
        assert ladder.mode is ControllerMode.HOLD
        # Fresh again; the clock must restart, not resume.
        all_fresh(tracker, pool, 100 * MILLISECONDS)
        ladder.evaluate(100 * MILLISECONDS)
        all_fresh(tracker, pool, 140 * MILLISECONDS)
        # 145 ms of cumulative freshness since t=0, but only 45 since
        # the restart: still holding.
        assert ladder.evaluate(145 * MILLISECONDS) is ControllerMode.HOLD
        all_fresh(tracker, pool, 190 * MILLISECONDS)
        assert ladder.evaluate(200 * MILLISECONDS) is ControllerMode.FEEDBACK

    def test_downgrade_is_immediate(self):
        pool, tracker, ladder = build()
        all_fresh(tracker, pool, 0)
        ladder.evaluate(0)
        all_fresh(tracker, pool, 99 * MILLISECONDS)
        ladder.evaluate(100 * MILLISECONDS)
        assert ladder.mode is ControllerMode.FEEDBACK
        # s0 goes silent; first evaluation past stale_after drops to HOLD.
        tracker.observe("s1", 160 * MILLISECONDS, 1.0)
        assert ladder.evaluate(160 * MILLISECONDS) is ControllerMode.HOLD
        reason = ladder.transitions[-1].reason
        assert "s0" in reason and "stale" in reason

    def test_collapse_to_fallback(self):
        """Half the pool invalid: stop ranking, go uniform."""
        pool, tracker, ladder = build(n=2)
        tracker.observe("s1", 0, 1.0)
        # s0 never registered → INVALID; 1/2 usable ≤ 0.5 → FALLBACK.
        assert ladder.evaluate(10 * MILLISECONDS) is ControllerMode.FALLBACK
        assert "collapse" in ladder.transitions[-1].reason

    def test_empty_pool_is_fallback(self):
        pool, tracker, ladder = build(n=0)
        assert ladder.evaluate(0) is ControllerMode.FALLBACK
        assert ladder.transitions[-1].reason == "empty pool"

    def test_transition_records_grades(self):
        pool, tracker, ladder = build(n=2)
        tracker.observe("s1", 0, 1.0)
        ladder.evaluate(10 * MILLISECONDS)
        grades = ladder.transitions[-1].grades
        assert grades == {"s0": "invalid", "s1": "fresh"}

    def test_entries_filters_by_mode(self):
        pool, tracker, ladder = build(n=2)
        tracker.observe("s1", 0, 1.0)
        ladder.evaluate(10 * MILLISECONDS)  # HOLD → FALLBACK
        assert ladder.entries(ControllerMode.FALLBACK) == [10 * MILLISECONDS]
        assert ladder.entries(ControllerMode.FEEDBACK) == []

    def test_mode_series_tracks_severity(self):
        pool, tracker, ladder = build(n=2)
        tracker.observe("s1", 0, 1.0)
        ladder.evaluate(10 * MILLISECONDS)
        points = list(ladder.mode_series.items())
        assert points[0][1] == 1.0  # seeded at HOLD
        assert points[-1][1] == 2.0  # FALLBACK


class TestFallbackPosture:
    def test_fallback_relaxes_weights_to_uniform(self):
        pool, tracker, ladder = build(n=2)
        pool.set_weights({"s0": 3.0, "s1": 1.0})
        tracker.observe("s1", 0, 1.0)
        ladder.evaluate(10 * MILLISECONDS)
        weights = pool.weights()
        assert weights["s0"] == pytest.approx(weights["s1"])
        assert sum(weights.values()) == pytest.approx(4.0)  # total preserved

    def test_fallback_logs_mode_change_shift(self):
        controller = ControllerStub()
        pool, tracker, ladder = build(n=2, controller=controller)
        tracker.observe("s1", 0, 1.0)
        ladder.evaluate(10 * MILLISECONDS)
        assert len(controller.updates) == 1
        event = controller.updates[0]
        assert event.reason == "mode-change"
        assert event.from_backend == "*"

    def test_leaving_fallback_tags_the_next_shift(self):
        controller = ControllerStub()
        pool, tracker, ladder = build(n=2, controller=controller)
        tracker.observe("s1", 0, 1.0)
        ladder.evaluate(10 * MILLISECONDS)
        assert ladder.mode is ControllerMode.FALLBACK
        # Recovery: both backends fresh, persisting past reentry_hold.
        all_fresh(tracker, pool, 20 * MILLISECONDS)
        ladder.evaluate(20 * MILLISECONDS)
        all_fresh(tracker, pool, 119 * MILLISECONDS)
        ladder.evaluate(120 * MILLISECONDS)
        assert ladder.mode is ControllerMode.FEEDBACK
        assert controller.pending_reason == "post-fallback-rebalance"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(fallback_fraction=-0.1),
            dict(fallback_fraction=1.0),
            dict(reentry_hold=-1),
            dict(check_interval=0),
        ],
    )
    def test_rejects_malformed(self, kwargs):
        with pytest.raises(ValueError):
            build(**kwargs)
