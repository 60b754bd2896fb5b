"""Paper experiments at reduced scale (full scale runs in benchmarks/)."""

import pytest

from repro.core.feedback import FeedbackConfig, InbandFeedback
from repro.harness.config import PolicyName
from repro.harness.figures import (
    BacklogConfig,
    Fig3Config,
    build_backlog,
    run_error_decomposition,
    run_fig2,
    run_fig3,
    run_reaction,
)
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS
from tests.test_ensemble import NaiveEnsemble


SMALL_BACKLOG = BacklogConfig(
    duration=800 * MILLISECONDS, step_at=400 * MILLISECONDS
)


@pytest.fixture(scope="module")
def fig2():
    return run_fig2(SMALL_BACKLOG)


class TestBacklogScenario:
    def test_ground_truth_tracks_step(self, fig2):
        truth_pre = fig2.median(fig2.ground_truth, False)
        truth_post = fig2.median(fig2.ground_truth, True)
        assert truth_post > truth_pre + 500 * MICROSECONDS

    def test_build_backlog_wiring(self):
        run = build_backlog(SMALL_BACKLOG)
        assert run.lb.pool.names() == ["server0"]
        run.sim.run_until(20 * MILLISECONDS)
        assert run.client.conn.established


class TestFig2a:
    """Fig 2(a) shape: low δ floods low samples; high δ gives few, high."""

    def test_low_delta_many_samples(self, fig2):
        low = 64 * MICROSECONDS
        assert len(fig2.fixed[low]) > 500

    def test_low_delta_underestimates_after_step(self, fig2):
        low = 64 * MICROSECONDS
        est = fig2.median(fig2.fixed[low], after_step=True)
        truth = fig2.median(fig2.ground_truth, after_step=True)
        assert est < truth / 2

    def test_high_delta_few_samples(self, fig2):
        low = 64 * MICROSECONDS
        high = 1024 * MICROSECONDS
        assert len(fig2.fixed[high]) < len(fig2.fixed[low]) / 10

    def test_high_delta_overestimates(self, fig2):
        high = 1024 * MICROSECONDS
        est_pre = fig2.median(fig2.fixed[high], after_step=False)
        truth_pre = fig2.median(fig2.ground_truth, after_step=False)
        if est_pre is not None:  # rare spikes may not occur pre-step
            assert est_pre > 2 * truth_pre


class TestFig2b:
    """Fig 2(b): the ensemble tracks the truth through the step."""

    SETTLE = 150 * MILLISECONDS  # a couple of epochs to find the new cliff

    def _median(self, series, lo, hi):
        values = [v for t, v in series.items() if lo <= t < hi]
        if not values:
            return None
        return sorted(values)[len(values) // 2]

    def test_tracks_before_step(self, fig2):
        assert fig2.tracking_error(False) < 0.25

    def test_tracks_after_step_once_settled(self, fig2):
        lo = SMALL_BACKLOG.step_at + self.SETTLE
        hi = SMALL_BACKLOG.duration
        est = self._median(fig2.estimates, lo, hi)
        truth = self._median(fig2.ground_truth, lo, hi)
        assert est is not None and truth is not None
        assert est == pytest.approx(truth, rel=0.3)

    def test_chosen_timeout_grows_after_step(self, fig2):
        pre = [v for t, v in fig2.chosen_timeouts.items()
               if t < SMALL_BACKLOG.step_at]
        post = [v for t, v in fig2.chosen_timeouts.items()
                if t > SMALL_BACKLOG.step_at + self.SETTLE]
        assert pre and post
        median_pre = sorted(pre)[len(pre) // 2]
        median_post = sorted(post)[len(post) // 2]
        assert median_post > median_pre

    def test_epochs_completed(self, fig2):
        # 800 ms at E=64 ms: at least 10 epochs.
        assert fig2.epochs >= 10

    def test_shipped_loop_matches_the_literal_algorithm(self):
        """Panel (b)'s loop keeps its state on conntrack entries and one
        epoch log for all flows; on Fig 2's flow it must emit exactly
        what the literal k-instance Algorithm 2 emits."""
        run = build_backlog(SMALL_BACKLOG)
        feedback = InbandFeedback(
            run.lb, FeedbackConfig(ensemble=SMALL_BACKLOG.ensemble, control=False)
        )
        arrivals = []
        run.lb.add_tap(
            lambda now, flow, backend, packet: arrivals.append((now, flow))
        )
        run.sim.run_until(SMALL_BACKLOG.duration)

        assert len({flow for _now, flow in arrivals}) == 1
        naive = NaiveEnsemble(SMALL_BACKLOG.ensemble)
        expected = []
        for now, _flow in arrivals:
            t_lb = naive.observe(now)
            if t_lb is not None:
                expected.append((now, t_lb))
        assert len(expected) > 100
        assert [(s.time, s.t_lb) for s in feedback.samples] == expected
        assert len(naive.cliff_history) >= 10
        assert feedback.epochs == naive.cliff_history


class TestFig3:
    @pytest.fixture(scope="class")
    def fig3(self):
        return run_fig3(Fig3Config(duration=1600 * MILLISECONDS))

    def test_maglev_p95_inflates(self, fig3):
        pre = fig3.steady_state_p95("maglev")
        post = fig3.post_injection_p95("maglev", settle=200 * MILLISECONDS)
        assert post > pre + 300 * MICROSECONDS

    def test_feedback_p95_recovers(self, fig3):
        config = fig3.config
        pre = fig3.steady_state_p95("feedback")
        post = fig3.post_injection_p95("feedback", settle=config.duration // 4)
        # Within 25% of its own steady state (vs ~+1ms for maglev).
        assert post < pre * 1.25 + 100 * MICROSECONDS

    def test_feedback_beats_maglev_after_injection(self, fig3):
        settle = 200 * MILLISECONDS
        assert fig3.post_injection_p95("feedback", settle) < fig3.post_injection_p95(
            "maglev", settle
        )

    def test_traffic_shifted_off_injected_server(self, fig3):
        result = fig3.results["feedback"]
        injected = fig3.config.injected_server
        post = [
            r
            for r in result.records
            if r.completed_at > fig3.config.injection_at + 400 * MILLISECONDS
        ]
        share = sum(1 for r in post if r.server == injected) / len(post)
        assert share < 0.25

    def test_p95_series_nonempty(self, fig3):
        for policy in ("maglev", "feedback"):
            assert len(fig3.p95_series(policy)) >= 4


class TestReaction:
    def test_reacts_within_tens_of_milliseconds(self):
        result = run_reaction(Fig3Config(duration=1200 * MILLISECONDS))
        assert result.reaction_ns is not None
        assert result.reaction_ns < 100 * MILLISECONDS
        assert result.shifts_total > 0

    def test_injected_server_reaches_floor(self):
        result = run_reaction(Fig3Config(duration=1600 * MILLISECONDS))
        assert result.injected_weight_floor_at is not None
        assert result.injected_weight_floor_at >= result.injection_at


class TestErrorDecomposition:
    def test_identity_holds_without_think_time(self):
        result = run_error_decomposition(0, duration=400 * MILLISECONDS)
        assert result.identity_gap < 20 * MICROSECONDS

    def test_identity_holds_with_think_time(self):
        think = 300 * MICROSECONDS
        result = run_error_decomposition(think, duration=400 * MILLISECONDS)
        assert result.measured_error == pytest.approx(think, abs=30 * MICROSECONDS)

    def test_t_trigger_dominates_error(self):
        """Paper §3: T_trigger is the bulk of the T_LB error."""
        small = run_error_decomposition(0, duration=400 * MILLISECONDS)
        large = run_error_decomposition(
            500 * MICROSECONDS, duration=400 * MILLISECONDS
        )
        assert abs(large.measured_error) > 10 * abs(small.measured_error)
