"""Algorithm 2 — ENSEMBLETIMEOUT: ensembles, epochs, sample cliffs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ensemble import EnsembleConfig, EnsembleTimeout, default_timeouts
from repro.core.fixed_timeout import FixedTimeout
from repro.units import MICROSECONDS, MILLISECONDS


def feed_regular_batches(ensemble, rtt, duration, burst=4, intra_gap=2 * MICROSECONDS):
    """Feed batch arrivals: `burst` packets, then silence until next RTT."""
    samples = []
    t = 0
    while t < duration:
        for i in range(burst):
            sample = ensemble.observe(t + i * intra_gap)
            if sample is not None:
                samples.append((t + i * intra_gap, sample))
        t += rtt
    return samples


class TestDefaults:
    def test_paper_timeout_ladder(self):
        timeouts = default_timeouts()
        assert timeouts[0] == 64 * MICROSECONDS
        # Doubling from 64 us seven times ends at 4096 us — the paper's
        # "delta_7 = 4 ms" ladder.
        assert timeouts[-1] == 4096 * MICROSECONDS
        assert len(timeouts) == 7
        for a, b in zip(timeouts, timeouts[1:]):
            assert b == 2 * a

    def test_paper_epoch(self):
        assert EnsembleConfig().epoch == 64 * MILLISECONDS


class TestValidation:
    def test_needs_two_timeouts(self):
        with pytest.raises(ValueError):
            EnsembleConfig(timeouts=[100]).validate()

    def test_sorted_required(self):
        with pytest.raises(ValueError):
            EnsembleConfig(timeouts=[200, 100]).validate()

    def test_distinct_required(self):
        with pytest.raises(ValueError):
            EnsembleConfig(timeouts=[100, 100]).validate()

    def test_positive_required(self):
        with pytest.raises(ValueError):
            EnsembleConfig(timeouts=[0, 100]).validate()

    def test_epoch_positive(self):
        with pytest.raises(ValueError):
            EnsembleConfig(epoch=0).validate()

    def test_initial_index_in_range(self):
        with pytest.raises(ValueError):
            EnsembleConfig(initial_index=7).validate()


class TestSampleCounting:
    def test_counts_per_timeout_within_epoch(self):
        config = EnsembleConfig(
            timeouts=[64 * MICROSECONDS, 128 * MICROSECONDS, 256 * MICROSECONDS],
            epoch=100 * MILLISECONDS,
        )
        ensemble = EnsembleTimeout(config)
        # Batches 200us apart: timeouts 64 and 128 split them; 256 never.
        feed_regular_batches(ensemble, rtt=200 * MICROSECONDS, duration=50 * MILLISECONDS)
        counts = ensemble.sample_counts()
        assert counts[0] > 0
        assert counts[1] > 0
        assert counts[2] == 0
        assert counts[0] == counts[1]  # same true batches, no false splits

    def test_counts_reset_at_epoch(self):
        config = EnsembleConfig(epoch=10 * MILLISECONDS)
        ensemble = EnsembleTimeout(config)
        feed_regular_batches(ensemble, rtt=500 * MICROSECONDS, duration=11 * MILLISECONDS)
        # After crossing the epoch boundary the counters restarted.
        assert ensemble.epochs_completed >= 1
        assert max(ensemble.sample_counts()) < 25


class TestCliffDetection:
    def test_cliff_picks_largest_adjacent_drop(self):
        ensemble = EnsembleTimeout(EnsembleConfig(timeouts=[10, 20, 40, 80]))
        ensemble._counts = [50, 40, 38, 1]
        assert ensemble._detect_cliff() == 2  # 38/1 is the cliff

    def test_cliff_handles_zero_next_count(self):
        ensemble = EnsembleTimeout(EnsembleConfig(timeouts=[10, 20, 40]))
        ensemble._counts = [50, 45, 0]
        assert ensemble._detect_cliff() == 1  # 45/max(0,1)=45

    def test_idle_epoch_returns_none(self):
        ensemble = EnsembleTimeout(EnsembleConfig(timeouts=[10, 20]))
        ensemble._counts = [0, 0]
        assert ensemble._detect_cliff() is None

    def test_idle_epoch_keeps_previous_selection(self):
        config = EnsembleConfig(
            timeouts=[64 * MICROSECONDS, 128 * MICROSECONDS],
            epoch=1 * MILLISECONDS,
            initial_index=1,
        )
        ensemble = EnsembleTimeout(config)
        ensemble.observe(0)
        # Nothing for many epochs, then one packet: selection unchanged.
        ensemble.observe(10 * MILLISECONDS)
        assert ensemble.current_index == 1


class TestTimeoutAdaptation:
    def test_selects_timeout_below_batch_pause(self):
        """For clean 500us batches, the cliff sits at the largest timeout
        still below the pause — 256us in the paper ladder."""
        config = EnsembleConfig(epoch=20 * MILLISECONDS)
        ensemble = EnsembleTimeout(config)
        feed_regular_batches(
            ensemble, rtt=500 * MICROSECONDS, duration=45 * MILLISECONDS
        )
        assert ensemble.epochs_completed >= 2
        assert ensemble.current_timeout == 256 * MICROSECONDS

    def test_tracks_rtt_increase(self):
        config = EnsembleConfig(epoch=20 * MILLISECONDS)
        ensemble = EnsembleTimeout(config)
        feed_regular_batches(ensemble, rtt=500 * MICROSECONDS, duration=40 * MILLISECONDS)
        first_choice = ensemble.current_timeout
        # RTT grows to 3 ms; re-feed from t=40ms onward.
        t = 40 * MILLISECONDS
        while t < 150 * MILLISECONDS:
            ensemble.observe(t)
            ensemble.observe(t + 2 * MICROSECONDS)
            t += 3 * MILLISECONDS
        assert ensemble.current_timeout > first_choice
        assert ensemble.current_timeout >= 1 * MILLISECONDS

    def test_samples_come_from_selected_timeout(self):
        config = EnsembleConfig(epoch=20 * MILLISECONDS)
        ensemble = EnsembleTimeout(config)
        samples = feed_regular_batches(
            ensemble, rtt=500 * MICROSECONDS, duration=100 * MILLISECONDS
        )
        late = [s for t, s in samples if t > 50 * MILLISECONDS]
        assert late
        for sample in late:
            assert sample == pytest.approx(500 * MICROSECONDS, rel=0.05)

    def test_cliff_history_records_choices(self):
        config = EnsembleConfig(epoch=10 * MILLISECONDS)
        ensemble = EnsembleTimeout(config)
        feed_regular_batches(ensemble, rtt=500 * MICROSECONDS, duration=35 * MILLISECONDS)
        assert len(ensemble.cliff_history) == ensemble.epochs_completed
        for _time, index in ensemble.cliff_history:
            assert 0 <= index < len(config.timeouts)


class NaiveEnsemble:
    """The literal Algorithm 2 loop over k FIXEDTIMEOUT instances.

    The oracle the fused :class:`EnsembleTimeout` is checked against:
    every packet visits every instance, and the epoch bookkeeping
    follows the pseudocode (cliff = first maximum of Nᵢ / max(Nᵢ₊₁, 1);
    an all-zero epoch keeps the previous timeout).
    """

    def __init__(self, config):
        config.validate()
        self.instances = [FixedTimeout(delta) for delta in config.timeouts]
        self.epoch = config.epoch
        self.epoch_start = None
        self.current_index = config.initial_index
        self.counts = [0] * len(self.instances)
        self.cliff_history = []
        self.epochs_completed = 0

    def observe(self, now):
        if self.epoch_start is None:
            self.epoch_start = now
        elif now - self.epoch_start >= self.epoch:
            if any(self.counts):
                ratios = [
                    self.counts[i] / max(self.counts[i + 1], 1)
                    for i in range(len(self.counts) - 1)
                ]
                self.current_index = ratios.index(max(ratios))
            self.cliff_history.append((now, self.current_index))
            self.counts = [0] * len(self.instances)
            span = now - self.epoch_start
            self.epoch_start += (span // self.epoch) * self.epoch
            self.epochs_completed += 1
        result = None
        for index, instance in enumerate(self.instances):
            t_lb = instance.observe(now)
            if t_lb is not None:
                self.counts[index] += 1
                if index == self.current_index:
                    result = t_lb
        return result


def assert_paths_agree(config, trace):
    """Feed ``trace`` to the fused ensemble and the oracle; all outputs match."""
    fused = EnsembleTimeout(config)
    naive = NaiveEnsemble(config)
    for now in trace:
        assert fused.observe(now) == naive.observe(now), "at t=%d" % now
    assert fused.sample_counts() == naive.counts
    assert fused.cliff_history == naive.cliff_history
    assert fused.epochs_completed == naive.epochs_completed
    assert fused.current_index == naive.current_index
    for f_view, n_inst in zip(fused.instances, naive.instances):
        assert f_view.delta == n_inst.delta
        assert f_view.samples_produced == n_inst.samples_produced
        assert f_view.time_last_batch == n_inst.time_last_batch
        assert f_view.time_last_pkt == n_inst.time_last_pkt


class TestFusedDifferential:
    """The O(log k) fused path matches the literal Algorithm 2 loop."""

    def test_gaps_straddling_every_delta(self):
        """Bursty trace whose gaps land on, below, and above each δᵢ."""
        config = EnsembleConfig(epoch=10 * MILLISECONDS)
        deltas = list(config.timeouts)
        trace, t = [], 0
        for delta in deltas:
            for gap in (delta - 1, delta, delta + 1, 2 * delta, 1):
                t += gap
                trace.append(t)
        assert_paths_agree(config, trace)

    def test_idle_multi_epoch_gaps(self):
        config = EnsembleConfig(epoch=5 * MILLISECONDS)
        trace, t = [], 0
        for gap in (
            100,
            30 * MILLISECONDS,  # 6 idle epochs
            200 * MICROSECONDS,
            1,
            120 * MILLISECONDS,  # 24 idle epochs
            64 * MICROSECONDS,
            64 * MICROSECONDS + 1,
        ):
            t += gap
            trace.append(t)
        assert_paths_agree(config, trace)

    def test_randomized_traces(self):
        """Seeded random walks mixing intra-batch, inter-batch, and idle."""
        gaps_menu = [
            1,
            2_000,
            63 * MICROSECONDS,
            64 * MICROSECONDS,
            64 * MICROSECONDS + 1,
            500 * MICROSECONDS,
            4 * MILLISECONDS,
            5 * MILLISECONDS,
            70 * MILLISECONDS,
            300 * MILLISECONDS,
        ]
        for seed in range(10):
            rng = random.Random(seed)
            trace, t = [], 0
            for _ in range(2_000):
                t += rng.choice(gaps_menu)
                trace.append(t)
            assert_paths_agree(EnsembleConfig(), trace)

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(
            st.integers(min_value=0, max_value=100 * MILLISECONDS),
            min_size=1,
            max_size=300,
        ),
        epoch=st.integers(min_value=1 * MILLISECONDS, max_value=80 * MILLISECONDS),
        initial_index=st.integers(min_value=0, max_value=6),
    )
    def test_property_fused_equals_naive(self, gaps, epoch, initial_index):
        config = EnsembleConfig(epoch=epoch, initial_index=initial_index)
        trace, t = [], 0
        for gap in gaps:
            t += gap
            trace.append(t)
        assert_paths_agree(config, trace)


class TestEpochBoundaries:
    def test_epoch_boundary_detected_before_processing(self):
        """The packet that opens an epoch is measured with the new δ."""
        config = EnsembleConfig(
            timeouts=[64 * MICROSECONDS, 128 * MICROSECONDS, 256 * MICROSECONDS],
            epoch=10 * MILLISECONDS,
            initial_index=0,
        )
        ensemble = EnsembleTimeout(config)
        feed_regular_batches(ensemble, rtt=500 * MICROSECONDS, duration=10 * MILLISECONDS)
        before = ensemble.epochs_completed
        ensemble.observe(10 * MILLISECONDS + 1)
        assert ensemble.epochs_completed == before + 1

    def test_multi_epoch_gap_resets_once(self):
        config = EnsembleConfig(epoch=10 * MILLISECONDS)
        ensemble = EnsembleTimeout(config)
        ensemble.observe(0)
        ensemble.observe(100 * MILLISECONDS)  # 10 epochs later
        assert ensemble.epochs_completed == 1
