"""Fault specs: validation, selectors, and window expansion."""

import pytest

from repro.errors import ConfigError
from repro.faults import (
    CrashRestartFault,
    DelayFault,
    FAULT_KINDS,
    FaultSchedule,
    JitterFault,
    LossFault,
    ServerPauseFault,
    ServerSlowdownFault,
    ThrottleFault,
)
from repro.faults.model import replace_window
from repro.units import SECONDS


class TestValidation:
    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigError, match="duration must be positive"):
            DelayFault(start=0, duration=0).validate()

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigError):
            LossFault(start=0, duration=-5).validate()

    def test_none_duration_means_until_run_end(self):
        DelayFault(start=0, duration=None).validate()  # no raise

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigError, match="start must be >= 0"):
            DelayFault(start=-1).validate()

    def test_recurring_needs_finite_duration(self):
        with pytest.raises(ConfigError, match="finite duration"):
            DelayFault(period=1 * SECONDS).validate()

    def test_duration_longer_than_period_rejected(self):
        with pytest.raises(ConfigError, match="exceeds its period"):
            DelayFault(duration=200, period=100).validate()

    def test_empty_node_glob_rejected(self):
        with pytest.raises(ConfigError, match="node glob"):
            DelayFault(node="").validate()

    def test_unknown_direction_rejected(self):
        with pytest.raises(ConfigError, match="unknown direction"):
            DelayFault(direction="server->lb").validate()

    @pytest.mark.parametrize(
        "fault",
        [
            DelayFault(extra=-1),
            JitterFault(amplitude=0),
            LossFault(prob=0.0),
            LossFault(prob=1.5),
            ThrottleFault(bandwidth_bps=0),
            ServerSlowdownFault(factor=0.0),
            ServerSlowdownFault(factor=-2.0),
        ],
    )
    def test_bad_magnitudes_rejected(self, fault):
        with pytest.raises(ConfigError):
            fault.validate()

    def test_all_kinds_registered(self):
        assert set(FAULT_KINDS) == {
            "delay", "jitter", "loss", "throttle", "slowdown", "pause",
            "crash", "partition",
        }


class TestSelectors:
    def test_glob_matching(self):
        fault = DelayFault(node="server*")
        assert fault.matches("server0")
        assert fault.matches("server12")
        assert not fault.matches("client0")

    def test_exact_name(self):
        fault = CrashRestartFault(node="server1")
        assert fault.matches("server1")
        assert not fault.matches("server10")

    def test_describe_mentions_kind_and_node(self):
        text = ServerPauseFault(node="server0").describe()
        assert "pause" in text and "server0" in text


class TestScheduleWindows:
    def test_one_shot_window(self):
        schedule = FaultSchedule(
            [DelayFault(start=100, duration=50, extra=7)]
        )
        windows = schedule.windows(1000)
        assert len(windows) == 1
        assert (windows[0].start, windows[0].end) == (100, 150)
        assert windows[0].duration == 50

    def test_open_ended_window_has_no_end(self):
        (window,) = FaultSchedule([DelayFault(start=100)]).windows(1000)
        assert window.end is None
        assert window.covers(999_999_999)

    def test_recurring_expansion_stops_at_horizon(self):
        fault = ServerSlowdownFault(start=100, duration=10, period=100)
        windows = FaultSchedule([fault]).windows(350)
        assert [(w.start, w.end) for w in windows] == [
            (100, 110), (200, 210), (300, 310)
        ]

    def test_window_end_may_exceed_horizon(self):
        # The revert past the horizon simply never fires.
        fault = DelayFault(start=900, duration=500)
        (window,) = FaultSchedule([fault]).windows(1000)
        assert window.end == 1400

    def test_same_instant_windows_keep_declaration_order(self):
        a = DelayFault(start=100, extra=1)
        b = LossFault(start=100, prob=0.5)
        windows = FaultSchedule([a, b]).windows(1000)
        assert [w.fault for w in windows] == [a, b]

    def test_start_at_or_after_horizon_rejected(self):
        with pytest.raises(ConfigError, match="at/after the run end"):
            FaultSchedule([DelayFault(start=1000)]).windows(1000)

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule([]).windows(0)

    def test_non_faultspec_entry_rejected(self):
        with pytest.raises(ConfigError, match="FaultSpec"):
            FaultSchedule(["delay"])

    def test_schedule_validates_entries(self):
        with pytest.raises(ConfigError):
            FaultSchedule([DelayFault(duration=0)])


class TestReplaceWindow:
    def test_preserves_magnitude_and_target(self):
        fault = ServerSlowdownFault(
            start=0, duration=10, period=20, factor=3.0, node="server1"
        )
        moved = replace_window(fault, 500, 50)
        assert isinstance(moved, ServerSlowdownFault)
        assert (moved.start, moved.duration, moved.period) == (500, 50, None)
        assert moved.factor == 3.0
        assert moved.node == "server1"


class TestConfigIntegration:
    def test_scenario_config_validates_faults(self):
        from repro.harness.config import ScenarioConfig

        config = ScenarioConfig(
            duration=1 * SECONDS, faults=[DelayFault(duration=0)]
        )
        with pytest.raises(ConfigError):
            config.validate()

    def test_fault_starting_after_run_rejected(self):
        from repro.harness.config import ScenarioConfig

        config = ScenarioConfig(
            duration=1 * SECONDS, faults=[DelayFault(start=2 * SECONDS)]
        )
        with pytest.raises(ConfigError, match="after the run ends"):
            config.validate()
