"""Preset library, the textual fault parser, and the CLI --fault flag."""

import pytest

from repro.errors import ConfigError
from repro.faults import (
    DelayFault,
    FaultSchedule,
    JitterFault,
    LossFault,
    PRESETS,
    ServerSlowdownFault,
    ThrottleFault,
    parse_faults,
    preset,
)
from repro.units import MILLISECONDS, SECONDS


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_validate_at_any_duration(self, name):
        for duration in (1 * SECONDS, 10 * SECONDS):
            faults = preset(name, duration)
            assert faults
            FaultSchedule(faults).windows(duration)  # no raise

    def test_fig3_preset_is_the_paper_stimulus(self):
        (fault,) = preset("fig3", 4 * SECONDS)
        assert isinstance(fault, DelayFault)
        assert fault.start == 2 * SECONDS
        assert fault.extra == 1 * MILLISECONDS
        assert fault.node == "server0"
        assert fault.duration is None

    def test_flapping_server_recurs(self):
        (fault,) = preset("flapping_server", 6 * SECONDS)
        assert isinstance(fault, ServerSlowdownFault)
        assert fault.period is not None
        assert fault.duration < fault.period
        windows = FaultSchedule([fault]).windows(6 * SECONDS)
        assert len(windows) > 2

    def test_slow_ramp_compounds(self):
        faults = preset("slow_ramp", 8 * SECONDS)
        assert len(faults) == 4
        assert all(isinstance(f, ServerSlowdownFault) for f in faults)

    def test_correlated_burst_hits_all_paths(self):
        faults = preset("correlated_burst", 8 * SECONDS)
        kinds = {type(f) for f in faults}
        assert kinds == {DelayFault, JitterFault, LossFault}
        assert all(f.node == "*" for f in faults)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault preset"):
            preset("nope", 1 * SECONDS)


class TestParser:
    def test_preset_name_expands(self):
        faults = parse_faults("lossy_path", 4 * SECONDS)
        assert len(faults) == 1 and isinstance(faults[0], LossFault)

    def test_inline_delay_spec(self):
        (fault,) = parse_faults(
            "delay:node=server0,start=1s,dur=500ms,extra=1ms", 4 * SECONDS
        )
        assert isinstance(fault, DelayFault)
        assert fault.start == 1 * SECONDS
        assert fault.duration == 500 * MILLISECONDS
        assert fault.extra == 1 * MILLISECONDS

    def test_inline_throttle_bandwidth_suffix(self):
        (fault,) = parse_faults("throttle:node=server1,start=1s,bw=200m", 4 * SECONDS)
        assert isinstance(fault, ThrottleFault)
        assert fault.bandwidth_bps == 200_000_000

    def test_bare_number_is_seconds(self):
        (fault,) = parse_faults("delay:node=server0,start=1.5", 4 * SECONDS)
        assert fault.start == 1_500_000_000

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault"):
            parse_faults("meteor:node=server0", 4 * SECONDS)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_faults("delay:node=server0,banana=1", 4 * SECONDS)

    def test_kind_without_params_rejected(self):
        with pytest.raises(ConfigError, match="no parameters"):
            parse_faults("delay", 4 * SECONDS)

    def test_parsed_fault_is_validated(self):
        with pytest.raises(ConfigError):
            parse_faults("loss:node=server0,prob=2.0", 4 * SECONDS)


class TestCli:
    def test_run_with_preset_fault_annotates_report(self, capsys):
        from repro.cli import main

        assert main(["--duration", "0.3", "run", "--fault", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "fault windows:" in out
        assert "delay" in out
        # fig3 at 0.3 s: onset at the midpoint, open-ended.
        assert "start=150.000ms until end of run" in out

    def test_run_with_inline_fault(self, capsys):
        from repro.cli import main

        code = main(
            [
                "--duration", "0.3",
                "run",
                "--fault", "delay:node=server0,start=100ms,dur=100ms,extra=1ms",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "start=100.000ms duration=100.000ms" in out
        assert "packet drops: queue=" in out

    def test_bad_fault_spec_raises_config_error(self, capsys):
        # The ConfigError reaches the user as one line and exit code 2.
        from repro.cli import main

        assert main(["--duration", "0.3", "run", "--fault", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
