"""Scenario configuration validation."""

import pytest

from repro.app.server import ServerConfig
from repro.errors import ConfigError
from repro.faults.model import DelayFault
from repro.harness.config import NetworkParams, PolicyName, ScenarioConfig
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS


class TestNetworkParams:
    def test_defaults_valid(self):
        NetworkParams().validate()

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            NetworkParams(client_lb_delay=-1).validate()

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            NetworkParams(bandwidth_bps=0).validate()

    def test_client_delay_overrides(self):
        params = NetworkParams(
            client_lb_delay=10, client_lb_delay_overrides=[99]
        )
        assert params.client_delay(0) == 99
        assert params.client_delay(1) == 10  # beyond the override list

    def test_negative_override_rejected(self):
        with pytest.raises(ConfigError):
            NetworkParams(client_lb_delay_overrides=[-1]).validate()


class TestDelayInjection:
    """The Fig 3 stimulus, spelled as a chaos-plane ``DelayFault``."""

    def test_valid(self):
        DelayFault(start=0, node="s0", extra=1000).validate()

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            DelayFault(start=-1, node="s0", extra=0).validate()

    def test_end_before_start_rejected(self):
        with pytest.raises(ConfigError):
            DelayFault(start=100, duration=0, node="s0", extra=1).validate()


class TestScenarioConfig:
    def test_defaults_valid(self):
        ScenarioConfig().validate()

    def test_duration_positive(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(duration=0).validate()

    def test_counts_positive(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n_clients=0).validate()
        with pytest.raises(ConfigError):
            ScenarioConfig(n_servers=0).validate()

    def test_p2c_needs_two_servers(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(policy=PolicyName.POWER_OF_TWO, n_servers=1).validate()

    def test_server_overrides_length_checked(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(
                n_servers=2, server_overrides=[ServerConfig()]
            ).validate()

    def test_warmup_within_duration(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(duration=SECONDS, warmup=SECONDS).validate()

    def test_injection_within_duration(self):
        injection = DelayFault(start=2 * SECONDS, node="server0", extra=1)
        config = ScenarioConfig(duration=SECONDS, faults=[injection])
        with pytest.raises(ConfigError):
            config.validate()

    def test_server_config_selection(self):
        override = ServerConfig(workers=9)
        config = ScenarioConfig(n_servers=1, server_overrides=[override])
        assert config.server_config(0) is override
        assert ScenarioConfig().server_config(1).workers == 1

    def test_names(self):
        config = ScenarioConfig()
        assert config.server_name(0) == "server0"
        assert config.client_name(2) == "client2"
