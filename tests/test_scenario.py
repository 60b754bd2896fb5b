"""Scenario assembly: topology shape, policies, injections."""

import pytest

from repro.errors import ConfigError
from repro.faults import DelayFault
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.scenario import build_scenario
from repro.lb.policies import (
    LeastConnections,
    MaglevPolicy,
    PowerOfTwoChoices,
    RandomPolicy,
    RoundRobin,
    WeightedRandom,
)
from repro.units import MILLISECONDS, SECONDS


def small_config(**kwargs):
    defaults = dict(duration=100 * MILLISECONDS, n_clients=2, n_servers=2)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def _dsr_scenario():
    scenario = build_scenario(small_config())
    return (
        scenario.network,
        {"client0": "lb", "client1": "lb"},
        ["server0", "server1"],
    )


def _dsr_backlog():
    from repro.harness.figures import BacklogConfig, build_backlog

    run = build_backlog(BacklogConfig())
    return run.lb.network, {"client0": "lb"}, ["server0"]


def _dsr_multilb():
    from repro.harness.multilb import MultiLbConfig, run_multilb

    result = run_multilb(
        MultiLbConfig(duration=20 * MILLISECONDS, n_lbs=2, clients_per_lb=2)
    )
    client_lbs = {
        "client%d_%d" % (lb, c): "lb%d" % lb for lb in range(2) for c in range(2)
    }
    return result.lbs[0].network, client_lbs, ["server0", "server1"]


def _dsr_tiered():
    from repro.harness.tiered import TieredScenarioConfig, run_tiered

    result = run_tiered(TieredScenarioConfig(duration=20 * MILLISECONDS))
    return (
        result.feedback.lb.network,
        {"client0": "lb"},
        ["frontend0", "frontend1"],
    )


#: Each topology builder → (network, client → its LB, server names).
DSR_BUILDERS = {
    "build_scenario": _dsr_scenario,
    "build_backlog": _dsr_backlog,
    "run_multilb": _dsr_multilb,
    "run_tiered": _dsr_tiered,
}


class TestTopology:
    def test_all_nodes_present(self):
        scenario = build_scenario(small_config())
        for name in ("lb", "client0", "client1", "server0", "server1"):
            scenario.network.get_node(name)

    @pytest.mark.parametrize(
        "builder", ["build_scenario", "build_backlog", "run_multilb", "run_tiered"]
    )
    def test_dsr_pipes_exist(self, builder):
        network, client_lbs, servers = DSR_BUILDERS[builder]()
        lbs = set(client_lbs.values())
        for client, lb in client_lbs.items():
            # Forward path: the client reaches its LB.
            assert network.has_pipe(client, lb)
            # Direct return path from every server.
            for server in servers:
                assert network.has_pipe(server, client)
            # And crucially no LB→client return pipe.
            for other_lb in lbs:
                assert not network.has_pipe(other_lb, client)
        # The LB feeds every server, and no server answers through it.
        for lb in lbs:
            for server in servers:
                assert network.has_pipe(lb, server)
                assert not network.has_pipe(server, lb)

    def test_far_client_override_applied(self):
        from repro.harness.config import NetworkParams

        config = small_config(
            network=NetworkParams(client_lb_delay_overrides=[5 * MILLISECONDS])
        )
        scenario = build_scenario(config)
        assert scenario.network.pipe("client0", "lb").prop_delay == 5 * MILLISECONDS
        # Return path raised by the same extra margin.
        base = config.network.server_client_delay
        extra = 5 * MILLISECONDS - config.network.client_lb_delay
        assert scenario.network.pipe("server0", "client0").prop_delay == base + extra
        # Second client untouched.
        assert scenario.network.pipe("client1", "lb").prop_delay == config.network.client_lb_delay


class TestPolicies:
    @pytest.mark.parametrize(
        "policy,cls",
        [
            (PolicyName.MAGLEV, MaglevPolicy),
            (PolicyName.FEEDBACK, MaglevPolicy),
            (PolicyName.ORACLE, MaglevPolicy),
            (PolicyName.ROUND_ROBIN, RoundRobin),
            (PolicyName.RANDOM, RandomPolicy),
            (PolicyName.WEIGHTED_RANDOM, WeightedRandom),
            (PolicyName.LEAST_CONNECTIONS, LeastConnections),
            (PolicyName.POWER_OF_TWO, PowerOfTwoChoices),
        ],
    )
    def test_policy_selection(self, policy, cls):
        scenario = build_scenario(small_config(policy=policy))
        assert isinstance(scenario.lb.policy, cls)

    def test_feedback_wiring(self):
        scenario = build_scenario(small_config(policy=PolicyName.FEEDBACK))
        assert scenario.feedback is not None
        assert scenario.oracle is None

    def test_oracle_wiring(self):
        scenario = build_scenario(small_config(policy=PolicyName.ORACLE))
        assert scenario.oracle is not None
        assert scenario.feedback is None
        for client in scenario.clients:
            assert client.on_record is not None

    def test_plain_maglev_has_no_control_plane(self):
        scenario = build_scenario(small_config(policy=PolicyName.MAGLEV))
        assert scenario.feedback is None
        assert scenario.oracle is None


class TestInjections:
    def test_injection_schedules_extra_delay(self):
        config = small_config(
            faults=[
                DelayFault(
                    start=10 * MILLISECONDS,
                    duration=10 * MILLISECONDS,
                    extra=1 * MILLISECONDS,
                    node="server0",
                )
            ]
        )
        scenario = build_scenario(config)
        pipe = scenario.network.pipe("lb", "server0")
        assert pipe.extra_delay == 0
        scenario.sim.run_until(10 * MILLISECONDS)
        assert pipe.extra_delay == 1 * MILLISECONDS
        scenario.sim.run_until(20 * MILLISECONDS)
        assert pipe.extra_delay == 0

    def test_unknown_injection_target_rejected(self):
        config = small_config(
            faults=[DelayFault(start=0, extra=1, node="serverX")]
        )
        with pytest.raises(ConfigError):
            build_scenario(config)

    def test_determinism_same_seed_same_trace(self):
        from repro.harness.runner import run_scenario

        a = run_scenario(small_config(seed=5))
        b = run_scenario(small_config(seed=5))
        assert len(a.records) == len(b.records)
        assert [r.latency for r in a.records[:100]] == [
            r.latency for r in b.records[:100]
        ]

    def test_different_seed_different_trace(self):
        from repro.harness.runner import run_scenario

        a = run_scenario(small_config(seed=5))
        b = run_scenario(small_config(seed=6))
        assert [r.latency for r in a.records[:200]] != [
            r.latency for r in b.records[:200]
        ]
