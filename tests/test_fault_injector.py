"""Injector: binding, composition, deterministic revert, crash semantics.

These tests drive the simulator stepwise (``run_until``) around fault
window edges and assert on the underlying knobs — pipe delay/loss/
bandwidth, server multiplier/pause, pool health — rather than on
emergent latency, so each composition law is pinned exactly.
"""

import pytest

from repro.errors import ConfigError
from repro.faults import (
    CrashRestartFault,
    DelayFault,
    FaultSchedule,
    Injector,
    JitterFault,
    LossFault,
    ServerPauseFault,
    ServerSlowdownFault,
    ThrottleFault,
)
from repro.harness.config import ScenarioConfig
from repro.harness.scenario import build_scenario
from repro.units import MILLISECONDS, SECONDS


def built(*faults, **kwargs):
    defaults = dict(duration=1 * SECONDS, n_servers=2, faults=list(faults))
    defaults.update(kwargs)
    return build_scenario(ScenarioConfig(**defaults))


MS = MILLISECONDS


class TestDelayComposition:
    def test_overlapping_delays_add_and_revert_to_baseline(self):
        scenario = built(
            DelayFault(start=100 * MS, duration=300 * MS, extra=10_000, node="server0"),
            DelayFault(start=200 * MS, duration=100 * MS, extra=5_000, node="server0"),
        )
        pipe = scenario.network.pipe("lb", "server0")
        # A pre-existing extra delay is the baseline the chaos plane
        # must restore, no matter the expiry order.
        pipe.set_extra_delay(77)
        sim = scenario.sim

        sim.run_until(150 * MS)
        assert pipe.extra_delay == 77 + 10_000
        sim.run_until(250 * MS)
        assert pipe.extra_delay == 77 + 15_000
        sim.run_until(350 * MS)
        assert pipe.extra_delay == 77 + 10_000
        sim.run_until(450 * MS)
        assert pipe.extra_delay == 77

    def test_other_servers_untouched(self):
        scenario = built(
            DelayFault(start=100 * MS, duration=100 * MS, extra=9_999, node="server0")
        )
        scenario.sim.run_until(150 * MS)
        assert scenario.network.pipe("lb", "server1").extra_delay == 0

    def test_glob_hits_every_matching_pipe(self):
        scenario = built(
            DelayFault(start=100 * MS, extra=1_234, node="server*")
        )
        scenario.sim.run_until(150 * MS)
        for name in ("server0", "server1"):
            assert scenario.network.pipe("lb", name).extra_delay == 1_234


class TestLossComposition:
    def test_overlapping_losses_compose_as_independent_segments(self):
        scenario = built(
            LossFault(start=100 * MS, duration=300 * MS, prob=0.1, node="server0"),
            LossFault(start=200 * MS, duration=100 * MS, prob=0.2, node="server0"),
        )
        pipe = scenario.network.pipe("lb", "server0")
        sim = scenario.sim

        sim.run_until(150 * MS)
        assert pipe.drop_prob == pytest.approx(0.1)
        sim.run_until(250 * MS)
        assert pipe.drop_prob == pytest.approx(1 - 0.9 * 0.8)
        sim.run_until(350 * MS)
        assert pipe.drop_prob == pytest.approx(0.1)
        sim.run_until(450 * MS)
        assert pipe.drop_prob == 0.0

    def test_losses_counted_separately_from_queue_drops(self):
        config = ScenarioConfig(
            duration=500 * MS,
            n_servers=2,
            faults=[LossFault(start=0, prob=0.5, node="server0")],
        )
        from repro.harness.runner import run_scenario

        result = run_scenario(config)
        pipe = result.scenario.network.pipe("lb", "server0")
        assert pipe.stats.packets_dropped_loss > 0
        # Compat: the aggregate property still sums both counters.
        assert pipe.stats.packets_dropped == (
            pipe.stats.packets_dropped_queue + pipe.stats.packets_dropped_loss
        )
        queue_drops, loss_drops = result.drop_counts()
        assert loss_drops == pipe.stats.packets_dropped_loss


class TestThrottleAndJitter:
    def test_throttle_takes_tightest_cap_and_restores_base(self):
        scenario = built(
            ThrottleFault(
                start=100 * MS, duration=300 * MS,
                bandwidth_bps=2_000_000_000, node="server0",
            ),
            ThrottleFault(
                start=200 * MS, duration=100 * MS,
                bandwidth_bps=500_000_000, node="server0",
            ),
        )
        pipe = scenario.network.pipe("lb", "server0")
        base = pipe.bandwidth_bps
        sim = scenario.sim

        sim.run_until(150 * MS)
        assert pipe.effective_bandwidth_bps == 2_000_000_000
        sim.run_until(250 * MS)
        assert pipe.effective_bandwidth_bps == 500_000_000
        sim.run_until(350 * MS)
        assert pipe.effective_bandwidth_bps == 2_000_000_000
        sim.run_until(450 * MS)
        assert pipe.effective_bandwidth_bps == base

    def test_throttle_never_exceeds_configured_bandwidth(self):
        scenario = built(
            ThrottleFault(
                start=100 * MS, bandwidth_bps=10**15, node="server0"
            )
        )
        pipe = scenario.network.pipe("lb", "server0")
        scenario.sim.run_until(150 * MS)
        assert pipe.effective_bandwidth_bps == pipe.bandwidth_bps

    def test_jitter_installed_and_cleared(self):
        scenario = built(
            JitterFault(start=100 * MS, duration=100 * MS, amplitude=5_000, node="server0")
        )
        pipe = scenario.network.pipe("lb", "server0")
        sim = scenario.sim
        assert pipe.extra_jitter is None
        sim.run_until(150 * MS)
        draw = pipe.extra_jitter
        assert draw is not None
        assert 0 <= draw() < 5_000
        sim.run_until(250 * MS)
        assert pipe.extra_jitter is None


class TestServerFaults:
    def test_slowdowns_multiply_and_revert(self):
        scenario = built(
            ServerSlowdownFault(start=100 * MS, duration=300 * MS, factor=2.0, node="server0"),
            ServerSlowdownFault(start=200 * MS, duration=100 * MS, factor=3.0, node="server0"),
        )
        server = scenario.servers[0]
        sim = scenario.sim

        sim.run_until(150 * MS)
        assert server.service_multiplier == pytest.approx(2.0)
        sim.run_until(250 * MS)
        assert server.service_multiplier == pytest.approx(6.0)
        sim.run_until(350 * MS)
        assert server.service_multiplier == pytest.approx(2.0)
        sim.run_until(450 * MS)
        assert server.service_multiplier == pytest.approx(1.0)

    def test_pause_is_reference_counted(self):
        scenario = built(
            ServerPauseFault(start=100 * MS, duration=300 * MS, node="server0"),
            ServerPauseFault(start=200 * MS, duration=100 * MS, node="server0"),
        )
        server = scenario.servers[0]
        sim = scenario.sim

        sim.run_until(150 * MS)
        assert server.paused
        sim.run_until(350 * MS)
        # First window still open after the nested one ended.
        assert server.paused
        sim.run_until(450 * MS)
        assert not server.paused


class TestCrashRestart:
    def test_crash_window_toggles_pool_health(self):
        scenario = built(
            CrashRestartFault(start=100 * MS, duration=200 * MS, node="server0")
        )
        backend = scenario.pool.get("server0")
        sim = scenario.sim

        assert backend.healthy
        sim.run_until(150 * MS)
        assert not backend.healthy
        sim.run_until(350 * MS)
        assert backend.healthy

    def test_crash_on_already_unhealthy_backend_is_noop(self):
        scenario = built(
            CrashRestartFault(start=100 * MS, duration=200 * MS, node="server0")
        )
        # Some other subsystem (health checks, churn) took it down first.
        scenario.pool.set_healthy("server0", False)
        backend = scenario.pool.get("server0")
        sim = scenario.sim

        sim.run_until(150 * MS)
        assert not backend.healthy
        # The restart must not revive a backend the crash didn't kill.
        sim.run_until(350 * MS)
        assert not backend.healthy

    def test_overlapping_crashes_release_on_last_revert(self):
        scenario = built(
            CrashRestartFault(start=100 * MS, duration=300 * MS, node="server0"),
            CrashRestartFault(start=200 * MS, duration=100 * MS, node="server0"),
        )
        backend = scenario.pool.get("server0")
        sim = scenario.sim

        sim.run_until(350 * MS)
        assert not backend.healthy  # outer window still open
        sim.run_until(450 * MS)
        assert backend.healthy


class TestRecurrence:
    def test_recurring_fault_cancels_cleanly_at_run_end(self):
        # Windows at 100, 400, 700, 1000(dropped: >= horizon)... and the
        # 700 ms window's revert (900 ms) is the last transition.
        config = ScenarioConfig(
            duration=1 * SECONDS,
            n_servers=2,
            faults=[
                ServerSlowdownFault(
                    start=100 * MS, duration=200 * MS, period=300 * MS,
                    factor=4.0, node="server0",
                )
            ],
        )
        from repro.harness.runner import run_scenario

        result = run_scenario(config)
        injector = result.scenario.injector
        applies = [e for e in injector.events if e.action == "apply"]
        reverts = [e for e in injector.events if e.action == "revert"]
        assert len(applies) == 3
        assert len(reverts) == 3
        assert result.scenario.servers[0].service_multiplier == 1.0

    def test_mid_window_run_end_leaves_no_dangling_state(self):
        # The last window (start 900 ms, end 1.1 s) is still open at the
        # horizon; its revert simply never fires.
        config = ScenarioConfig(
            duration=1 * SECONDS,
            n_servers=2,
            faults=[
                DelayFault(
                    start=300 * MS, duration=200 * MS, period=300 * MS,
                    extra=1 * MS, node="server0",
                )
            ],
        )
        from repro.harness.runner import run_scenario

        result = run_scenario(config)
        injector = result.scenario.injector
        applies = sum(1 for e in injector.events if e.action == "apply")
        reverts = sum(1 for e in injector.events if e.action == "revert")
        assert applies == 3 and reverts == 2  # last revert is past the horizon


class TestResolution:
    def test_unmatched_pipe_fault_rejected_at_build(self):
        with pytest.raises(ConfigError, match="matches no"):
            built(DelayFault(start=100 * MS, node="nonexistent*"))

    def test_unmatched_server_fault_rejected_at_build(self):
        with pytest.raises(ConfigError, match="matches no"):
            built(ServerSlowdownFault(start=100 * MS, node="client0"))

    def test_crash_without_pool_rejected(self):
        scenario = built()
        injector = Injector(
            scenario.sim, scenario.network, server_names=["server0"]
        )
        with pytest.raises(ConfigError, match="pool"):
            injector.arm(
                FaultSchedule([CrashRestartFault(start=1, node="server0")]),
                1 * SECONDS,
            )

    def test_loss_without_rng_rejected(self):
        scenario = built()
        injector = Injector(
            scenario.sim, scenario.network, server_names=["server0"]
        )
        with pytest.raises(ConfigError, match="RNG"):
            injector.arm(
                FaultSchedule([LossFault(start=1, node="server0")]),
                1 * SECONDS,
            )


class TestEventsAndViews:
    def test_events_record_each_transition_with_target(self):
        scenario = built(
            DelayFault(start=100 * MS, duration=100 * MS, extra=1 * MS, node="server0")
        )
        scenario.sim.run_until(300 * MS)
        injector = scenario.injector
        assert [(e.action, e.target) for e in injector.events] == [
            ("apply", "lb->server0"),
            ("revert", "lb->server0"),
        ]
        assert all(e.kind == "delay" for e in injector.events)
        assert "delay" in injector.timeline()

    def test_active_at_reflects_window_coverage(self):
        scenario = built(
            DelayFault(start=100 * MS, duration=100 * MS, extra=1 * MS, node="server0")
        )
        injector = scenario.injector
        assert injector.active_at(50 * MS) == []
        assert len(injector.active_at(150 * MS)) == 1
        assert injector.active_at(250 * MS) == []
