"""The fleet plane: lifecycle legality, autoscaler mechanics, config."""

import pytest

from repro.errors import ConfigError, FleetError
from repro.fleet import (
    AutoscalingGroup,
    BackendState,
    FleetConfig,
    FleetLifecycle,
    ScalingDecision,
    ScheduledAction,
    StepPolicy,
    TargetTrackingPolicy,
)
from repro.harness.config import ScenarioConfig
from repro.lb.backend import Backend, BackendPool
from repro.lb.conntrack import ConnTrack
from repro.net.addr import FlowKey
from repro.sim import Simulator
from repro.units import MILLISECONDS

MS = MILLISECONDS


def fast_config(n_total, **overrides):
    """A FleetConfig with short timers so tests run in a few sim ms."""
    defaults = dict(
        enabled=True,
        max_backends=n_total,
        min_in_service=1,
        evaluate_interval=10 * MS,
        provision_delay=10 * MS,
        warmup_duration=40 * MS,
        warmup_steps=4,
        warmup_initial_weight=0.25,
        scale_out_cooldown=0,
        scale_in_cooldown=0,
        drain_poll=5 * MS,
        drain_timeout=50 * MS,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def make_group(n_initial=2, n_total=6, **overrides):
    sim = Simulator()
    names = ["server%d" % i for i in range(n_total)]
    pool = BackendPool([Backend(n) for n in names[:n_initial]])
    conntrack = ConnTrack()
    group = AutoscalingGroup(
        sim, pool, conntrack, fast_config(n_total, **overrides), names
    )
    return sim, pool, conntrack, group


class TestLifecycle:
    def test_happy_path_and_counts(self):
        lc = FleetLifecycle()
        lc.transition(0, "a", BackendState.PROVISIONING)
        lc.transition(1, "a", BackendState.WARMING)
        lc.transition(2, "a", BackendState.IN_SERVICE)
        lc.transition(3, "a", BackendState.DRAINING)
        lc.transition(4, "a", BackendState.TERMINATED)
        # Name reuse re-enters at PROVISIONING.
        lc.transition(5, "a", BackendState.PROVISIONING)
        assert lc.state("a") is BackendState.PROVISIONING
        assert lc.transition_counts() == {
            "new->provisioning": 1,
            "provisioning->warming": 1,
            "warming->in_service": 1,
            "in_service->draining": 1,
            "draining->terminated": 1,
            "terminated->provisioning": 1,
        }

    def test_seed_and_cancel_and_early_drain_edges(self):
        lc = FleetLifecycle()
        # Seeding the initial pool jumps straight to IN_SERVICE.
        lc.transition(0, "seed", BackendState.IN_SERVICE)
        # A not-yet-booted instance can be cancelled outright.
        lc.transition(0, "a", BackendState.PROVISIONING)
        lc.transition(1, "a", BackendState.TERMINATED)
        # A warming backend can be drained before graduating.
        lc.transition(0, "b", BackendState.PROVISIONING)
        lc.transition(1, "b", BackendState.WARMING)
        lc.transition(2, "b", BackendState.DRAINING)

    @pytest.mark.parametrize(
        "path,bad",
        [
            ((), BackendState.WARMING),  # new name can't skip provisioning
            ((), BackendState.DRAINING),
            ((BackendState.PROVISIONING,), BackendState.IN_SERVICE),
            (
                (BackendState.PROVISIONING, BackendState.WARMING),
                BackendState.PROVISIONING,
            ),
            (
                (
                    BackendState.PROVISIONING,
                    BackendState.WARMING,
                    BackendState.IN_SERVICE,
                ),
                BackendState.WARMING,  # no un-draining shortcuts
            ),
        ],
    )
    def test_illegal_edges_raise(self, path, bad):
        lc = FleetLifecycle()
        for step in path:
            lc.transition(0, "x", step)
        with pytest.raises(FleetError):
            lc.transition(1, "x", bad)

    def test_capacity_excludes_draining(self):
        lc = FleetLifecycle()
        lc.transition(0, "a", BackendState.IN_SERVICE)
        lc.transition(0, "b", BackendState.PROVISIONING)
        lc.transition(0, "c", BackendState.IN_SERVICE)
        lc.transition(1, "c", BackendState.DRAINING)
        assert lc.capacity() == 2
        assert lc.in_state(BackendState.DRAINING) == ["c"]


class TestFleetConfig:
    def test_disabled_config_skips_validation(self):
        FleetConfig(max_backends=0).validate()  # no-op when disabled

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_backends": 0},
            {"min_in_service": 0},
            {"min_in_service": 9, "max_backends": 8},
            {"evaluate_interval": 0},
            {"provision_delay": -1},
            {"warmup_initial_weight": 0.0},
            {"warmup_initial_weight": 1.5},
            {"warmup_steps": 0},
            {"scale_out_cooldown": -1},
            {"target_tracking": TargetTrackingPolicy(target=0)},
            {"target_tracking": TargetTrackingPolicy(band=1.0)},
            {"steps": [StepPolicy()]},  # needs a bound
            {"steps": [StepPolicy(upper=1.0, lower=2.0)]},
            {"schedule": [ScheduledAction(at=-1, desired=2)]},
            {"schedule": [ScheduledAction(at=0, desired=0)]},
        ],
    )
    def test_bad_values_raise(self, overrides):
        with pytest.raises(ConfigError):
            FleetConfig(enabled=True, **overrides).validate()

    def test_scenario_config_guards(self):
        # The Maglev table must out-size the provisioned universe.
        config = ScenarioConfig(n_servers=2)
        config.fleet = FleetConfig(enabled=True, max_backends=8)
        config.maglev_size = 7
        with pytest.raises(ConfigError):
            config.validate()
        # max_backends must cover the initial pool.
        config = ScenarioConfig(n_servers=9)
        config.fleet = FleetConfig(enabled=True, max_backends=8)
        with pytest.raises(ConfigError):
            config.validate()

    def test_group_requires_enabled_config(self):
        sim = Simulator()
        pool = BackendPool([Backend("server0")])
        with pytest.raises(FleetError):
            AutoscalingGroup(
                sim, pool, ConnTrack(), FleetConfig(), ["server0"]
            )


class TestScaleOut:
    def test_scheduled_ramp_reaches_in_service(self):
        sim, pool, _ct, group = make_group(
            n_initial=2, n_total=6, schedule=[ScheduledAction(at=15 * MS, desired=5)]
        )
        group.start()
        sim.run_until(200 * MS)
        assert group.capacity() == 5
        assert group.lifecycle.count(BackendState.IN_SERVICE) == 5
        assert len(pool) == 5
        # Everyone graduated to full weight.
        assert all(w == 1.0 for w in pool.weights().values())
        [decision] = group.decisions
        assert (decision.policy, decision.direction) == ("scheduled", "out")
        assert (decision.before, decision.after) == (2, 5)

    def test_warmup_ramp_starts_below_full_weight(self):
        sim, pool, _ct, group = make_group(
            n_initial=1, n_total=4, schedule=[ScheduledAction(at=5 * MS, desired=4)]
        )
        group.start()
        # Past provisioning, into the first ramp steps.
        sim.run_until(31 * MS)
        warming = group.lifecycle.in_state(BackendState.WARMING)
        assert warming
        weights = pool.weights()
        assert all(0 < weights[name] < 1.0 for name in warming)

    def test_target_tracking_scales_out_on_hot_metric(self):
        sim, _pool, ct, group = make_group(
            n_initial=2,
            n_total=8,
            target_tracking=TargetTrackingPolicy(
                metric="flows_per_backend", target=1.0, band=0.2
            ),
        )
        # Pin 6 flows on the 2 serving backends: metric = 3.0 -> size 6.
        for i in range(6):
            ct.insert(
                FlowKey("c", 1000 + i, "vip", 1),
                "server%d" % (i % 2),
                now=0,
            )
        group.start()
        sim.run_until(100 * MS)
        assert group.capacity() == 6
        assert group.decisions[0].policy == "target-tracking"
        assert group.decisions[0].metric == 3.0

    def test_step_policy_and_custom_metric_source(self):
        sim, _pool, _ct, group = make_group(
            n_initial=2,
            n_total=6,
            steps=[StepPolicy(metric="queue_depth", upper=10.0, step=2)],
        )
        group.metric_sources["queue_depth"] = lambda: 12.0
        group.start()
        sim.run_until(11 * MS)
        assert group.capacity() == 4
        assert group.decisions[0].policy == "step"

    def test_unknown_metric_raises(self):
        _sim, _pool, _ct, group = make_group()
        with pytest.raises(FleetError):
            group._metric("no_such_metric")

    def test_scale_out_cooldown_spaces_decisions(self):
        sim, _pool, _ct, group = make_group(
            n_initial=1,
            n_total=8,
            scale_out_cooldown=100 * MS,
            steps=[StepPolicy(metric="hot", upper=1.0, step=1)],
        )
        group.metric_sources["hot"] = lambda: 5.0
        group.start()
        sim.run_until(95 * MS)
        # Ticks at 10..90 ms, but only t=10 and t=... wait out the 100ms
        # cooldown — a single decision fits in the window.
        assert len(group.decisions) == 1


class TestScaleIn:
    def test_drain_clean_when_no_flows(self):
        sim, pool, _ct, group = make_group(
            n_initial=4,
            n_total=4,
            schedule=[ScheduledAction(at=15 * MS, desired=2)],
        )
        group.start()
        sim.run_until(100 * MS)
        assert group.capacity() == 2
        assert len(pool) == 2
        assert group.lifecycle.count(BackendState.TERMINATED) == 2
        # Clean drain: no pinned flows, terminated on the first poll.
        events = [
            e
            for e in group.lifecycle.events
            if e.to_state is BackendState.TERMINATED
        ]
        assert all("clean" in e.reason for e in events)

    def test_drain_waits_for_pinned_flows_until_timeout(self):
        sim, pool, ct, group = make_group(
            n_initial=3,
            n_total=3,
            drain_timeout=60 * MS,
            schedule=[ScheduledAction(at=15 * MS, desired=2)],
        )
        # The newest launch is the victim; launch order is seed order.
        victim = "server2"
        flow = FlowKey("c", 1000, "vip", 1)
        ct.insert(flow, victim, now=0)
        group.start()
        sim.run_until(40 * MS)
        # Out of the pool (no new flows) but still draining its flow.
        assert victim not in pool
        assert group.lifecycle.state(victim) is BackendState.DRAINING
        sim.run_until(200 * MS)
        assert group.lifecycle.state(victim) is BackendState.TERMINATED
        [event] = [
            e
            for e in group.lifecycle.events
            if e.backend == victim and e.to_state is BackendState.TERMINATED
        ]
        assert "timeout" in event.reason

    def test_min_in_service_floor_holds(self):
        sim, pool, _ct, group = make_group(
            n_initial=3,
            n_total=3,
            min_in_service=2,
            schedule=[ScheduledAction(at=15 * MS, desired=1)],
        )
        group.start()
        sim.run_until(100 * MS)
        assert len(pool) == 2
        assert group.lifecycle.count(BackendState.IN_SERVICE) == 2

    def test_provisioning_victims_cancelled_without_drain(self):
        sim, pool, _ct, group = make_group(
            n_initial=1,
            n_total=5,
            provision_delay=100 * MS,  # long boot: still PROVISIONING
            schedule=[
                ScheduledAction(at=15 * MS, desired=5),
                ScheduledAction(at=35 * MS, desired=1),
            ],
        )
        group.start()
        sim.run_until(60 * MS)
        # All four launches cancelled before boot; none reached the pool.
        assert group.capacity() == 1
        assert len(pool) == 1
        counts = group.lifecycle.transition_counts()
        assert counts["provisioning->terminated"] == 4
        assert "provisioning->warming" not in counts
        # The voided boot timer must not resurrect them.
        sim.run_until(200 * MS)
        assert len(pool) == 1

    def test_terminated_names_are_reused(self):
        sim, pool, _ct, group = make_group(
            n_initial=2,
            n_total=3,
            schedule=[
                ScheduledAction(at=15 * MS, desired=3),
                ScheduledAction(at=105 * MS, desired=2),
                ScheduledAction(at=205 * MS, desired=3),
            ],
        )
        group.start()
        sim.run_until(300 * MS)
        assert group.capacity() == 3
        counts = group.lifecycle.transition_counts()
        assert counts["terminated->provisioning"] == 1
        assert counts["new->provisioning"] == 1


class TestDecisionTelemetry:
    def test_oscillation_counting(self):
        _sim, _pool, _ct, group = make_group(oscillation_window=100 * MS)

        def decision(t, direction):
            return ScalingDecision(
                time=t,
                policy="step",
                direction=direction,
                reason="",
                metric=None,
                before=2,
                after=3,
            )

        group.decisions = [
            decision(0, "out"),
            decision(50 * MS, "in"),     # flip inside window: oscillation
            decision(80 * MS, "out"),    # flip inside window: oscillation
            decision(300 * MS, "in"),    # flip, but outside the window
            decision(350 * MS, "in"),    # same direction: not a flip
        ]
        assert group.oscillations() == 2

    def test_time_to_stable(self):
        _sim, _pool, _ct, group = make_group()
        assert group.time_to_stable() is None
        group.decisions = [
            ScalingDecision(
                time=t,
                policy="step",
                direction="out",
                reason="",
                metric=None,
                before=1,
                after=2,
            )
            for t in (10 * MS, 70 * MS)
        ]
        assert group.time_to_stable() == 70 * MS
        assert group.time_to_stable(since=80 * MS) is None

    def test_capacity_series_tracks_decisions(self):
        sim, _pool, _ct, group = make_group(
            n_initial=2, n_total=6, schedule=[ScheduledAction(at=15 * MS, desired=6)]
        )
        group.start()
        sim.run_until(100 * MS)
        values = list(group.capacity_series.values)
        assert values[0] == 2.0  # initial pool
        assert values[-1] == 6.0
