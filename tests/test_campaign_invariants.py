"""Invariant registry + the 8 builtin checks, pass and fail paths.

One real (small) scenario run provides a context where every invariant
holds; each failure-path test then injects a synthetic bad event into
that run's telemetry, asserts the check fires with an actionable
message, and restores the state.  The recovery-bound liveness check is
driven with synthetic request records so both the "never recovered"
and "recovered late" verdicts are pinned without relying on a live
controller's timing.
"""

import pytest

from repro.app.client import RequestRecord
from repro.app.protocol import Op
from repro.campaign import (
    CampaignContext,
    available,
    evaluate,
    get_spec,
    register,
)
from repro.campaign.audit import CampaignAudit
from repro.campaign.registry import _REGISTRY
from repro.controllers.base import ShiftEvent
from repro.errors import ConfigError
from repro.faults import DelayFault, ServerSlowdownFault
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.runner import ScenarioResult, run_scenario
from repro.harness.scenario import build_scenario
from repro.resilience.breaker import BreakerState, BreakerTransition
from repro.resilience.config import ResilienceConfig
from repro.resilience.ladder import ControllerMode, ModeTransition
from repro.units import MILLISECONDS, SECONDS

MS = MILLISECONDS

BUILTINS = (
    "affinity-preserved",
    "breaker-legal",
    "conntrack-consistent",
    "hold-freeze",
    "ladder-legal",
    "no-dark-routing",
    "recovery-bound",
    "weight-conservation",
)


@pytest.fixture(scope="module")
def context():
    """One real run (alpha, resilience on, one delay fault) + audits."""
    config = ScenarioConfig(
        seed=11,
        duration=1 * SECONDS,
        n_servers=2,
        policy=PolicyName.FEEDBACK,
        faults=[
            DelayFault(
                start=300 * MS, duration=200 * MS, extra=800_000, node="server0"
            )
        ],
        resilience=ResilienceConfig(enabled=True, health_checks=True),
        warmup=100 * MS,
    )
    scenario = build_scenario(config)
    audit = CampaignAudit(scenario)
    result = run_scenario(config, scenario=scenario)
    return CampaignContext(
        result=result, audit=audit, recovery_bound=400 * MS
    )


class TestRegistry:
    def test_builtin_roster(self):
        assert tuple(available()) == BUILTINS

    def test_specs_carry_kind_and_summary(self):
        assert get_spec("recovery-bound").kind == "liveness"
        assert get_spec("weight-conservation").kind == "safety"
        assert all(get_spec(n).summary for n in available())

    def test_unknown_name_lists_roster(self):
        with pytest.raises(ConfigError, match="no-dark-routing"):
            get_spec("no-such-invariant")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="twice"):
            register("no-dark-routing")(lambda ctx: [])

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            register("bogus-kind-invariant", kind="vibes")

    def test_temporary_registration(self):
        @register("test-temp", summary="temp")
        def _check(ctx):
            return []

        try:
            assert "test-temp" in available()
        finally:
            _REGISTRY.pop("test-temp")


class TestKnownGoodRun:
    def test_every_builtin_passes(self, context):
        verdicts = evaluate(context)
        assert [v.name for v in verdicts] == list(BUILTINS)
        failed = {v.name: v.violations for v in verdicts if not v.passed}
        assert failed == {}

    def test_verdicts_land_in_scenario_extras(self, context):
        verdicts = evaluate(context)
        assert context.scenario.extras["invariants"] == verdicts

    def test_report_renders_invariant_summary(self, context):
        evaluate(context)
        report = context.result.report()
        assert "invariants: 8 checked, 0 violated" in report
        assert "weight-conservation" in report

    def test_name_selection(self, context):
        verdicts = evaluate(context, names=("affinity-preserved",))
        assert [v.name for v in verdicts] == ["affinity-preserved"]


class TestWeightConservation:
    def test_negative_weight_fires(self, context):
        updates = context.scenario.feedback.controller.updates
        updates.append(
            ShiftEvent(
                time=1,
                from_backend="server0",
                worst_estimate=0.0,
                best_estimate=0.0,
                weights_after={"server0": -0.5, "server1": 2.5},
            )
        )
        try:
            messages = get_spec("weight-conservation").check(context)
        finally:
            updates.pop()
        assert any("negative" in m for m in messages)

    def test_minted_weight_fires(self, context):
        updates = context.scenario.feedback.controller.updates
        updates.append(
            ShiftEvent(
                time=1,
                from_backend="server0",
                worst_estimate=0.0,
                best_estimate=0.0,
                weights_after={"server0": 2.0, "server1": 2.0},
            )
        )
        try:
            messages = get_spec("weight-conservation").check(context)
        finally:
            updates.pop()
        assert any("total weight" in m for m in messages)

    def test_floor_starvation_fires(self, context):
        updates = context.scenario.feedback.controller.updates
        updates.append(
            ShiftEvent(
                time=1,
                from_backend="server0",
                worst_estimate=0.0,
                best_estimate=0.0,
                weights_after={"server0": 0.001, "server1": 1.999},
            )
        )
        try:
            messages = get_spec("weight-conservation").check(context)
        finally:
            updates.pop()
        assert any("below floor" in m for m in messages)


class TestRoutingAndAffinity:
    def test_dark_routing_message_passes_through(self, context):
        context.audit.routing.violations.append(
            "t=1.000ms new flow f routed to server9 (unhealthy)"
        )
        try:
            messages = get_spec("no-dark-routing").check(context)
        finally:
            context.audit.routing.violations.pop()
        assert messages == ["t=1.000ms new flow f routed to server9 (unhealthy)"]

    def test_affinity_violation_fires(self, context):
        context.audit.affinity.violations.append(("flow", "server0", "server1"))
        try:
            messages = get_spec("affinity-preserved").check(context)
        finally:
            context.audit.affinity.violations.pop()
        assert messages == ["flow flow moved server0 -> server1"]


class TestConntrackConsistent:
    def test_count_drift_fires(self, context):
        counts = context.scenario.lb.conntrack._flow_counts
        counts["server0"] = counts.get("server0", 0) + 1
        try:
            messages = get_spec("conntrack-consistent").check(context)
        finally:
            counts["server0"] -= 1
            if counts["server0"] == 0:
                del counts["server0"]
        assert any("server0" in m and "cached count" in m for m in messages)


class TestLadderLegal:
    def test_self_loop_fires(self, context):
        transitions = context.scenario.feedback.ladder.transitions
        saved = list(transitions)
        transitions.append(
            ModeTransition(
                time=saved[-1].time + 1 if saved else 1,
                from_mode=ControllerMode.HOLD,
                to_mode=ControllerMode.HOLD,
                reason="test",
            )
        )
        try:
            messages = get_spec("ladder-legal").check(context)
        finally:
            transitions[:] = saved
        assert any("self-loop" in m for m in messages)

    def test_too_early_upgrade_fires(self, context):
        transitions = context.scenario.feedback.ladder.transitions
        saved = list(transitions)
        reentry_hold = context.config.resilience.ladder.reentry_hold
        transitions[:] = [
            ModeTransition(
                time=reentry_hold // 10,
                from_mode=ControllerMode.HOLD,
                to_mode=ControllerMode.FEEDBACK,
                reason="test",
            )
        ]
        try:
            messages = get_spec("ladder-legal").check(context)
        finally:
            transitions[:] = saved
        assert any("upgrade" in m and "reentry_hold" in m for m in messages)

    def test_broken_chain_fires(self, context):
        transitions = context.scenario.feedback.ladder.transitions
        saved = list(transitions)
        transitions[:] = [
            ModeTransition(
                time=1 * SECONDS,
                from_mode=ControllerMode.FALLBACK,
                to_mode=ControllerMode.HOLD,
                reason="test",
            )
        ]
        try:
            messages = get_spec("ladder-legal").check(context)
        finally:
            transitions[:] = saved
        assert any("ladder was in HOLD" in m for m in messages)


class TestBreakerLegal:
    def test_illegal_edge_fires(self, context):
        transitions = context.scenario.breakers.transitions
        saved = list(transitions)
        transitions.append(
            BreakerTransition(
                time=1,
                backend="server0",
                from_state=BreakerState.CLOSED,
                to_state=BreakerState.HALF_OPEN,
                reason="test",
            )
        )
        try:
            messages = get_spec("breaker-legal").check(context)
        finally:
            transitions[:] = saved
        assert any("illegal edge" in m for m in messages)

    def test_broken_chain_fires_without_fleet(self, context):
        transitions = context.scenario.breakers.transitions
        saved = list(transitions)
        transitions[:] = [
            BreakerTransition(
                time=1,
                backend="server0",
                from_state=BreakerState.CLOSED,
                to_state=BreakerState.OPEN,
                reason="test",
            ),
            BreakerTransition(
                time=2,
                backend="server0",
                from_state=BreakerState.CLOSED,
                to_state=BreakerState.OPEN,
                reason="test",
            ),
        ]
        try:
            messages = get_spec("breaker-legal").check(context)
        finally:
            transitions[:] = saved
        assert any("breaker was OPEN" in m for m in messages)


class TestHoldFreeze:
    def test_update_during_initial_hold_fires(self, context):
        updates = context.scenario.feedback.controller.updates
        transitions = context.scenario.feedback.ladder.transitions
        first = transitions[0].time if transitions else 10 * MS
        updates.append(
            ShiftEvent(
                time=max(1, first - 1),
                from_backend="server0",
                worst_estimate=0.0,
                best_estimate=0.0,
                weights_after={"server0": 1.0, "server1": 1.0},
            )
        )
        try:
            messages = get_spec("hold-freeze").check(context)
        finally:
            updates.pop()
        assert any("while ladder in HOLD" in m for m in messages)

    def test_update_at_transition_boundary_is_legal(self, context):
        transitions = context.scenario.feedback.ladder.transitions
        if not transitions:
            pytest.skip("run produced no ladder transitions")
        updates = context.scenario.feedback.controller.updates
        updates.append(
            ShiftEvent(
                time=transitions[0].time,
                from_backend="server0",
                worst_estimate=0.0,
                best_estimate=0.0,
                weights_after={"server0": 1.0, "server1": 1.0},
            )
        )
        try:
            messages = get_spec("hold-freeze").check(context)
        finally:
            updates.pop()
        assert messages == []

    def test_mode_change_relax_is_legal(self, context):
        updates = context.scenario.feedback.controller.updates
        updates.append(
            ShiftEvent(
                time=1,
                from_backend="server0",
                worst_estimate=0.0,
                best_estimate=0.0,
                weights_after={"server0": 1.0, "server1": 1.0},
                reason="mode-change",
            )
        )
        try:
            messages = get_spec("hold-freeze").check(context)
        finally:
            updates.pop()
        assert messages == []


class TestRecoveryBound:
    def _context(self, latency_after_ns, recovery_bound=500 * MS):
        """Synthetic records: 1ms baseline, then ``latency_after_ns(t)``
        from the 600ms fault onset on; fault window 600–900ms."""
        config = ScenarioConfig(
            seed=1,
            duration=2 * SECONDS,
            n_servers=2,
            faults=[
                ServerSlowdownFault(
                    start=600 * MS, duration=300 * MS, factor=8.0, node="server0"
                )
            ],
        )
        scenario = build_scenario(config)
        records = []
        for i in range(200):
            t = i * 10 * MS
            latency = (
                1 * MS if t < 600 * MS else latency_after_ns(t)
            )
            records.append(
                RequestRecord(
                    request_id=i,
                    op=Op.GET,
                    sent_at=t - latency,
                    completed_at=t,
                    latency=latency,
                    server="server0",
                    local_port=1,
                )
            )
        result = ScenarioResult(
            config=config, scenario=scenario, records=records, wall_events=0
        )
        return CampaignContext(
            result=result, audit=None, recovery_bound=recovery_bound
        )

    def test_never_recovering_fires(self):
        ctx = self._context(lambda t: 10 * MS)
        messages = get_spec("recovery-bound").check(ctx)
        assert any("never re-entered" in m for m in messages)

    def test_late_recovery_fires(self):
        # Back to baseline only at 1.7s: 800ms after the 900ms fault
        # end, past the 500ms bound.
        ctx = self._context(lambda t: 10 * MS if t < 1700 * MS else 1 * MS)
        messages = get_spec("recovery-bound").check(ctx)
        assert any("after the last fault" in m for m in messages)

    def test_prompt_recovery_passes(self):
        ctx = self._context(lambda t: 10 * MS if t < 1000 * MS else 1 * MS)
        assert get_spec("recovery-bound").check(ctx) == []

    def test_insufficient_runway_skips(self):
        ctx = self._context(lambda t: 10 * MS, recovery_bound=1200 * MS)
        assert get_spec("recovery-bound").check(ctx) == []


class TestObsCounters:
    def test_invariant_counters_appear_when_obs_enabled(self):
        from repro.obs import ObsConfig

        config = ScenarioConfig(
            seed=3,
            duration=400 * MS,
            n_servers=2,
            policy=PolicyName.FEEDBACK,
            obs=ObsConfig(enabled=True, tracing=False, profiling=False),
        )
        scenario = build_scenario(config)
        audit = CampaignAudit(scenario)
        result = run_scenario(config, scenario=scenario)
        evaluate(
            CampaignContext(result=result, audit=audit, recovery_bound=1)
        )
        registry = scenario.obs.registry
        checks = registry.get("repro_invariant_checks_total")
        assert checks is not None
        exported = registry.to_prometheus()
        assert 'repro_invariant_checks_total{invariant="hold-freeze"} 1' in exported
        # The family is registered even on a clean run; no violation
        # samples because nothing fired.
        assert "# TYPE repro_invariant_violations_total counter" in exported
        assert "repro_invariant_violations_total{" not in exported


class TestViolationEvents:
    """The structured twins of the rendered violation strings."""

    def test_clean_run_has_no_events(self, context):
        assert context.audit.routing.events == []

    def test_violation_emits_structured_twin(self, context):
        from repro.net.addr import FlowKey

        routing = context.audit.routing
        flow = FlowKey("client9", 40999, "vip", 11211)
        before = len(routing.violations)
        try:
            routing._tap(123 * MS, flow, "ghost-backend", packet=None)
            assert len(routing.violations) == before + 1
            assert len(routing.events) == before + 1
            event = routing.events[-1]
            assert event.time == 123 * MS
            assert event.invariant == "no-dark-routing"
            # The structured record carries the same rendered message,
            # so trace attribution and reports agree verbatim.
            assert event.message == routing.violations[-1]
            assert "ghost-backend" in event.message
        finally:
            routing.violations.pop()
            routing.events.pop()
            routing._seen.discard(flow)
            routing.checked -= 1
