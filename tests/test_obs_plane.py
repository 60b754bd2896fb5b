"""The observability plane wired into real scenarios."""

import functools

import pytest

from repro.app.client import MemtierConfig
from repro.core.feedback import FeedbackConfig
from repro.errors import ConfigError
from repro.faults import DelayFault
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.runner import run_scenario
from repro.harness.scenario import build_scenario
from repro.obs import ObsConfig, parse_prometheus_text, site_name
from repro.obs.profiler import EngineProfiler
from repro.resilience import ResilienceConfig
from repro.units import MILLISECONDS


def run(obs=None, policy=PolicyName.FEEDBACK, **overrides):
    config = ScenarioConfig(
        seed=9,
        duration=120 * MILLISECONDS,
        policy=policy,
        obs=obs or ObsConfig(),
        faults=[DelayFault(start=60 * MILLISECONDS, node="server0", extra=MILLISECONDS)],
        **overrides,
    )
    return run_scenario(config)


def record_key(record):
    # request_id is a process-global counter, not simulation state.
    return (
        record.sent_at,
        record.completed_at,
        record.latency,
        record.server,
        record.op,
        record.local_port,
    )


class TestByteIdentity:
    def test_enabled_plane_changes_nothing(self):
        off = run()
        on = run(
            ObsConfig(enabled=True, profiling=True, capture_packets=True)
        )
        assert [record_key(r) for r in off.records] == [
            record_key(r) for r in on.records
        ]
        assert [e.time for e in off.scenario.feedback.shift_events()] == [
            e.time for e in on.scenario.feedback.shift_events()
        ]
        assert off.wall_events == on.wall_events

    def test_disabled_plane_is_structurally_absent(self):
        result = run()
        assert result.scenario.obs is None
        assert result.scenario.trace is None


class TestMetricsPillar:
    def test_per_backend_per_delta_sample_counters(self):
        result = run(ObsConfig(enabled=True))
        registry = result.scenario.obs.registry
        samples = registry.get("repro_tlb_samples_total")
        counted = {
            (labels["backend"], labels["delta_us"]): child.value
            for labels, child in samples.children()
        }
        assert counted  # at least one (backend, delta) pair observed
        assert sum(counted.values()) == result.scenario.feedback.sample_count

    def test_fold_counts_each_logged_event_once(self):
        """A mid-run read and repeated reads fold each log entry once."""
        config = ScenarioConfig(
            seed=3,
            duration=150 * MILLISECONDS,
            policy=PolicyName.FEEDBACK,
            memtier=MemtierConfig(requests_per_connection=2000),
            obs=ObsConfig(enabled=True, tracing=False, profiling=False),
        )
        scenario = build_scenario(config)
        registry = scenario.obs.registry
        scenario.sim.schedule_fire_at(100 * MILLISECONDS, registry.collect)
        run_scenario(config, scenario=scenario)
        feedback = scenario.feedback
        for _read in range(2):
            family = registry.get("repro_estimator_samples_total")
            counted = sum(child.value for _labels, child in family.children())
            assert counted == len(feedback.samples) > 0
            rolls = registry.get("repro_epoch_rolls_total").value
            assert rolls == len(feedback.epochs) > 0
            picks = registry.get("repro_cliff_picks_total")
            assert sum(c.value for _labels, c in picks.children()) == rolls

    def test_lb_packet_counters_match_dataplane(self):
        result = run(ObsConfig(enabled=True))
        registry = result.scenario.obs.registry
        packets = registry.get("repro_lb_packets_total")
        by_backend = {
            labels["backend"]: child.value
            for labels, child in packets.children()
        }
        assert by_backend == {
            name: float(count)
            for name, count in (
                result.scenario.lb.stats.per_backend_packets.items()
            )
        }

    @pytest.mark.parametrize(
        "strategy, reason",
        [
            pytest.param("alpha", "hysteresis-pass", id="alpha"),
            pytest.param("aimd", "recompute", id="aimd"),
        ],
    )
    def test_shift_counter_matches_controller(self, strategy, reason):
        result = run(
            ObsConfig(enabled=True), feedback=FeedbackConfig(strategy=strategy)
        )
        registry = result.scenario.obs.registry
        shifts = registry.get("repro_weight_shifts_total")
        counted = {
            (labels["controller"], labels["reason"]): child.value
            for labels, child in shifts.children()
        }
        executed = len(result.scenario.feedback.shift_events())
        assert executed > 0
        assert counted == {(strategy, reason): executed}

    def test_prometheus_export_parses_and_has_engine_stats(self):
        result = run(ObsConfig(enabled=True))
        text = result.scenario.obs.registry.to_prometheus()
        families = parse_prometheus_text(text)
        assert families["repro_sim_events_processed"]["samples"][0][2] == (
            result.wall_events
        )
        assert "repro_backend_weight" in families
        assert "repro_pipe_dropped_packets" in families

    def test_live_and_pending_event_gauges(self):
        result = run(ObsConfig(enabled=True))
        text = result.scenario.obs.registry.to_prometheus()
        families = parse_prometheus_text(text)
        sim = result.scenario.sim
        live = families["repro_sim_live_events"]["samples"][0][2]
        pending = families["repro_sim_pending_events"]["samples"][0][2]
        # Every packet in flight is one live event, so the live gauge
        # counts them; the pending gauge adds cancelled tombstones.
        in_flight = sum(
            pipe.in_flight for pipe in result.scenario.network.pipes().values()
        )
        assert live == sim.live_events >= in_flight
        assert pending == sim.pending_events >= live

    def test_report_footer_shows_live_and_pending(self):
        result = run(ObsConfig(enabled=True))
        sim = result.scenario.sim
        assert "%d live / %d pending at end" % (
            sim.live_events,
            sim.pending_events,
        ) in result.report()

    def test_resilience_instruments_present(self):
        result = run(
            ObsConfig(enabled=True),
            resilience=ResilienceConfig(enabled=True),
        )
        registry = result.scenario.obs.registry
        assert registry.get("repro_mode_transitions_total") is not None
        # The mode gauge reads the ladder's current mode at collect time.
        mode = registry.get("repro_controller_mode")
        assert mode.value in (0.0, 1.0, 2.0)

    def test_metrics_only_config_skips_tracer(self):
        result = run(ObsConfig(enabled=True, tracing=False))
        assert result.scenario.obs.registry is not None
        assert result.scenario.obs.tracer is None


class TestTracingPillar:
    def test_spans_recorded_on_real_run(self):
        result = run(ObsConfig(enabled=True))
        tracer = result.scenario.obs.tracer
        assert tracer.sends and tracer.routes and tracer.samples
        assert tracer.responses

    def test_sample_spans_match_feedback_samples(self):
        result = run(ObsConfig(enabled=True))
        tracer = result.scenario.obs.tracer
        feedback = result.scenario.feedback
        assert len(tracer.samples) == len(feedback.samples)
        assert [s.time for s in tracer.samples] == [
            s.time for s in feedback.samples
        ]

    def test_over_budget_tracer_still_attributes_every_sample(self):
        full = run(ObsConfig(enabled=True))
        tight = run(ObsConfig(enabled=True, max_trace_events=1))
        tracer = tight.scenario.obs.tracer
        assert len(tracer) == 1 and tracer.dropped > 0
        assert tracer.samples is tight.scenario.feedback.samples
        window = tight.scenario.feedback.estimator.config.window

        def attributed(result):
            contributing = result.scenario.obs.tracer.contributing_samples
            return [
                [(s.time, s.backend) for s in contributing(shift, window)]
                for shift in result.scenario.feedback.shift_events()
            ]

        assert attributed(tight) and attributed(tight) == attributed(full)

    def test_shift_attribution_on_real_run(self):
        result = run(ObsConfig(enabled=True))
        tracer = result.scenario.obs.tracer
        shifts = result.scenario.feedback.shift_events()
        assert shifts
        window = result.scenario.feedback.estimator.config.window
        contributing = tracer.contributing_samples(shifts[0], window)
        assert contributing
        assert all(s.time <= shifts[0].time for s in contributing)
        involved = {shifts[0].from_backend, shifts[0].best_backend}
        assert {s.backend for s in contributing} <= involved


class TestProfilingPillar:
    def test_profiler_aggregates_sites(self):
        result = run(ObsConfig(enabled=True, profiling=True))
        profiler = result.scenario.obs.profiler
        assert profiler.events == result.wall_events
        assert profiler.top_sites()
        assert profiler.events_per_second() > 0

    def test_report_includes_profile_section(self):
        result = run(ObsConfig(enabled=True, profiling=True))
        report = result.report()
        assert "profile:" in report
        assert "ns/call" in report

    def test_site_name_unwraps_partials_and_methods(self):
        class Thing:
            def method(self):
                pass

        thing = Thing()
        bound = site_name(thing.method)
        wrapped = site_name(functools.partial(functools.partial(thing.method)))
        assert bound == wrapped
        assert bound.endswith("Thing.method")

    def test_profiler_run_charges_errors_too(self):
        profiler = EngineProfiler()

        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            profiler.run(boom)
        assert profiler.events == 1


class TestPacketCapture:
    def test_trace_attached_and_truncation_surfaced(self):
        result = run(
            ObsConfig(enabled=True, capture_packets=True, packet_trace_limit=10)
        )
        trace = result.scenario.trace
        assert trace is not None
        assert len(trace) == 10
        assert trace.dropped > 0
        report = result.report()
        assert "dropped past limit=10" in report

    def test_unlimited_trace_reports_no_drops(self):
        result = run(
            ObsConfig(
                enabled=True, capture_packets=True, packet_trace_limit=None
            )
        )
        assert result.scenario.trace.dropped == 0
        assert "packet trace:" in result.report()


class TestEngineFooter:
    def test_footer_always_present(self):
        result = run()  # obs fully disabled
        report = result.report()
        assert "engine: %d events processed" % result.wall_events in report
        assert "peak queue depth" in report

    def test_peak_queue_depth_positive(self):
        result = run()
        assert result.scenario.sim.peak_queue_depth > 0
        assert result.wall_seconds > 0


class TestObsConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ObsConfig(packet_trace_limit=0).validate()
        with pytest.raises(ConfigError):
            ObsConfig(max_trace_events=0).validate()
        ObsConfig(packet_trace_limit=None).validate()

    def test_scenario_config_validates_obs(self):
        config = ScenarioConfig(obs=ObsConfig(max_trace_events=-1))
        with pytest.raises(ConfigError):
            config.validate()
