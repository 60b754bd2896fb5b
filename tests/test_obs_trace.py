"""Causal tracer: span recording, shift attribution, rendering."""

from repro.controllers.base import ShiftEvent
from repro.core.feedback import SampleRecord
from repro.net.addr import Endpoint, FlowKey
from repro.obs.trace import (
    CausalTracer,
    render_request_tree,
    render_shift_attribution,
    render_shift_list,
)

FLOW_A = FlowKey("client0", 40000, "vip", 11211)
FLOW_B = FlowKey("client0", 40001, "vip", 11211)


def make_tracer():
    tracer = CausalTracer(
        samples=[
            SampleRecord(200, FLOW_A, "server0", 90, 64_000),
            SampleRecord(300, FLOW_B, "server1", 80, 64_000),
            SampleRecord(400, FLOW_A, "server0", 85, 64_000),
        ]
    )
    tracer.on_send(100, 1, "client0", 40000, False)
    tracer.on_route(110, FLOW_A, "server0")
    tracer.on_route(111, FLOW_B, "server1")
    tracer.on_response(500, 1, "server0", 10, 50, 400)
    return tracer


def make_shift(time=450, from_backend="server0", best="server1", **kwargs):
    return ShiftEvent(
        time=time,
        from_backend=from_backend,
        worst_estimate=900.0,
        best_estimate=100.0,
        weights_after={"server0": 0.9, "server1": 1.1},
        best_backend=best,
        **kwargs,
    )


class TestRecording:
    def test_spans_recorded(self):
        tracer = make_tracer()
        assert len(tracer.sends) == 1
        assert len(tracer.routes) == 2
        assert len(tracer.samples) == 3
        assert tracer.responses[1].server == "server0"

    def test_route_keeps_first_packet_only(self):
        tracer = CausalTracer()
        tracer.on_route(10, FLOW_A, "server0")
        tracer.on_route(20, FLOW_A, "server0")
        assert tracer.routes[FLOW_A].time == 10
        assert len(tracer) == 1

    def test_max_events_counts_drops(self):
        tracer = CausalTracer(max_events=2)
        for i in range(5):
            tracer.on_send(i, i, "client0", 40000, False)
        assert len(tracer.sends) == 2
        assert tracer.dropped == 3

    def test_samples_outside_the_span_budget(self):
        # The sample log is read in place: a tracer past its span budget
        # still attributes every sample.
        samples = [
            SampleRecord(i * 10, FLOW_A, "server0", 5, 64_000) for i in range(10)
        ]
        tracer = CausalTracer(max_events=1, samples=samples)
        tracer.on_send(0, 1, "client0", 40000, False)
        tracer.on_route(5, FLOW_A, "server0")
        assert tracer.dropped == 1
        shift = make_shift(time=1000, best=None)
        assert tracer.contributing_samples(shift, window=64) == samples

    def test_sends_for_collects_retries(self):
        tracer = CausalTracer()
        tracer.on_send(100, 7, "client0", 40000, False)
        tracer.on_send(900, 7, "client0", 40001, True)
        sends = tracer.sends_for(7)
        assert [s.retry for s in sends] == [False, True]

    def test_batch_start(self):
        tracer = make_tracer()
        sample = tracer.samples[0]
        assert sample.batch_start == sample.time - sample.t_lb

    def test_samples_for_flow(self):
        tracer = make_tracer()
        assert [s.time for s in tracer.samples_for_flow(FLOW_A)] == [200, 400]


class TestAttribution:
    def test_contributing_samples_limited_to_involved_backends(self):
        tracer = make_tracer()
        samples = tracer.contributing_samples(make_shift(best=None), window=64)
        assert {s.backend for s in samples} == {"server0"}

    def test_best_backend_included(self):
        tracer = make_tracer()
        samples = tracer.contributing_samples(make_shift(), window=64)
        assert {s.backend for s in samples} == {"server0", "server1"}

    def test_samples_after_shift_excluded(self):
        tracer = make_tracer()
        samples = tracer.contributing_samples(make_shift(time=250), window=64)
        assert [s.time for s in samples] == [200]

    def test_window_caps_per_backend(self):
        tracer = CausalTracer(
            samples=[
                SampleRecord(i * 10, FLOW_A, "server0", 5, 64_000)
                for i in range(10)
            ]
        )
        shift = make_shift(time=1000, best=None)
        samples = tracer.contributing_samples(shift, window=3)
        assert [s.time for s in samples] == [70, 80, 90]

    def test_wildcard_shift_involves_all_backends(self):
        tracer = make_tracer()
        shift = ShiftEvent(
            time=450,
            from_backend="*",
            worst_estimate=0.0,
            best_estimate=0.0,
            weights_after={},
            reason="mode-change",
        )
        samples = tracer.contributing_samples(shift, window=64)
        assert {s.backend for s in samples} == {"server0", "server1"}

    def test_first_shift_containing(self):
        tracer = make_tracer()
        shifts = [make_shift(time=150), make_shift(time=450)]
        sample = tracer.samples[0]  # t=200: after shift 0, inside shift 1
        assert tracer.first_shift_containing(sample, shifts, window=64) == 1


class TestRendering:
    def test_shift_list_counts(self):
        tracer = make_tracer()
        out = render_shift_list(tracer, [make_shift()], window=64)
        assert "shift #0" in out
        assert "[3 contributing samples]" in out

    def test_attribution_table(self):
        tracer = make_tracer()
        out = render_shift_attribution(tracer, [make_shift()], 0, window=64)
        assert "T_LB" in out
        assert "server0" in out and "server1" in out
        assert "last 64 per backend" in out

    def test_attribution_empty(self):
        tracer = CausalTracer()
        out = render_shift_attribution(tracer, [make_shift()], 0, window=64)
        assert "none recorded" in out

    def test_request_tree_full_chain(self):
        tracer = make_tracer()
        out = render_request_tree(
            tracer,
            1,
            [make_shift()],
            window=64,
            fault_windows=[("delay", ("server0",), 0, None)],
            vip=Endpoint("vip", 11211),
        )
        assert "request 1" in out
        assert "LB routed flow" in out
        assert "server0 served" in out
        assert "fault window crossed" in out
        assert "contributed to shift #0" in out

    def test_request_tree_unknown_request(self):
        out = render_request_tree(CausalTracer(), 99, [], window=64)
        assert "no trace spans" in out


class TestCrossPlaneAttribution:
    """Fleet scale spans and campaign violations in the shift window."""

    def scale(self, time, direction="in"):
        from repro.fleet.autoscaler import ScalingDecision

        return ScalingDecision(
            time=time,
            policy="target-tracking",
            direction=direction,
            reason="p99 over target",
            metric=3.2,
            before=4,
            after=3 if direction == "in" else 5,
        )

    def violation(self, time):
        from repro.campaign.audit import ViolationEvent

        return ViolationEvent(
            time=time,
            invariant="no-dark-routing",
            message="flow routed to draining server2",
        )

    def test_scales_in_window_rendered(self):
        tracer = make_tracer()
        # Attribution window is [min batch_start, shift.time] = [110, 450].
        out = render_shift_attribution(
            tracer, [make_shift()], 0, window=64,
            scales=[self.scale(250)],
        )
        assert "fleet scaling decisions in attribution window:" in out
        assert "target-tracking in: 4 -> 3" in out
        assert "p99 over target" in out

    def test_scales_outside_window_omitted(self):
        tracer = make_tracer()
        out = render_shift_attribution(
            tracer, [make_shift()], 0, window=64,
            scales=[self.scale(50), self.scale(9_000)],
        )
        assert "fleet scaling" not in out

    def test_violations_in_window_rendered(self):
        tracer = make_tracer()
        out = render_shift_attribution(
            tracer, [make_shift()], 0, window=64,
            events=[self.violation(300)],
        )
        assert "invariant violations in attribution window:" in out
        assert "[no-dark-routing]" in out
        assert "draining server2" in out

    def test_violations_outside_window_omitted(self):
        tracer = make_tracer()
        out = render_shift_attribution(
            tracer, [make_shift()], 0, window=64,
            events=[self.violation(50)],
        )
        assert "invariant violations" not in out

    def test_no_cross_plane_sections_by_default(self):
        tracer = make_tracer()
        out = render_shift_attribution(tracer, [make_shift()], 0, window=64)
        assert "fleet scaling" not in out
        assert "invariant violations" not in out

    def test_empty_attribution_windows_over_shift_instant(self):
        # With no samples the window collapses to the shift instant:
        # only a decision at exactly shift.time survives the filter.
        out = render_shift_attribution(
            CausalTracer(), [make_shift(time=450)], 0, window=64,
            scales=[self.scale(450), self.scale(449, direction="out")],
        )
        assert "fleet scaling decisions in attribution window:" in out
        assert "in: 4 -> 3" in out
        assert "out: 4 -> 5" not in out
