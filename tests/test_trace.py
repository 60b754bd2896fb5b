"""Packet trace recorder."""

import pytest

from repro.net.trace import PacketTrace

from tests.conftest import make_packet as _make_packet


@pytest.fixture
def make_packet(slab):
    """Materialized snapshots of fresh handles, as network taps record."""
    return lambda: slab.materialize(_make_packet(slab))


class TestPacketTrace:
    def test_records_in_order(self, make_packet):
        trace = PacketTrace()
        trace.record(10, "p1", make_packet())
        trace.record(20, "p2", make_packet())
        times = [r.time for r in trace]
        assert times == [10, 20]

    def test_limit_truncates(self, make_packet):
        trace = PacketTrace(limit=2)
        for i in range(5):
            trace.record(i, "p", make_packet())
        assert len(trace) == 2
        assert trace.truncated

    def test_filter_and_on_pipe(self, make_packet):
        trace = PacketTrace()
        trace.record(1, "a->b", make_packet())
        trace.record(2, "b->c", make_packet())
        assert len(trace.on_pipe("a->b")) == 1
        assert len(trace.filter(lambda r: r.time > 1)) == 1

    def test_dump_truncation_note(self, make_packet):
        trace = PacketTrace()
        for i in range(5):
            trace.record(i, "p", make_packet())
        out = trace.dump(limit=2)
        assert "3 more" in out

    def test_record_format(self, make_packet):
        trace = PacketTrace()
        trace.record(123, "a->b", make_packet())
        line = next(iter(trace)).format()
        assert "a->b" in line and "123" in line


class TestDropAccounting:
    def test_dropped_counts_past_limit(self, make_packet):
        trace = PacketTrace(limit=2)
        for i in range(5):
            trace.record(i, "p", make_packet())
        assert trace.dropped == 3
        assert trace.limit == 2

    def test_unlimited_trace_never_drops(self, make_packet):
        trace = PacketTrace()
        for i in range(10):
            trace.record(i, "p", make_packet())
        assert trace.dropped == 0
        assert not trace.truncated
        assert trace.limit is None


class TestRunToRunIdentity:
    def test_two_fig3_runs_trace_identically(self):
        """Packet ids count per slab, so a second identical run in the
        same process renders byte-identical trace lines."""
        from repro.faults import parse_faults
        from repro.harness.config import PolicyName, ScenarioConfig
        from repro.harness.runner import run_scenario
        from repro.harness.scenario import build_scenario
        from repro.units import MILLISECONDS

        def trace_lines():
            duration = 200 * MILLISECONDS
            config = ScenarioConfig(
                seed=1,
                duration=duration,
                policy=PolicyName.FEEDBACK,
                faults=parse_faults("fig3", duration),
            )
            scenario = build_scenario(config)
            trace = PacketTrace(limit=2_000)
            scenario.network.attach_trace(trace)
            run_scenario(config, scenario=scenario)
            return [record.packet.describe() for record in trace]

        first = trace_lines()
        assert len(first) == 2_000
        assert trace_lines() == first
