"""Client applications: memtier-like generator and the backlogged flow."""

import pytest

from repro.app.client import BacklogClient, MemtierClient, MemtierConfig
from repro.app.protocol import Op
from repro.app.server import ServerApp, ServerConfig, SinkApp
from repro.app.workload import OpMixer, WorkloadModel
from repro.net.addr import Endpoint
from repro.sim.random import RandomStreams
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS


def attach_server(pair):
    streams = RandomStreams(0)
    return ServerApp(pair.server, ServerConfig(port=7000), streams.get("svc"))


def make_client(pair, **overrides):
    defaults = dict(connections=2, pipeline=2, requests_per_connection=10)
    defaults.update(overrides)
    config = MemtierConfig(**defaults)
    streams = RandomStreams(1)
    return MemtierClient(
        pair.client, Endpoint("server", 7000), config, streams.get("wl")
    )


class TestMemtierClient:
    def test_generates_and_records_requests(self, sim, pair):
        attach_server(pair)
        client = make_client(pair)
        client.start()
        sim.run_until(100 * MILLISECONDS)
        client.stop()
        assert client.completed_requests > 10
        record = client.records[0]
        assert record.latency == record.completed_at - record.sent_at
        assert record.server == "server"

    def test_pipeline_limits_outstanding(self, sim, pair):
        attach_server(pair)
        client = make_client(pair, connections=1, pipeline=3,
                             requests_per_connection=100)
        client.start()
        # At any instant, outstanding <= pipeline; sample a few times.
        for t in range(1, 6):
            sim.run_until(t * MILLISECONDS)
            loops = list(client._conn_state.values())
            assert all(len(l.outstanding) <= 3 for l in loops)

    def test_connection_churn_reopens(self, sim, pair):
        attach_server(pair)
        client = make_client(
            pair,
            connections=1,
            pipeline=1,
            requests_per_connection=5,
            reconnect_delay=100 * MICROSECONDS,
        )
        client.start()
        sim.run_until(200 * MILLISECONDS)
        client.stop()
        # Far more than 5 requests completed => connection was recycled.
        assert client.completed_requests > 20

    def test_stop_halts_new_requests(self, sim, pair):
        attach_server(pair)
        client = make_client(pair)
        client.start()
        sim.run_until(20 * MILLISECONDS)
        client.stop()
        count = client.completed_requests
        sim.run_until(100 * MILLISECONDS)
        # A few in-flight stragglers may finish, then it stays flat.
        assert client.completed_requests <= count + 4

    def test_latencies_filter_by_op(self, sim, pair):
        attach_server(pair)
        client = make_client(
            pair,
            workload=WorkloadModel(ops=OpMixer(get_ratio=1.0)),
        )
        client.start()
        sim.run_until(50 * MILLISECONDS)
        assert client.latencies(Op.SET) == []
        assert len(client.latencies(Op.GET)) == client.completed_requests
        assert len(client.latencies()) == client.completed_requests

    def test_on_record_callback(self, sim, pair):
        attach_server(pair)
        client = make_client(pair)
        seen = []
        client.on_record = seen.append
        client.start()
        sim.run_until(20 * MILLISECONDS)
        assert len(seen) == client.completed_requests

    def test_think_time_slows_request_rate(self, sim, pair):
        attach_server(pair)
        fast = make_client(pair, connections=1, pipeline=1,
                           requests_per_connection=10_000)
        fast.start()
        sim.run_until(50 * MILLISECONDS)
        fast.stop()

        pair2_sim_requests = fast.completed_requests
        # Re-run with think time on a fresh topology.
        from tests.conftest import PairTopology
        from repro.sim.engine import Simulator

        sim2 = Simulator()
        pair2 = PairTopology(sim2)
        attach_server(pair2)
        slow_config = MemtierConfig(
            connections=1,
            pipeline=1,
            requests_per_connection=10_000,
            think_time=2 * MILLISECONDS,
        )
        slow = MemtierClient(
            pair2.client, Endpoint("server", 7000), slow_config,
            RandomStreams(1).get("wl"),
        )
        slow.start()
        sim2.run_until(50 * MILLISECONDS)
        slow.stop()
        assert slow.completed_requests < pair2_sim_requests / 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MemtierConfig(connections=0).validate()
        with pytest.raises(ValueError):
            MemtierConfig(pipeline=0).validate()
        with pytest.raises(ValueError):
            MemtierConfig(requests_per_connection=0).validate()
        with pytest.raises(ValueError):
            MemtierConfig(reconnect_delay=-1).validate()
        with pytest.raises(ValueError):
            MemtierConfig(think_time=-1).validate()


class TestBacklogClient:
    def test_stays_window_limited(self, sim, pair):
        SinkApp(pair.server, 7000)
        client = BacklogClient(pair.client, Endpoint("server", 7000))
        sim.run_until(100 * MILLISECONDS)
        # The send buffer stays topped up to ~2 windows.
        assert client.conn.unsent_bytes >= client.conn.config.window

    def test_collects_rtt_ground_truth(self, sim, pair):
        SinkApp(pair.server, 7000)
        client = BacklogClient(pair.client, Endpoint("server", 7000))
        sim.run_until(100 * MILLISECONDS)
        assert len(client.rtt_samples) > 50
        rtt = 2 * pair.one_way
        median = sorted(client.rtt_samples.values)[len(client.rtt_samples) // 2]
        assert median == pytest.approx(rtt, rel=0.3)

    def test_on_rtt_callback(self, sim, pair):
        SinkApp(pair.server, 7000)
        client = BacklogClient(pair.client, Endpoint("server", 7000))
        seen = []
        client.on_rtt = lambda now, rtt: seen.append((now, rtt))
        sim.run_until(50 * MILLISECONDS)
        samples = list(client.rtt_samples.items())
        assert seen == samples[len(samples) - len(seen):]

    def test_stop_closes_flow(self, sim, pair):
        SinkApp(pair.server, 7000)
        client = BacklogClient(pair.client, Endpoint("server", 7000))
        sim.run_until(10 * MILLISECONDS)
        client.stop()
        sim.run_until(400 * MILLISECONDS)
        assert pair.client.connection_count == 0

    def test_chunk_size_validation(self, sim, pair):
        SinkApp(pair.server, 7000)
        with pytest.raises(ValueError):
            BacklogClient(pair.client, Endpoint("server", 7000), chunk_bytes=0)
