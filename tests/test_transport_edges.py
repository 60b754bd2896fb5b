"""Transport corner cases beyond the happy path."""

import pytest

from repro.errors import TransportError
from repro.net.addr import Endpoint
from repro.net.network import Network
from repro.transport.connection import ConnectionState, TransportConfig
from repro.transport.endpoint import Host
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS

from tests.conftest import PairTopology, make_echo_server

ONE_WAY = 100 * MICROSECONDS


class TestSimultaneousAndRepeatedClose:
    def test_both_sides_close_at_once(self, sim, pair):
        server_conns = []

        def on_connection(conn):
            server_conns.append(conn)

        pair.server.listen(7000, on_connection)
        conn = pair.client.connect(pair.server_endpoint())
        sim.run_until(5 * MILLISECONDS)
        # Close both ends within the same instant.
        conn.close()
        server_conns[0].close()
        sim.run_until(100 * MILLISECONDS)
        assert conn.state is ConnectionState.CLOSED
        assert server_conns[0].state is ConnectionState.CLOSED
        assert pair.client.connection_count == 0
        assert pair.server.connection_count == 0

    def test_port_reusable_after_close(self, sim, pair):
        make_echo_server(pair)
        conn = pair.client.connect(pair.server_endpoint(), local_port=55_000)
        sim.run_until(5 * MILLISECONDS)
        conn.close()
        sim.run_until(50 * MILLISECONDS)
        # Same 4-tuple again: must work as a brand new connection.
        replies = []
        conn2 = pair.client.connect(pair.server_endpoint(), local_port=55_000)
        conn2.on_message = lambda c, m: replies.append(m)
        conn2.send_message("again", 64)
        sim.run_until(100 * MILLISECONDS)
        assert replies == [("echo", "again")]


class TestAbortPaths:
    def test_abort_before_establishment(self, sim, pair):
        make_echo_server(pair)
        conn = pair.client.connect(pair.server_endpoint())
        conn.abort()  # SYN still in flight
        sim.run_until(50 * MILLISECONDS)
        assert conn.state is ConnectionState.CLOSED
        assert pair.client.connection_count == 0

    def test_abort_with_unacked_data(self, sim, pair):
        make_echo_server(pair)
        conn = pair.client.connect(pair.server_endpoint())
        conn.send_message("doomed", 5000)
        sim.run_until(ONE_WAY)  # mid-flight
        conn.abort()
        sim.run_until(100 * MILLISECONDS)
        assert conn.state is ConnectionState.CLOSED
        # No retransmission storm after abort.
        sent_after = conn.stats.segments_sent
        sim.run_until(1 * SECONDS)
        assert conn.stats.segments_sent == sent_after

    def test_paced_segments_waiting_at_abort_are_never_sent(self, sim, pair):
        make_echo_server(pair)
        paced = TransportConfig(pacing_rate_bps=8_000_000)
        conn = pair.client.connect(pair.server_endpoint(), config=paced)
        conn.send_message("doomed", 20_000)
        sim.run_until(1 * MILLISECONDS)
        conn.abort()
        sent_at_abort = conn.stats.segments_sent
        pipe = pair.network.pipe("client", "server")
        packets_at_abort = pipe.stats.packets_sent
        sim.run_until(120 * SECONDS)
        assert conn.stats.segments_sent == sent_at_abort
        assert conn.stats.retransmissions == 0
        assert pipe.stats.packets_sent == packets_at_abort

    def test_server_abort_notifies_client(self, sim, pair):
        server_conns = []
        pair.server.listen(7000, lambda c: server_conns.append(c))
        closed = []
        conn = pair.client.connect(pair.server_endpoint())
        conn.on_closed = lambda c: closed.append(sim.now)
        sim.run_until(5 * MILLISECONDS)
        server_conns[0].abort()
        sim.run_until(50 * MILLISECONDS)
        assert closed
        assert conn.state is ConnectionState.CLOSED


class TestTinyWindows:
    def test_window_of_one_mss_still_delivers(self, sim, pair):
        received = make_echo_server(pair)
        config = TransportConfig(window=1024, mss=1024)
        conn = pair.client.connect(pair.server_endpoint(), config)
        conn.send_message("trickle", 10_240)  # 10 windows worth
        sim.run_until(1 * SECONDS)
        assert [m for _t, m in received] == ["trickle"]
        # Stop-and-wait: roughly one segment per RTT.
        assert conn.stats.segments_sent >= 10

    def test_message_larger_than_window(self, sim, pair):
        received = make_echo_server(pair)
        config = TransportConfig(window=2048, mss=1024)
        conn = pair.client.connect(pair.server_endpoint(), config)
        conn.send_message("big", 50_000)
        sim.run_until(2 * SECONDS)
        assert [m for _t, m in received] == ["big"]


class TestPacedTransport:
    def test_paced_connection_delivers_in_order(self, sim, pair):
        received = make_echo_server(pair)
        config = TransportConfig(pacing_rate_bps=50_000_000)  # 50 Mb/s
        conn = pair.client.connect(pair.server_endpoint(), config)
        for i in range(10):
            conn.send_message(i, 1448)
        sim.run_until(1 * SECONDS)
        assert [m for _t, m in received] == list(range(10))

    def test_pacing_spreads_transmissions(self, sim):
        """Paced segments leave spaced by size/rate, not back-to-back."""
        network = Network(sim)
        client = Host(network, "client")
        server = Host(network, "server")
        network.connect_bidirectional(
            "client", "server", prop_delay=ONE_WAY
        )  # infinite bandwidth: spacing must come from the pacer alone
        server.listen(7000, lambda conn: None)
        departures = []
        network.add_tap(
            lambda pipe, pkt: departures.append(sim.now)
            if pipe == "client->server" and pkt.payload_len > 0
            else None
        )
        config = TransportConfig(
            window=64 * 1024, mss=1000, pacing_rate_bps=8_000_000  # 1 B/µs
        )
        conn = client.connect(Endpoint("server", 7000), config)
        conn.send_message("bulk", 10_000)
        sim.run_until(1 * SECONDS)
        gaps = [b - a for a, b in zip(departures, departures[1:])]
        assert gaps
        # 1000 bytes at 1 B/us = 1 ms between segments.
        for gap in gaps:
            assert gap == pytest.approx(1 * MILLISECONDS, rel=0.01)


class TestStateValidation:
    def test_server_side_open_rejected(self, sim, pair):
        server_conns = []
        pair.server.listen(7000, lambda c: server_conns.append(c))
        pair.client.connect(pair.server_endpoint())
        sim.run_until(5 * MILLISECONDS)
        with pytest.raises(TransportError):
            server_conns[0].open()

    def test_repr_smoke(self, sim, pair):
        make_echo_server(pair)
        conn = pair.client.connect(pair.server_endpoint())
        assert "client" in repr(conn)
        assert "Host(" in repr(pair.client)
