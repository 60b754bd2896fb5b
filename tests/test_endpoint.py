"""Host demux, listeners, port allocation."""

import pytest

from repro.errors import TransportError
from repro.net.addr import Endpoint
from repro.net.network import Network
from repro.transport.connection import TransportConfig
from repro.transport.endpoint import Host
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS

from tests.conftest import make_echo_server, make_packet


class TestListeners:
    def test_duplicate_listen_rejected(self, pair):
        pair.server.listen(7000, lambda c: None)
        with pytest.raises(TransportError):
            pair.server.listen(7000, lambda c: None)

    def test_syn_to_non_listening_port_ignored(self, sim, pair):
        conn = pair.client.connect(Endpoint("server", 9999))
        sim.run_until(50 * MILLISECONDS)
        assert not conn.established
        assert pair.server.connection_count == 0

    def test_listener_fires_per_connection(self, sim, pair):
        conns = []
        pair.server.listen(7000, lambda c: conns.append(c))
        pair.client.connect(pair.server_endpoint())
        pair.client.connect(pair.server_endpoint())
        sim.run_until(10 * MILLISECONDS)
        assert len(conns) == 2


class TestPortAllocation:
    def test_ephemeral_ports_unique(self, sim, pair):
        make_echo_server(pair)
        ports = {
            pair.client.connect(pair.server_endpoint()).local.port
            for _ in range(20)
        }
        assert len(ports) == 20
        assert all(p >= 49_152 for p in ports)

    def test_explicit_local_port(self, sim, pair):
        make_echo_server(pair)
        conn = pair.client.connect(pair.server_endpoint(), local_port=55_555)
        assert conn.local.port == 55_555

    def test_duplicate_explicit_port_rejected(self, sim, pair):
        make_echo_server(pair)
        pair.client.connect(pair.server_endpoint(), local_port=55_555)
        with pytest.raises(TransportError):
            pair.client.connect(pair.server_endpoint(), local_port=55_555)


class TestDemux:
    def test_connections_isolated(self, sim, pair):
        received = make_echo_server(pair)
        a = pair.client.connect(pair.server_endpoint())
        b = pair.client.connect(pair.server_endpoint())
        replies_a, replies_b = [], []
        a.on_message = lambda c, m: replies_a.append(m)
        b.on_message = lambda c, m: replies_b.append(m)
        a.send_message("from-a", 64)
        b.send_message("from-b", 64)
        sim.run_until(10 * MILLISECONDS)
        assert replies_a == [("echo", "from-a")]
        assert replies_b == [("echo", "from-b")]

    def test_connection_count_tracks_lifecycle(self, sim, pair):
        make_echo_server(pair)
        conn = pair.client.connect(pair.server_endpoint())
        sim.run_until(5 * MILLISECONDS)
        assert pair.client.connection_count == 1
        conn.close()
        sim.run_until(20 * MILLISECONDS)
        assert pair.client.connection_count == 0

    def test_stray_packet_after_teardown_ignored(self, sim, pair):
        # Close, then deliver a crafted stale packet: no crash, no state.
        make_echo_server(pair)
        conn = pair.client.connect(pair.server_endpoint())
        sim.run_until(5 * MILLISECONDS)
        conn.close()
        sim.run_until(20 * MILLISECONDS)
        from repro.net.packet import TcpFlags

        slab = pair.network.slab
        live = slab.live
        stale = make_packet(
            slab, conn.remote, conn.local, flags=TcpFlags.ACK, seq=1, ack=1
        )
        pair.client.on_packet(stale)  # must not raise
        assert pair.client.connection_count == 0
        assert slab.live == live  # the host freed the handle it owned

    def test_stale_segment_and_unknown_rst_are_freed(self, sim, pair):
        """Delivered through the network after the run drained: a data
        segment for a torn-down connection and an RST for a flow nobody
        had. The host frees both; nothing stays live."""
        from repro.net.packet import TcpFlags

        make_echo_server(pair)
        conn = pair.client.connect(pair.server_endpoint())
        conn.send_message("ping", 100)
        sim.run_until(5 * MILLISECONDS)
        conn.close()
        sim.run_until(50 * MILLISECONDS)
        slab = pair.network.slab
        assert pair.client.connection_count == 0
        assert slab.live == 0

        stale = make_packet(
            slab, conn.remote, conn.local, flags=TcpFlags.ACK | TcpFlags.PSH,
            seq=5, ack=1, payload_len=10,
        )
        unknown_rst = make_packet(
            slab, Endpoint("server", 9999), Endpoint("client", 1234),
            flags=TcpFlags.RST,
        )
        pair.network.send_from("server", stale)
        pair.network.send_from("server", unknown_rst)
        sim.run_until(60 * MILLISECONDS)
        assert pair.network.pipe("server", "client").stats.packets_delivered >= 2
        assert pair.client.connection_count == 0
        assert slab.live == 0


class TestOneConfigPerHost:
    def test_connections_hold_the_hosts_config(self, sim, pair):
        accepted = []
        pair.server.listen(7000, accepted.append)
        conn = pair.client.connect(pair.server_endpoint())
        sim.run_until(10 * MILLISECONDS)
        assert conn.config is pair.client.default_config
        assert accepted[0].config is pair.server.default_config

    def test_a_given_config_is_held_as_given(self, sim, pair):
        accepted = []
        listen_config = TransportConfig(mss=1000)
        connect_config = TransportConfig(mss=1200)
        pair.server.listen(7000, accepted.append, config=listen_config)
        conn = pair.client.connect(pair.server_endpoint(), config=connect_config)
        sim.run_until(10 * MILLISECONDS)
        assert conn.config is connect_config
        assert accepted[0].config is listen_config


class TestVipAlias:
    def test_server_accepts_vip_addressed_connection(self, sim):
        """DSR shape: server owns the VIP; LB-less shortcut version."""
        network = Network(sim)
        client = Host(network, "client")
        server = Host(network, "server")
        network.add_alias("vip", "server")
        network.connect_bidirectional("client", "server", prop_delay=1000)
        # Client routes the VIP toward the server pipe.
        network.add_route("client", "vip", "server")

        received = []

        def on_connection(conn):
            conn.on_message = lambda c, m: received.append(m)

        server.listen(7000, on_connection)
        conn = client.connect(Endpoint("vip", 7000))
        conn.send_message("hello-vip", 64)
        sim.run_until(10 * MILLISECONDS)
        assert received == ["hello-vip"]
        # The server-side connection is keyed on the VIP endpoint.
        assert conn.established
