"""Shared fixtures: simulators, mini-topologies, tiny scenarios."""

from __future__ import annotations

import pytest

from repro.net.addr import Endpoint
from repro.net.network import Network
from repro.net.packet import PacketSlab
from repro.sim.engine import Simulator
from repro.transport.connection import TransportConfig
from repro.transport.endpoint import Host
from repro.units import GIGABITS_PER_SECOND, MICROSECONDS


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def network(sim: Simulator) -> Network:
    return Network(sim)


@pytest.fixture
def slab() -> PacketSlab:
    return PacketSlab()


def make_packet(
    slab: PacketSlab,
    src: Endpoint = Endpoint("a", 1),
    dst: Endpoint = Endpoint("b", 2),
    flags: int = 0,
    seq: int = 0,
    ack: int = 0,
    payload_len: int = 0,
    boundaries=None,
    sent_at: int = 0,
) -> int:
    """Allocate one hand-built packet on ``slab``; returns its handle."""
    src_i = slab.intern_endpoint(src)
    dst_i = slab.intern_endpoint(dst)
    return slab.alloc(
        src_i,
        dst_i,
        slab.intern_flow(src_i, dst_i),
        int(flags),
        seq,
        ack,
        payload_len,
        boundaries,
        sent_at,
    )


class PairTopology:
    """client ⇄ server over symmetric 100 µs pipes at 10 Gb/s."""

    def __init__(self, sim: Simulator, one_way: int = 100 * MICROSECONDS):
        self.sim = sim
        self.network = Network(sim)
        self.client = Host(self.network, "client")
        self.server = Host(self.network, "server")
        self.network.connect_bidirectional(
            "client",
            "server",
            prop_delay=one_way,
            bandwidth_bps=10 * GIGABITS_PER_SECOND,
        )
        self.one_way = one_way

    def server_endpoint(self, port: int = 7000) -> Endpoint:
        return Endpoint("server", port)


@pytest.fixture
def pair(sim: Simulator) -> PairTopology:
    return PairTopology(sim)


def make_echo_server(pair: PairTopology, port: int = 7000, reply_size: int = 256):
    """Listen on the pair's server; echo every message back."""
    received = []

    def on_connection(conn):
        def on_message(c, message):
            received.append((pair.sim.now, message))
            c.send_message(("echo", message), reply_size)

        conn.on_message = on_message
        conn.on_peer_close = lambda c: c.close()

    pair.server.listen(port, on_connection)
    return received


@pytest.fixture
def transport_config() -> TransportConfig:
    return TransportConfig()
