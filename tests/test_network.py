"""Network fabric: nodes, routes, aliases, DSR shape."""

import pytest

from repro.errors import NetworkError
from repro.net.addr import Endpoint
from repro.net.trace import PacketTrace

from tests.conftest import make_packet as _make_packet


class RecorderNode:
    """Minimal node that logs deliveries."""

    def __init__(self, name):
        self.name = name
        self.received = []

    def on_packet(self, packet):
        self.received.append(packet)


def make_packet(network, src, dst):
    return _make_packet(network.slab, Endpoint(src, 1), Endpoint(dst, 2))


@pytest.fixture
def abc(network):
    nodes = {name: RecorderNode(name) for name in "abc"}
    for node in nodes.values():
        network.add_node(node)
    network.connect("a", "b", prop_delay=100)
    network.connect("b", "c", prop_delay=100)
    return nodes


class TestTopology:
    def test_duplicate_node_rejected(self, network):
        network.add_node(RecorderNode("a"))
        with pytest.raises(NetworkError):
            network.add_node(RecorderNode("a"))

    def test_unknown_node_lookup_rejected(self, network):
        with pytest.raises(NetworkError):
            network.get_node("ghost")

    def test_connect_requires_registered_nodes(self, network):
        network.add_node(RecorderNode("a"))
        with pytest.raises(NetworkError):
            network.connect("a", "ghost", prop_delay=0)
        with pytest.raises(NetworkError):
            network.connect("ghost", "a", prop_delay=0)

    def test_duplicate_pipe_rejected(self, network, abc):
        with pytest.raises(NetworkError):
            network.connect("a", "b", prop_delay=0)

    def test_pipe_lookup(self, network, abc):
        assert network.pipe("a", "b").name == "a->b"
        with pytest.raises(NetworkError):
            network.pipe("b", "a")

    def test_bidirectional_helper(self, network):
        network.add_node(RecorderNode("x"))
        network.add_node(RecorderNode("y"))
        fwd, back = network.connect_bidirectional("x", "y", prop_delay=10)
        assert fwd.name == "x->y"
        assert back.name == "y->x"


class TestRouting:
    def test_direct_delivery_via_pipe_name(self, sim, network, abc):
        network.send_from("a", make_packet(network, "a", "b"))
        sim.run()
        assert len(abc["b"].received) == 1

    def test_explicit_route_next_hop(self, sim, network, abc):
        network.add_route("a", "c", "b")
        network.add_route("b", "c", "c")
        pkt = make_packet(network, "a", "c")
        network.send_from("a", pkt)
        sim.run()
        # Delivered to b (next hop); b would forward in a real node.
        assert abc["b"].received == [pkt]

    def test_default_route(self, sim, network, abc):
        network.set_default_route("a", "b")
        network.send_from("a", make_packet(network, "a", "unknown-host-behind-b"))
        sim.run()
        assert len(abc["b"].received) == 1

    def test_no_route_raises(self, network, abc):
        with pytest.raises(NetworkError):
            network.send_from("a", make_packet(network, "a", "c"))  # no a->c pipe/route

    def test_route_to_unknown_node_rejected(self, network):
        with pytest.raises(NetworkError):
            network.add_route("ghost", "x", "y")

    def test_send_via_ignores_routes(self, sim, network, abc):
        pkt = make_packet(network, "a", "c")  # destination c, but hop forced to b
        network.send_via("a", "b", pkt)
        sim.run()
        assert abc["b"].received == [pkt]

    def test_send_via_missing_pipe_rejected(self, network, abc):
        with pytest.raises(NetworkError):
            network.send_via("a", "c", make_packet(network, "a", "c"))


class TestAliases:
    def test_alias_resolves_for_routing(self, sim, network, abc):
        network.add_alias("vip", "b")
        network.add_route("a", "b", "b")
        network.send_from("a", make_packet(network, "a", "vip"))
        sim.run()
        assert len(abc["b"].received) == 1

    def test_alias_to_unknown_node_rejected(self, network):
        with pytest.raises(NetworkError):
            network.add_alias("vip", "ghost")


class TestTaps:
    def test_tap_sees_transmissions(self, sim, network, abc):
        seen = []
        network.add_tap(lambda pipe, pkt: seen.append(pipe))
        network.send_from("a", make_packet(network, "a", "b"))
        sim.run()
        assert seen == ["a->b"]

    def test_trace_attachment(self, sim, network, abc):
        trace = PacketTrace()
        network.attach_trace(trace)
        network.send_from("a", make_packet(network, "a", "b"))
        sim.run()
        assert len(trace) == 1
        record = next(iter(trace))
        assert record.pipe == "a->b"
        assert record.time == 0  # recorded at transmission time
        # The tap sees a materialized snapshot, not the recycled handle.
        assert record.packet.dst == Endpoint("b", 2)
