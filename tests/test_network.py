"""Network fabric: nodes, routes, aliases, DSR shape."""

import pytest

from repro.errors import NetworkError
from repro.harness.config import NetworkParams
from repro.harness.scenario import VIP_HOST, wire_dsr
from repro.lb.backend import Backend, BackendPool
from repro.lb.dataplane import LoadBalancer
from repro.lb.policies import MaglevPolicy
from repro.net.addr import Endpoint
from repro.net.trace import PacketTrace
from repro.transport.endpoint import Host
from repro.units import MILLISECONDS

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

    def test_trace_attached_after_connect_sees_the_whole_path(self, sim, network):
        """Connections and the LB bind their pipes when built or on first
        forward; a trace attached later still records every transmission
        of the connection, in order, LB→backend forwards included."""
        client_host = Host(network, "client0")
        server_host = Host(network, "server0")
        pool = BackendPool([Backend("server0")])
        vip = Endpoint(VIP_HOST, 80)
        LoadBalancer(network, "lb", vip, pool, MaglevPolicy(pool, table_size=251))
        wire_dsr(network, "lb", ["server0"], ["client0"], NetworkParams())
        early = []
        network.add_tap(lambda pipe, packet: early.append((pipe, packet.packet_id)))
        server_host.listen(80, lambda conn: None)

        conn = client_host.connect(vip)
        trace = PacketTrace()
        network.attach_trace(trace)
        conn.send_message("hello", 4000)
        sim.run_until(5 * MILLISECONDS)
        conn.close()
        sim.run_until(20 * MILLISECONDS)

        recorded = [(record.pipe, record.packet.packet_id) for record in trace]
        # Only the SYN left before the trace was attached.
        assert early[0][0] == "client0->lb"
        assert recorded == early[1:]
        assert {pipe for pipe, _id in recorded} == {
            "client0->lb",
            "lb->server0",
            "server0->client0",
        }
        times = [record.time for record in trace]
        assert times == sorted(times)


class TestRoutesFixedOnceBound:
    def test_route_is_memoised(self, network, abc):
        network.add_route("a", "c", "b")
        pipe = network.route("a", "c")
        assert pipe is network.pipe("a", "b")
        assert network.route("a", "c") is pipe

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda network: network.add_route("b", "a", "c"),
            lambda network: network.set_default_route("b", "c"),
            lambda network: network.add_alias("vip", "c"),
        ],
        ids=["add_route", "set_default_route", "add_alias"],
    )
    def test_route_mutation_after_resolution_rejected(self, network, abc, mutate):
        network.route("a", "b")
        with pytest.raises(NetworkError, match="fixed once bound"):
            mutate(network)
        assert network.route("b", "c") is network.pipe("b", "c")

    def test_mutation_before_resolution_allowed(self, network, abc):
        network.add_route("a", "c", "b")
        network.set_default_route("b", "c")
        network.add_alias("vip", "c")
        assert network.route("b", "vip") is network.pipe("b", "c")

    def test_failed_resolution_binds_nothing(self, network, abc):
        with pytest.raises(NetworkError):
            network.route("a", "c")
        network.add_route("a", "c", "b")
        assert network.route("a", "c") is network.pipe("a", "b")

    def test_connect_stays_legal_and_keeps_resolved_hops(self, network, abc):
        network.add_route("a", "c", "b")
        bound = network.route("a", "c")
        network.connect("a", "c", prop_delay=1)
        assert network.route("a", "c") is bound
        # A destination first resolved after the new pipe may use it.
        back = network.connect("c", "a", prop_delay=1)
        assert network.route("c", "a") is back

    def test_bound_connection_keeps_its_pipe(self, sim, network):
        client = Host(network, "client")
        server = Host(network, "server")
        network.connect_bidirectional("client", "server", prop_delay=1000)
        conn = client.connect(Endpoint("server", 7000))
        with pytest.raises(NetworkError):
            network.add_route("client", "server", "server")
        sim.run_until(1 * MILLISECONDS)
        assert network.pipe("client", "server").stats.packets_sent == 1
        assert conn.state.value == "syn_sent"
