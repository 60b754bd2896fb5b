"""LB dataplane: VIP processing, affinity, DSR forwarding, taps."""

import pytest

from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.runner import run_scenario
from repro.harness.scenario import build_scenario
from repro.lb.backend import Backend, BackendPool
from repro.lb.dataplane import LoadBalancer
from repro.lb.policies import MaglevPolicy, RoundRobin
from repro.net.addr import Endpoint
from repro.net.network import Network
from repro.net.packet import TcpFlags
from repro.resilience import ResilienceConfig
from repro.units import MILLISECONDS

from tests.conftest import make_packet


class RecorderNode:
    def __init__(self, name):
        self.name = name
        self.received = []

    def on_packet(self, packet):
        self.received.append(packet)


def build_lb(sim, n_servers=2, policy_cls=RoundRobin):
    network = Network(sim)
    client = RecorderNode("client")
    network.add_node(client)
    servers = [RecorderNode("s%d" % i) for i in range(n_servers)]
    pool = BackendPool([Backend(s.name) for s in servers])
    if policy_cls is RoundRobin:
        policy = RoundRobin(pool)
    else:
        policy = MaglevPolicy(pool, table_size=251)
    lb = LoadBalancer(network, "lb", Endpoint("vip", 80), pool, policy)
    network.connect("client", "lb", prop_delay=10)
    network.set_default_route("client", "lb")
    for server in servers:
        network.add_node(server)
        network.connect("lb", server.name, prop_delay=10)
    return network, client, servers, pool, lb


def vip_packet(network, port=40_000, flags=TcpFlags.SYN, payload=0):
    return make_packet(
        network.slab,
        Endpoint("client", port),
        Endpoint("vip", 80),
        flags=flags,
        payload_len=payload,
    )


class TestForwarding:
    def test_syn_routed_by_policy(self, sim):
        network, client, servers, pool, lb = build_lb(sim)
        network.send_from("client", vip_packet(network, port=1))
        network.send_from("client", vip_packet(network, port=2))
        sim.run()
        assert len(servers[0].received) == 1
        assert len(servers[1].received) == 1
        assert lb.stats.new_flows == 2

    def test_destination_left_intact_for_dsr(self, sim):
        network, client, servers, pool, lb = build_lb(sim)
        network.send_from("client", vip_packet(network))
        sim.run()
        delivered = servers[0].received[0]
        assert network.slab.materialize(delivered).dst == Endpoint("vip", 80)

    def test_affinity_overrides_policy(self, sim):
        network, client, servers, pool, lb = build_lb(sim)
        # Same flow: first SYN picks s0 (round robin), then data packets
        # must stick to s0 even though RR would rotate.
        network.send_from("client", vip_packet(network, port=7, flags=TcpFlags.SYN))
        sim.run()
        for _ in range(3):
            network.send_from(
                "client", vip_packet(network, port=7, flags=TcpFlags.ACK, payload=100)
            )
        sim.run()
        assert len(servers[0].received) == 4
        assert len(servers[1].received) == 0

    def test_non_syn_miss_falls_back_to_policy(self, sim):
        network, client, servers, pool, lb = build_lb(sim, policy_cls=MaglevPolicy)
        # No SYN ever seen (conntrack lost): mid-stream packet still routed.
        network.send_from(
            "client", vip_packet(network, port=9, flags=TcpFlags.ACK, payload=10)
        )
        sim.run()
        assert lb.stats.conntrack_fallbacks == 1
        assert sum(len(s.received) for s in servers) == 1

    def test_wrong_vip_dropped(self, sim):
        network, client, servers, pool, lb = build_lb(sim)
        stray = make_packet(
            network.slab, Endpoint("client", 1), Endpoint("other-vip", 80)
        )
        lb.on_packet(stray)
        assert lb.stats.packets_dropped_no_backend == 1
        assert all(not s.received for s in servers)
        assert network.slab.live == 0  # the LB freed the handle it owned

    def test_fin_marks_conntrack_closing(self, sim):
        network, client, servers, pool, lb = build_lb(sim)
        network.send_from("client", vip_packet(network, port=3))
        sim.run()
        network.send_from(
            "client", vip_packet(network, port=3, flags=TcpFlags.FIN | TcpFlags.ACK)
        )
        sim.run()
        # Conntrack keys on the interned flow id the delivered handle carries.
        fid = network.slab.fid[servers[0].received[-1]]
        entry = lb.conntrack._entries[fid]
        assert entry.closing_at is not None


class TestTaps:
    def test_tap_sees_flow_backend_packet(self, sim):
        network, client, servers, pool, lb = build_lb(sim)
        seen = []
        lb.add_tap(lambda now, flow, backend, pkt: seen.append((now, flow, backend)))
        network.send_from("client", vip_packet(network, port=5))
        sim.run()
        assert len(seen) == 1
        now, flow, backend = seen[0]
        assert flow.src_port == 5
        assert backend == "s0"

    def test_tap_called_per_packet_including_data(self, sim):
        network, client, servers, pool, lb = build_lb(sim)
        seen = []
        lb.add_tap(lambda now, flow, backend, pkt: seen.append(pkt))
        network.send_from("client", vip_packet(network, port=5))
        sim.run()
        network.send_from("client", vip_packet(network, port=5, flags=TcpFlags.ACK, payload=9))
        sim.run()
        assert len(seen) == 2


class TestStats:
    def test_per_backend_counters_and_share(self, sim):
        network, client, servers, pool, lb = build_lb(sim)
        for port in range(10):
            network.send_from("client", vip_packet(network, port=port))
        sim.run()
        assert lb.stats.packets_forwarded == 10
        share = lb.backend_share()
        assert share["s0"] == pytest.approx(0.5)
        assert share["s1"] == pytest.approx(0.5)

    def test_share_empty_before_traffic(self, sim):
        _net, _client, _servers, _pool, lb = build_lb(sim)
        assert lb.backend_share() == {}

    def test_per_backend_packets_is_the_forward_pipes_count(self):
        """With health checks armed (probes ride their own prober→server
        pipes), the view over the lb→backend pipes equals an independent
        per-forward tally, in first-forward order, and so does the share."""
        config = ScenarioConfig(
            seed=1,
            duration=300 * MILLISECONDS,
            n_clients=2,
            n_servers=3,
            policy=PolicyName.FEEDBACK,
            resilience=ResilienceConfig(enabled=True, health_checks=True),
        )
        scenario = build_scenario(config)
        lb = scenario.lb
        tally = {}

        def count(now, flow, backend, packet):
            tally[backend] = tally.get(backend, 0) + 1

        lb.add_tap(count)
        run_scenario(config, scenario=scenario)

        network = scenario.network
        counts = lb.stats.per_backend_packets
        assert counts == tally
        assert list(counts) == list(tally)  # first-forward order
        for name, count in counts.items():
            assert network.pipe("lb", name).stats.packets_sent == count
        assert all(
            network.pipe("prober", name).stats.packets_sent > 0 for name in counts
        )
        total = sum(tally.values())
        assert lb.stats.packets_forwarded == total
        assert lb.backend_share() == {
            name: tally[name] / total for name in sorted(tally)
        }
