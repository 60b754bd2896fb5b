"""The in-band feedback loop wired onto a load balancer."""

import pytest

from repro.core.ensemble import EnsembleConfig
from repro.core.estimator import EstimatorConfig
from repro.core.feedback import FeedbackConfig, InbandFeedback
from repro.errors import ConfigError
from repro.lb.backend import Backend, BackendPool
from repro.lb.conntrack import ConnTrack
from repro.lb.dataplane import LoadBalancer
from repro.lb.policies import MaglevPolicy
from repro.net.addr import Endpoint, FlowKey
from repro.net.network import Network
from repro.net.packet import TcpFlags
from repro.units import MICROSECONDS, MILLISECONDS

from tests.conftest import make_packet


def send_vip(network, port, flags, seq=0, payload=100):
    """Send one client→VIP packet from ``client:port`` into the LB."""
    network.send_from(
        "client",
        make_packet(
            network.slab,
            Endpoint("client", port),
            Endpoint("vip", 80),
            flags=flags,
            seq=seq,
            payload_len=payload,
        ),
    )


def entry_of(lb, port):
    """The conntrack entry of the ``client:port`` → VIP flow (or None)."""
    slab = lb.network.slab
    fid = slab.intern_flow(
        slab.intern_endpoint(Endpoint("client", port)),
        slab.intern_endpoint(Endpoint("vip", 80)),
    )
    return lb.conntrack.entry(fid)


class RecorderNode:
    def __init__(self, name):
        self.name = name
        self.received = []

    def on_packet(self, packet):
        self.received.append(packet)


def build(sim, control=True, min_samples=1, config=None, conntrack=None):
    network = Network(sim)
    client = RecorderNode("client")
    network.add_node(client)
    pool = BackendPool([Backend("s0"), Backend("s1")])
    lb = LoadBalancer(
        network, "lb", Endpoint("vip", 80), pool, MaglevPolicy(pool, 251),
        conntrack,
    )
    for name in ("s0", "s1"):
        node = RecorderNode(name)
        network.add_node(node)
        network.connect("lb", name, prop_delay=10)
    network.connect("client", "lb", prop_delay=10)
    network.set_default_route("client", "lb")
    if config is None:
        config = FeedbackConfig(
            estimator=EstimatorConfig(min_samples=min_samples),
            control=control,
        )
    feedback = InbandFeedback(lb, config)
    return network, lb, pool, feedback


def drive_flow(sim, network, port, batch_times, burst=3,
               intra_gap=2 * MICROSECONDS):
    """Inject client→VIP packets in batches at the given times."""
    for batch_start in batch_times:
        for i in range(burst):
            when = batch_start + i * intra_gap
            flags = TcpFlags.SYN if (batch_start == batch_times[0] and i == 0) else TcpFlags.ACK

            def fire(w=when, f=flags, p=port):
                send_vip(network, p, f)

            sim.schedule_fire_at(when, fire)


class TestMeasurement:
    def test_produces_samples_from_batches(self, sim):
        network, lb, pool, feedback = build(sim, control=False)
        batches = [i * 500 * MICROSECONDS for i in range(400)]
        drive_flow(sim, network, 40_000, batches)
        sim.run()
        assert feedback.sample_count > 50
        # Samples approximate the 500us batch interval.
        values = [s.t_lb for s in feedback.samples]
        median = sorted(values)[len(values) // 2]
        assert median == pytest.approx(500 * MICROSECONDS, rel=0.1)

    def test_samples_attributed_to_flow_backend(self, sim):
        network, lb, pool, feedback = build(sim, control=False)
        batches = [i * 500 * MICROSECONDS for i in range(300)]
        drive_flow(sim, network, 40_000, batches)
        sim.run()
        backends = {s.backend for s in feedback.samples}
        assert len(backends) == 1  # one flow, one backend
        assert backends <= {"s0", "s1"}

    def test_sample_log_recorded(self, sim):
        network, lb, pool, feedback = build(sim, control=False)
        drive_flow(sim, network, 40_000, [i * 500 * MICROSECONDS for i in range(200)])
        sim.run()
        samples = feedback.samples
        assert len(samples) == feedback.sample_count
        assert {s.backend for s in samples} == {entry_of(lb, 40_000).backend}
        times = [s.time for s in samples]
        assert times == sorted(times)
        # 496us batch gaps: 64, 128 and 256us roll every batch, 512us
        # never, so the first epoch's cliff picks 256us.  The packet that
        # opens the new epoch is already measured with it.
        ((epoch_end, index),) = feedback.epochs
        assert index == 2
        assert {s.delta for s in samples if s.time < epoch_end} == {
            64 * MICROSECONDS
        }
        assert {s.delta for s in samples if s.time >= epoch_end} == {
            256 * MICROSECONDS
        }
        assert samples[-1].time >= epoch_end
        assert epoch_end in times

    def test_fin_clears_flow_state(self, sim):
        network, lb, pool, feedback = build(sim, control=False)
        drive_flow(sim, network, 40_000, [i * 500 * MICROSECONDS for i in range(10)])
        sim.run()
        assert len(feedback.flows) == 1
        send_vip(network, 40_000, TcpFlags.FIN | TcpFlags.ACK, payload=0)
        sim.run()
        assert len(feedback.flows) == 0
        # The conntrack entry lingers after FIN; only its state is gone.
        assert len(lb.conntrack) == 1
        assert entry_of(lb, 40_000).state is None


class TestFlowState:
    """Per-flow measurement state lives on the LB's conntrack entries."""

    def test_creates_on_first_sight(self, sim):
        network, lb, pool, feedback = build(sim, control=False)
        assert feedback.flows.stats.created == 0
        send_vip(network, 40_000, TcpFlags.SYN, payload=0)
        sim.run()
        assert feedback.flows.stats.created == 1
        assert len(feedback.flows) == 1
        assert entry_of(lb, 40_000).state is not None

    def test_returns_same_state_on_revisit(self, sim):
        network, lb, pool, feedback = build(sim, control=False)
        send_vip(network, 40_000, TcpFlags.SYN, payload=0)
        sim.run()
        first = entry_of(lb, 40_000).state
        drive_flow(sim, network, 40_000, [(i + 1) * 500 * MICROSECONDS for i in range(20)])
        sim.run()
        assert entry_of(lb, 40_000).state is first
        assert feedback.flows.stats.created == 1
        assert feedback.sample_count > 0

    def test_len_counts_entries_holding_state(self, sim):
        network, lb, pool, feedback = build(sim, control=False)
        for port in (40_000, 40_001, 40_002):
            send_vip(network, port, TcpFlags.SYN, payload=0)
        sim.run()
        send_vip(network, 40_001, TcpFlags.FIN | TcpFlags.ACK, payload=0)
        sim.run()
        assert len(lb.conntrack) == 3
        assert len(feedback.flows) == 2

    def test_state_dropped_at_fin(self, sim):
        network, lb, pool, feedback = build(sim, control=False)
        send_vip(network, 40_000, TcpFlags.SYN, payload=0)
        sim.run()
        assert entry_of(lb, 40_000).state is not None
        send_vip(network, 40_000, TcpFlags.FIN | TcpFlags.ACK, payload=0)
        sim.run()
        assert entry_of(lb, 40_000).state is None
        assert len(feedback.flows) == 0
        # A second FIN or an RST leaves no state behind either.
        send_vip(network, 40_000, TcpFlags.FIN | TcpFlags.ACK, payload=0)
        send_vip(network, 40_000, TcpFlags.RST, payload=0)
        sim.run()
        assert entry_of(lb, 40_000).state is None
        assert len(feedback.flows) == 0

    def test_state_survives_conntrack_sweeps(self, sim):
        # A sweep on every operation: an active flow's entry, and the
        # state on it, must outlive all of them.
        network, lb, pool, feedback = build(
            sim, control=False, conntrack=ConnTrack(sweep_every=1)
        )
        send_vip(network, 40_000, TcpFlags.SYN, payload=0)
        sim.run()
        state = entry_of(lb, 40_000).state
        drive_flow(sim, network, 40_000, [(i + 1) * 500 * MICROSECONDS for i in range(20)])
        sim.run()
        assert entry_of(lb, 40_000).state is state
        assert feedback.flows.stats.created == 1

    def test_state_freed_with_swept_entry(self, sim):
        # The state dies with its conntrack entry: once an idle flow's
        # entry is swept, nothing holds the flow's measurement state.
        network, lb, pool, feedback = build(
            sim,
            control=False,
            conntrack=ConnTrack(idle_timeout=1 * MILLISECONDS, sweep_every=1),
        )
        send_vip(network, 40_000, TcpFlags.SYN, payload=0)
        sim.run()
        assert len(feedback.flows) == 1
        sim.schedule_fire_at(
            sim.now + 5 * MILLISECONDS,
            lambda: send_vip(network, 40_001, TcpFlags.SYN, payload=0),
        )
        sim.run()
        assert entry_of(lb, 40_000) is None
        assert lb.conntrack.stats.expired_idle == 1
        assert len(feedback.flows) == 1  # only the new flow's
        # The flow coming back starts from fresh state.
        send_vip(network, 40_000, TcpFlags.ACK)
        sim.run()
        assert feedback.flows.stats.created == 3

    def test_created_counts_recreation_after_fin(self, sim):
        network, lb, pool, feedback = build(sim, control=False)
        send_vip(network, 40_000, TcpFlags.SYN, payload=0)
        send_vip(network, 40_000, TcpFlags.FIN | TcpFlags.ACK, payload=0)
        sim.run()
        assert feedback.flows.stats.created == 1
        assert len(feedback.flows) == 0
        # A packet after FIN (e.g. the client's last ACK) within the
        # conntrack linger: same entry, new state.
        send_vip(network, 40_000, TcpFlags.ACK, payload=0)
        sim.run()
        assert feedback.flows.stats.created == 2
        assert len(feedback.flows) == 1

    def test_second_feedback_on_one_lb_rejected(self, sim):
        network, lb, pool, feedback = build(sim, control=False)
        with pytest.raises(ConfigError):
            InbandFeedback(lb, FeedbackConfig(control=False))
        # The first loop keeps its slot and keeps measuring.
        send_vip(network, 40_000, TcpFlags.SYN, payload=0)
        sim.run()
        assert feedback.flows.stats.created == 1

    def test_failed_construction_does_not_claim_the_lb(self, sim):
        network = Network(sim)
        pool = BackendPool([Backend("s0"), Backend("s1")])
        lb = LoadBalancer(
            network, "lb", Endpoint("vip", 80), pool, MaglevPolicy(pool, 251)
        )
        with pytest.raises(ConfigError):
            InbandFeedback(lb, FeedbackConfig(strategy="nonsense"))
        assert InbandFeedback(lb, FeedbackConfig()).lb is lb


class TestRetransmissionDetection:
    def test_duplicate_sequence_taints_next_sample(self, sim):
        config = FeedbackConfig(control=False, censor_retransmissions=True)
        network, lb, pool, feedback = build(sim, config=config)

        def send(seq, when, flags=TcpFlags.ACK):
            sim.schedule_fire_at(
                when, lambda: send_vip(network, 42_000, flags, seq=seq)
            )

        # Batch 1, then a retransmission of its segment, then batch 2.
        send(0, 0, flags=TcpFlags.SYN)
        send(1, 500 * MICROSECONDS)
        send(1, 1000 * MICROSECONDS)          # duplicate: retransmission
        send(101, 1500 * MICROSECONDS)        # fresh data, new batch
        sim.run()
        assert feedback.censored_samples > 0

    def test_monotone_flow_produces_uncensored_samples(self, sim):
        config = FeedbackConfig(control=False, censor_retransmissions=True)
        network, lb, pool, feedback = build(sim, config=config)
        seq = 0
        for batch in range(200):
            when = batch * 500 * MICROSECONDS
            flags = TcpFlags.SYN if batch == 0 else TcpFlags.ACK
            current = seq

            def fire(s=current, w=when, f=flags):
                send_vip(network, 44_000, f, seq=s)

            sim.schedule_fire_at(when, fire)
            seq += 101 if batch == 0 else 100
        sim.run()
        assert feedback.censored_samples == 0
        assert feedback.sample_count > 50


class TestControl:
    def test_no_shifts_in_measure_only_mode(self, sim):
        network, lb, pool, feedback = build(sim, control=False)
        drive_flow(sim, network, 40_000, [i * 500 * MICROSECONDS for i in range(200)])
        sim.run()
        assert feedback.controller is None
        assert feedback.shift_events() == []
        assert pool.weights() == {"s0": 1.0, "s1": 1.0}

    def test_shifts_away_from_slow_backend(self, sim):
        network, lb, pool, feedback = build(sim, control=True)
        # Two flows pinned to different backends with different batch
        # intervals (one 'slow', one 'fast').  Find ports that Maglev
        # maps to distinct backends.
        table = lb.policy.table

        def backend_of(port):
            flow = FlowKey.for_packet(Endpoint("client", port), Endpoint("vip", 80))
            return table.lookup_flow(str(flow))

        port_fast = next(p for p in range(40_000, 41_000) if backend_of(p) == "s0")
        port_slow = next(p for p in range(40_000, 41_000) if backend_of(p) == "s1")
        drive_flow(sim, network, port_fast,
                   [i * 500 * MICROSECONDS for i in range(400)])
        drive_flow(sim, network, port_slow,
                   [i * 2 * MILLISECONDS for i in range(100)])
        sim.run()
        weights = pool.weights()
        assert weights["s1"] < weights["s0"]
        assert feedback.shift_events()
        assert feedback.shift_events()[0].from_backend == "s1"


class TestEpochLog:
    def test_epoch_log_holds_every_flows_epoch_ends(self):
        """``feedback.epochs`` is one log all flows' ensembles append to."""
        from repro.app.client import MemtierConfig
        from repro.harness.config import PolicyName, ScenarioConfig
        from repro.harness.runner import run_scenario
        from repro.harness.scenario import build_scenario

        config = ScenarioConfig(
            seed=3,
            duration=200 * MILLISECONDS,
            policy=PolicyName.FEEDBACK,
            memtier=MemtierConfig(requests_per_connection=2000),
        )
        scenario = build_scenario(config)
        lb = scenario.lb
        # Hold every flow's ensemble, so ensembles whose flow ended and
        # whose state was dropped still count.
        ensembles = {}

        def keep(now, flow, backend, packet):
            state = lb.conntrack.entry(lb.network.slab.fid[packet]).state
            if state is not None:
                ensembles[id(state.ensemble)] = state.ensemble

        lb.add_tap(keep)
        run_scenario(config, scenario=scenario)
        epochs = scenario.feedback.epochs
        assert len(ensembles) > 1
        completed = sum(e.epochs_completed for e in ensembles.values())
        assert completed > 0
        assert len(epochs) == completed
        times = [time for time, _index in epochs]
        assert times == sorted(times)
