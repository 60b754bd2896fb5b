"""ACK generation policies."""

import pytest

from repro.net.packet import FLAG_ACK
from repro.net.trace import PacketTrace
from repro.sim.engine import Simulator
from repro.transport.ack_policy import DelayedAck, ImmediateAck
from repro.transport.connection import TransportConfig
from repro.units import MILLISECONDS


class TestImmediateAck:
    def test_acks_every_segment(self, sim):
        acks = []
        policy = ImmediateAck()
        policy.attach(sim)
        policy.on_data(True, lambda: acks.append(sim.now))
        policy.on_data(True, lambda: acks.append(sim.now))
        assert len(acks) == 2

    def test_acks_out_of_order_too(self, sim):
        acks = []
        policy = ImmediateAck()
        policy.attach(sim)
        policy.on_data(False, lambda: acks.append(sim.now))
        assert len(acks) == 1


class TestDelayedAck:
    def make(self, sim, timeout=40 * MILLISECONDS, every=2):
        acks = []
        policy = DelayedAck(timeout=timeout, every=every)
        policy.attach(sim)

        def send_ack():
            acks.append(sim.now)

        return policy, acks, send_ack

    def test_single_segment_waits_for_timer(self, sim):
        policy, acks, send_ack = self.make(sim, timeout=10 * MILLISECONDS)
        policy.on_data(True, send_ack)
        assert acks == []
        sim.run()
        assert acks == [10 * MILLISECONDS]

    def test_second_segment_flushes_immediately(self, sim):
        policy, acks, send_ack = self.make(sim)
        policy.on_data(True, send_ack)
        policy.on_data(True, send_ack)
        assert len(acks) == 1
        sim.run()
        assert len(acks) == 1  # timer was cancelled

    def test_out_of_order_flushes(self, sim):
        policy, acks, send_ack = self.make(sim)
        policy.on_data(False, send_ack)
        assert len(acks) == 1

    def test_piggyback_cancels_pending(self, sim):
        policy, acks, send_ack = self.make(sim)
        policy.on_data(True, send_ack)
        policy.on_piggyback()
        sim.run()
        assert acks == []

    def test_cancel_stops_timer(self, sim):
        policy, acks, send_ack = self.make(sim)
        policy.on_data(True, send_ack)
        policy.cancel()
        sim.run()
        assert acks == []

    def test_counter_resets_after_flush(self, sim):
        policy, acks, send_ack = self.make(sim, every=2)
        for _ in range(4):
            policy.on_data(True, send_ack)
        assert len(acks) == 2

    def test_holds_the_sender_only_while_armed(self, sim):
        policy, acks, send_ack = self.make(sim)
        assert policy._send_ack is None
        policy.on_data(True, send_ack)
        assert policy._send_ack is send_ack
        sim.run()
        assert policy._send_ack is None
        policy.on_data(True, send_ack)
        policy.cancel()
        assert policy._send_ack is None
        policy.on_data(True, send_ack)
        policy.on_piggyback()
        assert policy._send_ack is None
        assert len(acks) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DelayedAck(timeout=0)
        with pytest.raises(ValueError):
            DelayedAck(every=1)


@pytest.mark.parametrize("policy", [ImmediateAck, DelayedAck])
def test_no_pure_ack_after_the_connection_closes(sim, pair, policy):
    """The FIN that closes a FIN_WAIT connection is ACKed at once; no
    policy timer outlives the connection to ACK from CLOSED later."""
    config = TransportConfig(ack_policy_factory=policy)
    trace = PacketTrace()
    pair.network.attach_trace(trace)

    def echo_then_close(conn):
        conn.on_message = lambda c, message: c.send_message(message, 100)
        conn.on_peer_close = lambda c: c.close()

    pair.server.listen(7002, echo_then_close, config=config)
    closing = pair.client.connect(pair.server_endpoint(7002), config=config)
    closed_at = []
    closing.on_closed = lambda c: closed_at.append(sim.now)
    closing.on_message = lambda c, message: c.close()
    closing.send_message("ping", 100)
    sim.run()

    assert len(closed_at) == 1
    pure_acks = [
        record.time
        for record in trace.on_pipe("client->server")
        if record.packet.flags == FLAG_ACK and record.packet.payload_len == 0
    ]
    assert pure_acks
    assert max(pure_acks) <= closed_at[0]


class TestRetransmitEstimator:
    pass  # RTO math covered in test_retransmit.py
