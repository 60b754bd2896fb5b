"""The sender's per-ACK bookkeeping, property-tested over a lossy pipe.

Random message sizes, MSS and window over jittered pipes that drop
packets both ways.  Both ends send (the server echoes every message),
and the test checks:

* every message, and every echo, arrives exactly once and in order;
* after every ACK, the unacked segments have strictly increasing end
  seqs, all past ``snd_una``: an ACK retires exactly an acked prefix;
* each data segment carries exactly the message boundaries the
  two-list partition below assigns it.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.addr import Endpoint
from repro.net.network import Network
from repro.net.packet import MessageBoundary
from repro.sim.engine import Simulator
from repro.transport.connection import Connection, TransportConfig
from repro.transport.endpoint import Host
from repro.units import GIGABITS_PER_SECOND, MICROSECONDS, SECONDS


class PartitionOracle:
    """Which pending boundaries a segment ``[start, end)`` carries.

    Kept as two lists re-partitioned per segment: the carried ones end
    inside the segment, the rest stay pending.
    """

    def __init__(self):
        self.pending = []
        self.stream_len = 0

    def queue(self, message, size):
        self.stream_len += size
        self.pending.append(MessageBoundary(end_offset=self.stream_len, message=message))

    def carry(self, start, end):
        carried = []
        remaining = []
        for boundary in self.pending:
            if boundary.end_offset > end:
                remaining.append(boundary)
            elif boundary.end_offset > start:
                carried.append(boundary)
        self.pending = remaining
        return carried


class CheckedConnection(Connection):
    """Checks the in-flight queue after every ACK: strictly increasing
    end seqs, all past ``snd_una``."""

    __slots__ = ()

    def _handle_ack(self, ack):
        super()._handle_ack(ack)
        ends = [segment.end_seq for segment in self._inflight]
        assert ends == sorted(set(ends))
        assert all(end > self._snd_una for end in ends)


def instrument(conn, oracle):
    """Check ``conn``'s segments against ``oracle`` and its in-flight
    queue after every ACK."""
    send = conn._send
    slab = conn._slab

    def checked_send(packet):
        # Each data segment's first transmission, read off the wire.
        payload_len = slab.payload_len[packet]
        if payload_len and not slab.retransmit[packet]:
            start = slab.seq[packet] - (conn._iss + 1)
            carried = oracle.carry(start, start + payload_len)
            assert list(slab.boundaries[packet] or ()) == carried
        return send(packet)

    # Connection is slotted: the ACK check comes from the subclass, and
    # the bound pipe send is a slot the wrapper replaces.
    conn.__class__ = CheckedConnection
    conn._send = checked_send


def lossy_pair(sim, loss, jitter, seed):
    network = Network(sim)
    client = Host(network, "client")
    server = Host(network, "server")
    rng = random.Random(seed)
    for src, dst in (("client", "server"), ("server", "client")):
        pipe = network.connect(
            src,
            dst,
            prop_delay=50 * MICROSECONDS,
            bandwidth_bps=GIGABITS_PER_SECOND,
            jitter=lambda: rng.randrange(jitter),
        )
        pipe.set_drop_prob(loss, random.Random(rng.random()))
    return client, server


def echo_size(size):
    return size % 700 + 1


# Counterexamples from before Karn's rule was applied per ACK: a
# retransmission filled a hole and the cumulative ACK that followed took
# RTT samples from the later, never-retransmitted segments it retired.
# Those samples drove the RTO to its cap and the last messages did not
# arrive.
@example(
    sizes=[1, 1, 1, 1, 1, 1041, 1, 1936],
    mss=64, window_segments=3, loss=0.1, jitter=1, late=0, seed=1,
)
@example(
    sizes=[1, 1, 1, 1, 1, 1037, 1603, 1703],
    mss=64, window_segments=2, loss=0.1, jitter=1, late=0, seed=1,
)
@example(
    sizes=[1696, 1941, 110, 3954],
    mss=72, window_segments=8, loss=0.1, jitter=121, late=29, seed=1,
)
@example(
    sizes=[325, 288, 568, 784, 1024, 300, 727, 25, 1, 1, 1927, 2753, 1],
    mss=64, window_segments=5, loss=0.1, jitter=1, late=0, seed=45961,
)
@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4000), min_size=1, max_size=30),
    mss=st.integers(64, 1500),
    window_segments=st.integers(1, 8),
    loss=st.sampled_from([0.0, 0.02, 0.1]),
    jitter=st.integers(1, 40 * MICROSECONDS),
    late=st.integers(0, 29),
    seed=st.integers(0, 2**16),
)
def test_lossy_exchange_delivers_every_message_in_order(
    sizes, mss, window_segments, loss, jitter, late, seed
):
    sim = Simulator()
    client, server = lossy_pair(sim, loss, jitter, seed)
    config = TransportConfig(mss=mss, window=mss * window_segments + mss // 3)
    received = []
    echoes = []

    def on_connection(conn):
        oracle = PartitionOracle()
        instrument(conn, oracle)

        def on_message(c, message):
            received.append(message)
            oracle.queue(("echo", message), echo_size(sizes[message]))
            c.send_message(("echo", message), echo_size(sizes[message]))

        conn.on_message = on_message

    server.listen(7000, on_connection, config=config)
    conn = client.connect(Endpoint("server", 7000), config=config)
    oracle = PartitionOracle()
    instrument(conn, oracle)
    conn.on_message = lambda c, message: echoes.append(message)

    def send(indices):
        for index in indices:
            oracle.queue(index, sizes[index])
            conn.send_message(index, sizes[index])

    # Some messages queue before the handshake completes, the rest
    # once the connection is carrying data.
    cut = min(late, len(sizes))
    send(range(cut))
    sim.run_until(sim.now + 200 * MICROSECONDS)
    send(range(cut, len(sizes)))
    sim.run_until(120 * SECONDS)

    everything = list(range(len(sizes)))
    assert received == everything
    assert echoes == [("echo", index) for index in everything]
