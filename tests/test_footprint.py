"""What fleet-scale objects cost in memory.

A fleet run holds thousands of pipes and churns through tens of
thousands of connections while the engine keeps the cyclic garbage
collector paused.  So a closed connection must be freed by reference
counting alone, an idle pipe must stay small, and the per-object
classes carry no instance dict.  The run logs (a row per ``T_LB``
sample and per completed request) are the largest live data, so a row
must cost about its numbers' 8 bytes each.
"""

import gc
import random
import tracemalloc
import weakref

import pytest

from repro.app.client import MemtierClient, MemtierConfig
from repro.app.protocol import Op
from repro.app.server import ServerApp, ServerConfig
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.scenario import build_scenario
from repro.net.packet import PacketSlab
from repro.net.pipe import Pipe, PipeStats
from repro.sim.engine import Simulator, Timer
from repro.transport.ack_policy import DelayedAck
from repro.transport.connection import Connection, ConnectionStats, TransportConfig
from repro.transport.retransmit import RttEstimator
from repro.units import GIGABITS_PER_SECOND, MICROSECONDS

from tests.conftest import PairTopology


@pytest.fixture
def collector_off():
    """Run the test with the cyclic collector off, as the engine does."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_closed_connections_are_freed_by_reference_counting(collector_off):
    sim = Simulator()
    pair = PairTopology(sim)

    # FIN exchange: a memtier loop spends its budget, closes, and is not
    # replaced (the client stops once it has every response).
    ServerApp(pair.server, ServerConfig(port=7000), random.Random(1))
    client = MemtierClient(
        pair.client,
        pair.server_endpoint(7000),
        MemtierConfig(connections=1, pipeline=1, requests_per_connection=3),
        random.Random(2),
    )

    def stop_when_done(record):
        if client.completed_requests == 3:
            client.stop()

    client.on_record = stop_when_done
    client.start()

    # RST: the client aborts on the first echo.
    def echo(conn):
        conn.on_message = lambda c, message: c.send_message(message, 100)

    pair.server.listen(7001, echo)
    aborting = pair.client.connect(pair.server_endpoint(7001))
    aborting.on_message = lambda c, message: c.abort()
    aborting.send_message("ping", 100)

    # Delayed ACKs at both ends, then a graceful close from each side.
    delayed = TransportConfig(ack_policy_factory=DelayedAck)

    def echo_then_close(conn):
        conn.on_message = lambda c, message: c.send_message(message, 100)
        conn.on_peer_close = lambda c: c.close()

    pair.server.listen(7002, echo_then_close, config=delayed)
    closing = pair.client.connect(pair.server_endpoint(7002), config=delayed)
    closing.on_message = lambda c, message: c.close()
    closing.send_message("ping", 100)
    del aborting, closing

    # Every connection exists once the SYNs have landed.
    sim.run_until(pair.one_way + 10 * MICROSECONDS)
    hosts = (pair.client, pair.server)
    refs = [weakref.ref(conn) for host in hosts for conn in host._connections.values()]
    assert len(refs) == 6

    sim.run()
    assert [host.connection_count for host in hosts] == [0, 0]
    assert client.completed_requests == 3
    assert [ref() for ref in refs] == [None] * 6


def test_an_idle_pipe_costs_at_most_800_bytes():
    sim = Simulator()
    slab = PacketSlab()
    count = 200
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pipes = [
            Pipe(sim, "pipe", 1_000, 10 * GIGABITS_PER_SECOND, slab=slab)
            for _ in range(count)
        ]
        per_pipe = (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()
    assert len(pipes) == count
    assert per_pipe <= 800


def test_fleet_scale_classes_have_no_instance_dict(pair):
    conn = pair.client.connect(pair.server_endpoint())
    pipe = pair.network.pipe("client", "server")
    instances = [
        pipe,
        pipe.stats,
        conn,
        conn.stats,
        RttEstimator(),
        Timer(pair.sim, lambda: None),
    ]
    assert [type(obj) for obj in instances] == [
        Pipe,
        PipeStats,
        Connection,
        ConnectionStats,
        RttEstimator,
        Timer,
    ]
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_closed_delayed_ack_pairs_leave_no_policy_or_timer(collector_off):
    def policies_and_their_timers():
        return [
            obj
            for obj in gc.get_objects()
            if type(obj) is DelayedAck
            or (
                type(obj) is Timer
                and type(getattr(obj._callback, "__self__", None)) is DelayedAck
            )
        ]

    before = len(policies_and_their_timers())
    sim = Simulator()
    pair = PairTopology(sim)
    delayed = TransportConfig(ack_policy_factory=DelayedAck)

    def echo_then_close(conn):
        conn.on_message = lambda c, message: c.send_message(message, 100)
        conn.on_peer_close = lambda c: c.close()

    pair.server.listen(7002, echo_then_close, config=delayed)
    for _ in range(10):
        conn = pair.client.connect(pair.server_endpoint(7002), config=delayed)
        conn.on_message = lambda c, message: c.close()
        conn.send_message("ping", 100)
    del conn
    sim.run()
    assert [pair.client.connection_count, pair.server.connection_count] == [0, 0]
    assert len(policies_and_their_timers()) == before


def bytes_per_row(log, fields, count=10_000):
    """Traced bytes ``count`` appended rows add to ``log``, per row."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(count):
            log.append(*fields(index))
        return (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()


@pytest.fixture
def scenario():
    """A built (not run) feedback scenario: the logs its producers fill."""
    return build_scenario(ScenarioConfig(policy=PolicyName.FEEDBACK))


def test_a_sample_row_costs_at_most_48_bytes(scenario):
    flow, backend = object(), "server0"
    per_row = bytes_per_row(
        scenario.feedback.samples,
        # ns times past 2**30 and T_LB values: boxed ints in a row object.
        lambda i: (10**12 + 37_000 * i, flow, backend, 40_000 + i, 50_000),
    )
    assert per_row <= 48


def test_a_request_row_costs_at_most_64_bytes(scenario):
    per_row = bytes_per_row(
        scenario.clients[0].records,
        lambda i: (i, Op.GET, 10**12 + 9 * i, 10**12 + 9 * i + 50_000 + i, 50_000 + i, "server1", 40_000),
    )
    assert per_row <= 64
