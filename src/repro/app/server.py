"""The memcached-like server application.

A :class:`ServerApp` listens on its host's service port and, per
request, charges: queueing behind earlier requests (limited worker
concurrency), the base service-time model, and any variability-injector
delay.  Responses travel back over the same connection — which, in the
DSR topology, routes *directly* to the client, bypassing the LB.

The server keeps ground-truth telemetry (service times, queue delays,
busy fraction) that experiments use to validate what the LB inferred
from one-directional traffic.
"""

from __future__ import annotations

import heapq
import random
from array import array
from dataclasses import dataclass, field
from typing import List, Optional

from repro.app.kvstore import KeyValueStore
from repro.app.protocol import Op, Request, Response
from repro.app.servicetime import Deterministic, ServiceTimeModel
from repro.app.variability import LatencyInjector, NullInjector
from repro.net.addr import Endpoint
from repro.transport.connection import (
    Connection,
    ConnectionState,
    TransportConfig,
)
from repro.transport.endpoint import Host
from repro.units import MICROSECONDS

# Bound once: a member read inside a function costs an
# ``EnumType.__getattr__`` call on CPython 3.11.
_CLOSED = ConnectionState.CLOSED
_GET = Op.GET
_SET = Op.SET


@dataclass
class ServerConfig:
    """Server tunables.

    ``workers`` bounds concurrent request processing; with 1 worker the
    server is a FIFO queue and load directly translates into queueing
    delay — the coupling the feedback controller exploits when it sheds
    traffic from a slow server.
    """

    port: int = 11211
    workers: int = 1
    service_model: ServiceTimeModel = field(
        default_factory=lambda: Deterministic(50 * MICROSECONDS)
    )
    injector: LatencyInjector = field(default_factory=NullInjector)
    store_capacity: Optional[int] = None
    transport: Optional[TransportConfig] = None


@dataclass
class ServerStats:
    """Ground-truth counters for validation and reports."""

    requests: int = 0
    responses: int = 0
    #: Requests discarded because the process was crashed at arrival.
    dropped_while_crashed: int = 0
    busy_ns: int = 0
    #: Per-request queueing delay and work (ns), as ``array('q')`` columns.
    queue_delays: array = field(default_factory=lambda: array("q"))
    service_times: array = field(default_factory=lambda: array("q"))


class ServerApp:
    """Request-processing application bound to a :class:`Host`.

    Parameters
    ----------
    host:
        The transport host to listen on.
    config:
        Server tunables.
    rng:
        RNG for service-time draws (a dedicated stream per server).
    service_endpoint:
        The endpoint clients address — in a DSR deployment this is the
        VIP, so the server can source responses from it.
    """

    def __init__(
        self,
        host: Host,
        config: ServerConfig,
        rng: random.Random,
        service_endpoint: Optional[Endpoint] = None,
    ):
        self.host = host
        self.config = config
        self.rng = rng
        # Prebound: _on_request/_process run once per request.
        self._sim = host.sim
        self.store = KeyValueStore(config.store_capacity)
        self.stats = ServerStats()
        self.endpoint = service_endpoint or Endpoint(host.name, config.port)
        # Worker pool as a min-heap of times at which each worker frees up.
        self._worker_free: List[int] = [0] * max(1, config.workers)
        heapq.heapify(self._worker_free)
        # Chaos-plane seams: a runtime service-time multiplier (server
        # slowdown faults) and a pause gate (GC-style stop-the-world).
        self._service_multiplier = 1.0
        self._paused = False
        self._paused_requests: List[tuple] = []
        self._crashed = False
        host.listen(config.port, self._on_connection, config.transport)

    # ------------------------------------------------------------------
    # Chaos-plane seams
    # ------------------------------------------------------------------

    @property
    def service_multiplier(self) -> float:
        """Current runtime multiplier applied to per-request work."""
        return self._service_multiplier

    def set_service_multiplier(self, multiplier: float) -> None:
        """Scale every request's service time (1.0 restores normal)."""
        if multiplier <= 0:
            raise ValueError(
                "service multiplier must be positive, got %r" % multiplier
            )
        self._service_multiplier = multiplier

    @property
    def paused(self) -> bool:
        """Whether the server is currently stalled by a pause fault."""
        return self._paused

    def pause(self) -> None:
        """Stop processing: requests arriving while paused are held."""
        self._paused = True

    def resume(self) -> None:
        """Resume processing; held requests run in arrival order."""
        if not self._paused:
            return
        self._paused = False
        pending, self._paused_requests = self._paused_requests, []
        for conn, request, arrived_at in pending:
            self._process(conn, request, arrived_at)

    @property
    def crashed(self) -> bool:
        """Whether the process is currently down (crash fault)."""
        return self._crashed

    def crash(self) -> None:
        """Kill the process: stop listening, discard held work.

        Unlike :meth:`pause` (the process stalls but the kernel still
        completes handshakes) a crash takes the listener down — new SYNs
        go unanswered — and in-flight requests are lost, not queued.
        Established connections are *not* reset: their clients discover
        the death by silence, exactly the failure mode deadlines and
        signal-staleness tracking exist for.
        """
        if self._crashed:
            return
        self._crashed = True
        self.host.stop_listening(self.config.port)
        self._paused_requests.clear()

    def restart(self) -> None:
        """Bring the process back up (fresh listener, same store)."""
        if not self._crashed:
            return
        self._crashed = False
        self.host.listen(
            self.config.port, self._on_connection, self.config.transport
        )

    # ------------------------------------------------------------------

    def _on_connection(self, conn: Connection) -> None:
        conn.on_message = self._on_request
        conn.on_peer_close = lambda c: c.close()

    def _on_request(self, conn: Connection, request: Request) -> None:
        if not isinstance(request, Request):
            return  # stray message type: ignore rather than crash the run
        now = self._sim._now
        if self._crashed:
            # A dead process answers nothing: requests already in the
            # kernel's buffers when it died just vanish.
            self.stats.dropped_while_crashed += 1
            return
        self.stats.requests += 1
        if self._paused:
            self._paused_requests.append((conn, request, now))
            return
        self._process(conn, request, now)

    def _process(self, conn: Connection, request: Request, arrived_at: int) -> None:
        now = self._sim._now
        start = max(now, heapq.heappop(self._worker_free))
        queue_delay = start - arrived_at
        extra = self.config.injector.extra_delay(start)
        service = self.config.service_model.sample(self.rng, request)
        work = extra + service
        if self._service_multiplier != 1.0:
            work = max(0, round(work * self._service_multiplier))
        completion = start + work
        heapq.heappush(self._worker_free, completion)

        self.stats.queue_delays.append(queue_delay)
        self.stats.service_times.append(work)
        self.stats.busy_ns += work

        response = self._execute(request)
        response.queue_delay = queue_delay
        response.service_time = work

        def respond() -> None:
            if conn.state is not _CLOSED:
                self.stats.responses += 1
                conn.send_message(response, response.wire_size)

        # One-shot, never cancelled: a bare callback, not a Timer.
        self._sim.schedule_fire_at(completion, respond)

    def _execute(self, request: Request) -> Response:
        if request.op is _GET:
            size = self.store.get(request.key)
            return Response(
                request_id=request.request_id,
                op=_GET,
                hit=size is not None,
                value_size=size or 0,
                server=self.host.name,
            )
        self.store.set(request.key, request.value_size)
        return Response(
            request_id=request.request_id,
            op=_SET,
            hit=True,
            server=self.host.name,
        )

    # ------------------------------------------------------------------

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of one worker-equivalent spent processing."""
        if elapsed_ns <= 0:
            return 0.0
        return self.stats.busy_ns / (elapsed_ns * max(1, self.config.workers))


class SinkApp:
    """Accepts connections and discards whatever arrives.

    The peer for bulk flows (Fig 2's backlogged sender): its transport
    still generates the ACKs that clock the sender's windows; the
    application itself never replies.
    """

    def __init__(
        self,
        host: Host,
        port: int,
        transport: Optional[TransportConfig] = None,
    ):
        self.host = host
        self.port = port
        self.messages_received = 0
        host.listen(port, self._on_connection, transport)

    def _on_connection(self, conn: Connection) -> None:
        conn.on_message = self._on_message
        conn.on_peer_close = lambda c: c.close()

    def _on_message(self, conn: Connection, message: object) -> None:
        self.messages_received += 1
