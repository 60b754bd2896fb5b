"""Client applications.

:class:`MemtierClient` reproduces the paper's workload generator
(memtier_benchmark): several concurrent TCP connections, each pipelining
up to ``pipeline`` outstanding requests (the application-level flow
control that produces causally-triggered transmissions), closing and
reopening after a fixed number of requests so the LB can re-route fresh
connections with what it has learned.

:class:`BacklogClient` reproduces Fig 2's stimulus: one long-lived
flow-controlled bulk transfer whose transmission batches are windows;
its transport RTT samples are the ground truth ``T_client``.

With a :class:`~repro.resilience.retry.RetryConfig`,
:class:`MemtierClient` grows the client half of the resilience plane:
per-request deadlines (an unanswered request aborts its connection,
memtier-style), exponential backoff with jitter before re-sends, and a
token-bucket retry budget that arithmetically bounds total retries.
Without one, behaviour is unchanged — no timers, no extra RNG draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.app.protocol import Op, Request, Response
from repro.app.workload import WorkloadModel
from repro.errors import ConfigError
from repro.net.addr import Endpoint
from repro.resilience.retry import (
    RetryBudget,
    RetryConfig,
    RetryStats,
    backoff_delay,
)
from repro.sim.engine import Timer
from repro.telemetry.columns import ColumnLog
from repro.telemetry.timeseries import TimeSeries
from repro.transport.connection import Connection, ConnectionState, TransportConfig
from repro.transport.endpoint import Host
from repro.units import MICROSECONDS

# Bound once: a member read inside a function costs an
# ``EnumType.__getattr__`` call on CPython 3.11.
_ESTABLISHED = ConnectionState.ESTABLISHED
_CLOSED = ConnectionState.CLOSED


@dataclass
class RequestRecord:
    """Ground-truth log entry for one completed request."""

    __slots__ = (
        "request_id",
        "op",
        "sent_at",
        "completed_at",
        "latency",
        "server",
        "local_port",
    )

    request_id: int
    op: Op
    sent_at: int
    completed_at: int
    latency: int
    server: Optional[str]
    local_port: int


@dataclass
class MemtierConfig:
    """memtier_benchmark-shaped knobs."""

    connections: int = 4
    pipeline: int = 4
    requests_per_connection: int = 200
    reconnect_delay: int = 100 * MICROSECONDS
    #: Delay between receiving a response and issuing the next request.
    #: Non-zero think time models application-limited clients — it adds
    #: directly to ``T_trigger``, the dominant error term of the proxy
    #: measurement (paper §3 and open question #2).
    think_time: int = 0
    workload: WorkloadModel = field(default_factory=WorkloadModel)
    transport: Optional[TransportConfig] = None

    def validate(self) -> None:
        """Raise ConfigError on nonsensical values."""
        if self.connections <= 0:
            raise ConfigError("need at least one connection")
        if self.pipeline <= 0:
            raise ConfigError("pipeline depth must be positive")
        if self.requests_per_connection <= 0:
            raise ConfigError("requests_per_connection must be positive")
        if self.reconnect_delay < 0:
            raise ConfigError("reconnect delay must be >= 0")
        if self.think_time < 0:
            raise ConfigError("think time must be >= 0")


class MemtierClient:
    """Closed-loop, pipelined, reconnecting request generator.

    Each response both records ground-truth latency and *triggers* the
    next request on that connection — the application-level causal
    transmission chain the paper's measurement technique detects.
    """

    def __init__(
        self,
        host: Host,
        service: Endpoint,
        config: MemtierConfig,
        rng: random.Random,
        retry: Optional[RetryConfig] = None,
        retry_rng: Optional[random.Random] = None,
    ):
        config.validate()
        self.host = host
        self.service = service
        self.config = config
        self.rng = rng
        #: Completed requests in completion order; a column log whose
        #: reads build :class:`RequestRecord` rows.
        self.records = ColumnLog(RequestRecord, "qoqqqoq")
        self._record_appends = tuple(column.append for column in self.records.columns)
        self.on_record: Optional[Callable[[RequestRecord], None]] = None
        #: Observability hooks: fired per issued request
        #: ``(request, local_port, is_retry)`` and per completed request
        #: ``(record, response)``.  Both purely observational.
        self.on_send: Optional[Callable[[Request, int, bool], None]] = None
        self.on_response: Optional[Callable[[RequestRecord, Response], None]] = None
        self._running = False
        self._conn_state: Dict[int, _ConnLoop] = {}
        #: Retry plane (inert when ``retry`` is None).
        self.retry = retry
        self.retry_stats = RetryStats()
        self.retry_budget: Optional[RetryBudget] = None
        self._retry_rng: Optional[random.Random] = None
        self._retry_queue: List[Request] = []
        self._attempts: Dict[int, int] = {}
        if retry is not None:
            retry.validate()
            self.retry_budget = RetryBudget(retry)
            # Dedicated stream: jitter draws must not perturb the
            # workload's RNG sequence.
            self._retry_rng = retry_rng if retry_rng is not None else random.Random(0)

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Open all connections and begin issuing requests."""
        if self._running:
            return
        self._running = True
        for index in range(self.config.connections):
            self._open_connection(index)

    def stop(self) -> None:
        """Stop issuing requests; outstanding ones complete naturally."""
        self._running = False

    @property
    def completed_requests(self) -> int:
        """Requests with a recorded response so far."""
        return len(self.records)

    def latencies(self, op: Optional[Op] = None) -> List[int]:
        """All recorded latencies (ns), optionally one operation only."""
        if op is None:
            return [r.latency for r in self.records]
        return [r.latency for r in self.records if r.op is op]

    # ------------------------------------------------------------------

    def _open_connection(self, index: int) -> None:
        if not self._running:
            return
        conn = self.host.connect(self.service, self.config.transport)
        loop = _ConnLoop(self, index, conn)
        self._conn_state[index] = loop

    def _reopen_later(self, index: int) -> None:
        if not self._running:
            self._conn_state.pop(index, None)
            return
        self.host.sim.schedule_fire(
            self.config.reconnect_delay, lambda: self._open_connection(index)
        )

    # ------------------------------------------------------------------
    # Retry plane
    # ------------------------------------------------------------------

    def _maybe_retry(self, request: Request) -> None:
        """Decide a failed request's fate: retry (budget allowing) or drop."""
        attempts = self._attempts.get(request.request_id, 1)
        if attempts >= self.retry.max_attempts:
            self.retry_stats.attempts_exhausted += 1
            self._attempts.pop(request.request_id, None)
            return
        if not self.retry_budget.withdraw():
            self.retry_stats.budget_denied += 1
            self._attempts.pop(request.request_id, None)
            return
        self.retry_stats.retries += 1
        self._attempts[request.request_id] = attempts + 1
        delay = backoff_delay(self.retry, attempts, self._retry_rng)
        self.host.sim.schedule_fire(delay, lambda: self._enqueue_retry(request))

    def _enqueue_retry(self, request: Request) -> None:
        if not self._running:
            return
        self._retry_queue.append(request)
        for loop in list(self._conn_state.values()):
            if not self._retry_queue:
                break
            loop.try_pump()

    def _take_retry(self) -> Optional[Request]:
        if self._retry_queue:
            return self._retry_queue.pop(0)
        return None


class _ConnLoop:
    """Drives one connection through its request budget, then recycles."""

    def __init__(self, client: MemtierClient, index: int, conn: Connection):
        self.client = client
        self.index = index
        self.conn = conn
        # Prebound: the send/response paths run per request and the
        # host.sim property chain is pure overhead there.
        self._sim = client.host.sim
        self.sent = 0
        self.outstanding: Dict[int, Request] = {}
        self._deadlines: Dict[int, Timer] = {}
        conn.on_established = self._on_established
        conn.on_message = self._on_response
        conn.on_closed = self._on_closed

    def _on_established(self, conn: Connection) -> None:
        for _ in range(self.client.config.pipeline):
            if not self._send_one():
                break

    def try_pump(self) -> None:
        """Offer a free pipeline slot to the client's retry queue."""
        if (
            self.conn.state is _ESTABLISHED
            and len(self.outstanding) < self.client.config.pipeline
        ):
            self._send_one()

    def _send_one(self) -> bool:
        client = self.client
        config = client.config
        if not client._running:
            return False
        # With the retry plane off the retry queue stays empty and no
        # request has a deadline: skip both calls.
        retry_plane = client.retry is not None
        if retry_plane:
            retry = client._take_retry()
            if retry is not None:
                # Re-sends bypass the per-connection budget: the request
                # was already admitted once, this is its recovery attempt.
                retry.sent_at = self._sim._now
                self.outstanding[retry.request_id] = retry
                self.conn.send_message(retry, retry.wire_size)
                self._arm_deadline(retry.request_id)
                if client.on_send is not None:
                    client.on_send(retry, self.conn.local.port, True)
                return True
        if self.sent >= config.requests_per_connection:
            return False
        request = config.workload.make_request(client.rng)
        request.sent_at = self._sim._now
        self.outstanding[request.request_id] = request
        self.sent += 1
        if retry_plane:
            client.retry_budget.deposit()
            client.retry_stats.first_attempts += 1
            client._attempts[request.request_id] = 1
        self.conn.send_message(request, request.wire_size)
        if retry_plane:
            self._arm_deadline(request.request_id)
        if client.on_send is not None:
            client.on_send(request, self.conn.local.port, False)
        return True

    def _arm_deadline(self, request_id: int) -> None:
        timer = Timer(self._sim, lambda: self._on_deadline(request_id))
        timer.start(self.client.retry.deadline)
        self._deadlines[request_id] = timer

    def _on_deadline(self, request_id: int) -> None:
        self._deadlines.pop(request_id, None)
        request = self.outstanding.pop(request_id, None)
        if request is None:
            return
        client = self.client
        client.retry_stats.deadline_expiries += 1
        client._maybe_retry(request)
        # The connection is wedged behind an unresponsive backend; tear
        # it down (memtier aborts on request timeout) so the remaining
        # pipelined requests fail fast and the replacement connection
        # gets re-routed by the LB.
        client.retry_stats.aborted_connections += 1
        self.conn.abort()  # fires _on_closed, failing the rest

    def _fail_outstanding(self) -> None:
        for request_id, request in list(self.outstanding.items()):
            timer = self._deadlines.pop(request_id, None)
            if timer is not None:
                timer.stop()
            self.client._maybe_retry(request)
        self.outstanding.clear()

    def _on_response(self, conn: Connection, response: Any) -> None:
        if not isinstance(response, Response):
            return
        request = self.outstanding.pop(response.request_id, None)
        if request is None:
            return
        client = self.client
        timer = self._deadlines.pop(response.request_id, None)
        if timer is not None:
            timer.stop()
        client._attempts.pop(response.request_id, None)
        now = self._sim._now
        sent_at = request.sent_at
        log_id, log_op, log_sent, log_done, log_latency, log_server, log_port = (
            client._record_appends
        )
        log_id(request.request_id)
        log_op(request.op)
        log_sent(sent_at)
        log_done(now)
        log_latency(now - sent_at)
        log_server(response.server)
        log_port(conn.local.port)
        if client.on_record is not None or client.on_response is not None:
            record = client.records[-1]
            if client.on_record is not None:
                client.on_record(record)
            if client.on_response is not None:
                client.on_response(record, response)

        think = client.config.think_time
        if think > 0:
            # Per-request think-time events are never cancelled: fast path.
            self._sim.schedule_fire(think, self._continue)
        else:
            self._continue()

    def _continue(self) -> None:
        if not self._send_one() and not self.outstanding:
            # Budget exhausted and pipeline drained: recycle the
            # connection so the LB can route a fresh one.
            if self.conn.state is not _CLOSED:
                self.conn.close()

    def _on_closed(self, conn: Connection) -> None:
        # The closed connection lets go of this loop, so the two are no
        # reference cycle: the connection is freed once the host and this
        # loop drop it.  The loop keeps ``conn`` for the think-time
        # continuations and deadlines still scheduled on it.
        conn.on_established = conn.on_message = conn.on_closed = None
        if self.client.retry is not None:
            self._fail_outstanding()
        self.client._reopen_later(self.index)


class BacklogClient:
    """A single long-lived window-limited bulk flow (Fig 2's stimulus).

    Keeps the transport's send buffer topped up so the connection is
    permanently flow-control limited: each window of packets goes out as
    a burst, then the sender stalls until ACKs return.  Transport RTT
    samples (``on_rtt_sample``) provide ground truth ``T_client``.
    """

    def __init__(
        self,
        host: Host,
        service: Endpoint,
        chunk_bytes: int = 1024,
        transport: Optional[TransportConfig] = None,
    ):
        if chunk_bytes <= 0:
            raise ValueError("chunk size must be positive")
        self.host = host
        self.service = service
        self.chunk_bytes = chunk_bytes
        #: Transport RTT samples, (time_ns, rtt_ns): the ground truth.
        self.rtt_samples = TimeSeries(name="T_client")
        self.on_rtt: Optional[Callable[[int, int], None]] = None
        self._stopped = False
        self._chunk_counter = 0
        self.conn = host.connect(service, transport)
        self.conn.on_established = lambda conn: self._refill()
        self.conn.on_rtt_sample = self._on_rtt_sample
        self._refill()

    def _refill(self) -> None:
        if self._stopped:
            return
        # Keep at least two windows of unsent data buffered so the sender
        # is always window-limited, never application-limited.
        target = 2 * self.conn.config.window
        while self.conn.unsent_bytes < target:
            self._chunk_counter += 1
            self.conn.send_message(("chunk", self._chunk_counter), self.chunk_bytes)

    def _on_rtt_sample(self, conn: Connection, rtt: int) -> None:
        now = self.host.sim.now
        self.rtt_samples.append(now, rtt)
        if self.on_rtt is not None:
            self.on_rtt(now, rtt)
        if conn.state is _ESTABLISHED:
            self._refill()

    def stop(self) -> None:
        """Stop refilling and close the flow (queued data drains first)."""
        self._stopped = True
        self.conn.close()
