"""Timeout-based request duplication ("hedging") — the §2.2 baseline.

The paper argues hedged requests are a poor answer to 100 µs–1 ms
variability: when compute and network delays are comparable, the
duplicate arrives a full timeout + RTT late, effectively doubling the
response latency of every request that needed it.  This client
implements the technique so benches can measure exactly that trade
against feedback routing.

Each logical stream owns a *primary* and a *backup* connection (distinct
4-tuples, so a hashing LB may route them to different servers).  A
request goes out on the primary; if no response arrives within
``hedge_timeout``, a duplicate goes out on the backup; the first
response wins and the loser is ignored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.app.client import RequestRecord
from repro.app.protocol import Request, Response
from repro.app.workload import WorkloadModel
from repro.net.addr import Endpoint
from repro.sim.engine import Timer
from repro.telemetry.columns import ColumnLog
from repro.transport.connection import Connection, TransportConfig
from repro.transport.endpoint import Host
from repro.units import MILLISECONDS


@dataclass
class HedgingConfig:
    """Hedging-client tunables."""

    streams: int = 2
    requests_per_stream: int = 10_000
    hedge_timeout: int = 1 * MILLISECONDS
    workload: WorkloadModel = field(default_factory=WorkloadModel)
    transport: Optional[TransportConfig] = None

    def validate(self) -> None:
        """Raise ValueError on malformed values."""
        if self.streams <= 0:
            raise ValueError("need at least one stream")
        if self.requests_per_stream <= 0:
            raise ValueError("requests_per_stream must be positive")
        if self.hedge_timeout <= 0:
            raise ValueError("hedge timeout must be positive")


@dataclass
class HedgingStats:
    """Aggregate hedging behaviour."""

    issued: int = 0
    hedged: int = 0
    primary_wins: int = 0
    backup_wins: int = 0
    wasted_responses: int = 0


class HedgingClient:
    """Closed-loop client that duplicates slow requests."""

    def __init__(
        self,
        host: Host,
        service: Endpoint,
        config: HedgingConfig,
        rng: random.Random,
    ):
        config.validate()
        self.host = host
        self.service = service
        self.config = config
        self.rng = rng
        self.records = ColumnLog(RequestRecord, "qoqqqoq")
        self.stats = HedgingStats()
        self._streams: List[_HedgeStream] = []
        self._running = False

    def start(self) -> None:
        """Open all streams and begin issuing requests."""
        if self._running:
            return
        self._running = True
        for _ in range(self.config.streams):
            self._streams.append(_HedgeStream(self))

    def stop(self) -> None:
        """Stop issuing new requests."""
        self._running = False

    def latencies(self) -> List[int]:
        """All recorded latencies (ns)."""
        return [r.latency for r in self.records]

    @property
    def hedge_rate(self) -> float:
        """Fraction of logical requests that fired a duplicate."""
        if self.stats.issued == 0:
            return 0.0
        return self.stats.hedged / self.stats.issued


class _HedgeStream:
    """One logical request stream over a primary/backup connection pair."""

    def __init__(self, client: HedgingClient):
        self.client = client
        self.sent = 0
        self.primary = client.host.connect(client.service, client.config.transport)
        self.backup = client.host.connect(client.service, client.config.transport)
        self.primary.on_message = self._on_response
        self.backup.on_message = self._on_response
        self.primary.on_established = lambda conn: self._send_next()
        self._timer = Timer(client.host.sim, self._fire_hedge)
        # Copy request_id -> logical entry; one entry may own two copies.
        self._by_copy: Dict[int, dict] = {}
        self._active: Optional[dict] = None

    def _send_next(self) -> None:
        client = self.client
        if not client._running or self.sent >= client.config.requests_per_stream:
            return
        request = client.config.workload.make_request(client.rng)
        now = client.host.sim.now
        entry = {
            "request": request,
            "started": now,
            "done": False,
            "hedged": False,
            "copies": {request.request_id: "primary"},
        }
        self._active = entry
        self._by_copy[request.request_id] = entry
        self.sent += 1
        client.stats.issued += 1
        self.primary.send_message(request, request.wire_size)
        self._timer.start(client.config.hedge_timeout)

    def _fire_hedge(self) -> None:
        entry = self._active
        if entry is None or entry["done"]:
            return
        original: Request = entry["request"]
        duplicate = Request(
            op=original.op, key=original.key, value_size=original.value_size
        )
        entry["hedged"] = True
        entry["copies"][duplicate.request_id] = "backup"
        self._by_copy[duplicate.request_id] = entry
        self.client.stats.hedged += 1
        # Queues before establishment too; the transport flushes on open.
        self.backup.send_message(duplicate, duplicate.wire_size)

    def _on_response(self, conn: Connection, message: Any) -> None:
        if not isinstance(message, Response):
            return
        entry = self._by_copy.pop(message.request_id, None)
        if entry is None:
            return
        role = entry["copies"].get(message.request_id, "primary")
        if entry["done"]:
            self.client.stats.wasted_responses += 1
            return
        entry["done"] = True
        self._timer.stop()
        now = self.client.host.sim.now
        if role == "primary":
            self.client.stats.primary_wins += 1
        else:
            self.client.stats.backup_wins += 1
        request = entry["request"]
        self.client.records.append(
            request.request_id,
            request.op,
            entry["started"],
            now,
            now - entry["started"],
            message.server,
            conn.local.port,
        )
        self._active = None
        self._send_next()
