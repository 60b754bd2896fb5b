"""Unidirectional network path between two nodes.

A :class:`Pipe` models, in order:

1. **Random loss** — an optional ``drop_prob`` (the chaos plane's lossy
   path knob) discards the packet before it reaches the wire.
2. **Serialization** — the sender's NIC puts the packet on the wire at
   ``bandwidth_bps``; packets queue FIFO while the wire is busy.  A
   runtime bandwidth override (the throttle knob) can cap the wire
   speed below its configured value.
3. **Bounded queue** — if more than ``queue_capacity`` packets are
   waiting for the wire, the new packet is dropped (tail drop).
4. **Propagation** — a fixed ``prop_delay`` plus an adjustable
   ``extra_delay`` (the Fig 3 injection knob) plus optional random
   jitter (configured and/or injected at runtime).

Delivery order is preserved: the arrival time is clamped to be no
earlier than the previous packet's arrival, so jitter never reorders a
path.  (The paper's techniques do not depend on reordering, and in-order
delivery keeps the TCP model honest about what triggers transmissions.)

Tail drops and random losses are counted separately in
:class:`PipeStats` (``packets_dropped_queue`` vs ``packets_dropped_loss``)
so experiments can distinguish congestion from injected loss.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappush
from typing import Callable, Deque, List, Optional

from repro.errors import NetworkError
from repro.net.packet import HEADER_BYTES, Packet, PacketSlab
from repro.sim.engine import Simulator
from repro.units import serialization_delay


class PipeStats:
    """Counters a pipe accumulates over its lifetime; compared by value."""

    __slots__ = (
        "packets_sent",
        "packets_delivered",
        "packets_dropped_queue",
        "packets_dropped_loss",
        "packets_dropped_partition",
        "bytes_sent",
        "bytes_delivered",
    )

    def __init__(self) -> None:
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped_queue = 0
        self.packets_dropped_loss = 0
        self.packets_dropped_partition = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable and compared by value, as a dataclass

    def __repr__(self) -> str:
        return "PipeStats(%s)" % ", ".join(
            "%s=%r" % item for item in zip(self.__slots__, self._values())
        )

    @property
    def packets_dropped(self) -> int:
        """Total drops from any cause (tail drop, loss, partition)."""
        return (
            self.packets_dropped_queue
            + self.packets_dropped_loss
            + self.packets_dropped_partition
        )


class Pipe:
    """One-way link with delay, bandwidth, queueing, and injection knobs.

    Parameters
    ----------
    sim:
        The simulation engine used to schedule deliveries.
    name:
        Label used in traces and error messages.
    prop_delay:
        One-way propagation delay in ns.
    bandwidth_bps:
        Wire speed in bits/s; ``None`` disables serialization delay and
        queueing entirely (an ideal link).
    queue_capacity:
        Maximum packets waiting for the wire before tail drop (only
        meaningful with finite bandwidth).
    jitter:
        Optional callable returning a non-negative ns jitter to add to
        each packet's propagation (e.g. ``lambda: rng.randrange(5_000)``).
    slab:
        The :class:`PacketSlab` whose handles this pipe carries.
    taps:
        Observers called as ``tap(pipe name, packet snapshot)`` on every
        send, before the loss and partition decision.  The list object is
        held, not copied: a :class:`~repro.net.network.Network` passes its
        own, so taps added later are seen too.
    """

    # A fleet has thousands of pipes, most of them idle: no per-instance
    # dict, and no departure deque until the wire is first found busy.
    __slots__ = (
        "_sim",
        "name",
        "_prop_delay",
        "_bandwidth_bps",
        "_bandwidth_override",
        "_queue_capacity",
        "_jitter",
        "_extra_jitter",
        "_extra_delay",
        "_drop_prob",
        "_partitioned",
        "_loss_rng",
        "_wire_free_at",
        "_last_arrival",
        "_eff_bw",
        "_total_delay",
        "_cold",
        "_departures",
        "stats",
        "_deliver",
        "_on_arrival",
        "_slab",
        "_taps",
        "_payload_len",
        "_queue",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        prop_delay: int,
        bandwidth_bps: Optional[int] = None,
        queue_capacity: int = 1024,
        jitter: Optional[Callable[[], int]] = None,
        *,
        slab: PacketSlab,
        taps: Optional[List[Callable[[str, Packet], None]]] = None,
    ):
        if prop_delay < 0:
            raise NetworkError("negative propagation delay on pipe %s" % name)
        if queue_capacity < 1:
            raise NetworkError("queue capacity must be >= 1 on pipe %s" % name)
        self._sim = sim
        self.name = name
        self._prop_delay = prop_delay
        self._bandwidth_bps = bandwidth_bps
        self._bandwidth_override: Optional[int] = None
        self._queue_capacity = queue_capacity
        self._jitter = jitter
        self._extra_jitter: Optional[Callable[[], int]] = None
        self._extra_delay = 0
        self._drop_prob = 0.0
        self._partitioned = False
        self._loss_rng: Optional[random.Random] = None
        self._wire_free_at = 0
        self._last_arrival = 0
        # Hot-path caches, kept in sync by the knob setters: the send
        # fast path reads one flag instead of re-deriving partition /
        # loss / jitter / override state per packet.
        self._eff_bw = bandwidth_bps
        self._total_delay = prop_delay
        self._cold = jitter is not None
        # Departure times of packets still occupying the queue/wire;
        # drained lazily in send() instead of with per-packet events.
        # None until a send finds the wire busy: before that the queue
        # could only ever hold ``_wire_free_at``.
        self._departures: Optional[Deque[int]] = None
        self.stats = PipeStats()
        self._deliver: Optional[Callable[[int], None]] = None
        # Each packet in flight is one engine event calling this with
        # its handle; bound once so send() allocates no method object.
        self._on_arrival = self._arrive
        # Packets are integer handles into this slab's columns.  The
        # pipe owns a handle from send() until delivery or drop.
        self._slab = slab
        self._taps = [] if taps is None else taps
        # Bound once: send() and _arrive() run per packet.  The engine
        # mutates its heap list in place and never replaces it.
        self._payload_len = slab.payload_len
        self._queue = sim._queue

    @property
    def prop_delay(self) -> int:
        """Configured propagation delay (ns), excluding extra delay."""
        return self._prop_delay

    @property
    def extra_delay(self) -> int:
        """Currently injected extra one-way delay (ns)."""
        return self._extra_delay

    def set_extra_delay(self, extra: int) -> None:
        """Inject (or clear, with 0) additional one-way delay.

        This is the experiment's fault-injection knob: Fig 3 sets 1 ms of
        extra delay on one LB→server pipe mid-run.
        """
        if extra < 0:
            raise NetworkError("extra delay must be >= 0, got %d" % extra)
        self._extra_delay = extra
        self._total_delay = self._prop_delay + extra

    @property
    def drop_prob(self) -> float:
        """Current random-loss probability (0 disables loss)."""
        return self._drop_prob

    def set_drop_prob(
        self, prob: float, rng: Optional[random.Random] = None
    ) -> None:
        """Inject (or clear, with 0) random packet loss.

        ``rng`` supplies the loss draws and must come from a dedicated
        seeded stream so loss does not perturb other randomness.
        """
        if not 0.0 <= prob <= 1.0:
            raise NetworkError(
                "drop probability must be in [0, 1], got %r" % prob
            )
        if prob > 0.0 and rng is None and self._loss_rng is None:
            raise NetworkError("loss on pipe %s needs an RNG" % self.name)
        if rng is not None:
            self._loss_rng = rng
        self._drop_prob = prob
        self._refresh_cold()

    @property
    def partitioned(self) -> bool:
        """Whether a network partition is currently cutting this pipe."""
        return self._partitioned

    def set_partitioned(self, active: bool) -> None:
        """Cut (or restore) the pipe entirely.

        While partitioned every packet is discarded before the wire and
        counted under ``packets_dropped_partition`` — a hard cut, unlike
        probabilistic loss, so both fate and statistics stay
        deterministic without an RNG.
        """
        self._partitioned = bool(active)
        self._refresh_cold()

    @property
    def bandwidth_bps(self) -> Optional[int]:
        """Configured wire speed (bits/s), ignoring any override."""
        return self._bandwidth_bps

    @property
    def effective_bandwidth_bps(self) -> Optional[int]:
        """Wire speed in force right now (override never exceeds base)."""
        if self._bandwidth_override is None:
            return self._bandwidth_bps
        if self._bandwidth_bps is None:
            return self._bandwidth_override
        return min(self._bandwidth_bps, self._bandwidth_override)

    def set_bandwidth_override(self, bandwidth_bps: Optional[int]) -> None:
        """Throttle the wire to ``bandwidth_bps`` (None restores base).

        A throttle only ever slows the link: the effective bandwidth is
        the minimum of the configured speed and the override.
        """
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise NetworkError(
                "bandwidth override must be positive or None on %s" % self.name
            )
        self._bandwidth_override = bandwidth_bps
        self._eff_bw = self.effective_bandwidth_bps

    @property
    def extra_jitter(self) -> Optional[Callable[[], int]]:
        """Currently injected jitter draw (None when inactive)."""
        return self._extra_jitter

    def set_extra_jitter(self, jitter: Optional[Callable[[], int]] = None) -> None:
        """Inject (or clear, with None) additional per-packet jitter.

        Composes with any construction-time jitter; both draws are added
        to the packet's propagation delay.
        """
        self._extra_jitter = jitter
        self._refresh_cold()

    def _refresh_cold(self) -> None:
        """Recompute whether send() must take the slow (faulted) path."""
        self._cold = (
            self._partitioned
            or self._drop_prob > 0.0
            or self._jitter is not None
            or self._extra_jitter is not None
        )

    def connect(self, deliver: Callable[[int], None]) -> None:
        """Attach the receiving side's delivery callback."""
        self._deliver = deliver

    def send(self, packet: int) -> bool:
        """Transmit slab handle ``packet``; returns False if it was dropped.

        The pipe takes ownership of the handle: dropped handles are freed
        here, delivered ones pass to the receiver.  A jitter draw that is
        rejected (:class:`NetworkError`) leaves the pipe untouched — no
        counter, no wire state — and the caller still owns the handle.
        """
        taps = self._taps
        if taps:
            # The cold observation path: one independent snapshot, so
            # trace records survive handle recycling.
            snapshot = self._slab.materialize(packet)
            for tap in taps:
                tap(self.name, snapshot)
        if self._deliver is None:
            raise NetworkError("pipe %s has no receiver connected" % self.name)
        size = HEADER_BYTES + self._payload_len[packet]
        stats = self.stats
        cold = self._cold

        if cold:
            if self._partitioned:
                stats.packets_dropped_partition += 1
                return self._drop(packet, size)
            if self._drop_prob > 0.0:
                assert self._loss_rng is not None
                if self._loss_rng.random() < self._drop_prob:
                    stats.packets_dropped_loss += 1
                    return self._drop(packet, size)

        sim = self._sim
        now = sim._now
        bandwidth = self._eff_bw
        if bandwidth is None:
            departure = now
        else:
            departures = self._departures
            departure = self._wire_free_at
            if departure <= now:
                # Idle wire: every queued departure is in the past.
                if departures is not None:
                    departures.clear()
                departure = now
            else:
                if departures is None:
                    departures = self._departures = deque((departure,))
                # The last departure is still ahead, so the deque never
                # empties here.
                while departures[0] <= now:
                    departures.popleft()
                if len(departures) >= self._queue_capacity:
                    stats.packets_dropped_queue += 1
                    return self._drop(packet, size)
            # Inlined serialization_delay(): ceil(bits·ns-per-s / bps).
            departure += -(-size * 8_000_000_000 // bandwidth)

        arrival = departure + self._total_delay
        if cold:
            for draw in (self._jitter, self._extra_jitter):
                if draw is not None:
                    jitter = draw()
                    if jitter < 0:
                        raise NetworkError(
                            "jitter must be non-negative on %s" % self.name
                        )
                    arrival += jitter

        stats.packets_sent += 1
        stats.bytes_sent += size
        if bandwidth is not None:
            self._wire_free_at = departure
            if departures is not None:
                departures.append(departure)
        # Never reorder: clamp to the previous arrival instant.
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        # Simulator.schedule_call_at's body, inlined (an arrival is never
        # in the past): the next seq, the push, the peak-depth mark.
        seq = sim._seq + 1
        sim._seq = seq
        queue = self._queue
        heappush(queue, (arrival, seq, self._on_arrival, packet))
        depth = len(queue) + sim._column_pending
        if depth > sim._peak_queue_depth:
            sim._peak_queue_depth = depth
        return True

    def _drop(self, packet: int, size: int) -> bool:
        """Count a sent-and-dropped packet and free its handle."""
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += size
        self._slab.free(packet)
        return False

    def _arrive(self, packet: int) -> None:
        """Engine event: ``packet`` reached the far end of the pipe."""
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += HEADER_BYTES + self._payload_len[packet]
        self._deliver(packet)

    @property
    def in_flight(self) -> int:
        """Packets sent but neither dropped nor delivered yet."""
        stats = self.stats
        return stats.packets_sent - stats.packets_dropped - stats.packets_delivered
