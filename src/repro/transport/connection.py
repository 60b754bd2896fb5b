"""TCP-like connection: handshake, sliding window, ACKs, retransmission.

The model is a byte-stream TCP reduced to what the reproduction needs,
while keeping the *timing* mechanics faithful:

* 3-way handshake (SYN / SYN-ACK / ACK); SYN and FIN consume a sequence
  number.
* A fixed flow-control window (``TransportConfig.window``): the sender
  may have at most ``window`` un-acked bytes outstanding.  A backlogged
  sender therefore transmits a *burst* per RTT and pauses — exactly the
  pause structure Algorithms 1–2 segment into batches.
* Cumulative ACKs with pluggable generation policy (immediate/delayed);
  outgoing data piggybacks the current ACK.
* Go-back-N-flavoured retransmission with RFC 6298 RTO estimation and
  Karn's rule.  (Loss is rare in these experiments — queues are deep —
  but queue overflow can drop, and correctness must survive it.)
* Application *messages*: ``send_message`` enqueues an opaque message of
  a given byte size; the receiver's ``on_message`` fires when the
  message's last byte is delivered in order.  Framing travels as
  :class:`~repro.net.packet.MessageBoundary` records on segments.

The connection knows nothing about the load balancer; it just sends
packets out of its :class:`~repro.transport.endpoint.Host`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import TransportError
from repro.net.addr import Endpoint
from repro.net.packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    MessageBoundary,
)
from repro.sim.engine import Simulator, Timer

_SYN_ACK = FLAG_SYN | FLAG_ACK
_ACK_PSH = FLAG_ACK | FLAG_PSH
_FIN_ACK = FLAG_FIN | FLAG_ACK
_RST_ACK = FLAG_RST | FLAG_ACK
from repro.transport.ack_policy import AckPolicy, ImmediateAck
from repro.transport.pacing import Pacer
from repro.transport.retransmit import RttEstimator
from repro.units import MILLISECONDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.transport.endpoint import Host


class ConnectionState(enum.Enum):
    """Reduced TCP state machine."""

    CLOSED = "closed"
    SYN_SENT = "syn_sent"
    SYN_RCVD = "syn_rcvd"
    ESTABLISHED = "established"
    FIN_SENT = "fin_sent"
    FIN_WAIT = "fin_wait"          # we sent FIN, waiting for peer FIN/ACK
    CLOSE_WAIT = "close_wait"      # peer sent FIN, we may still send


# The members, bound once as module globals: the state machine reads
# them per segment, and under CPython 3.11 ``ConnectionState.CLOSED``
# inside a function goes through ``EnumType.__getattr__`` at about eight
# times the cost of a global.
_CLOSED = ConnectionState.CLOSED
_SYN_SENT = ConnectionState.SYN_SENT
_SYN_RCVD = ConnectionState.SYN_RCVD
_ESTABLISHED = ConnectionState.ESTABLISHED
_FIN_WAIT = ConnectionState.FIN_WAIT
_CLOSE_WAIT = ConnectionState.CLOSE_WAIT


@dataclass
class TransportConfig:
    """Tunable transport parameters.

    ``ack_policy_factory`` builds a fresh policy per connection so that
    per-connection timers are not shared.  The config object itself is
    shared: every connection a host opens or accepts holds the one it
    was given, so a config must not be changed once connections use it.
    """

    mss: int = 1448
    window: int = 65_535
    ack_policy_factory: Callable[[], AckPolicy] = ImmediateAck
    initial_rto: int = 100 * MILLISECONDS
    rto_min: int = 5 * MILLISECONDS
    pacing_rate_bps: Optional[int] = None

    def validate(self) -> None:
        """Raise TransportError on nonsensical parameters."""
        if self.mss <= 0:
            raise TransportError("mss must be positive, got %r" % self.mss)
        if self.window < self.mss:
            raise TransportError(
                "window (%d) must be at least one MSS (%d)" % (self.window, self.mss)
            )


class _SentSegment:
    """Book-keeping for an in-flight segment (hot-path __slots__ class;
    ``flags`` is a plain int)."""

    __slots__ = (
        "seq",
        "end_seq",
        "payload_len",
        "flags",
        "boundaries",
        "sent_at",
        "retransmitted",
    )

    def __init__(
        self,
        seq: int,
        end_seq: int,
        payload_len: int,
        flags: int,
        boundaries: Optional[List[MessageBoundary]],
        sent_at: int,
        retransmitted: bool = False,
    ):
        self.seq = seq
        self.end_seq = end_seq
        self.payload_len = payload_len
        self.flags = flags
        self.boundaries = boundaries
        self.sent_at = sent_at
        self.retransmitted = retransmitted


class ConnectionStats:
    """Per-connection counters (tests and reports read these)."""

    __slots__ = (
        "segments_sent",
        "segments_received",
        "pure_acks_sent",
        "retransmissions",
        "bytes_sent",
        "bytes_delivered",
        "messages_sent",
        "messages_delivered",
    )

    def __init__(self) -> None:
        self.segments_sent = 0
        self.segments_received = 0
        self.pure_acks_sent = 0
        self.retransmissions = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.messages_sent = 0
        self.messages_delivered = 0

    def __repr__(self) -> str:
        return "ConnectionStats(%s)" % ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__
        )


class Connection:
    """One endpoint of a reliable byte-stream connection.

    Constructed by :class:`~repro.transport.endpoint.Host` — via
    ``host.connect(...)`` on the client side, or by a listener on SYN
    arrival on the server side.  Applications interact through:

    * :meth:`send_message` — queue an application message.
    * ``on_established`` / ``on_message`` / ``on_closed`` callbacks.
    * :meth:`close` — graceful FIN after queued data drains.

    Nothing the connection holds points back at it once it is torn
    down: an ACK policy keeps its sender only while a timer is armed,
    and the retransmission timer is dropped.  So a closed connection the
    host and the application have let go of is freed by reference
    counting, not left for the cyclic collector (which the engine pauses
    while it runs).
    """

    __slots__ = (
        "_host",
        "_send",
        "_sim",
        "local",
        "remote",
        "config",
        "is_client",
        "state",
        "stats",
        "_iss",
        "_snd_una",
        "_snd_nxt",
        "_stream_len",
        "_unsent_offset",
        "_pending_boundaries",
        "_inflight",
        "_fin_queued",
        "_fin_sent",
        "_irs",
        "_rcv_nxt",
        "_ooo",
        "_slab",
        "_src_i",
        "_dst_i",
        "_fid",
        "inbound_fid",
        "_rtt",
        "_rto_timer",
        "_ack_policy",
        "_ack_on_data",
        "_on_piggyback",
        "_pacer",
        "on_established",
        "on_message",
        "on_closed",
        "on_peer_close",
        "on_rtt_sample",
        "__weakref__",
    )

    def __init__(
        self,
        host: "Host",
        local: Endpoint,
        remote: Endpoint,
        config: TransportConfig,
        is_client: bool,
    ):
        config.validate()
        self._host = host
        # Bound once: every segment goes out through the pipe the route
        # tables give toward the peer (they are fixed once bound).
        self._send = host.network.route(host.name, remote.host).send
        self._sim: Simulator = host.sim
        self.local = local
        self.remote = remote
        self.config = config
        self.is_client = is_client
        self.state = _CLOSED
        self.stats = ConnectionStats()

        # --- send side -------------------------------------------------
        self._iss = 0                 # initial send sequence number
        self._snd_una = 0             # oldest unacknowledged seq
        self._snd_nxt = 0             # next seq to send
        self._stream_len = 0          # total bytes written by the app
        self._unsent_offset = 0       # next stream byte not yet segmented
        # Unsent message ends, in stream order; all lie past _unsent_offset.
        self._pending_boundaries: List[MessageBoundary] = []
        # Unacked segments in seq order (retransmitted in place), so an
        # ACK always retires a prefix.  Lists, not deques: a deque's
        # first block costs ~700 bytes on each of thousands of connections,
        # and deleting a prefix of a window's worth of pointers is cheap.
        self._inflight: List[_SentSegment] = []
        self._fin_queued = False
        self._fin_sent = False

        # --- receive side ----------------------------------------------
        self._irs: Optional[int] = None  # peer's initial sequence number
        self._rcv_nxt = 0
        # Out-of-order buffer: seq -> (flags, payload_len, boundaries)
        # field tuples.  Fields are copied out of slab handles before
        # buffering, so handles never outlive delivery.
        self._ooo: Dict[int, Tuple] = {}

        # --- packet slab -------------------------------------------------
        # Intern this connection's endpoints/flow once; segments are then
        # slab records addressed by the interned ints.
        slab = host.slab
        self._slab = slab
        self._src_i = slab.intern_endpoint(local)
        self._dst_i = slab.intern_endpoint(remote)
        self._fid = slab.intern_flow(self._src_i, self._dst_i)
        #: Flow id the peer's segments carry: the host demuxes on it.
        self.inbound_fid = slab.intern_flow(self._dst_i, self._src_i)

        # --- machinery ---------------------------------------------------
        self._rtt = RttEstimator(
            initial_rto=config.initial_rto, rto_min=config.rto_min
        )
        # None once torn down (see _teardown).  The send paths read it
        # directly: they run only while the state is open, and teardown
        # sets CLOSED first.
        self._rto_timer: Optional[Timer] = Timer(self._sim, self._on_rto)
        policy = config.ack_policy_factory()
        policy.attach(self._sim)
        self._ack_policy = policy
        # None when the policy keeps the base behaviour: the receive
        # path then sends the pure ACK itself, and the send loop skips
        # the no-op piggyback call.
        self._ack_on_data = (
            None if type(policy).on_data is AckPolicy.on_data else policy.on_data
        )
        self._on_piggyback = (
            None
            if type(policy).on_piggyback is AckPolicy.on_piggyback
            else policy.on_piggyback
        )
        self._pacer = (
            Pacer(config.pacing_rate_bps)
            if config.pacing_rate_bps is not None
            else None
        )

        # --- application callbacks ---------------------------------------
        self.on_established: Optional[Callable[["Connection"], None]] = None
        self.on_message: Optional[Callable[["Connection", Any], None]] = None
        self.on_closed: Optional[Callable[["Connection"], None]] = None
        #: Fires when the peer half-closes (FIN received while we are
        #: still open).  Servers typically respond by calling close().
        self.on_peer_close: Optional[Callable[["Connection"], None]] = None
        #: Fires with each transport-level RTT sample (ns).  This is the
        #: *ground truth* the paper's Fig 2 compares T_LB against.
        self.on_rtt_sample: Optional[Callable[["Connection", int], None]] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def established(self) -> bool:
        """True once the handshake completed."""
        return self.state in (_ESTABLISHED, _CLOSE_WAIT)

    @property
    def bytes_in_flight(self) -> int:
        """Unacknowledged bytes currently outstanding."""
        return self._snd_nxt - self._snd_una

    @property
    def unsent_bytes(self) -> int:
        """Bytes written by the app but not yet segmented onto the wire."""
        return self._stream_len - self._unsent_offset

    @property
    def srtt(self) -> Optional[float]:
        """Transport's own smoothed RTT estimate (ns)."""
        return self._rtt.srtt

    def open(self) -> None:
        """Client side: start the 3-way handshake (sends SYN)."""
        if self.state is not _CLOSED:
            raise TransportError("open() on %s connection" % self.state.value)
        if not self.is_client:
            raise TransportError("open() is client-side only")
        self.state = _SYN_SENT
        self._snd_nxt = self._iss + 1  # SYN consumes one sequence number
        self._transmit(
            flags=FLAG_SYN, seq=self._iss, payload_len=0, boundaries=None
        )
        self._arm_rto()

    def send_message(self, message: Any, size: int) -> None:
        """Queue an application message of ``size`` bytes for delivery.

        May be called before the handshake completes; data flows once
        established.  Raises after :meth:`close`.
        """
        if size <= 0:
            raise TransportError("message size must be positive, got %r" % size)
        if self._fin_queued:
            raise TransportError("send_message after close()")
        if self.state is _CLOSED and not self.is_client:
            raise TransportError("send on closed connection")
        self._stream_len += size
        self._pending_boundaries.append(
            MessageBoundary(end_offset=self._stream_len, message=message)
        )
        self.stats.messages_sent += 1
        state = self.state
        # A full window (a backlogged sender's usual state) sends nothing
        # until the next ACK: skip the call.
        if (
            state is _ESTABLISHED
            or state is _CLOSE_WAIT
        ) and self._snd_nxt - self._snd_una < self.config.window:
            self._try_send()

    def close(self) -> None:
        """Graceful close: FIN goes out after all queued data is sent."""
        if self._fin_queued or self.state is _CLOSED:
            return
        self._fin_queued = True
        if self.established or self.state is _SYN_SENT:
            self._try_send()

    def abort(self) -> None:
        """Send RST and drop all state immediately."""
        if self.state is _CLOSED:
            return
        self._transmit(
            flags=_RST_ACK,
            seq=self._snd_nxt,
            payload_len=0,
            boundaries=None,
        )
        self._teardown()

    # ------------------------------------------------------------------
    # Packet input (called by the Host demux)
    # ------------------------------------------------------------------

    def handle_packet(self, packet: int) -> None:
        """Process one inbound segment (a slab handle).

        The handle is ingested — fields copied to locals, handle freed —
        before the state machine runs, so nothing downstream can retain a
        recycled slot.
        """
        slab = self._slab
        flags = slab.flags[packet]
        seq = slab.seq[packet]
        ack = slab.ack[packet]
        payload_len = slab.payload_len[packet]
        boundaries = slab.boundaries[packet]
        slab.free(packet)
        stats = self.stats
        stats.segments_received += 1

        if flags & FLAG_RST:
            self._teardown()
            return

        if flags & FLAG_SYN:
            self._handle_syn(flags, seq, ack)
            return

        # A duplicate ACK (the peer's data segments carry one each)
        # changes nothing; no fast retransmit is modelled.
        if flags & FLAG_ACK and ack > self._snd_una:
            self._handle_ack(ack)

        if self.state is _CLOSED:
            return

        if payload_len > 0 or flags & FLAG_FIN:
            if self._irs is None:
                return  # data before SYN: drop
            rcv_nxt = self._rcv_nxt
            if seq == rcv_nxt:
                if flags & FLAG_FIN or self._ooo:
                    self._accept(flags, payload_len, boundaries)
                else:
                    # _accept's common case, inline: nothing buffered to
                    # make contiguous, no FIN to handle.
                    self._rcv_nxt = rcv_nxt + payload_len
                    stats.bytes_delivered += payload_len
                    if boundaries:
                        for boundary in boundaries:
                            stats.messages_delivered += 1
                            if self.on_message is not None:
                                self.on_message(self, boundary.message)
                # The FIN's ACK (if this segment carried one) goes out
                # here, after _accept may have torn the connection down;
                # a closed connection sends it at once, never arming the
                # policy's timer.
                on_data = self._ack_on_data
                if on_data is None or self.state is _CLOSED:
                    self._send_pure_ack()
                else:
                    on_data(True, self._send_pure_ack)
            else:
                if seq > rcv_nxt:
                    self._ooo[seq] = (flags, payload_len, boundaries)
                # Out of order, or entirely duplicate: re-ack so the
                # sender advances.
                self._ack_data(in_order=False)

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------

    def _handle_syn(self, flags: int, seq: int, ack: int) -> None:
        if not self.is_client and self.state is _CLOSED:
            # Passive open: record peer ISN, send SYN-ACK.
            self._irs = seq
            self._rcv_nxt = seq + 1
            self.state = _SYN_RCVD
            self._snd_nxt = self._iss + 1
            self._transmit(
                flags=_SYN_ACK,
                seq=self._iss,
                payload_len=0,
                boundaries=None,
            )
            self._arm_rto()
            return

        if self.is_client and self.state is _SYN_SENT:
            if flags & FLAG_ACK and ack == self._iss + 1:
                self._irs = seq
                self._rcv_nxt = seq + 1
                self._snd_una = self._iss + 1
                self._inflight.clear()
                self._rto_timer.stop()
                self.state = _ESTABLISHED
                # Complete the handshake.  If the app already queued data,
                # the first data segment carries this ACK implicitly;
                # otherwise send a pure ACK.
                if self._has_sendable_data():
                    self._notify_established()
                    self._try_send()
                else:
                    self._send_pure_ack()
                    self._notify_established()
                return

        if not self.is_client and self.state is _SYN_RCVD:
            # Duplicate SYN from the peer (our SYN-ACK was lost): resend.
            self._transmit(
                flags=_SYN_ACK,
                seq=self._iss,
                payload_len=0,
                boundaries=None,
            )

    def _notify_established(self) -> None:
        if self.on_established is not None:
            self.on_established(self)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def _accept(
        self,
        flags: int,
        payload_len: int,
        boundaries: Optional[List[MessageBoundary]],
    ) -> None:
        """Take the segment at ``_rcv_nxt``, then each buffered segment
        it makes contiguous.

        A segment's boundaries all end inside it, in stream order, so
        its messages complete the moment it is taken in order.
        """
        stats = self.stats
        ooo = self._ooo
        while True:
            self._rcv_nxt += payload_len
            stats.bytes_delivered += payload_len
            if flags & FLAG_FIN:
                self._rcv_nxt += 1  # FIN consumes a sequence number
                self._handle_peer_fin()
            if boundaries:
                for boundary in boundaries:
                    stats.messages_delivered += 1
                    if self.on_message is not None:
                        self.on_message(self, boundary.message)
            if not ooo:
                return
            segment = ooo.pop(self._rcv_nxt, None)
            if segment is None:
                return
            flags, payload_len, boundaries = segment

    def _handle_peer_fin(self) -> None:
        if self.state is _ESTABLISHED:
            self.state = _CLOSE_WAIT
            if self.on_peer_close is not None:
                self.on_peer_close(self)
        elif self.state is _FIN_WAIT:
            # Both sides closed.
            self._send_pure_ack()
            self._teardown()
            return
        # ACK the FIN promptly.
        self._ack_data(in_order=False)

    def _ack_data(self, in_order: bool) -> None:
        """Acknowledge a received segment as the ACK policy decides."""
        on_data = self._ack_on_data
        if on_data is None:
            self._send_pure_ack()
        else:
            on_data(in_order, self._send_pure_ack)

    # ------------------------------------------------------------------
    # ACK processing (sender side)
    # ------------------------------------------------------------------

    def _handle_ack(self, ack: int) -> None:
        if self.state is _SYN_RCVD and ack == self._iss + 1:
            self._snd_una = ack
            self._inflight.clear()
            self._rto_timer.stop()
            self.state = _ESTABLISHED
            self._notify_established()
            self._try_send()
            return

        self._snd_una = ack

        # Retire the acked prefix and sample RTT per Karn's rule (RFC
        # 6298 §3): an ACK that covers a retransmitted segment yields no
        # sample at all.  The segments it retires behind that one were
        # sent before the hole was filled, so their send-to-ACK times
        # hold the whole recovery and would drive the RTO to its cap.
        # Only the head of ``inflight`` is ever retransmitted, and an ACK
        # that retires anything retires the head, so the head decides.  An
        # on_rtt_sample callback may send: new segments join the tail,
        # past ``ack``, so the scan stops before them.
        now = self._sim._now
        rtt_estimator = self._rtt
        rtt_cb = self.on_rtt_sample
        inflight = self._inflight
        karn = bool(inflight) and inflight[0].retransmitted
        retired = 0
        for segment in inflight:
            if segment.end_seq > ack:
                break
            retired += 1
            if not karn:
                rtt = now - segment.sent_at
                rtt_estimator.sample(rtt)
                if rtt_cb is not None:
                    rtt_cb(self, rtt)
        del inflight[:retired]
        if karn or not retired:
            # New data was acked but not sampled; a sample has already
            # cleared the back-off.
            rtt_estimator.reset_backoff()

        timer = self._rto_timer
        # None when an on_rtt_sample callback tore the connection down.
        if timer is not None:
            if inflight:
                timer.start(rtt_estimator.rto)
            else:
                timer.stop()

        if self._fin_sent and ack >= self._snd_nxt:
            if self.state is _CLOSE_WAIT:
                self._teardown()
                return
            self.state = _FIN_WAIT

        # The window just opened: this is where ACK-clocked (causally
        # triggered) transmissions happen.
        self._try_send()

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------

    def _has_sendable_data(self) -> bool:
        return self._unsent_offset < self._stream_len or (
            self._fin_queued and not self._fin_sent
        )

    def _try_send(self) -> None:
        # Cheap no-op exits first: ACK-clocked wakeups with nothing
        # queued, or with the window still full and no FIN to send.
        if self._unsent_offset >= self._stream_len and (
            not self._fin_queued or self._fin_sent
        ):
            return
        window = self.config.window
        if self._snd_nxt - self._snd_una >= window and not self._fin_queued:
            return
        state = self.state
        if not (
            state is _ESTABLISHED
            or state is _CLOSE_WAIT
            or state is _FIN_WAIT
        ):
            return
        mss = self.config.mss
        iss1 = self._iss + 1
        pending = self._pending_boundaries
        pacer = self._pacer
        # Unpaced segments are built and sent right here (the loop of
        # the classic sender: while data is available and the window
        # has room), so one costs this frame, the slab's alloc and the
        # pipe's send.
        now = self._sim._now
        inflight = self._inflight
        on_piggyback = self._on_piggyback
        alloc = self._slab.alloc
        send = self._send
        stats = self.stats
        # Unpaced in an open state, the RTO timer runs exactly when
        # something is in flight: the first segment into an empty
        # ``inflight`` arms it.
        arm = not inflight
        while self._unsent_offset < self._stream_len:
            window_left = window - (self._snd_nxt - self._snd_una)
            if window_left <= 0:
                break
            start = self._unsent_offset
            chunk = self._stream_len - start
            if chunk > mss:
                chunk = mss
            if chunk > window_left:
                chunk = window_left
            end = start + chunk
            # Pending boundaries all lie past start, in stream order: the
            # segment carries the prefix that ends inside it.
            if pending and pending[0].end_offset <= end:
                carried = 1
                while carried < len(pending) and pending[carried].end_offset <= end:
                    carried += 1
                boundaries = pending[:carried]
                del pending[:carried]
            else:
                boundaries = None
            self._unsent_offset = end
            self._snd_nxt = iss1 + end
            seq = iss1 + start
            if pacer is not None:
                self._send_data_segment(seq, chunk, boundaries, _ACK_PSH)
                continue
            inflight.append(
                _SentSegment(seq, seq + chunk, chunk, _ACK_PSH, boundaries, now)
            )
            if on_piggyback is not None:
                on_piggyback()  # this segment carries our ACK
            stats.segments_sent += 1
            # ``boundaries`` is shared with the in-flight record: both
            # sides only read it.
            send(
                alloc(
                    self._src_i,
                    self._dst_i,
                    self._fid,
                    _ACK_PSH,
                    seq,
                    self._rcv_nxt,
                    chunk,
                    boundaries,
                    now,
                )
            )
            stats.bytes_sent += chunk
            if arm:
                self._rto_timer.start(self._rtt.rto)  # _arm_rto, inlined
                arm = False

        if (
            self._fin_queued
            and not self._fin_sent
            and self._unsent_offset == self._stream_len
        ):
            fin_seq = self._snd_nxt
            self._snd_nxt += 1
            self._fin_sent = True
            if self.state is _ESTABLISHED:
                self.state = _FIN_WAIT
            self._send_data_segment(fin_seq, 0, None, _FIN_ACK)

    def _send_data_segment(
        self,
        seq: int,
        payload_len: int,
        boundaries: Optional[List[MessageBoundary]],
        flags: int,
    ) -> None:
        """Send a paced data segment, or the FIN."""
        now = self._sim._now
        segment = _SentSegment(
            seq=seq,
            end_seq=seq + payload_len + (1 if flags & FLAG_FIN else 0),
            payload_len=payload_len,
            flags=flags,
            boundaries=boundaries,
            sent_at=now,
        )
        self._inflight.append(segment)
        self._ack_policy.on_piggyback()  # this segment carries our ACK

        if self._pacer is not None and payload_len > 0:
            send_at = self._pacer.allocate(now, payload_len)
            if send_at > now:
                self._sim.schedule_fire_at(
                    send_at, lambda s=segment: self._emit_segment(s)
                )
                return
        # Unpaced path: _emit_segment inlined (sent_at is already now).
        self._transmit(flags, seq, payload_len, boundaries)
        self.stats.bytes_sent += payload_len
        if not self._rto_timer.running:
            self._arm_rto()

    def _emit_segment(self, segment: _SentSegment) -> None:
        if self.state is _CLOSED:
            return  # torn down while this paced segment waited
        segment.sent_at = self._sim.now
        self._transmit(
            flags=segment.flags,
            seq=segment.seq,
            payload_len=segment.payload_len,
            boundaries=segment.boundaries,
        )
        self.stats.bytes_sent += segment.payload_len
        if not self._rto_timer.running:
            self._arm_rto()

    def _send_pure_ack(self) -> None:
        if self._irs is None:
            return
        stats = self.stats
        stats.pure_acks_sent += 1
        stats.segments_sent += 1
        self._send(
            self._slab.alloc(
                self._src_i,
                self._dst_i,
                self._fid,
                FLAG_ACK,
                self._snd_nxt,
                self._rcv_nxt,
                0,
                None,
                self._sim._now,
            )
        )

    def _transmit(
        self,
        flags: int,
        seq: int,
        payload_len: int,
        boundaries: Optional[List[MessageBoundary]],
        retransmit: bool = False,
    ) -> None:
        self.stats.segments_sent += 1
        # ``boundaries`` is shared with the in-flight record: both sides
        # only read it.
        self._send(
            self._slab.alloc(
                self._src_i,
                self._dst_i,
                self._fid,
                flags,
                seq,
                self._rcv_nxt,
                payload_len,
                boundaries,
                self._sim._now,
                retransmit,
            )
        )

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------

    def _arm_rto(self) -> None:
        self._rto_timer.start(self._rtt.rto)

    def _on_rto(self) -> None:
        if self.state is _CLOSED:
            return
        self._rtt.on_timeout()

        if self.state is _SYN_SENT:
            self._transmit(
                flags=FLAG_SYN, seq=self._iss, payload_len=0, boundaries=None
            )
            self._arm_rto()
            return
        if self.state is _SYN_RCVD:
            self._transmit(
                flags=_SYN_ACK,
                seq=self._iss,
                payload_len=0,
                boundaries=None,
            )
            self._arm_rto()
            return

        if not self._inflight:
            return
        # Go-back-N flavour: retransmit the earliest unacked segment.
        segment = self._inflight[0]
        segment.retransmitted = True
        segment.sent_at = self._sim.now
        self.stats.retransmissions += 1
        self._transmit(
            flags=segment.flags,
            seq=segment.seq,
            payload_len=segment.payload_len,
            boundaries=segment.boundaries,
            retransmit=True,
        )
        self._arm_rto()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _teardown(self) -> None:
        already_closed = self.state is _CLOSED
        self.state = _CLOSED
        timer = self._rto_timer
        if timer is not None:
            timer.stop()
            # The timer holds the bound _on_rto: drop it so the closed
            # connection is not part of a reference cycle.
            self._rto_timer = None
        # The ACK sender and the application callbacks stay: the FIN's
        # ACK is sent after this returns (see handle_packet).
        self._ack_policy.cancel()
        self._host.forget_connection(self)
        if not already_closed and self.on_closed is not None:
            self.on_closed(self)

    def __repr__(self) -> str:
        return "Connection(%s->%s, %s)" % (self.local, self.remote, self.state.value)
