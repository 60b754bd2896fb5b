"""The packet model: slab storage and its snapshot view.

Packets are TCP-segment-shaped: a flow 4-tuple, flags, 32-bit-style
sequence/ack numbers (we use unbounded ints — wraparound adds nothing to
the reproduction), a payload length, and *message boundaries*.

Message boundaries are how the byte-stream transport carries
application-message framing without simulating actual bytes: a boundary
``(end_offset, message)`` rides on the segment that contains the last
byte of the message, and the receiver delivers ``message`` to the
application once its cumulative in-order offset passes ``end_offset``.
Retransmissions re-carry boundaries; receivers de-duplicate by offset.

* :class:`PacketSlab` — the wire format: every field lives in a flat
  parallel column and a packet is just an integer handle into them.  A
  free list recycles handles deterministically (LIFO), endpoints and
  flow keys are interned once per connection, and packet ids count up
  per slab, so two identical runs in one process number their packets
  identically.
* :class:`Packet` — a plain object snapshot.
  :meth:`PacketSlab.materialize` produces one for cold paths (packet
  traces, reports, campaign audits) that outlive the handle.

Flags are plain ints on the hot path — module-level ``FLAG_*`` constants
mirror the :class:`TcpFlags` enum, whose members compare and combine
equal to them (``TcpFlags.SYN == FLAG_SYN``).  The enum stays for
readable construction and API compatibility; per-packet flag tests use
int ``&`` directly, skipping enum ``__and__`` machinery.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, NamedTuple, Optional

from repro.net.addr import Endpoint, FlowKey

#: Bytes of header overhead charged to every packet (Ethernet+IP+TCP-ish).
HEADER_BYTES = 66

#: Int flag bits (hot-path mirrors of :class:`TcpFlags`).
FLAG_SYN = 1
FLAG_ACK = 2
FLAG_FIN = 4
FLAG_PSH = 8
FLAG_RST = 16
_SYN_OR_FIN = FLAG_SYN | FLAG_FIN


class TcpFlags(enum.IntFlag):
    """TCP-style control flags."""

    NONE = 0
    SYN = 1
    ACK = 2
    FIN = 4
    PSH = 8
    RST = 16


_FLAG_NAMES = (
    (FLAG_SYN, "SYN"),
    (FLAG_ACK, "ACK"),
    (FLAG_FIN, "FIN"),
    (FLAG_PSH, "PSH"),
    (FLAG_RST, "RST"),
)


def describe_flags(flags: int) -> str:
    """``SYN|ACK``-style rendering of an int flag word."""
    names = [name for bit, name in _FLAG_NAMES if flags & bit]
    return "|".join(names) if names else "-"


class MessageBoundary(NamedTuple):
    """End offset of an application message within the byte stream."""

    end_offset: int
    message: Any


class Packet:
    """A simulated TCP segment (snapshot view of a slab record).

    ``size_bytes`` (header + payload) is what links charge for
    serialization.  ``sent_at`` is stamped by the sender for tracing and
    ground-truth bookkeeping; the measurement plane at the LB must *not*
    read it (it only uses arrival times at the LB, as the paper requires).

    ``flags`` is stored as a plain int (``TcpFlags`` values coerce on
    construction), so flag predicates cost one int ``&``.
    """

    __slots__ = (
        "src",
        "dst",
        "flags",
        "seq",
        "ack",
        "payload_len",
        "boundaries",
        "sent_at",
        "packet_id",
        "retransmit",
    )

    def __init__(
        self,
        src: Endpoint,
        dst: Endpoint,
        flags: int = 0,
        seq: int = 0,
        ack: int = 0,
        payload_len: int = 0,
        boundaries: Optional[List[MessageBoundary]] = None,
        sent_at: int = 0,
        packet_id: int = 0,
        retransmit: bool = False,
    ):
        self.src = src
        self.dst = dst
        self.flags = flags if type(flags) is int else int(flags)
        self.seq = seq
        self.ack = ack
        self.payload_len = payload_len
        self.boundaries = [] if boundaries is None else boundaries
        self.sent_at = sent_at
        self.packet_id = packet_id
        self.retransmit = retransmit

    @property
    def size_bytes(self) -> int:
        """Wire size charged to links."""
        return HEADER_BYTES + self.payload_len

    @property
    def flow(self) -> FlowKey:
        """Directed 4-tuple of this packet."""
        return FlowKey.for_packet(self.src, self.dst)

    @property
    def is_syn(self) -> bool:
        """True for SYN (including SYN-ACK) segments."""
        return bool(self.flags & FLAG_SYN)

    @property
    def is_ack(self) -> bool:
        """True when the ACK flag is set."""
        return bool(self.flags & FLAG_ACK)

    @property
    def is_fin(self) -> bool:
        """True for FIN segments."""
        return bool(self.flags & FLAG_FIN)

    @property
    def is_rst(self) -> bool:
        """True for RST segments."""
        return bool(self.flags & FLAG_RST)

    @property
    def end_seq(self) -> int:
        """Sequence number just past this segment's payload (SYN/FIN
        consume one sequence number, as in TCP)."""
        length = self.payload_len
        if self.flags & _SYN_OR_FIN:
            length += 1
        return self.seq + length

    def __repr__(self) -> str:
        return (
            "Packet(src=%r, dst=%r, flags=%r, seq=%r, ack=%r, payload_len=%r, "
            "boundaries=%r, sent_at=%r, packet_id=%r, retransmit=%r)"
            % (
                self.src,
                self.dst,
                self.flags,
                self.seq,
                self.ack,
                self.payload_len,
                self.boundaries,
                self.sent_at,
                self.packet_id,
                self.retransmit,
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.flags == other.flags
            and self.seq == other.seq
            and self.ack == other.ack
            and self.payload_len == other.payload_len
            and self.boundaries == other.boundaries
            and self.sent_at == other.sent_at
            and self.packet_id == other.packet_id
            and self.retransmit == other.retransmit
        )

    def describe(self) -> str:
        """Terse human-readable summary for traces."""
        return "#%d %s %s seq=%d ack=%d len=%d" % (
            self.packet_id,
            self.flow,
            describe_flags(self.flags),
            self.seq,
            self.ack,
            self.payload_len,
        )


class PacketSlab:
    """Array-structured packet storage addressed by integer handle.

    Every packet field is a flat parallel list; ``slab.seq[h]`` is the
    sequence number of handle ``h``.  Handles are recycled through a
    LIFO free list, so allocation order — and therefore handle values —
    is deterministic for a deterministic simulation.

    Endpoints and flow keys are *interned*: connections resolve their
    ``Endpoint``/:class:`FlowKey` objects to small ints once, and every
    packet carries ``src_i``/``dst_i``/``fid`` ints instead of object
    references.  ``flows[fid]`` is the real interned :class:`FlowKey`
    (a list index, no allocation), which is what routing policies hash.

    Ownership discipline: whoever holds a handle owns it.  ``Pipe.send``
    takes ownership (drops free the handle); delivery transfers it to
    the receiving node; a terminal host frees it after ingesting the
    fields.  Anything that must outlive the handle (trace records, out-
    of-order buffers) copies the fields — column cells are *replaced*,
    never mutated, on realloc, so a grabbed ``boundaries`` list ref
    stays valid after ``free``.
    """

    __slots__ = (
        "flags",
        "seq",
        "ack",
        "payload_len",
        "boundaries",
        "sent_at",
        "src_i",
        "dst_i",
        "fid",
        "packet_id",
        "retransmit",
        "_free",
        "free",
        "_last_id",
        "_endpoints",
        "_ep_index",
        "ep_host",
        "flows",
        "_flow_index",
    )

    def __init__(self) -> None:
        self.flags: List[int] = []
        self.seq: List[int] = []
        self.ack: List[int] = []
        self.payload_len: List[int] = []
        self.boundaries: List[Optional[List[MessageBoundary]]] = []
        self.sent_at: List[int] = []
        self.src_i: List[int] = []
        self.dst_i: List[int] = []
        self.fid: List[int] = []
        self.packet_id: List[int] = []
        self.retransmit: List[bool] = []
        self._free: List[int] = []
        #: ``free(handle)`` recycles ``handle``; the owner calls it exactly
        #: once.  The free list's own append, bound once: a terminal host
        #: frees a handle per delivery.
        self.free: Callable[[int], None] = self._free.append
        #: Id of the most recent allocation (ids start at 1 per slab).
        self._last_id = 0
        self._endpoints: List[Endpoint] = []
        self._ep_index: dict = {}
        #: Host name per endpoint index (routing reads this per packet).
        self.ep_host: List[str] = []
        #: FlowKey per interned flow id: ``flows[slab.fid[h]]``.
        self.flows: List[FlowKey] = []
        self._flow_index: dict = {}

    # -- interning ------------------------------------------------------

    def intern_endpoint(self, endpoint: Endpoint) -> int:
        """Index of ``endpoint``, interning it on first sight."""
        idx = self._ep_index.get(endpoint)
        if idx is None:
            idx = len(self._endpoints)
            self._ep_index[endpoint] = idx
            self._endpoints.append(endpoint)
            self.ep_host.append(endpoint.host)
        return idx

    def endpoint(self, index: int) -> Endpoint:
        """The interned :class:`Endpoint` at ``index``."""
        return self._endpoints[index]

    def intern_flow(self, src_i: int, dst_i: int) -> int:
        """Flow id of the directed pair, interning its FlowKey once."""
        key = (src_i, dst_i)
        fid = self._flow_index.get(key)
        if fid is None:
            fid = len(self.flows)
            self._flow_index[key] = fid
            self.flows.append(
                FlowKey.for_packet(self._endpoints[src_i], self._endpoints[dst_i])
            )
        return fid

    # -- allocation -----------------------------------------------------

    def alloc(
        self,
        src_i: int,
        dst_i: int,
        fid: int,
        flags: int,
        seq: int,
        ack: int,
        payload_len: int,
        boundaries: Optional[List[MessageBoundary]],
        sent_at: int,
        retransmit: bool = False,
    ) -> int:
        """Allocate a packet record; returns its handle."""
        packet_id = self._last_id + 1
        self._last_id = packet_id
        free = self._free
        if free:
            h = free.pop()
            self.flags[h] = flags
            self.seq[h] = seq
            self.ack[h] = ack
            self.payload_len[h] = payload_len
            self.boundaries[h] = boundaries
            self.sent_at[h] = sent_at
            self.src_i[h] = src_i
            self.dst_i[h] = dst_i
            self.fid[h] = fid
            self.packet_id[h] = packet_id
            self.retransmit[h] = retransmit
        else:
            h = len(self.flags)
            self.flags.append(flags)
            self.seq.append(seq)
            self.ack.append(ack)
            self.payload_len.append(payload_len)
            self.boundaries.append(boundaries)
            self.sent_at.append(sent_at)
            self.src_i.append(src_i)
            self.dst_i.append(dst_i)
            self.fid.append(fid)
            self.packet_id.append(packet_id)
            self.retransmit.append(retransmit)
        return h

    # -- views ----------------------------------------------------------

    def materialize(self, handle: int) -> Packet:
        """Independent :class:`Packet` snapshot of ``handle``.

        For cold paths that retain packets past delivery (packet traces,
        campaign evidence, ``describe`` rendering).  The snapshot shares
        nothing mutable with the slot, so it survives handle recycling.
        """
        boundaries = self.boundaries[handle]
        return Packet(
            src=self._endpoints[self.src_i[handle]],
            dst=self._endpoints[self.dst_i[handle]],
            flags=self.flags[handle],
            seq=self.seq[handle],
            ack=self.ack[handle],
            payload_len=self.payload_len[handle],
            boundaries=list(boundaries) if boundaries else [],
            sent_at=self.sent_at[handle],
            packet_id=self.packet_id[handle],
            retransmit=bool(self.retransmit[handle]),
        )

    # -- accounting -----------------------------------------------------

    @property
    def capacity(self) -> int:
        """Slots ever allocated (live + free)."""
        return len(self.flags)

    @property
    def live(self) -> int:
        """Handles currently allocated (leak detector: 0 after a run
        fully drains)."""
        return len(self.flags) - len(self._free)
