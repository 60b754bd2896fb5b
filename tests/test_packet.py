"""Packet model."""

from repro.net.addr import Endpoint
from repro.net.packet import (
    HEADER_BYTES,
    MessageBoundary,
    Packet,
    PacketSlab,
    TcpFlags,
)

from tests.conftest import make_packet as make_handle


def make_packet(**kwargs):
    defaults = dict(src=Endpoint("c", 1), dst=Endpoint("s", 2))
    defaults.update(kwargs)
    return Packet(**defaults)


class TestFlags:
    def test_default_no_flags(self):
        pkt = make_packet()
        assert not pkt.is_syn and not pkt.is_ack and not pkt.is_fin

    def test_syn_ack_combination(self):
        pkt = make_packet(flags=TcpFlags.SYN | TcpFlags.ACK)
        assert pkt.is_syn and pkt.is_ack

    def test_rst(self):
        assert make_packet(flags=TcpFlags.RST).is_rst


class TestSizes:
    def test_empty_packet_is_header_only(self):
        assert make_packet().size_bytes == HEADER_BYTES

    def test_payload_adds(self):
        assert make_packet(payload_len=100).size_bytes == HEADER_BYTES + 100


class TestSequenceSpace:
    def test_plain_data_end_seq(self):
        pkt = make_packet(seq=100, payload_len=50)
        assert pkt.end_seq == 150

    def test_syn_consumes_sequence_number(self):
        pkt = make_packet(seq=0, flags=TcpFlags.SYN)
        assert pkt.end_seq == 1

    def test_fin_consumes_sequence_number(self):
        pkt = make_packet(seq=10, payload_len=5, flags=TcpFlags.FIN)
        assert pkt.end_seq == 16


class TestIdentityAndFlow:
    def test_packet_ids_unique(self, slab):
        first, second = make_handle(slab), make_handle(slab)
        assert slab.packet_id[first] != slab.packet_id[second]

    def test_packet_ids_scoped_to_slab(self):
        """Ids count per slab, so identical runs number packets alike."""
        ids = []
        for _ in range(2):
            slab = PacketSlab()
            handles = [make_handle(slab) for _ in range(3)]
            ids.append([slab.packet_id[h] for h in handles])
        assert ids == [[1, 2, 3], [1, 2, 3]]

    def test_hand_built_packet_id_is_explicit(self):
        assert make_packet().packet_id == 0
        assert make_packet(packet_id=42).packet_id == 42

    def test_materialize_keeps_the_slab_id(self, slab):
        handle = make_handle(slab, seq=7)
        snapshot = slab.materialize(handle)
        assert snapshot.packet_id == slab.packet_id[handle]
        assert snapshot.seq == 7

    def test_flow_matches_endpoints(self):
        pkt = make_packet()
        assert pkt.flow.src == pkt.src
        assert pkt.flow.dst == pkt.dst

    def test_describe_mentions_flags_and_flow(self):
        pkt = make_packet(flags=TcpFlags.SYN | TcpFlags.ACK, seq=5)
        text = pkt.describe()
        assert "SYN" in text and "ACK" in text
        assert "c:1->s:2" in text


class TestBoundaries:
    def test_boundaries_travel_with_packet(self):
        boundary = MessageBoundary(end_offset=100, message="msg")
        pkt = make_packet(boundaries=[boundary])
        assert pkt.boundaries[0].message == "msg"
        assert pkt.boundaries[0].end_offset == 100
