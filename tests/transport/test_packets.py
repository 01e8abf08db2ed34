"""Unit + property tests for CLF packetization (fragmentation/reassembly)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PacketTooLargeError, TransportError
from repro.transport.media import CLF_MTU
from repro.transport.packets import (
    HEADER_BYTES,
    Reassembler,
    fragment,
    fragment_sg,
    max_payload,
    parse,
)


class TestFragment:
    def test_small_message_single_packet(self):
        packets = list(fragment(1, b"hello"))
        assert len(packets) == 1
        assert len(packets[0]) == HEADER_BYTES + 5

    def test_empty_message_still_one_packet(self):
        packets = list(fragment(1, b""))
        assert len(packets) == 1
        assert len(packets[0]) == HEADER_BYTES

    def test_fragment_count(self):
        chunk = max_payload()
        data = bytes(chunk * 2 + 1)
        assert len(list(fragment(1, data))) == 3

    def test_packets_respect_mtu(self):
        data = bytes(100_000)
        for packet in fragment(1, data):
            assert len(packet) <= CLF_MTU

    def test_tiny_mtu_rejected(self):
        with pytest.raises(ValueError):
            max_payload(HEADER_BYTES)

    def test_parse_roundtrip(self):
        packet = next(fragment(42, b"abc"))
        msgid, index, count, payload = parse(packet)
        assert (msgid, index, count, payload) == (42, 0, 1, b"abc")


class TestReassembler:
    def test_roundtrip_small(self):
        r = Reassembler()
        assert r.feed(next(fragment(1, b"x"))) == b"x"

    def test_roundtrip_multi_fragment(self):
        data = bytes(range(256)) * 200  # ~51 KB, several fragments
        r = Reassembler()
        out = None
        for packet in fragment(7, data):
            result = r.feed(packet)
            if result is not None:
                assert out is None
                out = result
        assert out == data
        assert not r.mid_message

    def test_sequential_messages(self):
        r = Reassembler()
        for msgid in range(5):
            data = bytes([msgid]) * (msgid * 9000 + 1)
            results = [r.feed(p) for p in fragment(msgid, data)]
            assert results[-1] == data
            assert all(x is None for x in results[:-1])

    def test_mid_message_flag(self):
        r = Reassembler()
        packets = list(fragment(1, bytes(20_000)))
        r.feed(packets[0])
        assert r.mid_message

    def test_interleaved_messages_detected(self):
        r = Reassembler()
        a = list(fragment(1, bytes(20_000)))
        b = list(fragment(2, bytes(20_000)))
        r.feed(a[0])
        with pytest.raises(TransportError, match="violation"):
            r.feed(b[0])

    def test_reordered_fragments_detected(self):
        r = Reassembler()
        packets = list(fragment(1, bytes(30_000)))
        r.feed(packets[0])
        with pytest.raises(TransportError, match="violation"):
            r.feed(packets[2])

    def test_message_starting_mid_stream_detected(self):
        r = Reassembler()
        packets = list(fragment(1, bytes(30_000)))
        with pytest.raises(TransportError, match="began at fragment"):
            r.feed(packets[1])

    def test_corrupted_payload_detected(self):
        packet = bytearray(next(fragment(1, b"hello world")))
        packet[-1] ^= 0xFF
        with pytest.raises(TransportError, match="CRC"):
            Reassembler().feed(bytes(packet))

    def test_corrupt_length_detected(self):
        packet = bytearray(next(fragment(1, b"hello")))
        packet[24] = 200  # claim a longer payload than present
        with pytest.raises(TransportError, match="truncated"):
            Reassembler().feed(bytes(packet))

    def test_runt_packet_detected(self):
        with pytest.raises(TransportError, match="runt"):
            Reassembler().feed(b"tiny")

    def test_oversize_packet_detected(self):
        with pytest.raises(PacketTooLargeError):
            Reassembler().feed(bytes(CLF_MTU + 1))


class TestResynchronisation:
    """After a violation the reassembler drops the partial message, raises
    once for it, and starts over at the next index-0 packet."""

    def test_a_corrupt_middle_fragment_is_one_loss(self):
        r = Reassembler()
        packets = list(fragment(1, bytes(30_000)))  # 4 fragments
        packets[1] = bytearray(packets[1])
        packets[1][-1] ^= 0xFF
        assert r.feed(packets[0]) is None
        with pytest.raises(TransportError, match="CRC"):
            r.feed(packets[1])
        assert [r.feed(p) for p in packets[2:]] == [None, None]  # no second raise
        assert not r.mid_message
        assert r.feed(next(fragment(2, b"next"))) == b"next"

    def test_the_packet_that_exposes_a_loss_is_left_for_the_next_message(self):
        r = Reassembler()
        lost = list(fragment(1, bytes(20_000)))
        (short,) = fragment_sg(2, [b"short"])
        r.feed(lost[0])
        with pytest.raises(TransportError, match="violation"):
            r.feed(short)
        assert r.unconsumed and not r.mid_message
        assert r.feed(short) == b"short"
        # late fragments of the lost message are dropped without a raise
        assert [r.feed(p) for p in lost[1:]] == [None, None]
        assert [r.feed(p) for p in fragment_sg(3, [bytes(20_000)])][-1] == bytes(20_000)

    def test_a_duplicated_first_fragment_costs_its_message_once(self):
        r = Reassembler()
        packets = list(fragment(1, bytes(20_000)))
        r.feed(packets[0])
        with pytest.raises(TransportError, match="violation"):
            r.feed(packets[0])
        assert not r.unconsumed
        assert [r.feed(p) for p in packets[1:]] == [None, None]
        assert r.feed(next(fragment(2, b"x"))) == b"x"


def _reassemble(packets, mtu=CLF_MTU):
    r = Reassembler(mtu)
    results = [r.feed(packet) for packet in packets]
    assert all(result is None for result in results[:-1])
    assert not r.mid_message
    return results[-1]


class TestSinglePacketPath:
    """The size switch: one packet is one join and comes back as a view of
    that packet; one byte more takes the fragmenting path.  Same bytes, same
    checks, either side of the boundary."""

    @pytest.mark.parametrize("mtu", [CLF_MTU, 256])
    def test_both_sides_of_the_boundary_reassemble_identically(self, mtu):
        chunk = max_payload(mtu)
        body = bytes(i * 7 % 251 for i in range(chunk + 1))
        for size, npackets in ((chunk, 1), (chunk + 1, 2)):
            # the same message as one segment and as an uneven gather list
            whole = fragment_sg(9, [body[:size]], mtu)
            parts = fragment_sg(
                9, [body[:3], memoryview(body)[3:size - 5], body[size - 5:size]], mtu
            )
            assert [bytes(p) for p in whole] == [bytes(p) for p in parts]
            assert len(whole) == npackets
            assert all(len(p) <= mtu for p in whole)
            assert _reassemble(whole, mtu) == body[:size]

    def test_single_packet_message_is_a_view_of_its_packet(self):
        (packet,) = fragment_sg(3, [b"head", b"tail"])
        out = Reassembler().feed(packet)
        assert isinstance(out, memoryview) and out.obj is packet
        assert out == b"headtail"
        # a fragmented message is joined into bytes of its own
        assert isinstance(_reassemble(fragment_sg(4, [bytes(20_000)])), bytes)

    def test_zero_length_message_is_one_header_only_packet(self):
        for segments in ([], [b""], [b"", b""]):
            (packet,) = fragment_sg(5, segments)
            assert len(packet) == HEADER_BYTES
            assert parse(packet) == (5, 0, 1, b"")
            assert Reassembler().feed(packet) == b""

    def test_flipped_bit_in_single_packet_message_fails_crc(self):
        (packet,) = fragment_sg(1, [b"payload-free request"])
        for position in (HEADER_BYTES, len(packet) - 1):
            damaged = bytearray(packet)
            damaged[position] ^= 0x01
            with pytest.raises(TransportError, match="CRC"):
                Reassembler().feed(damaged)

    def test_single_packet_message_inside_a_fragmented_one_is_a_violation(self):
        r = Reassembler()
        long = fragment_sg(1, [bytes(20_000)])
        (short,) = fragment_sg(2, [b"interloper"])
        assert r.feed(long[0]) is None
        with pytest.raises(TransportError, match="violation"):
            r.feed(short)

    def test_last_msgid_tracks_single_packet_messages(self):
        r = Reassembler()
        r.feed(fragment_sg(41, [b"a"])[0])
        assert r.last_msgid == 41
        for packet in fragment_sg(42, [bytes(20_000)]):
            r.feed(packet)
        assert r.last_msgid == 42


@given(st.binary(max_size=60_000), st.integers(0, 2**40))
def test_roundtrip_property(data, msgid):
    """Any message fragments and reassembles byte-identically."""
    r = Reassembler()
    out = None
    for packet in fragment(msgid, data):
        result = r.feed(packet)
        if result is not None:
            out = result
    assert out == data


@given(st.binary(min_size=1, max_size=5000), st.integers(64, 512))
def test_roundtrip_small_mtu(data, mtu):
    """Fragmentation works for any MTU larger than the header."""
    r = Reassembler(mtu)
    out = None
    for packet in fragment(1, data, mtu):
        assert len(packet) <= mtu
        result = r.feed(packet)
        if result is not None:
            out = result
    assert out == data
