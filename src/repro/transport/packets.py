"""CLF packetization: fragmentation and reassembly at the 8152-byte MTU.

CLF is a *packet* transport (paper §8.1): messages larger than the MTU are
split into packets and reassembled at the receiver.  Because CLF guarantees
reliable ordered point-to-point delivery, reassembly needs no sequence
numbers for correctness — but we carry them anyway and verify them, turning
any ordering bug in a transport implementation into a loud error instead of
silent data corruption.

Packet layout (little-endian)::

    0       8       16      24      28      32
    +-------+-------+-------+-------+-------+----------------+
    | msgid | index | count | paylen| crc32 | payload ...    |
    +-------+-------+-------+-------+-------+----------------+

``msgid`` is unique per (sender, message); ``index``/``count`` place the
fragment; ``paylen`` is the fragment payload length; ``crc32`` covers the
payload.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator

from repro.errors import PacketTooLargeError, TransportError
from repro.transport.media import CLF_MTU

__all__ = ["HEADER_BYTES", "max_payload", "fragment", "fragment_sg", "Reassembler"]

_HEADER = struct.Struct("<QQQII")
#: bytes of header per packet.
HEADER_BYTES: int = _HEADER.size  # 8+8+8+4+4 = 32
_HEADER_PAD = bytes(HEADER_BYTES)  # joined first, then packed over in place
_NO_BYTES = bytearray()


def max_payload(mtu: int = CLF_MTU) -> int:
    """Largest payload that fits one packet under the given MTU."""
    if mtu <= HEADER_BYTES:
        raise ValueError(f"mtu {mtu} leaves no room for the {HEADER_BYTES}-byte header")
    return mtu - HEADER_BYTES


def fragment(msgid: int, data, mtu: int = CLF_MTU) -> Iterator[bytearray]:
    """Split one contiguous ``data`` into wire packets of at most ``mtu`` bytes.

    A zero-length message still produces one (header-only) packet so the
    receiver observes it.
    """
    yield from fragment_sg(msgid, (data,), mtu)


def fragment_sg(msgid: int, segments, mtu: int = CLF_MTU) -> list[bytearray]:
    """Packetize a scatter/gather sequence of bytes-like segments.

    The message on the wire is the concatenation of ``segments``, but the
    segments are gathered *directly into the packets*: each message byte is
    copied exactly once (segment -> packet), with no intermediate joined
    buffer — this is what makes out-of-band payload framing one-memcpy on
    the send side.  Packets come out as bytearrays; receivers treat them as
    read-only.

    A message that fits one packet — every payload-free RPC and reply — is
    one header plus one join: no per-fragment bookkeeping.  The only thing
    that picks the path is the message's own size against ``mtu``.
    """
    chunk = max_payload(mtu)
    total = 0
    for seg in segments:
        total += len(seg) if seg.__class__ is bytes else memoryview(seg).nbytes
    if total <= chunk:
        packet = _NO_BYTES.join((_HEADER_PAD, *segments))
        crc = zlib.crc32(memoryview(packet)[HEADER_BYTES:])
        _HEADER.pack_into(packet, 0, msgid, 0, 1, total, crc)
        return [packet]
    views = [memoryview(seg).cast("B") for seg in segments]
    count = -(-total // chunk)  # ceil division
    packets = []
    seg_i = 0
    offset = 0
    for index in range(count):
        paylen = min(chunk, total - index * chunk)
        packet = bytearray(HEADER_BYTES + paylen)
        pos = HEADER_BYTES
        while pos < HEADER_BYTES + paylen:
            view = views[seg_i]
            take = min(HEADER_BYTES + paylen - pos, view.nbytes - offset)
            packet[pos:pos + take] = view[offset:offset + take]
            pos += take
            offset += take
            if offset == view.nbytes:
                seg_i += 1
                offset = 0
        crc = zlib.crc32(memoryview(packet)[HEADER_BYTES:])
        _HEADER.pack_into(packet, 0, msgid, index, count, paylen, crc)
        packets.append(packet)
    return packets


def parse(packet, mtu: int = CLF_MTU) -> tuple[int, int, int, memoryview]:
    """Parse one wire packet -> (msgid, index, count, payload).

    The payload comes back as a memoryview into ``packet`` (zero-copy); the
    reassembler's join is the only receive-side copy.
    """
    if len(packet) > mtu:
        raise PacketTooLargeError(
            f"packet of {len(packet)} bytes exceeds MTU {mtu}"
        )
    if len(packet) < HEADER_BYTES:
        raise TransportError(f"runt packet of {len(packet)} bytes")
    msgid, index, count, paylen, crc = _HEADER.unpack_from(packet)
    payload = memoryview(packet)[HEADER_BYTES : HEADER_BYTES + paylen]
    if payload.nbytes != paylen:
        raise TransportError(
            f"truncated packet: header claims {paylen} payload bytes, "
            f"got {payload.nbytes}"
        )
    if zlib.crc32(payload) != crc:
        raise TransportError(f"payload CRC mismatch in message {msgid} packet {index}")
    return msgid, index, count, payload


class Reassembler:
    """Rebuild messages from a reliable ordered packet stream.

    One instance per (remote sender) direction.  Because the stream is
    ordered, fragments of a message arrive contiguously and in order; the
    reassembler enforces this and raises :class:`TransportError` on any
    violation — one raise per message lost.  It then resynchronises: the
    partial message is dropped, the lost message's remaining fragments are
    discarded without another raise, and the next index-0 packet begins the
    next message.  When that index-0 packet is the one that exposed the loss
    it is left unconsumed (:attr:`unconsumed`), and the caller feeds it again.
    """

    def __init__(self, mtu: int = CLF_MTU):
        self.mtu = mtu
        self._msgid: int | None = None
        self._expect_index = 0
        self._count = 0
        self._parts: list[memoryview] = []
        #: msgid of a lost message whose later fragments are dropped silently.
        self._discard: int | None = None
        #: True after a raise whose packet was not consumed (see the class).
        self.unconsumed = False
        #: msgid of the most recently *completed* message (None before the
        #: first one).  The sender stamps the same id on its trace instant,
        #: so this is what lets the tracer pair a send with its receive.
        self.last_msgid: int | None = None

    def feed(self, packet) -> bytes | memoryview | None:
        """Consume one packet; return the completed message or None.

        A single-packet message comes back as a view of ``packet`` itself
        (no join, no copy); a fragmented one as the joined bytes.
        """
        try:
            msgid, index, count, payload = parse(packet, self.mtu)
        except TransportError:
            # The header is not covered by the CRC, so a damaged payload
            # still names the message whose remaining fragments to drop.
            lost = self._msgid
            if lost is None and len(packet) >= HEADER_BYTES:
                lost = _HEADER.unpack_from(packet)[0]
            self._lose(lost)
            raise
        if self._msgid is None:
            if index == 0:
                if count == 1:
                    self.last_msgid = msgid
                    return payload
            elif msgid == self._discard:
                return None  # the rest of a message already counted lost
            else:
                self._lose(msgid)
                raise TransportError(
                    f"message {msgid} began at fragment {index}, expected 0 "
                    f"(ordering violation)"
                )
            self._msgid, self._count = msgid, count
            self._parts = []
            self._expect_index = 0
        if msgid != self._msgid or index != self._expect_index or count != self._count:
            expected = (self._msgid, self._expect_index, self._count)
            self._lose(self._msgid)
            self.unconsumed = index == 0 and msgid != expected[0]
            raise TransportError(
                f"fragment stream violation: got (msg={msgid}, idx={index}, "
                f"cnt={count}), expected (msg={expected[0]}, "
                f"idx={expected[1]}, cnt={expected[2]})"
            )
        self._parts.append(payload)
        self._expect_index += 1
        if self._expect_index == self._count:
            data = b"".join(self._parts)
            self.last_msgid = msgid
            self._msgid = None
            self._parts = []
            return data
        return None

    def _lose(self, msgid: int | None) -> None:
        """Drop the partial message; discard what is left of ``msgid``."""
        self._msgid = None
        self._parts = []
        self._discard = msgid
        self.unconsumed = False

    @property
    def mid_message(self) -> bool:
        """True while a partially received message is pending."""
        return self._msgid is not None
