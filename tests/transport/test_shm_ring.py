"""Unit tests for the cross-process SPSC shared-memory rings."""

import threading

import pytest

from repro.errors import TransportError
from repro.transport.shm_ring import RING_HEADER_BYTES, ShmRing


@pytest.fixture
def ring():
    r = ShmRing.create("stm-test-ring", capacity=256)
    yield r
    r.close()
    r.unlink()


class TestBasics:
    def test_create_sizes(self, ring):
        assert ring.capacity == 256
        assert ring.free_bytes() == 256

    def test_write_read_roundtrip(self, ring):
        ring.write([b"hello ", b"world"], 11)
        assert ring.free_bytes() == 256 - 11
        assert bytes(ring.read(11)) == b"hello world"
        assert ring.free_bytes() == 256

    def test_gather_from_memoryviews(self, ring):
        payload = bytes(range(64))
        ring.write([memoryview(payload)[:32], memoryview(payload)[32:]], 64)
        assert bytes(ring.read(64)) == payload

    def test_wraparound(self, ring):
        # Fill-drain repeatedly so writes and reads straddle the ring end.
        for i in range(10):
            chunk = bytes([i]) * 100
            ring.write([chunk], 100)
            assert bytes(ring.read(100)) == chunk

    def test_segments_of_any_buffer_type_across_the_ring_end(self, ring):
        """bytes and flat byte views are assigned as they are, everything
        else through a cast; a segment that straddles the end of the ring is
        split, whichever kind it is."""
        import array

        words = array.array("i", range(10))  # 40 bytes, format "i"
        segments = [
            b"\x01" * 40, bytearray(b"\x02" * 40), memoryview(b"\x03" * 40), words,
            memoryview(words),
        ]
        expected = b"".join(bytes(memoryview(s).cast("B")) for s in segments)
        assert len(expected) == 200
        # from each start the end of the ring falls inside a different segment
        for start in (0, 70, 110, 150, 190, 230):
            if start:
                ring.write([bytes(start)], start)
                ring.read(start)
            ring.write(segments, len(expected))
            assert bytes(ring.read(len(expected))) == expected
            rest = (256 - (start + len(expected)) % 256) % 256
            if rest:  # realign the ring for the next round
                ring.write([bytes(rest)], rest)
                ring.read(rest)

    def test_attach_sees_creator_writes(self, ring):
        other = ShmRing.attach("stm-test-ring")
        try:
            ring.write([b"xyz"], 3)
            assert bytes(other.read(3)) == b"xyz"
        finally:
            other.close()

    def test_zero_invalid_capacity(self):
        with pytest.raises(ValueError):
            ShmRing.create("stm-test-bad", capacity=0)


class TestLimits:
    def test_over_capacity_message_rejected(self, ring):
        with pytest.raises(TransportError, match="exceeds ring capacity"):
            ring.write([bytes(300)], 300)

    def test_full_ring_times_out(self, ring):
        ring.write([bytes(200)], 200)
        with pytest.raises(TransportError, match="full"):
            ring.write([bytes(100)], 100, timeout=0.05)

    def test_blocked_writer_resumes_when_drained(self, ring):
        ring.write([bytes(200)], 200)
        drained = threading.Event()

        def drain():
            drained.wait(5.0)
            ring.read(200)

        t = threading.Thread(target=drain)
        t.start()
        drained.set()
        ring.write([b"a" * 100], 100, timeout=5.0)  # must not time out
        t.join(5.0)
        assert bytes(ring.read(100)) == b"a" * 100

    def test_read_claim_beyond_capacity_rejected(self, ring):
        with pytest.raises(TransportError, match="capacity"):
            ring.read(512)


class TestClose:
    def test_ops_after_close_raise_transport_error(self, ring):
        other = ShmRing.attach("stm-test-ring")
        other.close()
        with pytest.raises(TransportError, match="closed"):
            other.read(1)
        with pytest.raises(TransportError, match="closed"):
            other.write([b"x"], 1)
        with pytest.raises(TransportError, match="closed"):
            other.free_bytes()

    def test_close_is_idempotent(self):
        r = ShmRing.create("stm-test-idem", capacity=64)
        r.close()
        r.close()
        r.unlink()

    def test_header_reserved(self):
        r = ShmRing.create("stm-test-hdr", capacity=64)
        try:
            assert r._shm.size == RING_HEADER_BYTES + 64
        finally:
            r.close()
            r.unlink()
