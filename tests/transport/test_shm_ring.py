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
        # One message is always held, so the ring never empties and never
        # restarts: the writes run on past its end and wrap, again and again.
        held = b"\xff" * 100
        ring.write([held], 100)
        for i in range(10):
            chunk = bytes([i]) * 100
            ring.write([chunk], 100)
            assert bytes(ring.read(100)) == held
            held = chunk
        assert bytes(ring.read(100)) == held
        assert ring._origin == 0  # 1 100 bytes through 256 on one origin

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
        # from each start the end of the ring falls inside a different
        # segment; a one-byte message still held at start - 1 keeps the ring
        # from restarting at 0 under the segments
        for start in (0, 70, 110, 150, 190, 230):
            if start:
                ring.write([bytes(start - 1)], start - 1)
                ring.write([b"h"], 1)
                ring.read(start - 1)
            ring.write(segments, len(expected))
            if start:
                assert bytes(ring.read(1)) == b"h"
            assert bytes(ring.read(len(expected))) == expected

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

    def test_read_claim_beyond_what_was_published_rejected(self, ring):
        """A forged doorbell length gets an error, not stale ring bytes."""
        ring.write([b"a" * 100], 100)
        assert bytes(ring.read(100)) == b"a" * 100
        ring.write([b"b" * 10], 10)
        with pytest.raises(TransportError, match="published 10 B"):
            ring.read(100)  # the old message's bytes still lie behind it
        assert bytes(ring.read(10)) == b"b" * 10  # nothing was consumed
        with pytest.raises(TransportError, match="published 0 B"):
            ring.read(1)


class TestRestart:
    """An empty ring starts its next message at data offset 0."""

    def test_one_frame_at_a_time_reuses_the_first_frame_s_bytes(self):
        nbytes = 230_400  # one kiosk frame, the spine's item
        r = ShmRing.create("stm-test-restart")  # the default 4 MB ring
        try:
            for i in range(1000):
                frame = bytes([1 + i % 255]) * nbytes
                r.write([frame], nbytes)
                assert bytes(r.read(nbytes)) == frame
            data = r._shm.buf[RING_HEADER_BYTES:RING_HEADER_BYTES + r.capacity]
            untouched = data[nbytes:].tobytes()
            data.release()
            assert untouched == bytes(r.capacity - nbytes)  # never written
        finally:
            r.close()
            r.unlink()

    def test_free_bytes_stay_exact_after_a_restart(self, ring):
        ring.write([bytes(100)], 100)
        ring.read(100)
        assert ring.free_bytes() == 256
        ring.write([b"x" * 200], 200)  # restarted at 0: fits without a wrap
        assert ring.free_bytes() == 56
        ring.write([b"y" * 56], 56)  # held data in the way: no restart
        assert ring.free_bytes() == 0
        assert bytes(ring.read(200)) == b"x" * 200
        assert ring.free_bytes() == 200
        assert bytes(ring.read(56)) == b"y" * 56
        assert ring.free_bytes() == 256

    def test_an_attached_reader_follows_a_restart(self, ring):
        reader = ShmRing.attach("stm-test-ring")
        try:
            for i, size in enumerate((100, 30, 200, 7, 256)):
                chunk = bytes([i + 1]) * size
                ring.write([chunk], size)
                assert bytes(reader.read(size)) == chunk
                assert ring.free_bytes() == 256
        finally:
            reader.close()

    def test_an_attached_writer_continues_after_a_restart(self, ring):
        ring.write([bytes(100)], 100)
        ring.read(100)
        ring.write([b"a" * 10], 10)  # restart: origin moves to 100
        writer = ShmRing.attach("stm-test-ring")
        try:
            writer.write([b"b" * 20], 20)  # held data: goes on at offset 10
            assert bytes(ring.read(30)) == b"a" * 10 + b"b" * 20
        finally:
            writer.close()

    def test_the_bare_write_read_pair(self, ring):
        """Write then read on one thread, no doorbell between them (how the
        spine times the ring): every read finds its own message."""
        for size in (1, 255, 256, 17, 128, 129, 3):
            payload = bytes((7 * i + size) % 256 for i in range(size))
            segs = [payload[: size // 2], memoryview(payload)[size // 2:]]
            ring.write(segs, size)
            assert bytes(ring.read(size)) == payload


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
