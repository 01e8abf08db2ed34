"""Cross-process SPSC byte rings over ``multiprocessing.shared_memory``.

This is the *real* shared-memory medium of the process runtime
(:mod:`repro.runtime.procs`), standing in for the paper's "CLF exploits
shared memory within an SMP" (§8.1).  One :class:`ShmRing` is a
single-producer / single-consumer ring of raw bytes in one shared-memory
segment, used for the directed traffic of one (src, dst) pair of address
spaces that the :class:`~repro.transport.clf.ClusterTopology` places on the
same node.  It carries the pair's messages larger than one CLF packet —
frames; the smaller ones (RPC bodies) travel inline on the pair's
Unix-domain control socket (:mod:`repro.transport.sockets`).

Data path (one memcpy per side):

* the **sender** gathers the scatter/gather segments of an encoded message
  (:func:`~repro.transport.serialization.encode_message_sg`) directly into
  the ring — each payload byte is copied exactly once, segment → ring;
* a small *doorbell* record carrying only the byte count travels over the
  pair's Unix-domain control socket (which also gives cross-process
  ordering and a blockable wakeup — the 1999 CLF used interrupts the same
  way);
* the **receiver** copies the message out of the ring into a private buffer
  exactly once — ring → message — and every later layer
  (:func:`~repro.transport.serialization.decode_message`, the channel
  kernel) works on zero-copy memoryviews of that buffer.

Synchronization: the ring head ("written", advanced only by the producer)
and tail ("read", advanced only by the consumer) are monotonically
increasing 64-bit byte counters.  Each lives in the segment at a fixed,
8-byte-aligned offset and is written by exactly one side, so there is no
write/write race; the doorbell's trip through the kernel orders the data
writes before the consumer's reads.  The producer blocks (bounded backoff
poll of "read") when the ring lacks space; messages larger than the ring
go inline on the socket, like the small ones.
"""

from __future__ import annotations

import struct
import time
from multiprocessing import shared_memory

from repro.errors import TransportError

__all__ = ["RING_HEADER_BYTES", "DEFAULT_RING_BYTES", "ShmRing"]

_COUNTER = struct.Struct("<Q")
#: segment bytes reserved for the two counters (8 "read" + 8 "written").
RING_HEADER_BYTES: int = 16
#: default data capacity of one directed ring (per same-node space pair).
DEFAULT_RING_BYTES: int = 4 * 1024 * 1024

_READ_OFF = 0
_WRITTEN_OFF = 8


class ShmRing:
    """One directed SPSC ring; create in the parent, attach everywhere else.

    Exactly one process may call :meth:`write` (the pair's sender) and
    exactly one may call :meth:`read` (the receiver).  The parent that
    created the segment is responsible for :meth:`unlink`; every attached
    process just :meth:`close`\\ s.
    """

    def __init__(self, shm: shared_memory.SharedMemory, *, owner: bool):
        self._shm = shm
        self._owner = owner
        self.capacity = shm.size - RING_HEADER_BYTES
        self._buf = shm.buf
        # Local mirrors of the side this process drives; both start from the
        # shared counters so late attachment (never happens today) stays
        # correct.
        self._written = _COUNTER.unpack_from(self._buf, _WRITTEN_OFF)[0]
        self._read = _COUNTER.unpack_from(self._buf, _READ_OFF)[0]
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, name: str, capacity: int = DEFAULT_RING_BYTES) -> "ShmRing":
        if capacity <= 0:
            raise ValueError(f"ring capacity must be > 0, got {capacity}")
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=RING_HEADER_BYTES + capacity
        )
        shm.buf[:RING_HEADER_BYTES] = bytes(RING_HEADER_BYTES)
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        # Python <=3.12 registers mere attachments with the resource
        # tracker.  All our attachers are either the creating process or its
        # multiprocessing children, which share the creator's tracker — the
        # repeat registration is an idempotent set-add there, and the single
        # unregister happens in the creator's unlink().  (Unregistering here
        # instead would double-remove and leave the tracker complaining.)
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def free_bytes(self) -> int:
        buf = self._buf
        if buf is None:
            raise TransportError("shm ring closed")
        read = _COUNTER.unpack_from(buf, _READ_OFF)[0]
        return self.capacity - (self._written - read)

    def write(self, segments, nbytes: int, timeout: float = 30.0) -> None:
        """Gather ``segments`` (``nbytes`` total) into the ring.

        Blocks while the ring lacks space (bounded by ``timeout``); raises
        :class:`TransportError` when the message can never fit or the
        consumer stopped draining.
        """
        if nbytes > self.capacity:
            raise TransportError(
                f"message of {nbytes} bytes exceeds ring capacity "
                f"{self.capacity}"
            )
        if self.free_bytes() < nbytes:
            deadline = time.monotonic() + timeout
            delay = 50e-6
            while self.free_bytes() < nbytes:
                if self._closed:
                    raise TransportError("shm ring closed while blocked on space")
                if time.monotonic() > deadline:
                    raise TransportError(
                        f"shm ring full for {timeout}s "
                        f"({nbytes} B wanted, {self.free_bytes()} B free)"
                    )
                time.sleep(delay)
                delay = min(delay * 2, 0.002)
        pos = self._written % self.capacity
        # Snapshot: close() from another thread nulls the attribute; going
        # through the local name turns the race into ValueError (released
        # memoryview), which transport readers treat as orderly shutdown.
        buf = self._buf
        if buf is None:
            raise TransportError("shm ring closed")
        capacity = self.capacity
        for seg in segments:
            # bytes and flat byte views (what the codec emits) are assigned
            # as they are; anything else is cast to one first
            kind = seg.__class__
            if kind is not bytes and not (
                kind is memoryview and seg.format == "B" and seg.ndim == 1
            ):
                seg = memoryview(seg).cast("B")
            size = len(seg)
            start = RING_HEADER_BYTES + pos
            first = capacity - pos
            if size <= first:  # no wrap: one slice assignment
                buf[start:start + size] = seg
            else:
                view = memoryview(seg)
                buf[start:start + first] = view[:first]
                buf[RING_HEADER_BYTES:RING_HEADER_BYTES + size - first] = view[first:]
            pos = (pos + size) % capacity
        self._written += nbytes
        _COUNTER.pack_into(buf, _WRITTEN_OFF, self._written)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def read(self, nbytes: int) -> bytearray:
        """Copy the next ``nbytes`` out of the ring (the receive-side memcpy).

        The caller learns ``nbytes`` from the doorbell, which arrives after
        the producer's write — the bytes are guaranteed present.
        """
        if nbytes > self.capacity:
            raise TransportError(
                f"doorbell claims {nbytes} B, ring capacity {self.capacity}"
            )
        pos = self._read % self.capacity
        buf = self._buf
        if buf is None:
            raise TransportError("shm ring closed")
        first = min(nbytes, self.capacity - pos)
        start = RING_HEADER_BYTES + pos
        # built from the ring slice, so the buffer is written exactly once
        # (bytearray(nbytes) would zero-fill it first)
        out = bytearray(buf[start:start + first])
        if first < nbytes:
            out += buf[RING_HEADER_BYTES:RING_HEADER_BYTES + nbytes - first]
        self._read += nbytes
        _COUNTER.pack_into(buf, _READ_OFF, self._read)
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._buf = None
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (creator only, after close)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ShmRing {self._shm.name} cap={self.capacity} "
            f"written={self._written} read={self._read}>"
        )
