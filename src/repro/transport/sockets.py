"""Real CLF media for the process runtime: sockets + shared-memory rings.

The thread runtime's :class:`~repro.transport.clf.ClfEndpoint` moves packets
through in-process queues; this module provides the same endpoint contract
(``send(dst, segments)`` / ``recv() -> (src, message)`` / ``close()`` /
``stats``) over *real* operating-system media, so address spaces can live in
separate processes (paper §8.1: "CLF ... exploits shared memory within an
SMP, and any available network between SMPs"):

* **intra-node** pairs (as placed by :class:`~repro.transport.clf
  .ClusterTopology`) talk over an ``AF_UNIX`` stream socket in Linux's
  abstract namespace (:func:`unix_address`: nothing on disk, nothing to
  unlink).  A message that fits one CLF packet (``max_payload(CLF_MTU)``
  bytes: every RPC body) travels inline on it; a larger one — a frame —
  goes through the pair's :class:`~repro.transport.shm_ring.ShmRing`, one
  memcpy into the ring on send and one out on receive, announced by a
  doorbell frame on the socket for ordering and wakeup;
* **inter-node** pairs send every message inline over TCP (loopback here;
  the same code would cross machines).

Every ordered (src, dst) stream maps onto exactly one duplex connection
(the lower space id connects, the higher accepts) plus, when the topology
says shared memory, one directed ring per direction.  An endpoint listens
only on the socket families its lower-id peers dial.  A per-destination
send lock serializes frames of concurrent senders, and the stream socket's
ordering does the rest — CLF's reliable ordered point-to-point guarantee
for free.  Ring and inline messages share that order: a doorbell is written
in sequence with the inline frames around it.

Wire framing (little-endian)::

    kind(1) | length(8) | payload[length if kind==DATA]

``DATA`` carries an encoded message inline; ``SHMD`` is a doorbell whose
``length`` bytes are read from the sender's ring; ``HBT`` is a transport
heartbeat consumed by process supervision without being delivered.

Each connection's reader thread *delivers* the frames it completes
(:class:`~repro.transport.clf.Delivery`): into the queue ``recv`` reads on a
bare endpoint, straight into the address space's sink once one is installed.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Any, Callable

from repro.errors import TransportClosedError, TransportError
from repro.obs import events as _obs
from repro.obs.metrics import REGISTRY
from repro.transport.clf import ClfStats, ClusterTopology, Delivery
from repro.transport.packets import max_payload
from repro.transport.shm_ring import ShmRing

__all__ = ["FRAME_HEADER", "SocketEndpoint", "ring_name", "unix_address"]

FRAME_HEADER = struct.Struct("<BQ")
_HELLO = struct.Struct("<I")

_DATA = 0
_SHMD = 1
_HBT = 2

#: largest message sent inline on a same-node pair: one CLF packet's payload.
_INLINE_MAX = max_payload()


def ring_name(session: str, src: int, dst: int) -> str:
    """Shared-memory segment name of the directed ``src -> dst`` ring."""
    return f"stm-{session}-r{src}-{dst}"


def unix_address(session: str, space: int) -> str:
    """Abstract ``AF_UNIX`` address ``space`` accepts same-node peers on
    (``@stm-<session>-s<space>`` in ``/proc/net/unix``)."""
    return f"\0stm-{session}-s{space}"


def _recv_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` from the socket (blocking until it is full)."""
    got = 0
    while got < view.nbytes:
        n = sock.recv_into(view[got:] if got else view)
        if n == 0:
            raise ConnectionError("peer closed the connection")
        got += n


def _recv_exact(sock: socket.socket, nbytes: int) -> bytearray:
    buf = bytearray(nbytes)
    _recv_into(sock, memoryview(buf))
    return buf


def _sendall_sg(sock: socket.socket, segments: list, nbytes: int) -> None:
    """sendmsg the scatter/gather list (``nbytes`` in all) without joining it."""
    sent = sock.sendmsg(segments)
    if sent == nbytes:
        return  # everything went out in one call
    views = [memoryview(seg).cast("B") for seg in segments]
    while True:
        # Partial send: drop fully-sent views, slice the straddler.
        rebuilt: list[memoryview] = []
        for view in views:
            if sent >= view.nbytes:
                sent -= view.nbytes
                continue
            rebuilt.append(view[sent:] if sent else view)
            sent = 0
        views = rebuilt
        if not views:
            return
        sent = sock.sendmsg(views)


class _Peer:
    """One established duplex connection to another address space."""

    __slots__ = ("space", "sock", "medium", "reader")

    def __init__(self, space: int, sock: socket.socket):
        self.space = space
        self.sock = sock
        #: the ``clf_wire_bytes_total`` medium of an inline message
        self.medium = "unix" if sock.family == socket.AF_UNIX else "tcp"
        self.reader: threading.Thread | None = None


class SocketEndpoint(Delivery):
    """One address space's attachment to the socket/shared-memory media.

    Lifecycle: construct (binds the listeners; ``port`` is then known, 0
    when no inter-node peer dials this space), distribute the full directory
    through the name service, then :meth:`connect_mesh` — after which
    :meth:`send`/:meth:`recv` behave exactly like the thread runtime's CLF
    endpoint.
    """

    def __init__(
        self,
        space: int,
        topology: ClusterTopology,
        *,
        session: str,
        heartbeat_to: int | None = None,
        heartbeat_interval: float = 0.5,
    ):
        super().__init__()
        self.space = space
        self.topology = topology
        self.session = session
        self.stats = ClfStats()
        self.failure: BaseException | None = None
        #: invoked (peer_space, exc) from a reader thread when a live
        #: connection drops outside an orderly close; the supervisor installs
        #: its crash-propagation hook here.  Default: fail the endpoint.
        self.on_peer_lost: Callable[[int, BaseException], None] | None = None
        self._peers: dict[int, _Peer] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._send_rings: dict[int, ShmRing] = {}
        self._recv_rings: dict[int, ShmRing] = {}
        #: (registry epoch, medium, direction) -> clf_wire_bytes_total handle
        self._wire_counters: dict[tuple, Any] = {}
        self._mesh_ready = threading.Event()
        self._lock = threading.Lock()
        self._close_lock = threading.RLock()
        self._closed = False
        self._heartbeat_to = heartbeat_to
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_thread: threading.Thread | None = None
        self.last_heartbeat: dict[int, float] = {}
        # Lower ids dial higher ones, so this space accepts only from peers
        # below it, on the family each pair's medium picks.
        dialled_by = {topology.medium(peer, space).intra_node
                      for peer in range(space)}
        self._listeners: list[socket.socket] = []
        self._accept_threads: list[threading.Thread] = []
        self.port = 0
        if False in dialled_by:
            self.port = self._listen(
                socket.AF_INET, ("127.0.0.1", 0)).getsockname()[1]
        if True in dialled_by:
            self._listen(socket.AF_UNIX, unix_address(session, space))
        for listener in self._listeners:
            thread = threading.Thread(
                target=self._accept_loop,
                args=(listener,),
                name=f"stm-accept-{space}",
                daemon=True,
            )
            thread.start()
            self._accept_threads.append(thread)

    def _listen(self, family: int, address) -> socket.socket:
        listener = socket.socket(family, socket.SOCK_STREAM)
        self._listeners.append(listener)
        try:
            if family == socket.AF_INET:
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(address)
            listener.listen(max(self.topology.n_spaces, 4))
        except OSError:
            self.close()
            raise
        return listener

    # ==================================================================
    # bootstrap
    # ==================================================================
    def connect_mesh(
        self, directory: dict[int, int], timeout: float = 30.0
    ) -> None:
        """Establish the full peer mesh from ``{space: port}``.

        This endpoint dials every peer with a *higher* space id and waits for
        every lower-id peer to dial in; rings for intra-node pairs are
        attached on both sides.  Blocks until the mesh is complete, or
        raises once ``timeout`` passes or the endpoint is closed or failed.
        """
        for peer in sorted(directory):
            if peer == self.space:
                continue
            if self.topology.medium(self.space, peer).intra_node:
                self._send_rings[peer] = ShmRing.attach(
                    ring_name(self.session, self.space, peer)
                )
            if self.topology.medium(peer, self.space).intra_node:
                self._recv_rings[peer] = ShmRing.attach(
                    ring_name(self.session, peer, self.space)
                )
            if peer > self.space:
                self._dial(peer, directory[peer], timeout)
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if len(self._peers) == len(directory) - 1:
                    break
            self._check_meshing()
            if time.monotonic() > deadline:
                with self._lock:
                    have = sorted(self._peers)
                raise TransportError(
                    f"space {self.space}: mesh incomplete after {timeout}s "
                    f"(connected to {have} of {sorted(directory)})"
                )
            time.sleep(0.005)
        self._mesh_ready.set()
        if self._heartbeat_to is not None and self._heartbeat_to != self.space:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"stm-heartbeat-{self.space}",
                daemon=True,
            )
            self._heartbeat_thread.start()

    def _dial(self, peer: int, port: int, timeout: float) -> None:
        if self.topology.medium(self.space, peer).intra_node:
            family, address = socket.AF_UNIX, unix_address(self.session, peer)
        else:
            family, address = socket.AF_INET, ("127.0.0.1", port)
        deadline = time.monotonic() + timeout
        while True:
            sock = socket.socket(family, socket.SOCK_STREAM)
            sock.settimeout(5.0)
            try:
                sock.connect(address)
                break
            except OSError:
                sock.close()
                self._check_meshing()
                if time.monotonic() > deadline:
                    raise TransportError(
                        f"space {self.space} could not reach space {peer} "
                        f"at {address!r}"
                    ) from None
                time.sleep(0.02)
        sock.sendall(_HELLO.pack(self.space))
        self._register_peer(peer, sock)

    def _check_meshing(self) -> None:
        if self._closed:
            raise TransportClosedError(
                f"space {self.space}: endpoint closed before the mesh was up"
                + (f": {self.failure}" if self.failure else "")
            )

    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._closed:
            try:
                sock, _addr = listener.accept()
            except OSError:
                return  # listener shut down
            try:
                (peer,) = _HELLO.unpack(bytes(_recv_exact(sock, _HELLO.size)))
            except Exception:
                sock.close()
                continue
            self._register_peer(peer, sock)

    def _register_peer(self, peer: int, sock: socket.socket) -> None:
        # The reader blocks for as long as its peer is quiet: no dial timeout.
        sock.settimeout(None)
        if sock.family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        entry = _Peer(peer, sock)
        with self._lock:
            if self._closed or peer in self._peers:
                sock.close()
                return
            self._peers[peer] = entry
            self._send_locks.setdefault(peer, threading.Lock())
        entry.reader = threading.Thread(
            target=self._reader_loop,
            args=(entry,),
            name=f"stm-reader-{self.space}<-{peer}",
            daemon=True,
        )
        entry.reader.start()

    # ==================================================================
    # data path
    # ==================================================================
    def send(self, dst: int, data) -> None:
        """Reliably deliver ``data`` (bytes or scatter/gather list) to ``dst``."""
        if self._closed:
            raise TransportClosedError(
                f"endpoint {self.space} is closed"
                + (f" ({self.failure})" if self.failure else "")
            )
        segments = [data] if isinstance(data, (bytes, bytearray, memoryview)) else data
        nbytes = 0
        for seg in segments:
            nbytes += len(seg) if seg.__class__ is bytes else memoryview(seg).nbytes
        if dst == self.space:
            # Loopback: no medium in the paper's sense; deliver directly.
            joined = segments[0] if len(segments) == 1 else b"".join(segments)
            self._deliver(self.space, joined)
            return
        peer = self._peers.get(dst)
        if peer is None:
            raise TransportError(
                f"space {self.space} has no connection to space {dst}"
            )
        # Same-node pairs have a ring: it carries what is larger than one
        # CLF packet (frames) and the socket carries the rest (RPC bodies).
        ring = self._send_rings.get(dst)
        use_ring = ring is not None and _INLINE_MAX < nbytes <= ring.capacity
        medium = "shm" if use_ring else peer.medium
        try:
            with self._send_locks[dst]:
                # The flow sequence number is the position of this message in
                # the ordered (src, dst) stream; assigned *inside* the send
                # lock so it matches wire order even under concurrent
                # senders.  The receiver counts the same stream, so
                # "src>dst#seq" names one message identically on both sides
                # of the process boundary — no wire-format change needed.
                seq = self.stats.per_peer_sent.get(dst, 0)
                self.stats.per_peer_sent[dst] = seq + 1
                rec = _obs.recorder
                if rec is not None:
                    # Recorded *before* the wire write: the receiver can
                    # pick the message up (and stamp its clf.recv) the
                    # moment the doorbell lands, so an instant taken after
                    # the write may postdate the receive — and a flow
                    # arrow pointing backward in time breaks the causal
                    # ordering the merged cluster trace is aligned by.
                    rec.instant("clf", "clf.send", self.space,
                                dst=dst, bytes=nbytes, medium=medium,
                                flow=f"{self.space}>{dst}#{seq}")
                if use_ring:
                    ring.write(segments, nbytes)
                    peer.sock.sendall(FRAME_HEADER.pack(_SHMD, nbytes))
                else:
                    _sendall_sg(
                        peer.sock,
                        [FRAME_HEADER.pack(_DATA, nbytes), *segments],
                        FRAME_HEADER.size + nbytes,
                    )
        except (OSError, ValueError) as exc:
            raise TransportClosedError(
                f"send from space {self.space} to space {dst} failed: {exc}"
            ) from exc
        stats = self.stats
        stats.messages_sent += 1
        stats.packets_sent += 1
        stats.bytes_sent += nbytes
        self._wire_counter(medium, "tx").inc(nbytes)

    def _wire_counter(self, medium: str, direction: str):
        """This space's ``clf_wire_bytes_total`` counter for one medium and
        direction: resolved once, and again after ``REGISTRY.reset()``."""
        key = (REGISTRY.epoch, medium, direction)
        counter = self._wire_counters.get(key)
        if counter is None:
            counter = self._wire_counters[key] = REGISTRY.counter(
                "clf_wire_bytes_total", space=self.space, medium=medium,
                direction=direction,
            )
        return counter

    def recv(self, timeout: float | None = None):
        """Block for the next complete message; return ``(src, message)``.

        For an endpoint with no sink installed."""
        item = self._inbox.get(timeout=timeout)
        if item[1] is None:
            raise TransportClosedError(
                f"endpoint {self.space} closed"
                + (f": {self.failure}" if self.failure else "")
            )
        return item

    def _reader_loop(self, peer: _Peer) -> None:
        sock = peer.sock
        src = peer.space
        inline = peer.medium
        received = self.stats.received_row(src)  # this reader is its writer
        deliver = self._deliver
        header = memoryview(bytearray(FRAME_HEADER.size))  # reused per frame
        try:
            while True:
                _recv_into(sock, header)
                kind, length = FRAME_HEADER.unpack_from(header)
                if kind == _HBT:
                    self.last_heartbeat[src] = time.monotonic()
                    continue
                if kind == _SHMD:
                    ring = self._recv_rings.get(src)
                    if ring is None:
                        # Startup race: a fast peer can finish its mesh and
                        # send before this process has attached its rings in
                        # connect_mesh (readers serve accepted connections
                        # from the moment the listener exists).  The bytes
                        # sit in the ring; wait for our own bootstrap.
                        self._mesh_ready.wait(timeout=30.0)
                        ring = self._recv_rings.get(src)
                    if ring is None:
                        raise TransportError(
                            f"shm doorbell from space {src} but no ring"
                        )
                    message: bytearray = ring.read(length)
                    medium = "shm"
                elif kind == _DATA:
                    message = _recv_exact(sock, length)
                    medium = inline
                else:
                    raise TransportError(f"unknown frame kind {kind} from {src}")
                # Mirror of the sender's flow numbering: this reader is the
                # only consumer of the (src -> self) stream, so counting
                # completed messages here reproduces the sender's seq.
                seq = received[0]
                received[0] = seq + 1
                received[1] += 1
                received[2] += length
                self._wire_counter(medium, "rx").inc(length)
                rec = _obs.recorder
                if rec is not None:
                    rec.instant("clf", "clf.recv", self.space,
                                src=src, bytes=length, medium=medium,
                                flow=f"{src}>{self.space}#{seq}")
                deliver(src, message)
        except (OSError, ConnectionError, TransportError, ValueError) as exc:
            if self._closed:
                return  # orderly shutdown
            hook = self.on_peer_lost
            lost = TransportClosedError(
                f"connection to space {src} lost: {exc}"
            )
            if hook is not None:
                hook(src, lost)
            else:
                self.fail(lost)

    def _heartbeat_loop(self) -> None:
        target = self._heartbeat_to
        frame = FRAME_HEADER.pack(_HBT, 0)
        while not self._closed:
            peer = self._peers.get(target)
            if peer is None:
                return
            try:
                with self._send_locks[target]:
                    peer.sock.sendall(frame)
            except (OSError, ValueError):
                return  # reader thread reports the loss
            time.sleep(self._heartbeat_interval)

    def heartbeat_age(self, space: int) -> float | None:
        """Seconds since the last heartbeat from ``space`` (None = never)."""
        last = self.last_heartbeat.get(space)
        return None if last is None else time.monotonic() - last

    # ==================================================================
    # teardown
    # ==================================================================
    def fail(self, error: BaseException) -> None:
        """Poison the endpoint: ``recv``/``send`` raise, dispatcher unwinds."""
        if self.failure is None:
            self.failure = error
        self.close()

    def close(self) -> None:
        """Release every socket, ring and thread of this endpoint.  A second
        caller (a reader that lost its peer, say) returns once it is done."""
        with self._close_lock:
            with self._lock:
                if self._closed:
                    return
                self._closed = True
                peers = list(self._peers.values())
            for listener in self._listeners:
                try:
                    listener.shutdown(socket.SHUT_RDWR)  # wakes its accept()
                except OSError:
                    pass  # never listened
                listener.close()
            for thread in self._accept_threads:
                thread.join(timeout=5.0)  # stm-ok: STM103 -- accept threads never take _close_lock
            for peer in peers:
                try:
                    peer.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                peer.sock.close()
            for ring in (*self._send_rings.values(), *self._recv_rings.values()):
                ring.close()
            self._deliver(self.space, None)

    @property
    def closed(self) -> bool:
        return self._closed
