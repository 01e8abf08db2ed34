"""Real CLF media for the process runtime: TCP sockets + shared-memory rings.

The thread runtime's :class:`~repro.transport.clf.ClfEndpoint` moves packets
through in-process queues; this module provides the same endpoint contract
(``send(dst, segments)`` / ``recv() -> (src, message)`` / ``close()`` /
``stats``) over *real* operating-system media, so address spaces can live in
separate processes (paper §8.1: "CLF ... exploits shared memory within an
SMP, and any available network between SMPs"):

* **intra-node** pairs (as placed by :class:`~repro.transport.clf
  .ClusterTopology`) move message bytes through a
  :class:`~repro.transport.shm_ring.ShmRing` — one memcpy into the ring on
  send, one out on receive, with a tiny doorbell frame on the pair's socket
  for ordering and wakeup;
* **inter-node** pairs send the bytes inline over the TCP connection
  (loopback here; the same code would cross machines).

Every ordered (src, dst) stream maps onto exactly one duplex TCP connection
(the lower space id connects, the higher accepts) plus, when the topology
says shared memory, one directed ring per direction.  A per-destination
send lock serializes frames of concurrent senders, and TCP's ordering does
the rest — CLF's reliable ordered point-to-point guarantee for free.

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
from repro.transport.shm_ring import ShmRing

__all__ = ["FRAME_HEADER", "SocketEndpoint", "ring_name"]

FRAME_HEADER = struct.Struct("<BQ")
_HELLO = struct.Struct("<I")

_DATA = 0
_SHMD = 1
_HBT = 2


def ring_name(session: str, src: int, dst: int) -> str:
    """Shared-memory segment name of the directed ``src -> dst`` ring."""
    return f"stm-{session}-r{src}-{dst}"


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

    __slots__ = ("space", "sock", "reader")

    def __init__(self, space: int, sock: socket.socket):
        self.space = space
        self.sock = sock
        self.reader: threading.Thread | None = None


class SocketEndpoint(Delivery):
    """One address space's attachment to the socket/shared-memory media.

    Lifecycle: construct (binds the listener; ``port`` is then known),
    distribute the full directory through the name service, then
    :meth:`connect_mesh` — after which :meth:`send`/:meth:`recv` behave
    exactly like the thread runtime's CLF endpoint.
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
        self._closed = False
        self._heartbeat_to = heartbeat_to
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_thread: threading.Thread | None = None
        self.last_heartbeat: dict[int, float] = {}
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(max(topology.n_spaces, 4))
        self.port: int = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"stm-accept-{space}",
            daemon=True,
        )
        self._accept_thread.start()

    # ==================================================================
    # bootstrap
    # ==================================================================
    def connect_mesh(
        self, directory: dict[int, int], timeout: float = 30.0
    ) -> None:
        """Establish the full peer mesh from ``{space: port}``.

        This endpoint dials every peer with a *higher* space id and waits for
        every lower-id peer to dial in; rings for intra-node pairs are
        attached on both sides.  Blocks until the mesh is complete.
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
        deadline = time.monotonic() + timeout
        while True:
            try:
                sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise TransportError(
                        f"space {self.space} could not reach space {peer} "
                        f"on port {port}"
                    ) from None
                time.sleep(0.02)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(_HELLO.pack(self.space))
        self._register_peer(peer, sock)

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                (peer,) = _HELLO.unpack(bytes(_recv_exact(sock, _HELLO.size)))
            except Exception:
                sock.close()
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._register_peer(peer, sock)

    def _register_peer(self, peer: int, sock: socket.socket) -> None:
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
        ring = self._send_rings.get(dst)
        use_ring = ring is not None and nbytes <= ring.capacity
        medium = "shm" if use_ring else "tcp"
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
                    medium = "tcp"
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
        with self._lock:
            if self._closed:
                return
            self._closed = True
            peers = list(self._peers.values())
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
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
