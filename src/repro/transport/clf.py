"""CLF: the reliable, ordered, point-to-point packet transport (paper §8.1).

    "STM is built on top of CLF, our homegrown low level packet transport
    layer.  CLF provides reliable, ordered point-to-point transport between
    Stampede address spaces, with the illusion of an infinite packet queue.
    It exploits shared memory within an SMP, and any available network
    between SMPs."

This module is the **thread-runtime** implementation: address spaces live in
one Python process, and CLF really serializes messages to bytes, fragments
them into MTU-sized packets, checks and reassembles the packets at the
destination endpoint, and hands the message on.  Every byte is genuinely
copied, so STM's copy-in/copy-out and per-message costs are real — only the
wire-propagation delay of the 1998 hardware is absent.  There is no receive
thread: the *sending* thread runs the destination's receive side, so when
``send`` returns the message has been delivered (see :class:`Delivery`).  The discrete-event
simulator (:mod:`repro.sim.sim_transport`) provides the complementary
implementation whose delays come from the calibrated medium models.

Topology: spaces are assigned block-wise to nodes
(``spaces_per_node``), shared memory connects spaces on one node, and the
configured inter-node medium connects the rest — mirroring the paper's
cluster of 4-way AlphaServer SMPs on Memory Channel.
"""

from __future__ import annotations

import itertools
import queue
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.sanitizer import san_lock
from repro.errors import TransportClosedError, TransportError
from repro.obs import events as _obs
from repro.transport.media import CLF_MTU, MEMORY_CHANNEL, Medium, SHARED_MEMORY
from repro.transport.packets import HEADER_BYTES, Reassembler, fragment_sg

__all__ = ["ClusterTopology", "ClfStats", "Delivery", "ClfEndpoint", "ClfNetwork"]


@dataclass(frozen=True)
class ClusterTopology:
    """Placement of address spaces onto cluster nodes.

    ``n_spaces`` address spaces are packed onto nodes of ``spaces_per_node``
    each (the paper's AlphaServer 4100s hosted one address space per SMP in
    the experiments, but Stampede allows several).  ``inter_node`` is the
    medium between nodes; within a node CLF always uses shared memory.
    """

    n_spaces: int
    spaces_per_node: int = 1
    inter_node: Medium = MEMORY_CHANNEL
    intra_node: Medium = SHARED_MEMORY

    def __post_init__(self):
        if self.n_spaces < 1:
            raise ValueError(f"n_spaces must be >= 1, got {self.n_spaces}")
        if self.spaces_per_node < 1:
            raise ValueError(
                f"spaces_per_node must be >= 1, got {self.spaces_per_node}"
            )

    def node_of(self, space: int) -> int:
        if not 0 <= space < self.n_spaces:
            raise ValueError(f"space {space} out of range [0, {self.n_spaces})")
        return space // self.spaces_per_node

    def medium(self, src: int, dst: int) -> Medium:
        """Medium used for traffic from ``src`` to ``dst``."""
        if self.node_of(src) == self.node_of(dst):
            return self.intra_node
        return self.inter_node


@dataclass
class ClfStats:
    """Per-endpoint traffic counters (sent/received).

    The receive side is kept **per source**: one ordered ``src -> here``
    stream has one writer at a time (whoever holds that stream's lock on the
    in-process network, the connection's reader thread on sockets), while
    streams from different sources deliver concurrently.  The totals are
    summed when read, so they are exact without a lock on the receive path.
    """

    messages_sent: int = 0
    packets_sent: int = 0
    bytes_sent: int = 0
    #: received traffic that was dropped: a packet that failed its checks
    #: or a message that did not decode.
    decode_errors: int = 0
    #: RPC replies this space could not send because the peer's endpoint
    #: (or its own) had closed or failed; see ``AddressSpace._reply``.
    replies_dropped: int = 0
    per_peer_sent: dict[int, int] = field(default_factory=dict)
    #: source -> ``[messages, packets, bytes]`` received from it.
    received_from: dict[int, list[int]] = field(default_factory=dict)
    _drops_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def received_row(self, src: int) -> list[int]:
        """The ``[messages, packets, bytes]`` row of one source stream."""
        return self.received_from.setdefault(src, [0, 0, 0])

    def _received(self, column: int) -> int:
        return sum(row[column] for row in list(self.received_from.values()))

    @property
    def messages_received(self) -> int:
        return self._received(0)

    @property
    def packets_received(self) -> int:
        return self._received(1)

    @property
    def bytes_received(self) -> int:
        return self._received(2)

    @property
    def per_peer_recv(self) -> dict[int, int]:
        return {src: row[0] for src, row in list(self.received_from.items())}

    def count_drop(self, counter: str, event: str, space: int,
                   exc: BaseException) -> None:
        """Count dropped traffic where an operator can see it: ``counter``
        (``decode_errors`` / ``replies_dropped``) plus an obs instant.  The
        cold path — any thread may drop, so this one takes a lock."""
        with self._drops_lock:
            setattr(self, counter, getattr(self, counter) + 1)
        rec = _obs.recorder
        if rec is not None:
            rec.instant("clf", event, space,
                        error=type(exc).__name__, detail=str(exc))

    def snapshot(self) -> dict:
        return {
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "packets_sent": self.packets_sent,
            "packets_received": self.packets_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "decode_errors": self.decode_errors,
            "replies_dropped": self.replies_dropped,
        }


class Delivery:
    """Where an endpoint's complete messages go — shared by the in-process
    endpoint and :class:`~repro.transport.sockets.SocketEndpoint`.

    A bare endpoint queues them for :meth:`recv`.  Once an address space has
    installed a sink with :meth:`deliver_to`, the thread that *delivers* a
    message — the sender on the in-process network, the connection's reader
    thread on sockets — runs ``sink(src, message)`` itself; the sink decides
    what it finishes on the spot and what it queues for its dispatcher.
    Besides message bytes a receiver sees two markers: a
    :class:`TransportError` stands for a message lost to a violated packet
    stream, and ``(space, None)`` says this endpoint closed or failed.
    """

    def __init__(self) -> None:
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._sink: Callable[[int, object], None] | None = None
        self._sink_lock = threading.Lock()

    def deliver_to(self, sink: Callable[[int, object], None]) -> None:
        """Install ``sink``, handing it first — in arrival order — whatever
        queued up before (a peer may send as soon as the mesh is up, which
        is before the space exists).  Deliverers that find no sink yet wait
        on the same lock, so none can overtake the backlog: an early
        request is never passed by the cancel behind it.
        """
        with self._sink_lock:
            while True:
                try:
                    src, message = self._inbox.get_nowait()
                except queue.Empty:
                    break
                sink(src, message)
            self._sink = sink

    def _deliver(self, src: int, message) -> None:
        sink = self._sink
        if sink is None:
            with self._sink_lock:
                sink = self._sink
                if sink is None:
                    self._inbox.put((src, message))
                    return
        sink(src, message)


class ClfEndpoint(Delivery):
    """One address space's attachment to the CLF interconnect.

    ``send`` fragments the message and runs the destination's receive side
    (:meth:`_accept`, once per packet) on the calling thread; both are
    thread-safe.
    """

    def __init__(self, network: "ClfNetwork", space: int):
        super().__init__()
        self._network = network
        self.space = space
        #: source -> (reassembler, received-counter row) of the ``source ->
        #: here`` stream; used only under that stream's lock.
        self._streams: dict[int, tuple[Reassembler, list[int]]] = {}
        self._msgid = itertools.count(space, network.topology.n_spaces)
        self._closed = False
        self.stats = ClfStats()

    # -- sending ------------------------------------------------------------
    def send(self, dst: int, data) -> None:
        """Reliably deliver ``data`` to space ``dst`` (ordered per peer).

        ``data`` is either one contiguous bytes-like message or a
        scatter/gather list of segments (the zero-copy framing path, see
        :func:`~repro.transport.serialization.encode_message_sg`); a
        segment list is gathered directly into MTU packets without an
        intermediate join.  When this returns the message is at ``dst``:
        queued for its ``recv``, or already through its sink.
        """
        if self._closed:
            raise TransportClosedError(f"endpoint {self.space} is closed")
        network = self._network
        target = network._endpoint(dst)
        msgid = next(self._msgid)
        if isinstance(data, (bytes, bytearray, memoryview)):
            data = (data,)
        packets = fragment_sg(msgid, data, network.mtu)
        rec = _obs.recorder
        if rec is not None:
            packets = list(packets)
            # ``flow`` is the causal stitch: the clf.recv instant stamped
            # in the destination's _accept carries the same id (msgids are
            # globally unique — the counter strides by n_spaces from
            # ``space``), so the trace exporter can draw a Chrome flow arrow
            # from this send to its receive.  Recorded *before* the packets
            # are accepted so the arrow never points backward in time.
            rec.instant("clf", "clf.send", self.space, dst=dst,
                        bytes=sum(map(len, packets)) - HEADER_BYTES * len(packets),
                        packets=len(packets), flow=msgid)
        src = self.space
        accept = target._accept
        npackets = nbytes = 0
        with network._order_locks[(src, dst)]:
            # The per-(src,dst) lock keeps packets of concurrent sends from
            # interleaving in the destination's reassembler: CLF's ordering
            # guarantee is per point-to-point stream, not per thread.
            for packet in packets:
                npackets += 1
                nbytes += len(packet)
                accept(src, packet)
        nbytes -= HEADER_BYTES * npackets
        stats = self.stats
        stats.messages_sent += 1
        stats.packets_sent += npackets
        stats.bytes_sent += nbytes
        stats.per_peer_sent[dst] = stats.per_peer_sent.get(dst, 0) + 1

    # -- receiving ------------------------------------------------------------
    def _accept(self, src: int, packet) -> None:
        """Take the next packet of the ``src -> here`` stream.

        Runs on the sender's thread under the stream's lock — the one way a
        packet enters an endpoint, which is why fault injection wraps it.
        A packet that fails its checks or breaks the fragment order costs
        the message it belongs to, here at the destination: the sender's
        ``send`` succeeded and sees nothing, the :class:`TransportError` is
        delivered in the message's place (``recv`` raises it, an address
        space counts it in ``decode_errors``), and the stream goes on with
        the next message.
        """
        stream = self._streams.get(src)
        if stream is None:
            stream = self._streams[src] = (
                Reassembler(self._network.mtu), self.stats.received_row(src))
        reasm, row = stream
        row[1] += 1
        try:
            message = reasm.feed(packet)
        except TransportError as exc:
            self._deliver(src, exc)  # delivered in the lost message's place
            if not reasm.unconsumed:
                return
            message = reasm.feed(packet)  # it begins the next message
        if message is None:
            return
        row[0] += 1
        row[2] += len(message)
        rec = _obs.recorder
        if rec is not None:
            rec.instant("clf", "clf.recv", self.space,
                        src=src, bytes=len(message), flow=reasm.last_msgid)
        self._deliver(src, message)

    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        """Block until a complete message arrives; return ``(src, data)``.

        For an endpoint with no sink installed.  Raises
        :class:`TransportClosedError` once the endpoint is closed and
        drained, :class:`TransportError` for a message lost to a violated
        packet stream, and ``queue.Empty`` on timeout.
        """
        item = self._inbox.get(timeout=timeout)
        message = item[1]
        if message is None:
            raise TransportClosedError(f"endpoint {self.space} closed")
        if isinstance(message, TransportError):
            raise message
        return item

    def close(self) -> None:
        """Close the endpoint; a blocked ``recv`` wakes with an error."""
        if not self._closed:
            self._closed = True
            self._deliver(self.space, None)

    @property
    def closed(self) -> bool:
        return self._closed


class ClfNetwork:
    """The in-process cluster interconnect: one endpoint per address space."""

    def __init__(self, topology: ClusterTopology, mtu: int = CLF_MTU):
        self.topology = topology
        self.mtu = mtu
        self._endpoints: dict[int, ClfEndpoint] = {}
        self._lock = san_lock("ClfNetwork.endpoints")
        self._order_locks = {
            (s, d): san_lock("ClfNetwork.order")
            for s in range(topology.n_spaces)
            for d in range(topology.n_spaces)
        }

    @classmethod
    def create(
        cls,
        n_spaces: int,
        spaces_per_node: int = 1,
        inter_node: Medium = MEMORY_CHANNEL,
        mtu: int = CLF_MTU,
    ) -> "ClfNetwork":
        return cls(ClusterTopology(n_spaces, spaces_per_node, inter_node), mtu)

    def endpoint(self, space: int) -> ClfEndpoint:
        """Create (or fetch) the endpoint of address space ``space``."""
        if not 0 <= space < self.topology.n_spaces:
            raise ValueError(
                f"space {space} out of range [0, {self.topology.n_spaces})"
            )
        with self._lock:
            ep = self._endpoints.get(space)
            if ep is None:
                ep = self._endpoints[space] = ClfEndpoint(self, space)
            return ep

    def _endpoint(self, space: int) -> ClfEndpoint:
        ep = self._endpoints.get(space) or self.endpoint(space)
        if ep.closed:
            raise TransportError(f"destination endpoint {space} is closed")
        return ep

    def medium(self, src: int, dst: int) -> Medium:
        return self.topology.medium(src, dst)

    def close(self) -> None:
        with self._lock:
            for ep in self._endpoints.values():
                ep.close()
