"""CLF: the reliable, ordered, point-to-point packet transport (paper §8.1).

    "STM is built on top of CLF, our homegrown low level packet transport
    layer.  CLF provides reliable, ordered point-to-point transport between
    Stampede address spaces, with the illusion of an infinite packet queue.
    It exploits shared memory within an SMP, and any available network
    between SMPs."

This module is the **thread-runtime** implementation: address spaces live in
one Python process, and CLF really serializes messages to bytes, fragments
them into MTU-sized packets, moves the packets through unbounded thread-safe
queues, and reassembles them on the far side.  Every byte is genuinely
copied, so STM's copy-in/copy-out and per-message costs are real — only the
wire-propagation delay of the 1998 hardware is absent.  The discrete-event
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
import time
from dataclasses import dataclass, field

from repro.analysis.sanitizer import san_lock
from repro.errors import TransportClosedError, TransportError
from repro.obs import events as _obs
from repro.transport.media import CLF_MTU, MEMORY_CHANNEL, Medium, SHARED_MEMORY
from repro.transport.packets import HEADER_BYTES, Reassembler, fragment_sg

__all__ = ["ClusterTopology", "ClfStats", "ClfEndpoint", "ClfNetwork"]

_CLOSED = object()


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
    """Per-endpoint traffic counters (sent/received)."""

    messages_sent: int = 0
    messages_received: int = 0
    packets_sent: int = 0
    packets_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: received traffic the space's dispatcher dropped: a packet that failed
    #: its checks or a message that did not decode (counted by the dispatcher).
    decode_errors: int = 0
    per_peer_sent: dict[int, int] = field(default_factory=dict)
    per_peer_recv: dict[int, int] = field(default_factory=dict)

    def snapshot(self) -> dict:
        return {
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "packets_sent": self.packets_sent,
            "packets_received": self.packets_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "decode_errors": self.decode_errors,
        }


class ClfEndpoint:
    """One address space's attachment to the CLF interconnect.

    ``send`` fragments and enqueues; ``recv`` dequeues and reassembles.
    Both are thread-safe.  ``recv`` may be called concurrently by multiple
    threads only if they never interleave mid-message — in practice each
    address space dedicates one dispatcher thread to ``recv``, matching
    CLF's multi-threaded design in the paper.
    """

    def __init__(self, network: "ClfNetwork", space: int):
        self._network = network
        self.space = space
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._reassemblers: dict[int, Reassembler] = {}
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
        intermediate join.
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
            # ``flow`` is the causal stitch: the receiver's clf.recv instant
            # carries the same id (msgids are globally unique — the counter
            # strides by n_spaces from ``space``), so the trace exporter can
            # draw a Chrome flow arrow from this send to its receive.
            # Recorded *before* the packets reach the receiver's inbox —
            # the receiving thread can stamp its clf.recv the moment the
            # last packet lands, so an instant taken afterward may postdate
            # the receive and make the flow arrow point backward in time.
            rec.instant("clf", "clf.send", self.space, dst=dst,
                        bytes=sum(map(len, packets)) - HEADER_BYTES * len(packets),
                        packets=len(packets), flow=msgid)
        src = self.space
        put = target._inbox.put
        npackets = nbytes = 0
        with network._order_locks[(src, dst)]:
            # The per-(src,dst) lock keeps packets of concurrent sends from
            # interleaving: CLF's ordering guarantee is per point-to-point
            # stream, not per thread.
            for packet in packets:
                put((src, packet))
                npackets += 1
                nbytes += len(packet)
        nbytes -= HEADER_BYTES * npackets
        stats = self.stats
        stats.messages_sent += 1
        stats.packets_sent += npackets
        stats.bytes_sent += nbytes
        stats.per_peer_sent[dst] = stats.per_peer_sent.get(dst, 0) + 1

    # -- receiving ------------------------------------------------------------
    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        """Block until a complete message arrives; return ``(src, data)``.

        Raises :class:`TransportClosedError` once the endpoint is closed and
        drained, and ``queue.Empty`` on timeout.
        """
        end = (time.monotonic() + timeout) if timeout is not None else None
        while True:
            remaining = None
            if end is not None:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    raise queue.Empty()
            item = self._inbox.get(timeout=remaining)
            if item is _CLOSED:
                raise TransportClosedError(f"endpoint {self.space} closed")
            src, packet = item
            reasm = self._reassemblers.get(src)
            if reasm is None:
                reasm = self._reassemblers[src] = Reassembler(self._network.mtu)
            self.stats.packets_received += 1
            message = reasm.feed(packet)
            if message is not None:
                self.stats.messages_received += 1
                self.stats.bytes_received += len(message)
                rec = _obs.recorder
                if rec is not None:
                    rec.instant("clf", "clf.recv", self.space,
                                src=src, bytes=len(message),
                                flow=reasm.last_msgid)
                return src, message

    def close(self) -> None:
        """Close the endpoint; a blocked ``recv`` wakes with an error."""
        if not self._closed:
            self._closed = True
            self._inbox.put(_CLOSED)

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
