"""RPC message vocabulary for cross-address-space Stampede operations.

Every STM operation on a channel homed in another address space becomes a
**synchronous** RPC: the calling thread sends a request to the channel's
home space and blocks until the reply.  Synchrony is not an implementation
convenience — it is what makes the distributed GC minimum safe: while a put
is in flight its producer is blocked, so the producer's visibility (which is
<= the put's timestamp by the §4.2 rules) keeps the global minimum below the
new item's timestamp until the item is registered at its home.  The paper's
Fig. 10 measurements likewise describe put/get as "two, four or more
round-trip communications".

Requests travel wrapped in :class:`RpcRequest`; replies in :class:`RpcReply`
carrying either a value or a pickled exception that is re-raised at the
caller.  One-way messages (GC horizon broadcast, shutdown) skip the reply.

Every class here is registered with a wire tag (envelopes and one-way
messages 1-15, RPC bodies from 16), so it crosses the wire as a flat tuple
of its field values — see :mod:`repro.transport.serialization`.  Field order
is therefore wire format: append new fields, with defaults, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.flags import GetWildcard, UNKNOWN_REFCOUNT
from repro.core.gc_state import LocalGCSummary
from repro.core.time import VirtualTime
from repro.transport.serialization import register_message

__all__ = [
    "RpcRequest",
    "RpcReply",
    "RpcCancel",
    "CreateChannelReq",
    "DestroyChannelReq",
    "AttachReq",
    "DetachReq",
    "PutReq",
    "GetReq",
    "ConsumeReq",
    "RegisterNameReq",
    "LookupNameReq",
    "SpawnReq",
    "GcSummaryReq",
    "GcApplyReq",
    "EndpointStatsReq",
    "ClockProbeReq",
    "TelemetryHarvestReq",
    "ShutdownMsg",
    "CachePushMsg",
]


@register_message(1, envelope=True)
@dataclass
class RpcRequest:
    """Envelope for a request expecting a reply."""

    call_id: int
    src_space: int
    body: Any


@register_message(2)
@dataclass
class RpcReply:
    """Envelope for a reply: exactly one of ``value`` / ``error`` is set."""

    call_id: int
    value: Any = None
    error: BaseException | None = None


@register_message(3)
@dataclass
class RpcCancel:
    """Client-side timeout: asks the server to abandon a parked request.

    Races benignly with a completed reply — the client treats whichever
    arrives first as the outcome and drops the loser.
    """

    call_id: int


@register_message(16)
@dataclass
class CreateChannelReq:
    """Create a channel homed at the receiving space.

    ``push`` enables the §9 optimization ("use information about the
    current connections to a channel to preemptively send data towards
    consumers"): every put is eagerly forwarded to the spaces holding input
    connections, and later gets from those spaces receive a payload-free
    reply resolved against the local push cache.
    """

    name: str | None
    capacity: int | None
    push: bool = False


@register_message(17)
@dataclass
class DestroyChannelReq:
    channel_id: int


@register_message(18)
@dataclass
class AttachReq:
    """Attach a connection for a thread with the given current visibility.

    ``visibility`` drives the implicit consumption of items below it when
    attaching an input connection (paper §4.2).
    """

    channel_id: int
    conn_id: int
    is_input: bool
    visibility: VirtualTime = None


@register_message(19)
@dataclass
class DetachReq:
    channel_id: int
    conn_id: int


@register_message(20)
@dataclass
class PutReq:
    """Insert ``payload`` (already copy-in encoded) at ``timestamp``.

    Payload forms under the SERIALIZE policy: the in-band pickle ``bytes``
    — as they are up to ``max_payload()`` (8 120 B), in a ``Frame`` above —
    or a :class:`~repro.core.payload.Parts` — pickle stream plus views of
    the putter's own buffers — which frames its buffers itself.  Framed
    bytes leave as out-of-band segments and arrive as views of the received
    message, which is what the home stores; small ``bytes`` cross inside the
    pickle and arrive as ``bytes``.
    """

    channel_id: int
    conn_id: int
    timestamp: int
    payload: Any
    size: int
    refcount: int = UNKNOWN_REFCOUNT
    block: bool = True


@register_message(21)
@dataclass
class GetReq:
    """Get by timestamp or wildcard; server parks the request when blocking.

    ``cache_ok``: the requesting space holds a push cache for this channel;
    the server may omit the payload from the reply when it knows the item
    was pushed there (CLF's per-link FIFO guarantees the push landed before
    the reply can).
    """

    channel_id: int
    conn_id: int
    request: int | GetWildcard
    block: bool = True
    cache_ok: bool = False


@register_message(22)
@dataclass
class ConsumeReq:
    """Consume one timestamp, or everything up to it when ``until`` is set."""

    channel_id: int
    conn_id: int
    timestamp: int
    until: bool = False


@register_message(23)
@dataclass
class RegisterNameReq:
    """Bind ``name`` to a full channel handle in the cluster registry.

    The registry stores the complete handle (including capacity and copy
    policy) so a looked-up handle behaves identically to the creator's.
    """

    name: str
    handle: Any  # ChannelHandle (kept Any to avoid a circular import)


@register_message(24)
@dataclass
class LookupNameReq:
    name: str
    #: when True, park until the name appears instead of failing — lets a
    #: consumer start before the producer has created the channel.
    wait: bool = False


@register_message(25)
@dataclass
class SpawnReq:
    """Create a Stampede thread on the receiving space.

    ``fn`` must be picklable (module-level callable) for remote spawns; the
    child's initial virtual time obeys §4.2 (>= parent's visibility at the
    time of the spawn — guaranteed by spawn being a synchronous RPC).
    """

    fn: Any
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    name: str | None = None
    virtual_time: VirtualTime = None


@register_message(26)
@dataclass
class GcSummaryReq:
    """Coordinator asks a space for its LocalGCSummary for ``epoch``."""

    epoch: int


@register_message(27)
@dataclass
class GcApplyReq:
    """Synchronous horizon application (the daemon's RPC broadcast).

    Returns the number of items the receiving space collected, so
    ``GcDaemon.run_once`` callers observe a fully applied round.
    """

    epoch: int
    horizon: VirtualTime


@register_message(28)
@dataclass
class EndpointStatsReq:
    """Fetch a space's transport-level counters (benchmarks, diagnostics).

    Replies with ``{"clf": ClfStats snapshot, "frames": FrameStats
    snapshot}``.  In the process runtime this is the only way to see a child
    space's counters — ``frame_stats`` is per-process, not shared.
    ``reset_frames`` clears the frame counters after snapshotting so a
    benchmark can measure one put/get cycle in isolation.
    """

    reset_frames: bool = False


@register_message(29)
@dataclass
class TelemetryHarvestReq:
    """Drain a space's telemetry: recorder rings + metrics registry.

    Replies with a picklable ``ProcessTelemetry`` (see
    :mod:`repro.obs.collect`) whose ``clock_ns`` is the responder's
    monotonic clock at snapshot time; the collector turns the RPC's
    request/response midpoint into a per-child clock offset, putting every
    harvested span on one cluster timeline.  Works with tracing disarmed —
    the registry half (wire bytes, op counters) still ships.
    """

    #: disarm the child's tracer after snapshotting (shutdown harvest).
    disarm: bool = False


@register_message(30)
@dataclass
class ClockProbeReq:
    """Read a space's monotonic clock (``time.perf_counter_ns``).

    Replies with a bare integer.  The collector fires a few of these per
    child before a telemetry harvest and keeps the estimate from the probe
    with the smallest round trip — the NTP trick — because the harvest RPC
    itself is heavyweight (it pickles every ring) and its round trip bounds
    the clock-offset error.
    """


# Tag 4 was the one-way ``GcCollectMsg`` broadcast (superseded by
# ``GcApplyReq``).  Tags are wire format: retired, never reused or renumbered.


@register_message(5)
@dataclass
class ShutdownMsg:
    """One-way: the cluster is tearing down; dispatcher should exit."""

    reason: str = "shutdown"


@register_message(6)
@dataclass
class CachePushMsg:
    """One-way eager data push (§9) from a channel home to a consumer space.

    Sent at put time to every space holding an input connection on a
    push-enabled channel.  The receiving space stores the payload in its
    push cache; a later payload-free get reply resolves against it.
    ``payload`` is the stored form re-framed as it lies — ``bytes`` up to
    ``max_payload()``, a ``Frame`` around bytes or a view above it, or a
    :class:`~repro.core.payload.Parts` whose parts are gathered into the
    message without being joined first.
    """

    channel_id: int
    timestamp: int
    payload: Any
    size: int


#: LocalGCSummary crosses the wire inside RpcReply values; nothing to do —
#: reply values pickle by value.  This assertion documents the dependency.
assert LocalGCSummary is not None
