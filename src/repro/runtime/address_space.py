"""Stampede address spaces: channel homes, RPC dispatch, cluster-wide threads.

An :class:`AddressSpace` is one of the cluster's protection domains (the
paper runs one per SMP).  It owns:

* the **channels homed here** — each a :class:`LocalChannel` pairing a
  :class:`~repro.core.channel_state.ChannelKernel` with two reason-keyed
  wait sets holding blocked operations, local and remote alike;
* the **Stampede threads** running here, whose visibilities feed GC;
* a **dispatcher thread** that serves incoming requests: channel RPCs
  from other spaces, GC protocol traffic, spawn/join requests, and name
  registry operations (on the registry space).  Messages that only
  *complete* something — RPC replies, eager cache pushes — never reach it:
  the thread that delivers them finishes them (:meth:`AddressSpace._receive`).
  An asyncio space (:mod:`repro.runtime.aio`) starts no such thread: its
  event loop serves the requests.

Location transparency (§4): a thread operating on a channel homed in its own
space runs the operation directly under the channel lock — the one lock a
local put, get or consume takes ("CLF exploits shared memory within an
SMP"); operations on remote channels become synchronous RPCs over CLF, served
at the home by the *same* start functions (``_put_start`` / ``_get_start`` /
``_consume_apply``), so semantics cannot diverge.

Blocking — targeted wakeups: every blocked operation (local or remote) is
parked at the channel in one of two wait sets keyed by its
:class:`~repro.core.channel_state.BlockReason` — puts blocked on
``CHANNEL_FULL``, gets blocked on ``NO_MATCHING_ITEM``.  Whichever thread
changes channel state *completes the parked operations itself* under the
channel lock and wakes only the waiters whose operation finished: a put
retries parked getters, a consume/collect retries parked putters.  There is
no ``notify_all`` herd — a waiter is woken exactly once, with its result (or
error) already in hand.  Remote waiters get their reply sent the same way.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, replace
from functools import update_wrapper
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Generator

from repro.analysis.sanitizer import guard_kernel
from repro.core.channel_state import BlockReason, ChannelKernel, Status
from repro.core.flags import GetWildcard, UNKNOWN_REFCOUNT
from repro.core.gc_state import LocalGCSummary
from repro.core.payload import CopyPolicy
from repro.core.time import INFINITY, VirtualTime, vt_min
from repro.errors import (
    AddressSpaceError,
    ChannelDestroyedError,
    ChannelEmptyError,
    ChannelFullError,
    NameInUseError,
    NoSuchChannelError,
    StampedeError,
    TransportClosedError,
    TransportError,
)
from repro.obs import events as _obs
from repro.runtime.messages import (
    AttachReq,
    CachePushMsg,
    ConsumeReq,
    CreateChannelReq,
    DestroyChannelReq,
    DetachReq,
    EndpointStatsReq,
    GcApplyReq,
    GcSummaryReq,
    GetReq,
    ClockProbeReq,
    LookupNameReq,
    PutReq,
    RegisterNameReq,
    RpcCancel,
    RpcReply,
    RpcRequest,
    ShutdownMsg,
    SpawnReq,
    TelemetryHarvestReq,
)
from repro.runtime.sync import make_event, make_lock
from repro.runtime.threads import StampedeThread, current_thread
from repro.transport.clf import ClfEndpoint
from repro.transport.packets import max_payload
from repro.transport.serialization import (
    Frame,
    decode_message,
    encode_message_sg,
    frame_stats,
)
from repro.util.ids import IdAllocator

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = ["ChannelHandle", "LocalChannel", "AddressSpace"]

#: the largest payload that crosses spaces in-band (see ``_framed``)
_INBAND_MAX = max_payload()

#: the ``(src, call_id)`` of an operation a local caller runs itself
_LOCAL = (None, None)


def _framed(payload: Any) -> Any:
    """A stored payload as it travels inside a message.

    Encoded bytes larger than one CLF packet's payload (``max_payload()``,
    8 120 B: what the media send inline) are marked for out-of-band framing
    (one memcpy each way); smaller ones ride in-band, as ``bytes`` inside
    the message's pickle, where two more memcpys of at most 8 KB cost less
    than a ``Frame``, its buffer and its extra wire segment.  A
    :class:`~repro.core.payload.Parts` frames its own buffers when the
    message is pickled; anything else crosses by value.
    """
    if isinstance(payload, (bytes, bytearray, memoryview)):
        if memoryview(payload).nbytes > _INBAND_MAX:
            return Frame(payload)
        return payload if payload.__class__ is bytes else bytes(payload)
    return payload


def _unframed(payload: Any) -> Any:
    """A received payload as it is stored: the view under a ``Frame``."""
    return payload.data if payload.__class__ is Frame else payload


def _withdraw(parked: dict[Any, list[tuple]], call_id: int) -> list[tuple]:
    """Remove and return the ``(call_id, src)`` entries of one parked call."""
    found = [(entries, entry) for entries in parked.values()
             for entry in entries if entry[0] == call_id]
    for entries, entry in found:
        entries.remove(entry)
    return [entry for _entries, entry in found]


def _run(steps: Generator) -> Any:
    """Run an entry point's steps on the calling thread: block in each wait
    they yield, send back whether it ended set, return what they return."""
    woke = None
    try:
        while True:
            event, timeout = steps.send(woke)
            woke = event.wait(timeout)
    except StopIteration as done:
        return done.value
    finally:
        steps.close()  # a wait that raised: the steps clean up now


def _blocking(steps: Callable) -> Callable:
    """The entry point that runs the ``steps`` method with :func:`_run`."""

    def entry(self: "AddressSpace", *args: Any, **kwargs: Any) -> Any:
        return _run(steps(self, *args, **kwargs))

    return update_wrapper(entry, steps)


@dataclass(frozen=True)
class ChannelHandle:
    """Portable reference to a channel anywhere in the cluster."""

    channel_id: int
    home_space: int
    name: str | None = None
    capacity: int | None = None
    copy_policy: CopyPolicy = CopyPolicy.SERIALIZE
    #: eager data push toward consumer spaces (the §9 optimization).
    push: bool = False


class _Waiter:
    """A blocked put or get parked at the channel home.

    It carries what the drains replay: the connection, ``request`` (the
    timestamp a put stores at, or the timestamp or wildcard a get asks for),
    a put's payload, size and refcount, and a get's ``cache_ok``.  A local
    park builds only this object; a served request has its fields copied
    in.  Covers both kinds of blocker: a
    *remote* waiter carries the RPC routing (``call_id``/``src_space``) so
    the completed result can be sent as a reply; a *local* waiter carries
    the event its one blocked caller sleeps on
    (:meth:`AddressSpace._make_event`) plus result/error slots.  Either way
    the operation is finished *by the thread that changed channel state* —
    the waiter never retries anything itself.
    """

    __slots__ = ("op", "channel", "conn_id", "request", "payload", "size",
                 "refcount", "cache_ok", "src_space", "call_id", "event",
                 "result", "error")

    def __init__(self, op: str, channel: "LocalChannel", conn_id: int,
                 request: Any, payload: Any, size: int, refcount: int,
                 cache_ok: bool, src_space: int | None,
                 call_id: int | None):
        self.op = op  # "put" | "get"
        self.channel = channel  # where it is parked
        self.conn_id = conn_id
        self.request = request
        self.payload = payload
        self.size = size
        self.refcount = refcount
        self.cache_ok = cache_ok
        # remote waiters:
        self.src_space = src_space
        self.call_id = call_id
        # local waiters (a OneSleeperEvent, an AioEvent or a model-checker
        # event; set by ``_park``):
        self.event: Any = None
        self.result: Any = None
        self.error: BaseException | None = None


class _GetWaitSet:
    """Parked gets, striped by requested timestamp.

    With one coroutine per camera, 10k gets can be parked on one channel;
    retrying every one of them on every put made the put path O(waiters)
    even though targeted wakeups complete exactly one.  Specific-timestamp
    requests are bucketed by timestamp, so an item arriving at T retries
    only T's bucket plus the wildcard waiters; semantic events (attach,
    detach, GC, destroy) still retry the full set via iteration.

    List-compatible where the runtime and benches touch it: ``len``,
    truthiness, iteration in park order, ``append``, identity ``remove``,
    ``clear``, and right-concatenation with the put-waiter list.
    """

    __slots__ = ("_seq", "_all", "_by_ts", "_wild")

    def __init__(self) -> None:
        self._seq = 0
        self._all: dict[int, tuple[int, _Waiter]] = {}   # id -> (seq, waiter)
        self._by_ts: dict[int, dict[int, _Waiter]] = {}  # ts -> {id: waiter}
        self._wild: dict[int, _Waiter] = {}              # wildcard requests

    def __len__(self) -> int:
        return len(self._all)

    def __bool__(self) -> bool:
        return bool(self._all)

    def __iter__(self):
        return iter([w for _seq, w in self._all.values()])

    def __radd__(self, other: list) -> list:
        return list(other) + list(self)

    def append(self, waiter: "_Waiter") -> None:
        self._all[id(waiter)] = (self._seq, waiter)
        self._seq += 1
        request = waiter.request
        if isinstance(request, int):
            self._by_ts.setdefault(request, {})[id(waiter)] = waiter
        else:
            self._wild[id(waiter)] = waiter

    def remove(self, waiter: "_Waiter") -> None:
        if self._all.pop(id(waiter), None) is None:
            raise ValueError("waiter is not parked here")
        request = waiter.request
        if isinstance(request, int):
            bucket = self._by_ts.get(request)
            if bucket is not None:
                bucket.pop(id(waiter), None)
                if not bucket:
                    del self._by_ts[request]
        else:
            self._wild.pop(id(waiter), None)

    def clear(self) -> None:
        self._all.clear()
        self._by_ts.clear()
        self._wild.clear()

    def candidates(self, timestamps: list[int]) -> list["_Waiter"]:
        """Waiters an item arrival at these timestamps could satisfy, in
        park order: the matching specific buckets plus every wildcard."""
        if len(timestamps) == 1 and not self._wild:
            # The common arrival: one bucket, already in park order.
            bucket = self._by_ts.get(timestamps[0])
            return list(bucket.values()) if bucket is not None else []
        picked: dict[int, tuple[int, "_Waiter"]] = {}
        for ts in timestamps:
            for wid in self._by_ts.get(ts, ()):
                picked[wid] = self._all[wid]
        for wid in self._wild:
            picked[wid] = self._all[wid]
        # (seq, waiter) pairs: the seqs are unique, so no waiter is compared
        return [w for _seq, w in sorted(picked.values())]


class LocalChannel:
    """A channel homed in this address space.

    Blocked operations park in one of two wait sets keyed by their
    :class:`~repro.core.channel_state.BlockReason`: ``put_waiters`` holds
    operations blocked on CHANNEL_FULL, ``get_waiters`` those blocked on
    NO_MATCHING_ITEM.  State changes drain only the set they can satisfy —
    and for pure item arrivals, only the get-waiter stripe the new
    timestamp can touch.
    """

    def __init__(self, kernel: ChannelKernel, handle: ChannelHandle):
        self.kernel = kernel
        self.handle = handle
        self.lock = make_lock("LocalChannel.lock")
        guard_kernel(kernel, self.lock)  # STMSAN only; no-op otherwise
        self.put_waiters: list[_Waiter] = []  # blocked on CHANNEL_FULL
        self.get_waiters = _GetWaitSet()      # blocked on NO_MATCHING_ITEM
        #: blocked operations completed (woken) since channel creation —
        #: under targeted wakeups this equals the number of blocked ops,
        #: never a multiple of it.
        self.waiters_woken = 0
        #: conn_id -> attaching space, for the eager-push optimization.
        self.input_spaces: dict[int, int] = {}

    @property
    def parked(self) -> list[_Waiter]:
        """The remote blockers currently parked here (diagnostics/tests)."""
        return [
            w for w in self.put_waiters + self.get_waiters
            if w.call_id is not None
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LocalChannel {self.handle.channel_id} items={len(self.kernel)}>"


class _Call:
    """Client-side state of an outstanding RPC: the slot its reply lands in.

    :meth:`AddressSpace.call_async` makes one per request.  The synchronous
    :meth:`AddressSpace.call` keeps one *per calling thread* and re-arms it
    for every call — a blocked thread has exactly one call outstanding, so
    the event, the result fields and the object itself can be reused.
    ``call_id`` names the call the slot currently stands for (None while
    idle); it changes only under ``_calls_lock``, which is also where a reply
    is matched against it and delivered.
    """

    __slots__ = ("event", "value", "error", "done", "call_id")

    def __init__(self, event: Any = None) -> None:
        self.event = make_event() if event is None else event
        self.value: Any = None
        self.error: BaseException | None = None
        self.done = False
        self.call_id: int | None = None


@dataclass
class JoinReq:
    """Park until the named thread on the receiving space exits."""

    thread_name: str


class AddressSpace:
    """One Stampede address space: channels, threads, dispatcher, RPC client."""

    def __init__(self, cluster: "Cluster", space_id: int, endpoint: ClfEndpoint):
        # 29 instance attributes, and no more: CPython 3.11 keeps up to 29
        # in the object's inline values; a 30th demotes every ``self.x`` of
        # the class to a dict lookup (measured: local_cycle +3.4 %).
        self.cluster = cluster
        self.space_id = space_id
        self.endpoint = endpoint
        n = cluster.n_spaces
        self._channel_ids = IdAllocator(space_id, n)
        self._conn_ids = IdAllocator(space_id, n)
        self._call_ids = IdAllocator(space_id, n)
        #: copy-on-write: create/destroy *replace* the dict under
        #: ``_channels_lock``; readers use whatever snapshot is current.
        self._channels: dict[int, LocalChannel] = {}
        self._channels_lock = make_lock("AddressSpace.channels")
        self._threads: dict[str, StampedeThread] = {}
        self._threads_lock = make_lock("AddressSpace.threads")
        self._thread_seq = IdAllocator(0, 1)
        self._calls: dict[int, _Call] = {}
        self._calls_lock = make_lock("AddressSpace.calls")
        #: ``.slot``: the calling thread's reusable :class:`_Call`.
        self._thread_call = threading.local()
        #: call_id -> waiter of every parked remote operation.
        self._parked_index: dict[int, _Waiter] = {}
        # The parked index is touched by the dispatcher (_serve_cancel) and
        # by whatever thread drains a waiter, under *different* channel
        # locks — it needs its own lock (found by repro.analysis.modelcheck).
        self._parked_lock = make_lock("AddressSpace.parked")
        self._pending_joins: dict[str, list[tuple[int, int]]] = {}
        # registry space only:
        self._names: dict[str, ChannelHandle] = {}
        #: name -> who waits for it: the ``(call_id, src)`` of a parked
        #: remote lookup, or ``(None, event)`` for a caller of this space.
        self._name_waiters: dict[str, list[tuple]] = {}
        self._registry_lock = make_lock("AddressSpace.registry")
        self._gc_horizon_applied: VirtualTime = 0
        # Guards the horizon watermark: concurrent GC applies (daemon round
        # racing an explicit gc_once) would otherwise lose the max-update.
        self._gc_horizon_lock = make_lock("AddressSpace.gc_horizon")
        #: (channel_id, timestamp) -> (payload, size): items eagerly pushed
        #: here by push-enabled channel homes (§9).
        self._push_cache: dict[tuple[int, int], tuple[Any, int]] = {}
        self._push_cache_lock = make_lock("AddressSpace.push_cache")
        #: decoded requests awaiting the dispatcher, in per-peer arrival
        #: order (``_receive`` fills it on the delivering threads).
        self._requests: queue.SimpleQueue = queue.SimpleQueue()
        self._dispatcher: threading.Thread | None = None
        #: connections attached by threads of this space: conn_id ->
        #: (handle, thread) — used to auto-detach on thread exit.
        self._conn_owner: dict[int, tuple[ChannelHandle, StampedeThread]] = {}
        self._conn_owner_lock = make_lock("AddressSpace.conn_owner")

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self) -> None:
        if self._dispatcher is not None:
            return
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"stampede-dispatch-{self.space_id}",
            daemon=True,
        )
        self._dispatcher.start()
        self.endpoint.deliver_to(self._receive)

    def stop(self) -> None:
        """Local half of cluster shutdown: wake the dispatcher and join it."""
        dispatcher = self._dispatcher
        if dispatcher is None:
            return  # never started: the endpoint is the cluster's to close
        self.endpoint.close()  # reaches the dispatcher through the sink
        if dispatcher is not threading.current_thread():
            dispatcher.join(timeout=5.0)

    @property
    def is_registry(self) -> bool:
        return self.space_id == self.cluster.registry_space

    # ==================================================================
    # receive path
    # ==================================================================
    def _receive(self, src: int, message) -> None:
        """The endpoint's sink: every message for this space comes through
        here, on the thread that delivers it (DESIGN.md section 5e).

        A message that only *completes* something — an ``RpcReply``, a
        ``CachePushMsg`` — is finished right here.  That thread belongs to
        another space (the in-process sender: often a dispatcher, or an
        application thread mid-drain holding its own channel lock and the
        stream lock) or is a socket reader, so this branch never sends,
        never blocks and takes only the leaf locks ``_calls_lock`` /
        ``_push_cache_lock``.  A message that asks for work — request,
        cancel, shutdown — is queued for the dispatcher (an asyncio space:
        its loop) in per-peer send order, never served on the deliverer's
        thread, however cheap (the caller's one sleep per RPC is also what
        lets the two sides of a busy pair alternate).  Must not raise.
        """
        if message is None:  # the endpoint closed or failed
            self._requests.put(_CLOSED)
            return
        try:
            if isinstance(message, TransportError):
                raise message  # lost to a violated packet stream
            msg = decode_message(message)
        except Exception as exc:  # noqa: BLE001 - corrupt traffic
            # Dropped, and the space keeps serving.  If it was a request,
            # its caller learns only through its own timeout, so the drop
            # is counted where an operator can see it.
            self.endpoint.stats.count_drop(
                "decode_errors", "clf.decode_error", self.space_id, exc)
            return
        cls = msg.__class__
        if cls is RpcReply:
            self._complete_call(msg)
        elif cls is CachePushMsg:
            with self._push_cache_lock:
                self._push_cache[(msg.channel_id, msg.timestamp)] = (
                    _unframed(msg.payload), msg.size,
                )
        else:
            self._requests.put(msg)

    def _dispatch_loop(self) -> None:
        take = self._requests.get
        endpoint = self.endpoint
        while not endpoint.closed:
            msg = take()
            if msg is _CLOSED or not self._serve(msg):
                break
        self._fail_calls()

    def _fail_calls(self) -> None:
        """The endpoint closed or failed: fail the calls outstanding, so that
        their callers do not hang, with a transport failure (peer crashed,
        heartbeat lapsed) told apart from an orderly shutdown."""
        failure = getattr(self.endpoint, "failure", None)
        with self._calls_lock:
            for call in self._calls.values():
                if not call.done:
                    if failure is not None:
                        call.error = TransportClosedError(
                            f"address space {self.space_id}: call failed, "
                            f"{failure}"
                        )
                    else:
                        call.error = AddressSpaceError(
                            f"address space {self.space_id} shut down with "
                            f"the call outstanding"
                        )
                    call.done = True
                    call.event.set()

    def _serve(self, msg: Any) -> bool:
        """Serve one queued message; False once the space was told to stop."""
        cls = msg.__class__
        if cls is RpcRequest:
            try:
                result = self._handle(msg.body, msg.src_space, msg.call_id)
            except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                self._reply(msg.src_space, RpcReply(msg.call_id, error=exc))
                return True
            if result is not _PARKED and result.__class__ is not _Waiter:
                self._reply(msg.src_space, RpcReply(msg.call_id, value=result))
            # else: parked, the reply comes later, from a drain
        elif cls is RpcCancel:
            self._serve_cancel(msg)
        elif cls is ShutdownMsg:
            return False
        return True

    def _serve_cancel(self, msg: RpcCancel) -> None:
        cancelled = RpcReply(msg.call_id, error=TimeoutError(
            "operation cancelled by caller timeout"))
        with self._parked_lock:
            waiter = self._parked_index.pop(msg.call_id, None)
        if waiter is not None:
            with waiter.channel.lock:
                if self._unpark(waiter):
                    self._reply(waiter.src_space, cancelled)
            return
        # A name lookup parked at the registry, or a join parked on a
        # thread, is withdrawn the same way; found nowhere, the request
        # completed and its reply won the race.
        with self._registry_lock:
            parked = _withdraw(self._name_waiters, msg.call_id)
        with self._threads_lock:
            parked += _withdraw(self._pending_joins, msg.call_id)
        for _call_id, src in parked:
            self._reply(src, cancelled)

    def _reply(self, dst: int, reply: RpcReply) -> None:
        """Send a reply; one that cannot be delivered is dropped and counted.

        The caller's endpoint may have closed or failed since it asked.
        Nobody is left to tell, and the thread sending the reply is serving
        somebody else — the dispatcher, or an application thread whose own
        put or consume drained the parked request — so it carries on.
        """
        try:
            self.endpoint.send(dst, encode_message_sg(reply))
        except TransportError as exc:
            self.endpoint.stats.count_drop(
                "replies_dropped", "clf.reply_dropped", self.space_id, exc)

    # ==================================================================
    # RPC client
    # ==================================================================
    #: how long a timed-out call waits for its cancel to be answered.
    _CANCEL_GRACE_S = 5.0

    def call(self, dst_space: int, body: Any, timeout: float | None = None) -> Any:
        """Synchronous RPC to another address space (``_rpc_steps`` inline)."""
        if dst_space == self.space_id:
            # Self-calls bypass the wire entirely (shared-memory fast path),
            # but still run the exact handler code.
            return _run(self._local_steps(body, timeout))
        call = self._call_slot()
        self._begin_call(call, dst_space, body)
        try:
            if not call.event.wait(timeout):
                _run(self._abandon_steps(call, dst_space))
        finally:
            self._end_call(call)
        return self._call_outcome(call, dst_space, timeout)

    def _rpc_steps(self, dst_space: int, body: Any,
                   timeout: float | None = None):
        """The steps of one RPC.  A task cancelled while it waits abandons the
        request as a timed-out caller does, then the cancellation propagates:
        a withdrawn operation never lands later, one completed first stands."""
        if dst_space == self.space_id:
            return (yield from self._local_steps(body, timeout))
        call = self._call_slot()
        self._begin_call(call, dst_space, body)
        try:
            try:
                woke = yield call.event, timeout
            except GeneratorExit:
                raise
            except BaseException as exc:  # noqa: BLE001 - a cancelled task
                yield from self._abandon_steps(call, dst_space)
                raise exc
            if not woke:
                yield from self._abandon_steps(call, dst_space)
        finally:
            self._end_call(call)
        return self._call_outcome(call, dst_space, timeout)

    def _abandon_steps(self, call: _Call, dst_space: int):
        """Ask the server to abandon a call that timed out or was cancelled,
        then give the reply (cancelled or real) a grace period to land."""
        self.endpoint.send(dst_space, encode_message_sg(RpcCancel(call.call_id)))
        yield call.event, self._CANCEL_GRACE_S

    @staticmethod
    def _call_outcome(call: _Call, dst_space: int, timeout: float | None) -> Any:
        """What an ended call came to.  Unregistered, no reply can reach the
        slot any more: its fields are the caller's to read and to clear."""
        done, value, error = call.done, call.value, call.error
        call.value = call.error = None
        if not done:
            raise TimeoutError(
                f"RPC to space {dst_space} timed out after {timeout}s "
                f"and the cancel was not acknowledged"
            )
        if error is not None:
            raise error
        return value

    def _call_slot(self) -> _Call:
        """The calling thread's reusable completion slot, re-armed."""
        tls = self._thread_call
        try:
            call = tls.slot
        except AttributeError:
            call = tls.slot = _Call()
            return call
        if call.call_id is not None:
            # re-entered between begin and end (a finalizer or signal
            # handler calling out): the slot is taken, use a fresh one
            return _Call()
        # The previous call has ended: no reply can set the event any more.
        call.event.clear()
        return call

    def _begin_call(self, call: _Call, dst_space: int, body: Any) -> None:
        """Arm ``call`` under a fresh call id, register it, send the request."""
        call_id = self._call_ids.next()
        with self._calls_lock:
            call.call_id = call_id
            call.done = False
            self._calls[call_id] = call
        try:
            self.endpoint.send(
                dst_space,
                encode_message_sg(RpcRequest(call_id, self.space_id, body)),
            )
        except BaseException:
            self._end_call(call)
            raise

    def _end_call(self, call: _Call) -> None:
        """Unregister ``call``: from here on a reply to it is a late reply."""
        with self._calls_lock:
            self._calls.pop(call.call_id, None)
            call.call_id = None

    def call_async(self, dst_space: int, body: Any) -> _Call:
        """Fire an RPC without waiting; pair with :meth:`gather`.

        Lets a coordinator scatter a request to every space and then wait
        for all replies together (max-of-RTTs instead of sum-of-RTTs — the
        GC daemon's epoch pattern).  Self-calls execute inline, so only
        non-blocking request bodies should be scattered.
        """
        call = _Call(self._make_event())
        if dst_space == self.space_id:
            try:
                call.value = _run(self._local_steps(body, None))
            except BaseException as exc:  # noqa: BLE001 - delivered at gather
                call.error = exc
            call.done = True
            call.event.set()
        else:
            self._begin_call(call, dst_space, body)
        return call

    def _gather_steps(self, pending: list[_Call], timeout: float | None = None):
        """Collect :meth:`call_async` results, in scatter order.

        ``timeout`` bounds the *total* wait across all replies.  The first
        error encountered is raised; every call is unregistered first, so
        late replies are dropped.
        """
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        results: list[Any] = []
        try:
            for call in pending:
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                if not (yield call.event, remaining):
                    raise TimeoutError(f"gather timed out after {timeout}s")
                if call.error is not None:
                    raise call.error
                results.append(call.value)
        finally:
            for call in pending:
                if call.call_id is not None:
                    self._end_call(call)
        return results

    gather = _blocking(_gather_steps)

    def _complete_call(self, reply: RpcReply) -> None:
        # Matched and delivered in one critical section: a thread's slot is
        # re-armed for its next call the moment the previous one ends, so a
        # reply looked up here and delivered after the lock was dropped
        # could land in the *next* call.
        with self._calls_lock:
            call = self._calls.get(reply.call_id)
            if call is None or call.done or call.call_id != reply.call_id:
                return  # late reply after cancel: drop
            call.value = reply.value
            call.error = reply.error
            call.done = True
            call.event.set()

    # ==================================================================
    # request handlers (run on the dispatcher thread, or inline for
    # same-space calls)
    # ==================================================================
    def _handle(self, body: Any, src_space: int, call_id: int | None) -> Any:
        handler = self._HANDLERS.get(type(body))
        if handler is None:
            raise AddressSpaceError(f"no handler for {type(body).__name__}")
        return handler(self, body, src_space, call_id)

    def _local_steps(self, body: Any, timeout: float | None):
        """The steps of a request a caller makes of its own space.

        :meth:`put`, :meth:`get` and :meth:`consume` do not come this way —
        they run their start function directly; a request handed to
        :meth:`call` is served by its handler like anyone else's, and where
        it must wait — a parked put or get, a name not yet registered — the
        caller sleeps here.
        """
        if body.__class__ is LookupNameReq and body.wait:
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                with self._registry_lock:
                    handle = self._names.get(body.name)
                    if handle is not None:
                        return handle
                    # Registered under the registry lock, and set by
                    # ``_h_register_name`` after it publishes the handle:
                    # no check-then-sleep window.
                    event = self._make_event()
                    self._name_waiters.setdefault(body.name, []).append(
                        (None, event))
                try:
                    left = None
                    if deadline is not None:
                        # Raised only here: a wait that merely timed out
                        # loops back and still finds a name registered
                        # while it slept.
                        left = deadline - time.monotonic()
                        if left <= 0:
                            raise TimeoutError(
                                f"channel name {body.name!r} never registered")
                    yield event, left
                finally:
                    with self._registry_lock:
                        waiters = self._name_waiters.get(body.name, [])
                        if (None, event) in waiters:
                            waiters.remove((None, event))
        if body.__class__ is JoinReq:  # blocks (a task: ``ajoin``)
            with self._threads_lock:
                thread = self._threads.get(body.thread_name)
            return None if thread is None else thread.join(timeout)
        result = self._handle(body, self.space_id, None)
        if result.__class__ is _Waiter:
            return (yield from self._parked_steps(result, timeout))
        return result

    # -- channel management ------------------------------------------------
    def _h_create_channel(self, body: CreateChannelReq, src: int, cid) -> ChannelHandle:
        channel_id = self._channel_ids.next()
        handle = ChannelHandle(
            channel_id=channel_id,
            home_space=self.space_id,
            name=body.name,
            capacity=body.capacity,
            push=body.push,
        )
        kernel = ChannelKernel(channel_id, capacity=body.capacity)
        with self._channels_lock:
            self._channels = {
                **self._channels, channel_id: LocalChannel(kernel, handle),
            }
        return handle

    def _h_destroy_channel(self, body: DestroyChannelReq, src: int, cid) -> None:
        channel = self._channel(body.channel_id)
        with channel.lock:
            for waiter in channel.put_waiters + channel.get_waiters:
                if waiter.call_id is not None:
                    error: BaseException = StampedeError(
                        "channel destroyed while operation blocked"
                    )
                else:
                    error = ChannelDestroyedError(
                        f"channel {body.channel_id} is destroyed"
                    )
                self._fail_waiter(channel, waiter, error)
            channel.put_waiters.clear()
            channel.get_waiters.clear()
            channel.kernel.destroy()
        # An operation that resolved ``channel`` from an older snapshot takes
        # its lock after this and fails on ``kernel.destroyed``.
        with self._channels_lock:
            self._channels = {
                cid: ch for cid, ch in self._channels.items()
                if cid != body.channel_id
            }

    def _h_attach(self, body: AttachReq, src: int, cid) -> None:
        channel = self._channel(body.channel_id)
        with channel.lock:
            if body.is_input:
                channel.kernel.attach_input(body.conn_id, body.visibility)
                channel.input_spaces[body.conn_id] = src
            else:
                channel.kernel.attach_output(body.conn_id)
            # Attach/detach change the connection set both sides key off, so
            # both wait sets are retried (rare, cold path).
            self._drain_locked(channel, puts=True, gets=True)

    def _h_detach(self, body: DetachReq, src: int, cid) -> None:
        channel = self._channel(body.channel_id)
        with channel.lock:
            channel.kernel.detach(body.conn_id)
            channel.input_spaces.pop(body.conn_id, None)
            self._drain_locked(channel, puts=True, gets=True)

    # -- puts/gets/consumes --------------------------------------------------
    #
    # One start function per operation: the kernel call under the channel
    # lock, then the drain it can enable, ending completed, failed fast or
    # parked.  Local callers (:meth:`put`/:meth:`get`/:meth:`consume` and
    # their ``a*`` twins in :mod:`repro.runtime.aio`) and the handlers that
    # serve requests all run these.  A handler passes ``served``, its
    # ``(src, call_id)``: when the request came from another space
    # (``call_id`` set), a parked operation is answered by an RPC reply; a
    # local caller sleeps on its waiter's event.
    def _put_start(self, channel: LocalChannel, conn_id: int, timestamp: int,
                   payload: Any, size: int, refcount: int, block: bool,
                   served: tuple | None = None) -> _Waiter | None:
        """Kernel put; ``None`` means completed, a waiter means parked."""
        with channel.lock:
            result = channel.kernel.put(conn_id, timestamp, payload, size, refcount)
            if result.status is Status.OK:
                if channel.handle.push:
                    self._push(channel, timestamp)
                # A put only adds an item: it can satisfy blocked gets (and
                # only those parked on this timestamp or a wildcard), never
                # unblock another put.  (``_all`` directly: no ``__bool__``
                # call on the hot path.)
                if channel.get_waiters._all:
                    self._drain_locked(channel, puts=False, gets=True,
                                       put_ts=timestamp)
                return None
            if not block:
                raise ChannelFullError(
                    f"channel {channel.kernel.channel_id} is full "
                    f"(capacity {channel.kernel.capacity})"
                )
            src, call_id = served or _LOCAL
            return self._park(result.reason, _Waiter(
                "put", channel, conn_id, timestamp, payload, size, refcount,
                False, src, call_id))

    def _get_start(self, channel: LocalChannel, conn_id: int,
                   request: int | GetWildcard, block: bool,
                   cache_ok: bool = False,
                   served: tuple | None = None) -> tuple | _Waiter:
        """Kernel get; the reply tuple of :meth:`_get_reply`, or the waiter."""
        with channel.lock:
            result = channel.kernel.get(conn_id, request)
            if result.status is Status.OK:
                # A get changes no state another operation waits on: nothing
                # to drain, nobody to wake.
                return self._get_reply(
                    channel, cache_ok, result,
                    self.space_id if served is None else served[0],
                )
            if not block:
                raise ChannelEmptyError(
                    f"no item matching {request!r} in channel "
                    f"{channel.kernel.channel_id}; neighbours "
                    f"{result.timestamp_range}"
                )
            src, call_id = served or _LOCAL
            return self._park(result.reason, _Waiter(
                "get", channel, conn_id, request, None, 0, UNKNOWN_REFCOUNT,
                cache_ok, src, call_id))

    def _consume_apply(self, channel: LocalChannel, conn_id: int,
                       timestamp: int, until: bool) -> None:
        with channel.lock:
            if until:
                channel.kernel.consume_until(conn_id, timestamp)
            else:
                channel.kernel.consume(conn_id, timestamp)
            # A consume can only reclaim space: it unblocks puts (and, via a
            # completed put, transitively gets — _drain_locked cascades).
            if channel.put_waiters:
                self._drain_locked(channel, puts=True, gets=False)

    def _h_put(self, body: PutReq, src: int, call_id) -> _Waiter | None:
        # Store the received bytes themselves (a parked waiter keeps them
        # unwrapped for its drain retries too), looked up inline: this runs
        # once per remote put.
        payload = body.payload
        return self._put_start(
            self._channels.get(body.channel_id)
            or self._channel(body.channel_id),
            body.conn_id, body.timestamp,
            payload.data if payload.__class__ is Frame else payload,
            body.size, body.refcount, body.block, (src, call_id),
        )

    def _h_get(self, body: GetReq, src: int, call_id) -> tuple | _Waiter:
        return self._get_start(
            self._channel(body.channel_id), body.conn_id, body.request,
            body.block, body.cache_ok, (src, call_id),
        )

    def _h_consume(self, body: ConsumeReq, src: int, cid) -> None:
        self._consume_apply(
            self._channel(body.channel_id), body.conn_id, body.timestamp,
            body.until,
        )

    def _park(self, reason: BlockReason | None, waiter: _Waiter) -> _Waiter:
        """File a blocked operation in the wait set its BlockReason selects:
        a local one with the event its caller sleeps on, a remote one in the
        index a cancel finds it by."""
        call_id = waiter.call_id
        if call_id is None:
            waiter.event = self._make_event()
        else:
            with self._parked_lock:
                self._parked_index[call_id] = waiter
        if reason is BlockReason.CHANNEL_FULL:
            waiter.channel.put_waiters.append(waiter)
        else:  # NO_MATCHING_ITEM
            waiter.channel.get_waiters.append(waiter)
        return waiter

    @staticmethod
    def _unpark(waiter: _Waiter) -> bool:
        """Take a waiter out of its wait set, by identity (lock held).

        False means it is no longer parked: a drain completed it first, and
        that completion stands.
        """
        channel = waiter.channel
        waiters = channel.put_waiters if waiter.op == "put" else channel.get_waiters
        try:
            waiters.remove(waiter)
        except ValueError:
            return False
        return True

    def _drain_locked(self, channel: LocalChannel, *,
                      puts: bool, gets: bool,
                      put_ts: int | None = None) -> None:
        """Complete parked operations a state change may have unblocked.

        Runs with the channel lock held, on whichever thread changed the
        channel.  Only the wait set(s) the change can satisfy are retried;
        when a parked put completes it adds an item, so the get set is then
        drained too (the cascade never goes the other way — a completed get
        frees nothing).  Waiters whose operation finished (or raised) are
        woken exactly once, result in hand.

        ``put_ts`` marks the drain as a *pure item arrival* at that
        timestamp.  Arrivals (direct or via completed parked puts) retry
        only the get-waiter stripe their timestamps select — the matching
        specific-timestamp buckets plus the wildcards — because adding an
        item cannot change the outcome of a get parked on a different
        timestamp.  Semantic events (attach, detach, GC, visibility,
        destroy) pass ``gets=True`` without ``put_ts`` and retry everyone.
        """
        full_gets = gets and put_ts is None
        landed: list[int] = [put_ts] if put_ts is not None else []
        if puts and channel.put_waiters:
            landed += self._drain_puts(channel)
        if not channel.get_waiters._all:
            return
        if full_gets:
            candidates: list[_Waiter] = list(channel.get_waiters)
        elif landed:
            candidates = channel.get_waiters.candidates(landed)
        else:
            return
        if candidates:
            self._drain_gets(channel, candidates)

    def _drain_puts(self, channel: LocalChannel) -> list[int]:
        """Retry every parked put; return the timestamps that landed."""
        still_parked: list[_Waiter] = []
        landed: list[int] = []
        for waiter in channel.put_waiters:
            try:
                result = channel.kernel.put(
                    waiter.conn_id,
                    waiter.request,
                    waiter.payload,
                    waiter.size,
                    waiter.refcount,
                )
            except BaseException as exc:  # noqa: BLE001 - forwarded
                self._fail_waiter(channel, waiter, exc)
                continue
            if result.status is Status.OK:
                if channel.handle.push:
                    self._push(channel, waiter.request)
                self._complete_waiter(channel, waiter, None)
                landed.append(waiter.request)
            else:
                still_parked.append(waiter)
        channel.put_waiters[:] = still_parked
        return landed

    def _drain_gets(self, channel: LocalChannel,
                    candidates: list[_Waiter]) -> None:
        """Retry candidate parked gets, unparking the ones that finish."""
        for waiter in candidates:
            try:
                result = channel.kernel.get(waiter.conn_id, waiter.request)
                if result.status is not Status.OK:
                    continue  # still blocked; stays parked
                requester = (
                    waiter.src_space if waiter.src_space is not None
                    else self.space_id
                )
                reply = self._get_reply(channel, waiter.cache_ok, result,
                                        requester)
            except BaseException as exc:  # noqa: BLE001 - forwarded
                channel.get_waiters.remove(waiter)
                self._fail_waiter(channel, waiter, exc)
                continue
            channel.get_waiters.remove(waiter)
            self._complete_waiter(channel, waiter, reply)

    def _complete_waiter(self, channel: LocalChannel, waiter: _Waiter,
                         value: Any) -> None:
        """Deliver a result to a parked operation and wake it (lock held)."""
        channel.waiters_woken += 1
        rec = _obs.recorder
        if rec is not None:
            rec.instant(
                "stm", "wakeup", self.space_id,
                channel=channel.kernel.channel_id,
                remote=waiter.event is None,
            )
        if waiter.event is not None:  # local blocker
            waiter.result = value
            waiter.event.set()
        else:
            with self._parked_lock:
                self._parked_index.pop(waiter.call_id, None)
            self._reply(waiter.src_space, RpcReply(waiter.call_id, value=value))

    def _fail_waiter(self, channel: LocalChannel, waiter: _Waiter,
                     error: BaseException) -> None:
        """Deliver an error to a parked operation and wake it (lock held)."""
        channel.waiters_woken += 1
        rec = _obs.recorder
        if rec is not None:
            rec.instant(
                "stm", "wakeup", self.space_id,
                channel=channel.kernel.channel_id,
                remote=waiter.event is None, error=type(error).__name__,
            )
        if waiter.event is not None:  # local blocker
            waiter.error = error
            waiter.event.set()
        else:
            with self._parked_lock:
                self._parked_index.pop(waiter.call_id, None)
            self._reply(waiter.src_space, RpcReply(waiter.call_id, error=error))

    def _push(self, channel: LocalChannel, timestamp: int) -> None:
        """Eagerly forward a fresh item to consumer spaces (§9; lock held).

        CLF's per-link FIFO guarantees the push lands at each space before
        any later get reply that omits the payload.
        """
        record = channel.kernel.items.get(timestamp)
        if record is None:
            return  # reclaimed already (e.g. refcount 0)
        targets = {
            space for space in channel.input_spaces.values()
            if space != self.space_id
        }
        if not targets:
            return
        if record.pushed_to is None:
            record.pushed_to = set()
        msg = encode_message_sg(CachePushMsg(
            channel.kernel.channel_id, timestamp, _framed(record.payload),
            record.size,
        ))
        for space in targets:
            self.endpoint.send(space, msg)
            record.pushed_to.add(space)

    def _get_reply(self, channel: LocalChannel, cache_ok: bool, result,
                   requester: int) -> tuple:
        """Build a get reply: ``(payload, ts, size, from_cache)``.

        The payload is omitted when the requester declared cache capability
        and this item was pushed to its space.
        """
        payload = result.payload
        if requester != self.space_id:
            if cache_ok:
                record = channel.kernel.items.get(result.timestamp)
                if (
                    record is not None
                    and record.pushed_to is not None
                    and requester in record.pushed_to
                ):
                    return (None, result.timestamp, result.size, True)
            payload = _framed(payload)
        return (payload, result.timestamp, result.size, False)

    def _make_event(self) -> Any:
        """Event a local parked waiter sleeps on — one sleeper per event.

        Default: the :mod:`repro.runtime.sync` factory (a
        :class:`~repro.runtime.sync.OneSleeperEvent`, or the model checker's
        cooperative event).  The asyncio space overrides this with an
        :class:`~repro.runtime.aio.AioEvent`, which a task awaits on one loop
        future and an OS thread sleeps on like the default — the per-space
        end of the PR 3 virtualization seam.
        """
        return make_event()

    # -- sleeping on a parked local operation -------------------------------
    def _parked_steps(self, waiter: _Waiter, timeout: float | None):
        """The steps of sleeping on a parked local operation: one wait, then
        what the operation came to.

        The draining thread removes the waiter from its wait set, fills the
        result/error slot and sets the event — all under the channel lock —
        so once the event fires the outcome is final.  On timeout the waiter
        is withdrawn under the lock; finding it already gone means a
        completion won the race and must be honoured.  A caller that stops
        waiting — a task cancelled while parked — withdraws its operation
        the same way before the cancellation propagates.
        """
        rec = _obs.recorder
        t0 = rec.now() if rec is not None else None
        try:
            woke = yield waiter.event, timeout
        except BaseException:
            self._withdraw(waiter)
            raise
        channel = waiter.channel
        if t0 is not None and (rec := _obs.recorder) is not None:
            rec.complete(
                "stm", f"block({waiter.op})", t0, channel.handle.home_space,
                channel=channel.handle.name or f"#{channel.kernel.channel_id}",
                woke=woke,
            )
        if not woke:
            with channel.lock:
                if self._unpark(waiter):
                    raise TimeoutError(f"blocking {waiter.op} timed out")
        if waiter.error is not None:
            raise waiter.error
        return waiter.result

    def _withdraw(self, waiter: _Waiter) -> None:
        """Take an abandoned operation out of its wait set, unless a drain
        completed it first."""
        with waiter.channel.lock:
            self._unpark(waiter)

    # -- name registry (registry space only) -----------------------------
    def _h_register_name(self, body: RegisterNameReq, src: int, cid) -> None:
        self._require_registry()
        handle: ChannelHandle = body.handle
        with self._registry_lock:
            if body.name in self._names:
                raise NameInUseError(
                    f"channel name {body.name!r} already registered"
                )
            self._names[body.name] = handle
            waiters = self._name_waiters.pop(body.name, [])
        for call_id, waiter in waiters:
            if call_id is None:
                waiter.set()  # a caller of this space
            else:
                self._reply(waiter, RpcReply(call_id, value=handle))

    def _h_lookup_name(self, body: LookupNameReq, src: int, call_id) -> Any:
        self._require_registry()
        with self._registry_lock:
            handle = self._names.get(body.name)
            if handle is not None:
                return handle
            if not body.wait:
                raise NoSuchChannelError(f"no channel named {body.name!r}")
            self._name_waiters.setdefault(body.name, []).append((call_id, src))
        return _PARKED

    def _require_registry(self) -> None:
        if not self.is_registry:
            raise AddressSpaceError(
                f"space {self.space_id} is not the registry space "
                f"({self.cluster.registry_space})"
            )

    # -- spawn / join ---------------------------------------------------------
    def _h_spawn(self, body: SpawnReq, src: int, cid) -> str:
        thread = self._spawn_local(
            body.fn,
            body.args,
            body.kwargs,
            name=body.name,
            virtual_time=body.virtual_time if body.virtual_time is not None else 0,
            parent=None,  # cross-space parent rule enforced at the caller
        )
        return thread.name

    def _h_join(self, body: JoinReq, src: int, call_id) -> Any:
        with self._threads_lock:
            thread = self._threads.get(body.thread_name)
            if thread is None:
                return None  # already exited (or never existed)
            self._pending_joins.setdefault(body.thread_name, []).append(
                (call_id, src)
            )
        return _PARKED

    def _h_gc_summary(self, body: GcSummaryReq, src: int, cid) -> LocalGCSummary:
        return self.gc_summary(body.epoch)

    def _h_gc_apply(self, body, src: int, cid) -> int:
        return self.apply_gc_horizon(body.horizon)

    def _h_endpoint_stats(self, body: EndpointStatsReq, src: int, cid) -> dict:
        snap = {
            "clf": self.endpoint.stats.snapshot(),
            "frames": frame_stats.snapshot(),
        }
        if body.reset_frames:
            frame_stats.reset()
        return snap

    def _h_telemetry_harvest(self, body: TelemetryHarvestReq, src: int, cid):
        from repro.obs.collect import snapshot_local

        telemetry = snapshot_local(space=self.space_id)
        if body.disarm:
            _obs.disable()
        return telemetry

    def _h_clock_probe(self, body: ClockProbeReq, src: int, cid):
        return time.perf_counter_ns()

    _HANDLERS: ClassVar[dict[type, Callable]] = {}

    # ==================================================================
    # public API used by the STM facade and the cluster
    # ==================================================================
    def spawn(
        self,
        fn: Callable,
        args: tuple = (),
        kwargs: dict | None = None,
        *,
        name: str | None = None,
        virtual_time: VirtualTime | None = None,
        on_space: int | None = None,
    ) -> "StampedeThread | RemoteThreadHandle":
        """Create a Stampede thread, here or on another space.

        The child's initial virtual time defaults to the parent's current
        visibility (the smallest legal value per §4.2); passing INFINITY is
        the common choice for interior pipeline threads.
        """
        parent = current_thread()
        if virtual_time is None:
            # Default to the smallest legal initial VT: the parent's current
            # visibility (§4.2), or 0 for a root thread.  INFINITY must be
            # opted into explicitly — it is irreversible (a thread can never
            # lower its VT below its visibility), which makes it wrong as a
            # default for threads that produce timestamps of their own.
            virtual_time = parent.visibility() if parent is not None else 0
        if on_space is None or on_space == self.space_id:
            return self._spawn_local(
                fn, args, kwargs or {}, name=name, virtual_time=virtual_time,
                parent=parent,
            )
        remote_name = self.call(
            on_space,
            SpawnReq(fn=fn, args=args, kwargs=kwargs or {}, name=name,
                     virtual_time=virtual_time),
        )
        return RemoteThreadHandle(self, on_space, remote_name)

    def _spawn_local(
        self,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        *,
        name: str | None,
        virtual_time: VirtualTime,
        parent: StampedeThread | None,
    ) -> StampedeThread:
        thread = self._register_thread(name, "spd", virtual_time, parent)
        os_thread = threading.Thread(
            target=thread._run, args=(fn, args, kwargs), name=thread.name, daemon=True
        )
        thread.os_thread = os_thread
        os_thread.start()
        return thread

    def adopt_current_thread(
        self, virtual_time: VirtualTime = 0, name: str | None = None
    ) -> StampedeThread:
        """Bind STM thread state to the calling OS thread (e.g. __main__).

        The default virtual time of 0 lets the adopted thread put at any
        timestamp; remember to advance it (or jump to INFINITY once the
        thread only inherits timestamps) so GC can progress (§4.2).
        """
        thread = self._adopted_binding()
        if thread is None:
            thread = self._register_thread(name, "adopted", virtual_time)
            thread.os_thread = threading.current_thread()
            thread._bind()
        return thread

    def _register_thread(self, name: str | None, prefix: str, virtual_time: VirtualTime,
                         parent: StampedeThread | None = None) -> StampedeThread:
        """Every spawn and adoption, of threads and tasks, registers here: under
        ``name`` (default ``<prefix>-<space>-<n>``), refused if a live thread holds it."""
        if name is None:
            name = f"{prefix}-{self.space_id}-{self._thread_seq.next()}"
        with self._threads_lock:
            if name in self._threads:
                raise StampedeError(
                    f"thread name {name!r} already in use on space {self.space_id}"
                )
            thread = StampedeThread(self, name, virtual_time, parent=parent)
            self._threads[name] = thread
        return thread

    def _adopted_binding(self) -> StampedeThread | None:
        """The caller's live thread in this space, if any.  A live binding
        in another space of this cluster is refused (it would stay there,
        pinning that space's GC horizon); one into another, likely shut
        down, cluster is a stale leftover and is dropped."""
        existing = current_thread()
        if existing is None or not existing.alive:
            return None
        if existing.space is self:
            return existing
        if existing.space.cluster is self.cluster:
            raise StampedeError(
                f"this thread or task is already adopted by space "
                f"{existing.space.space_id}; call exit() on that "
                f"StampedeThread before adopting into space {self.space_id}"
            )
        existing.exit()
        return None

    def _thread_exited(self, thread: StampedeThread) -> None:
        # Auto-detach any connections the thread left attached so they stop
        # pinning the GC minimum.
        leaked: list[int] = []
        with self._conn_owner_lock:
            for conn_id, (_handle, owner) in list(self._conn_owner.items()):
                if owner is thread:
                    leaked.append(conn_id)
        for conn_id in leaked:
            handle, _ = self._conn_owner.get(conn_id, (None, None))
            if handle is not None:
                try:
                    self.detach(handle, conn_id)
                except StampedeError:
                    # also a task's exit on its loop, which cannot wait for
                    # a remote home: the request went out, the loop serves it
                    pass
        with self._threads_lock:
            self._threads.pop(thread.name, None)
            joins = self._pending_joins.pop(thread.name, [])
        for call_id, src in joins:
            self._reply(src, RpcReply(call_id, value=None))

    def join_thread(
        self, space: int, name: str, timeout: float | None = None
    ) -> None:
        self.call(space, JoinReq(name), timeout=timeout)

    def threads(self) -> list[StampedeThread]:
        with self._threads_lock:
            return list(self._threads.values())

    # -- channel operations (facade entry points) --------------------------
    #
    # Whatever may wait on another space is written once, as steps: a
    # generator that yields each ``(event, timeout)`` it must sleep on and
    # is sent back whether the event was set.  ``_blocking`` runs them here,
    # the asyncio space's ``a*`` twins await them on the loop.
    def _create_steps(
        self,
        name: str | None = None,
        capacity: int | None = None,
        home: int | None = None,
        copy_policy: CopyPolicy = CopyPolicy.SERIALIZE,
        push: bool = False,
    ):
        home = self.space_id if home is None else home
        if copy_policy is not CopyPolicy.SERIALIZE and home != self.space_id:
            raise StampedeError(
                f"copy policy {copy_policy.value} is local-only; channel must "
                f"be homed in the creating space"
            )
        if push and copy_policy is not CopyPolicy.SERIALIZE:
            raise StampedeError("eager push requires the SERIALIZE copy policy")
        handle: ChannelHandle = yield from self._rpc_steps(
            home, CreateChannelReq(name, capacity, push)
        )
        # the home knows name, capacity and push; the policy is the caller's
        handle = replace(handle, copy_policy=copy_policy)
        if home == self.space_id:
            # record the policy on the local channel object
            self._channel(handle.channel_id).handle = handle
        if name is not None:
            yield from self._rpc_steps(
                self.cluster.registry_space, RegisterNameReq(name, handle)
            )
            self.cluster._note_named_handle(handle)
        return handle

    def _lookup_steps(
        self, name: str, wait: bool = False, timeout: float | None = None
    ):
        handle = self.cluster._named_handle(name)
        if handle is None:
            handle = yield from self._rpc_steps(
                self.cluster.registry_space, LookupNameReq(name, wait), timeout
            )
            self.cluster._note_named_handle(handle)
        return handle

    def _destroy_steps(self, handle: ChannelHandle):
        return self._rpc_steps(
            handle.home_space, DestroyChannelReq(handle.channel_id)
        )

    def _attach_steps(self, handle: ChannelHandle, *, is_input: bool,
                      thread: StampedeThread):
        if (
            handle.copy_policy is not CopyPolicy.SERIALIZE
            and handle.home_space != self.space_id
        ):
            raise StampedeError(
                f"channel {handle.channel_id} uses local-only copy policy "
                f"{handle.copy_policy.value}; cannot attach from space "
                f"{self.space_id}"
            )
        conn_id = self._conn_ids.next()
        visibility = thread.visibility() if is_input else None
        # Owned before the home attaches it: a task cancelled mid-attach
        # leaves a connection the home may have made, which the owner's exit
        # detaches.  One the home refused is dropped.
        with self._conn_owner_lock:
            self._conn_owner[conn_id] = (handle, thread)
        try:
            yield from self._rpc_steps(
                handle.home_space,
                AttachReq(handle.channel_id, conn_id, is_input, visibility),
            )
        except Exception:
            with self._conn_owner_lock:
                self._conn_owner.pop(conn_id, None)
            raise
        return conn_id

    def _detach_steps(self, handle: ChannelHandle, conn_id: int):
        with self._conn_owner_lock:
            self._conn_owner.pop(conn_id, None)
        return self._rpc_steps(
            handle.home_space, DetachReq(handle.channel_id, conn_id)
        )

    create_channel = _blocking(_create_steps)
    lookup_channel = _blocking(_lookup_steps)
    destroy_channel = _blocking(_destroy_steps)
    attach = _blocking(_attach_steps)
    detach = _blocking(_detach_steps)

    def put(
        self,
        handle: ChannelHandle,
        conn_id: int,
        timestamp: int,
        payload: Any,
        size: int,
        refcount: int = UNKNOWN_REFCOUNT,
        block: bool = True,
        timeout: float | None = None,
    ) -> None:
        if handle.home_space == self.space_id:
            channel = (self._channels.get(handle.channel_id)
                       or self._channel(handle.channel_id))
            waiter = self._put_start(channel, conn_id, timestamp, payload,
                                     size, refcount, block)
            if waiter is not None:
                _run(self._parked_steps(waiter, timeout))
            return
        self.call(handle.home_space, self._put_req(
            handle, conn_id, timestamp, payload, size, refcount, block),
            timeout)

    @staticmethod
    def _put_req(handle: ChannelHandle, conn_id: int, timestamp: int,
                 payload: Any, size: int, refcount: int, block: bool) -> PutReq:
        """The remote half of put.  It may hold views of the putter's buffers
        (``Parts``): an RPC sends it before it first waits, and every medium
        has copied the bytes by the time its ``send`` returns."""
        return PutReq(handle.channel_id, conn_id, timestamp, _framed(payload),
                      size, refcount, block)

    def get(
        self,
        handle: ChannelHandle,
        conn_id: int,
        request: int | GetWildcard,
        block: bool = True,
        timeout: float | None = None,
    ) -> tuple[Any, int, int]:
        if handle.home_space == self.space_id:
            channel = (self._channels.get(handle.channel_id)
                       or self._channel(handle.channel_id))
            reply = self._get_start(channel, conn_id, request, block)
            if reply.__class__ is _Waiter:
                reply = _run(self._parked_steps(reply, timeout))
            return reply[:3]
        got = GetReq(handle.channel_id, conn_id, request, block, handle.push)
        while got.__class__ is GetReq:  # again if the pushed payload is gone
            got = self._got(handle, conn_id, block,
                            self.call(handle.home_space, got, timeout))
        return got

    def _got(self, handle: ChannelHandle, conn_id: int, block: bool,
             reply: tuple) -> tuple | GetReq:
        """The remote half of get: a reply as the op returns it, a pushed
        payload taken from the push cache — or, if the cache was purged since
        the push (which arrives first), the request that fetches it again."""
        payload, ts, size, cached = reply
        if cached:
            with self._push_cache_lock:
                entry = self._push_cache.get((handle.channel_id, ts))
            if entry is None:
                return GetReq(handle.channel_id, conn_id, ts, block, False)
            return (entry[0], ts, size)
        return (_unframed(payload), ts, size)

    def consume(
        self, handle: ChannelHandle, conn_id: int, timestamp: int, until: bool = False
    ) -> None:
        if handle.home_space == self.space_id:
            channel = (self._channels.get(handle.channel_id)
                       or self._channel(handle.channel_id))
            self._consume_apply(channel, conn_id, timestamp, until)
        else:
            self.call(handle.home_space,
                      ConsumeReq(handle.channel_id, conn_id, timestamp, until))

    def _channel(self, channel_id: int) -> LocalChannel:
        """The local channel ``channel_id``, or NoSuchChannelError.  The local
        op paths read ``_channels`` inline and call this only on a miss."""
        channel = self._channels.get(channel_id)
        if channel is None:
            raise NoSuchChannelError(
                f"channel {channel_id} is not homed in space {self.space_id}"
            )
        return channel

    def local_channels(self) -> list[LocalChannel]:
        return list(self._channels.values())

    # -- garbage collection -------------------------------------------------
    def gc_summary(self, epoch: int = 0) -> LocalGCSummary:
        """This space's contribution to the global GC minimum."""
        visibilities = [t.visibility() for t in self.threads()]
        channel_mins: dict[int, VirtualTime] = {}
        for channel in self.local_channels():
            with channel.lock:
                channel_mins[channel.kernel.channel_id] = channel.kernel.unconsumed_min()
        return LocalGCSummary(
            space_id=self.space_id,
            thread_visibilities=visibilities,
            channel_mins=channel_mins,
            epoch=epoch,
        )

    def apply_gc_horizon(self, horizon: VirtualTime) -> int:
        """Collect items below ``horizon`` in every local channel."""
        with self._gc_horizon_lock:
            if horizon is not INFINITY and horizon <= self._gc_horizon_applied:
                return 0
        with self._push_cache_lock:
            if horizon is INFINITY:
                self._push_cache.clear()
            else:
                bound = int(horizon)
                self._push_cache = {
                    key: value
                    for key, value in self._push_cache.items()
                    if key[1] >= bound
                }
        collected = 0
        rec = _obs.recorder
        t0 = rec.now() if rec is not None else 0
        for channel in self.local_channels():
            with channel.lock:
                dead = channel.kernel.collect_below(horizon)
                if dead:
                    collected += len(dead)
                    # Space freed: bounded-channel puts may proceed.  Gets
                    # are retried too so one parked on a just-collected
                    # timestamp fails fast with ItemGarbageCollectedError
                    # instead of blocking forever.
                    self._drain_locked(channel, puts=True, gets=True)
        if rec is not None:
            rec.complete(
                "gc", "gc.apply", t0, self.space_id,
                horizon=str(horizon), collected=collected,
            )
        if horizon is not INFINITY:
            with self._gc_horizon_lock:
                self._gc_horizon_applied = max(
                    self._gc_horizon_applied, int(horizon)
                )
        return collected


class RemoteThreadHandle:
    """Join handle for a thread spawned on another address space."""

    def __init__(self, client: AddressSpace, space: int, name: str):
        self._client = client
        self.space = space
        self.name = name

    def join(self, timeout: float | None = None) -> None:
        self._client.join_thread(self.space, self.name, timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RemoteThreadHandle {self.name!r} on space {self.space}>"


#: Sentinel: handler parked the request; the reply will be sent later.
_PARKED = object()
#: Sentinel on the request queue: the endpoint closed or failed.
_CLOSED = object()

AddressSpace._HANDLERS = {
    CreateChannelReq: AddressSpace._h_create_channel,
    DestroyChannelReq: AddressSpace._h_destroy_channel,
    AttachReq: AddressSpace._h_attach,
    DetachReq: AddressSpace._h_detach,
    PutReq: AddressSpace._h_put,
    GetReq: AddressSpace._h_get,
    ConsumeReq: AddressSpace._h_consume,
    RegisterNameReq: AddressSpace._h_register_name,
    LookupNameReq: AddressSpace._h_lookup_name,
    SpawnReq: AddressSpace._h_spawn,
    JoinReq: AddressSpace._h_join,
    GcSummaryReq: AddressSpace._h_gc_summary,
    GcApplyReq: AddressSpace._h_gc_apply,
    EndpointStatsReq: AddressSpace._h_endpoint_stats,
    TelemetryHarvestReq: AddressSpace._h_telemetry_harvest,
    ClockProbeReq: AddressSpace._h_clock_probe,
}
