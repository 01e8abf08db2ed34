"""The STM channel kernel: a pure, runtime-agnostic state machine.

This module implements the *semantics* of an STM channel (paper §4.1-4.2)
with no threads, locks, clocks, or I/O.  Every operation is synchronous and
total: it either succeeds, raises a semantic error, or reports
``Status.BLOCKED`` with a machine-readable reason.  The two runtimes
(:mod:`repro.runtime.thread_runtime` for real threads,
:mod:`repro.sim` for the discrete-event simulator) wrap the kernel with
their own waiting/wakeup machinery, so blocking behaviour is implemented
once per runtime while the semantics are implemented — and property-tested —
exactly once, here.

Concurrency contract: callers must serialize calls per kernel instance (the
thread runtime holds a per-channel lock; simulator tasks are non-preemptive).
In exchange, the paper's atomicity guarantee — puts and gets "appear to all
threads as if they occur in a particular serial order" (§4.1) — holds by
construction: the serial order is the order of kernel calls.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import Any

from repro.core.flags import GetWildcard, UNKNOWN_REFCOUNT
from repro.core.item import InputConnState, ItemRecord, ItemState
from repro.core.time import INFINITY, VirtualTime, validate_timestamp
from repro.errors import (
    AlreadyConsumedError,
    ChannelDestroyedError,
    ConnectionClosedError,
    DuplicateTimestampError,
    ItemGarbageCollectedError,
    NoSuchItemError,
    NotOpenError,
)
from repro.util.sortedmap import SortedIntMap

__all__ = [
    "Status",
    "BlockReason",
    "GetResult",
    "PutResult",
    "ChannelKernel",
    "set_reclaim_hook",
]

#: Optional observer called as ``hook(kernel, timestamp, record)`` whenever
#: the kernel reclaims an item (refcount zero, GC sweep, or destroy).  Used
#: by the STMSAN sanitizer to tombstone reclaimed payloads; None (the
#: default) costs one identity check per reclaim.
_reclaim_hook = None


def set_reclaim_hook(hook) -> None:
    """Install (or clear, with None) the item-reclaim observer."""
    global _reclaim_hook
    _reclaim_hook = hook


class Status(enum.Enum):
    """Outcome of a kernel put/get."""

    OK = "ok"
    BLOCKED = "blocked"


class BlockReason(enum.Enum):
    """Why a kernel operation could not complete right now.

    The runtimes use this to decide which event should retry the operation:
    a CHANNEL_FULL put retries after any item leaves the channel; a
    NO_MATCHING_ITEM get retries after any put.
    """

    CHANNEL_FULL = "channel_full"
    NO_MATCHING_ITEM = "no_matching_item"


@dataclass(slots=True)
class GetResult:
    status: Status
    payload: Any = None
    timestamp: int | None = None
    size: int = 0
    #: when the get misses a *specific* timestamp: the neighbouring available
    #: timestamps ``(prev, next)`` — the paper's ``timestamp_range``.
    timestamp_range: tuple[int | None, int | None] | None = None
    reason: BlockReason | None = None


@dataclass(frozen=True)
class PutResult:
    """Outcome of a kernel put.  Frozen: the kernel hands out one shared
    instance per outcome instead of allocating a result per put."""

    status: Status
    reason: BlockReason | None = None


_PUT_OK = PutResult(Status.OK)
_PUT_FULL = PutResult(Status.BLOCKED, BlockReason.CHANNEL_FULL)


def _validate_refcount(value) -> None:
    """Raise TypeError/ValueError unless ``value`` is a legal declared
    refcount: an int >= 0, or UNKNOWN_REFCOUNT."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"refcount must be an int, got {type(value).__name__}")
    if value < 0 and value != UNKNOWN_REFCOUNT:
        raise ValueError(f"refcount must be >= 0 or UNKNOWN_REFCOUNT, got {value}")


class ChannelKernel:
    """State of one STM channel: items plus per-input-connection views.

    Parameters
    ----------
    channel_id:
        System-wide unique id (allocated by the runtime's registry).
    capacity:
        Maximum number of items the channel holds simultaneously, or None
        for an unbounded channel (paper §4.1: "channels can be created to
        hold a bounded or unbounded number of items").
    """

    def __init__(self, channel_id: int, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"channel capacity must be >= 1, got {capacity}")
        self.channel_id = channel_id
        self.capacity = capacity
        self.items: SortedIntMap = SortedIntMap()
        self.inputs: dict[int, InputConnState] = {}
        self.outputs: set[int] = set()
        #: every timestamp < gc_horizon has been garbage collected.
        self.gc_horizon: int = 0
        self.destroyed = False
        #: monotone counter bumped on every state change that could unblock a
        #: waiter; runtimes compare it across waits to detect progress.
        self.version: int = 0
        # -- statistics (exposed through ChannelStats in the facade) --------
        self.total_puts = 0
        self.total_gets = 0
        self.total_consumes = 0
        self.total_collected = 0
        self.total_refcount_collected = 0
        self.bytes_put = 0
        self.bytes_got = 0
        #: running sum of stored item sizes (keeps stored_bytes() O(1)).
        self._stored_bytes = 0
        #: stored items with a declared refcount; while zero, consumes have
        #: nothing to reclaim and skip the per-item walk.
        self._refcounted = 0
        #: the watermark index behind unconsumed_min(): a min-heap holding one
        #: ``(mark, view.seq, view)`` per live input connection with ``mark <=
        #: view.consumed_below``.  Watermarks only rise, so consumes never
        #: touch it; a query repairs the entries it meets.
        self._marks: list[tuple[int, int, InputConnState]] = []
        #: ``(version, result)`` of the last out-of-order fallback scan (an
        #: idle channel rescans nothing) and the item visits those scans made.
        self._scan_memo: tuple[int, VirtualTime] = (-1, INFINITY)
        self.min_scan_steps = 0

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def attach_input(self, conn_id: int, visibility: VirtualTime) -> None:
        """Attach an input connection for a thread with the given visibility.

        Per §4.2: "When a thread creates a new input connection to a channel,
        it implicitly marks as consumed on that connection all items < its
        current visibility."  Items at or above the visibility remain UNSEEN
        and therefore pin the GC minimum until this connection consumes them.
        """
        self._check_alive()
        if conn_id in self.inputs or conn_id in self.outputs:
            raise ValueError(f"connection id {conn_id} already attached")
        if isinstance(visibility, int):
            watermark = max(visibility, self.gc_horizon)
        else:  # INFINITY visibility: everything currently conceivable is consumed
            latest = self.items.max_key()
            watermark = (latest + 1) if latest is not None else self.gc_horizon
        # Refcount accounting: the implicit consumption does NOT decrement
        # refcounts — declared counts refer to the consumers the producer
        # planned for, and an attach that skips items is not one of them.
        # ``version`` moves on every attach, so it serves as the view's seq.
        state = self.inputs[conn_id] = InputConnState(conn_id, watermark, self.version)
        marks = self._marks
        heappush(marks, (watermark, state.seq, state))
        if len(marks) > 2 * len(self.inputs) + 64:
            # detach leaves its entry behind: rebuild once the dead outnumber the live
            marks[:] = [(v.consumed_below, v.seq, v) for v in self.inputs.values()]
            heapify(marks)
        self.version += 1

    def attach_output(self, conn_id: int) -> None:
        self._check_alive()
        if conn_id in self.inputs or conn_id in self.outputs:
            raise ValueError(f"connection id {conn_id} already attached")
        self.outputs.add(conn_id)
        self.version += 1

    def detach(self, conn_id: int) -> None:
        """Detach a connection.

        Detaching an input connection releases its claim on every unconsumed
        item (equivalent to consuming everything), which may advance the GC
        minimum — the runtime triggers a GC pass after detaches.
        """
        if conn_id in self.inputs:
            del self.inputs[conn_id]
        elif conn_id in self.outputs:
            self.outputs.discard(conn_id)
        else:
            raise ConnectionClosedError(
                f"connection {conn_id} is not attached to channel {self.channel_id}"
            )
        self.version += 1

    # put / get / consume each run in one frame on the item index and the
    # view's sets, testing the common case inline (a live kernel, an attached
    # connection, an exact non-negative int); these raise when it fails.
    def _input(self, conn_id: int) -> InputConnState:
        try:
            return self.inputs[conn_id]
        except KeyError:
            raise ConnectionClosedError(
                f"connection {conn_id} is not an attached input connection "
                f"of channel {self.channel_id}"
            ) from None

    def _check_alive(self) -> None:
        if self.destroyed:
            raise ChannelDestroyedError(f"channel {self.channel_id} is destroyed")

    # ------------------------------------------------------------------
    # put
    # ------------------------------------------------------------------
    def put(
        self,
        conn_id: int,
        timestamp: int,
        payload: Any,
        size: int,
        refcount: int = UNKNOWN_REFCOUNT,
    ) -> PutResult:
        """Insert an item; Status.BLOCKED when a bounded channel is full.

        Out-of-order timestamps are allowed (§4.1: replicated worker threads
        may complete out of order); duplicate timestamps are not.
        """
        if self.destroyed:
            self._check_alive()
        if conn_id not in self.outputs:
            raise ConnectionClosedError(
                f"connection {conn_id} is not an attached output connection "
                f"of channel {self.channel_id}"
            )
        if timestamp.__class__ is not int or timestamp < 0:
            validate_timestamp(timestamp)
        if refcount.__class__ is not int or refcount < UNKNOWN_REFCOUNT:
            _validate_refcount(refcount)
        if timestamp < self.gc_horizon:
            raise ItemGarbageCollectedError(
                f"put of timestamp {timestamp} below GC horizon {self.gc_horizon} "
                f"on channel {self.channel_id} (visibility rules should make "
                f"this impossible; check virtual-time management)"
            )
        data = self.items._data
        if timestamp in data:
            raise DuplicateTimestampError(
                f"channel {self.channel_id} already holds timestamp {timestamp}"
            )
        if self.capacity is not None and len(data) >= self.capacity:
            return _PUT_FULL
        self.total_puts += 1
        self.bytes_put += size
        if refcount == 0:
            # Zero declared consumers: legal to put (a producer may publish
            # purely for connections it did not plan for) but dead on arrival.
            self.total_refcount_collected += 1
            self.total_collected += 1
        else:
            data[timestamp] = ItemRecord(timestamp, payload, size, refcount, conn_id)
            keys = self.items._keys
            if keys and timestamp < keys[-1]:
                insort(keys, timestamp)
            else:
                keys.append(timestamp)  # in order: the common case
            self._stored_bytes += size
            if refcount != UNKNOWN_REFCOUNT:
                self._refcounted += 1
        self.version += 1
        return _PUT_OK

    # ------------------------------------------------------------------
    # get
    # ------------------------------------------------------------------
    def get(self, conn_id: int, request: int | GetWildcard) -> GetResult:
        """Resolve a get request against this connection's view.

        Specific timestamps below the GC horizon or already consumed raise
        immediately (blocking would never succeed).  A missing specific
        timestamp *blocks* — it may still be put (§4.1 allows out-of-order
        production) — and the result carries the neighbouring available
        timestamps so a non-blocking caller can adapt.
        """
        if self.destroyed:
            self._check_alive()
        view = self.inputs.get(conn_id) or self._input(conn_id)
        if isinstance(request, GetWildcard):
            ts = self._resolve_wildcard(view, request)
            if ts is None:
                return GetResult(Status.BLOCKED, reason=BlockReason.NO_MATCHING_ITEM)
            record: ItemRecord = self.items[ts]
        else:
            ts = request
            if ts.__class__ is not int or ts < 0:
                ts = validate_timestamp(ts)
            if ts < self.gc_horizon:
                raise ItemGarbageCollectedError(
                    f"timestamp {ts} on channel {self.channel_id} has been "
                    f"garbage collected (horizon {self.gc_horizon})",
                    timestamp_range=self._visible_neighbours(view, ts),
                )
            if ts < view.consumed_below or ts in view.consumed_explicit:
                raise AlreadyConsumedError(
                    f"timestamp {ts} was already consumed on connection {conn_id}",
                    timestamp_range=self._visible_neighbours(view, ts),
                )
            record = self.items._data.get(ts)
            if record is None:
                return GetResult(
                    Status.BLOCKED,
                    timestamp_range=self._visible_neighbours(view, ts),
                    reason=BlockReason.NO_MATCHING_ITEM,
                )
        view.open_ts.add(ts)  # the item is OPEN; LATEST_UNSEEN moves past it
        if view.last_gotten is None or ts > view.last_gotten:
            view.last_gotten = ts
        record.get_count += 1
        self.total_gets += 1
        self.bytes_got += record.size
        self.version += 1
        return GetResult(Status.OK, record.payload, ts, record.size)

    def _resolve_wildcard(self, view: InputConnState, wc: GetWildcard) -> int | None:
        """Greatest/least unconsumed timestamp matching the wildcard, or None."""
        if wc is GetWildcard.LATEST or wc is GetWildcard.LATEST_UNSEEN:
            floor = None
            if wc is GetWildcard.LATEST_UNSEEN and view.last_gotten is not None:
                floor = view.last_gotten
            # Scan downward from the newest item; consumed prefixes are dense
            # so the first unconsumed hit is nearly always the newest item.
            key = self.items.max_key()
            while key is not None:
                if floor is not None and key <= floor:
                    return None
                if not view.is_consumed(key):
                    return key
                key = self.items.lower_key(key)
            return None
        if wc is GetWildcard.OLDEST or wc is GetWildcard.OLDEST_UNSEEN:
            # Everything below the consumption watermark is consumed; start there.
            key = self.items.ceil_key(view.consumed_below)
            while key is not None:
                if wc is GetWildcard.OLDEST_UNSEEN:
                    if view.state_of(key) is ItemState.UNSEEN:
                        return key
                elif not view.is_consumed(key):
                    return key
                key = self.items.higher_key(key)
            return None
        raise TypeError(f"unknown wildcard {wc!r}")  # pragma: no cover

    def _visible_neighbours(
        self, view: InputConnState, ts: int
    ) -> tuple[int | None, int | None]:
        """Nearest unconsumed timestamps on either side of ``ts`` for ``view``."""
        lo = self.items.lower_key(ts)
        while lo is not None and view.is_consumed(lo):
            lo = self.items.lower_key(lo)
        hi = self.items.higher_key(ts)
        while hi is not None and view.is_consumed(hi):
            hi = self.items.higher_key(hi)
        return (lo, hi)

    # ------------------------------------------------------------------
    # consume
    # ------------------------------------------------------------------
    def consume(self, conn_id: int, timestamp: int, *, strict: bool = False) -> None:
        """Mark one timestamp consumed on this connection.

        ``strict=True`` additionally requires the item to be OPEN (the
        canonical get/use/consume discipline of Fig. 7); the default follows
        the paper in also allowing UNSEEN items to be consumed directly.
        Consuming an absent timestamp is permitted — the item may have been
        reclaimed already, or may never be put; the marking is what matters
        for GC progress.
        """
        if self.destroyed:
            self._check_alive()
        view = self.inputs.get(conn_id) or self._input(conn_id)
        if timestamp.__class__ is not int or timestamp < 0:
            validate_timestamp(timestamp)
        if view.consumed_below < self.gc_horizon:
            # Fold the GC horizon into the watermark (attach_input's rule), so
            # a frame-skipping consumer's explicit entries do not pile up.
            view.consume_upto(self.gc_horizon - 1)
        open_ts, explicit = view.open_ts, view.consumed_explicit
        below = view.consumed_below
        if timestamp in open_ts:
            open_ts.remove(timestamp)
        elif timestamp < below or timestamp in explicit:
            return  # already CONSUMED: idempotent
        elif strict:
            raise NotOpenError(
                f"timestamp {timestamp} is {ItemState.UNSEEN.value}, not open, on "
                f"connection {conn_id} (strict consume)"
            )
        if timestamp == below:
            # in order: the mark moves and folds the explicit run it touches
            below += 1
            while below in explicit:
                explicit.remove(below)
                below += 1
            view.consumed_below = below
        elif timestamp > below:
            explicit.add(timestamp)
        self.total_consumes += 1
        if self._refcounted:
            data = self.items._data
            record = data.get(timestamp)
            if record is not None and record.refcount != UNKNOWN_REFCOUNT:
                # ItemRecord.dec_refcount, clamped at zero; zero reclaims.
                if record.refcount > 1:
                    record.refcount -= 1
                else:
                    record.refcount = 0
                    del data[timestamp]
                    keys = self.items._keys  # the oldest, for in-order consumers
                    del keys[0 if keys[0] == timestamp else bisect_left(keys, timestamp)]
                    self._stored_bytes -= record.size
                    self._refcounted -= 1
                    self.total_collected += 1
                    self.total_refcount_collected += 1
                    if _reclaim_hook is not None:
                        _reclaim_hook(self, timestamp, record)
        self.version += 1

    def consume_until(self, conn_id: int, timestamp: int) -> None:
        """Mark every timestamp <= ``timestamp`` consumed on this connection.

        Per §4.2 this may move items straight from UNSEEN to CONSUMED.
        """
        if self.destroyed:
            self._check_alive()
        view = self.inputs.get(conn_id) or self._input(conn_id)
        if timestamp.__class__ is not int or timestamp < 0:
            validate_timestamp(timestamp)
        bound = timestamp + 1
        # Newly consumed: stored items from this connection's own watermark
        # up to the bound, minus its out-of-order consumes.  Counted exactly,
        # so batched consumes don't under-report; listed only when needed.
        low, explicit = view.consumed_below, view.consumed_explicit
        if explicit or self._refcounted:
            affected = [ts for ts in self.items.keys_between(low, bound) if ts not in explicit]
            self.total_consumes += len(affected)
        else:
            affected = []
            self.total_consumes += self.items.count_between(low, bound)
        view.consume_upto(timestamp)
        self._after_consume(affected)

    def _after_consume(self, timestamps: list[int]) -> None:
        """Eagerly reclaim refcounted items whose count reached zero (§6)."""
        if self._refcounted:
            for ts in timestamps:
                record = self.items.get(ts)
                if record is not None and record.dec_refcount():
                    # The declared count reaching zero is the producer's
                    # signal that all planned consumers are done.
                    del self.items[ts]
                    self._stored_bytes -= record.size
                    self._refcounted -= 1
                    self.total_collected += 1
                    self.total_refcount_collected += 1
                    if _reclaim_hook is not None:
                        _reclaim_hook(self, ts, record)
        self.version += 1

    # ------------------------------------------------------------------
    # garbage collection (reachability algorithm)
    # ------------------------------------------------------------------
    def unconsumed_min(self) -> VirtualTime:
        """Smallest timestamp unconsumed on any input connection, or INFINITY.

        This is the channel's contribution to the global GC minimum (§4.2):
        "timestamps of all unconsumed items on all input connections of all
        channels".  A channel with no input connections contributes INFINITY
        — its items are protected only by thread visibilities, exactly as the
        paper's rule prescribes (a future connection can only reach items >=
        its creating thread's visibility).

        A connection without out-of-order consumes owes the first stored
        item at or above its watermark, which is monotone in the watermark:
        the answer is ``items.ceil_key`` of the smallest watermark, read off
        the repaired top of the index.  Only connections that hold explicit
        consumes *and* sit below the answer are skip-scanned, and set aside
        while the search looks past them.  Not a pure read: callers hold the
        channel lock, as for every mutator.
        """
        marks, inputs, items = self._marks, self.inputs, self.items
        best: int | None = None
        shelved = []
        while marks:
            mark, seq, view = marks[0]
            if inputs.get(view.conn_id) is not view:
                heappop(marks)  # detached: lazy deletion
            elif mark < view.consumed_below:
                heapreplace(marks, (view.consumed_below, seq, view))  # stale lower bound
            else:
                key = items.ceil_key(mark)
                if key is None or (best is not None and key >= best):
                    break  # every other connection's watermark is higher still
                if not view.consumed_explicit:
                    best = key
                    break
                if not shelved and self._scan_memo[0] == self.version:
                    return self._scan_memo[1]
                self.min_scan_steps += 1
                while key is not None and view.is_consumed(key):
                    key = items.higher_key(key)
                    self.min_scan_steps += 1
                if key is not None and (best is None or key < best):
                    best = key
                shelved.append(heappop(marks))
        result = INFINITY if best is None else best
        if shelved:
            for entry in shelved:
                heappush(marks, entry)
            self._scan_memo = (self.version, result)
        return result

    def collect_below(self, horizon: VirtualTime) -> list[int]:
        """Reclaim every item with timestamp < ``horizon``; return their ts.

        Called by the GC daemon with the global minimum.  Also raises the
        channel's local horizon so stale gets fail fast with
        :class:`ItemGarbageCollectedError` instead of blocking forever.
        """
        if horizon is INFINITY:
            bound = (self.items.max_key() or 0) + 1 if len(self.items) else self.gc_horizon
        else:
            bound = int(horizon)
        self.gc_horizon = max(self.gc_horizon, bound)
        oldest = self.items.min_key()
        if oldest is None or oldest >= bound:
            return []
        dead = self.items.pop_below(bound)
        self.total_collected += len(dead)
        collected: list[int] = []
        nbytes = refcounted = 0
        for ts, rec in dead:  # one pass, no generator to resume per item
            nbytes += rec.size
            if rec.refcount != UNKNOWN_REFCOUNT:
                refcounted += 1
            if _reclaim_hook is not None:
                _reclaim_hook(self, ts, rec)
            collected.append(ts)
        self._stored_bytes -= nbytes
        self._refcounted -= refcounted
        self.version += 1
        return collected

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.items)

    def timestamps(self) -> list[int]:
        """Sorted timestamps currently stored (diagnostics and tests)."""
        return self.items.keys()

    def oldest(self) -> int | None:
        return self.items.min_key()

    def latest(self) -> int | None:
        return self.items.max_key()

    def item_state(self, conn_id: int, ts: int) -> ItemState:
        """State of ``ts`` relative to input connection ``conn_id``."""
        return self._input(conn_id).state_of(ts)

    def stored_bytes(self) -> int:
        """Bytes currently stored, from the running counter (O(1))."""
        return self._stored_bytes

    def destroy(self) -> None:
        """Tear the channel down; subsequent operations raise."""
        self.destroyed = True
        if _reclaim_hook is not None:
            for ts in self.items.keys():
                _reclaim_hook(self, ts, self.items.get(ts))
        self.items = SortedIntMap()
        self.inputs.clear()
        self.outputs.clear()
        self._marks.clear()
        self._stored_bytes = self._refcounted = 0
        self.version += 1
