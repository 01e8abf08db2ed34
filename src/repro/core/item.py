"""Item records and the per-connection item state machine (paper §4.2).

An object X in a channel is, *with respect to each input connection*, in one
of three states::

    UNSEEN --get--> OPEN --consume--> CONSUMED
       \\________________consume________^

(the direct UNSEEN -> CONSUMED edge is taken by ``consume_until`` and by the
implicit consumption performed when a new input connection attaches).  An
item is **unconsumed** w.r.t. a connection when it is UNSEEN or OPEN; the
timestamps of unconsumed items feed the global GC minimum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.core.flags import UNKNOWN_REFCOUNT

__all__ = ["ItemState", "ItemRecord", "InputConnState"]


class ItemState(enum.Enum):
    """State of an item relative to one input connection."""

    UNSEEN = "unseen"
    OPEN = "open"
    CONSUMED = "consumed"


@dataclass(slots=True)
class ItemRecord:
    """One timestamped item stored in a channel.

    Attributes
    ----------
    timestamp:
        The item's column in the space-time table (application-derived int).
    payload:
        Opaque stored representation.  The channel facade above the kernel
        enforces copy-in/copy-out semantics (it hands the kernel an already
        private copy / serialized bytes), so the kernel never copies.
    size:
        Size in bytes of the stored representation, used for bandwidth
        accounting and the bounded-channel byte budget.
    refcount:
        Remaining consume operations before the item may be eagerly
        reclaimed, or :data:`UNKNOWN_REFCOUNT` when the producer could not
        predict its consumer count (paper §6) — such items wait for the
        reachability GC.
    producer_conn:
        Id of the output connection that put the item (used by the
        connection-hint push optimisation and by debug tooling).
    """

    timestamp: int
    payload: Any
    size: int
    refcount: int = UNKNOWN_REFCOUNT
    producer_conn: int | None = None
    #: number of get operations ever performed on this item (any connection).
    get_count: int = field(default=0, compare=False)
    #: address spaces this item's payload was eagerly pushed to (§9
    #: connection-hint optimization); None until the first push.
    pushed_to: set | None = field(default=None, compare=False)

    @property
    def refcounted(self) -> bool:
        """True when the producer declared a consumer count for this item."""
        return self.refcount != UNKNOWN_REFCOUNT

    def dec_refcount(self) -> bool:
        """Decrement a declared refcount; return True when it reaches zero.

        Items with UNKNOWN_REFCOUNT are never eagerly collected, so this is
        a no-op returning False for them.  The count is clamped at zero:
        over-consumption (a late-attaching connection consuming an item whose
        declared consumers already finished) must not wrap around.
        """
        if self.refcount == UNKNOWN_REFCOUNT:
            return False
        if self.refcount > 0:
            self.refcount -= 1
        return self.refcount == 0


@dataclass
class InputConnState:
    """Mutable per-input-connection bookkeeping held by the channel kernel.

    The kernel stores consumption state *sparsely*: a ``consumed_below``
    watermark captures the (usually huge) implicitly-consumed prefix, and an
    explicit set records out-of-order consumes above the watermark.  This is
    what lets ``consume_until`` and attach-time implicit consumption run in
    O(1) amortized instead of touching every item.  The watermark only
    rises: the kernel's GC-minimum index relies on it.
    """

    conn_id: int
    #: every timestamp < consumed_below is CONSUMED on this connection.
    consumed_below: int = 0
    #: attach order; breaks watermark ties in the kernel's index.
    seq: int = 0
    #: timestamps >= consumed_below that were consumed individually.
    consumed_explicit: set[int] = field(default_factory=set)
    #: timestamps currently in the OPEN state (gotten, not yet consumed).
    open_ts: set[int] = field(default_factory=set)
    #: greatest timestamp ever returned by a get on this connection, used to
    #: resolve the LATEST_UNSEEN wildcard; None before the first get.
    last_gotten: int | None = None

    def state_of(self, ts: int) -> ItemState:
        """State of timestamp ``ts`` relative to this connection."""
        if ts in self.open_ts:
            return ItemState.OPEN
        if ts < self.consumed_below or ts in self.consumed_explicit:
            return ItemState.CONSUMED
        return ItemState.UNSEEN

    def is_consumed(self, ts: int) -> bool:
        return ts < self.consumed_below or ts in self.consumed_explicit

    def consume_upto(self, ts: int) -> None:
        """Move every timestamp <= ``ts`` to CONSUMED, folding into the
        watermark the run of explicit consumes it now touches (so it is never
        in ``consumed_explicit``; ``ChannelKernel.consume`` folds inline)."""
        bound = ts + 1
        if bound <= self.consumed_below:
            return
        if self.consumed_explicit:
            explicit = self.consumed_explicit = {t for t in self.consumed_explicit if t >= bound}
            while bound in explicit:
                explicit.remove(bound)
                bound += 1
        self.consumed_below = bound
        if self.open_ts:
            self.open_ts = {t for t in self.open_ts if t > ts}
