"""Global-minimum computation for timestamp-based garbage collection (§4.2).

The paper's reachability rule:

    global_min = min( virtual times of all threads,
                      timestamps of all unconsumed items on all input
                      connections of all channels )

    "This is the smallest timestamp value that can possibly be associated
    with an item produced by any thread in the system. ... all objects in
    all channels with lower timestamps can safely be garbage collected."

One refinement: we fold each thread's *visibility* (min of its virtual time
and its open items' timestamps) rather than its raw virtual time.  Open items
are unconsumed on some input connection, so they already hold the minimum
down via the channel term — the result is identical, but folding visibilities
makes each address space's local summary self-contained (it does not need to
know which channels its threads' open items live in, which matters when the
channel is homed on another address space).

This module is pure arithmetic; the *distributed* recomputation protocol that
gathers the terms across address spaces lives in
:mod:`repro.runtime.gc_daemon`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.time import VirtualTime, vt_min

__all__ = ["LocalGCSummary", "compute_global_min", "merge_summaries"]


@dataclass
class LocalGCSummary:
    """One address space's contribution to the global minimum.

    Attributes
    ----------
    space_id:
        The reporting address space.
    thread_visibilities:
        Visibility of every live STM thread in the space.
    channel_mins:
        ``channel_id -> unconsumed_min`` for every channel homed here.
    epoch:
        GC round this summary answers; the daemon discards stale replies.
    """

    space_id: int
    thread_visibilities: list[VirtualTime] = field(default_factory=list)
    channel_mins: dict[int, VirtualTime] = field(default_factory=dict)
    epoch: int = 0

    def local_min(self) -> VirtualTime:
        return compute_global_min(self.thread_visibilities, self.channel_mins.values())


def compute_global_min(
    thread_visibilities: Iterable[VirtualTime],
    channel_mins: Iterable[VirtualTime],
) -> VirtualTime:
    """The paper's global minimum over thread and channel terms.

    INFINITY means no thread and no unconsumed item constrains collection:
    every stored item may be reclaimed.
    """
    return vt_min(list(thread_visibilities) + list(channel_mins))


def merge_summaries(summaries: Iterable[LocalGCSummary]) -> VirtualTime:
    """Global minimum across per-space summaries (the coordinator's step)."""
    return vt_min(summary.local_min() for summary in summaries)
