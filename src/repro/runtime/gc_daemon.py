"""The distributed garbage collector (paper §4.2, §6).

    "Stampede's runtime system has a distributed algorithm that periodically
    recomputes this value [the global minimum] and garbage collects dead
    items."

Protocol (coordinator-based):

1. The daemon (running beside the coordinator space) starts epoch *e* and
   sends ``GcSummaryReq(e)`` to every address space.
2. Each space replies with its :class:`LocalGCSummary`: the visibilities of
   its threads plus the unconsumed minimum of every channel homed there.
3. The daemon folds the summaries into the global minimum and sends
   ``GcApplyReq(e, horizon)`` to every address space.
4. Every space reclaims items below the horizon in its local channels
   (which can unblock bounded-channel puts) and replies with its count.

Safety under concurrency does **not** require a consistent snapshot here,
because channel operations are synchronous RPCs: while a put is in flight
its producer is blocked, and the §4.2 rules keep that producer's visibility
at or below the put's timestamp, so some summary always reports a value
<= any timestamp that might still materialize.  (See the discussion in
:mod:`repro.runtime.messages`.)

Progress requires application discipline: threads must consume items and
advance their virtual times (§4.2); a thread sitting on a finite virtual
time forever pins the horizon, which :meth:`GcDaemon.stats` makes visible.

The eager **reference-count** algorithm of §6 is independent of this daemon:
it runs inline in the channel kernel whenever a consume drops a declared
count to zero.  The daemon is the backstop "run less frequently to garbage
collect items with unknown reference counts".
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.gc_state import merge_summaries
from repro.core.time import INFINITY, VirtualTime
from repro.obs import events as _obs
from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS, REGISTRY
from repro.runtime.messages import GcApplyReq, GcSummaryReq
from repro.runtime.sync import make_lock

__all__ = ["GcStats", "GcDaemon"]


@dataclass
class GcStats:
    """Observability for GC behaviour (used by tests and the ablation bench)."""

    epochs: int = 0
    last_horizon: VirtualTime = 0
    total_collected: int = 0
    #: the most recent horizons (one per epoch, 20/s by default: bounded).
    horizons: deque[VirtualTime] = field(default_factory=lambda: deque(maxlen=1024))


class GcDaemon:
    """Periodically recompute the global minimum and broadcast the horizon.

    Runs as a daemon thread next to the coordinator space.  ``period`` is
    the recomputation interval in seconds; :meth:`run_once` is public so
    tests and simulations can drive collection deterministically.
    """

    def __init__(self, cluster, period: float = 0.05):
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        self.cluster = cluster
        self.period = period
        self.stats = GcStats()
        self._epoch = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = make_lock("GcDaemon.lock")

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="stampede-gc-daemon", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            try:
                self.run_once()
            except Exception:
                # The cluster may be tearing down under us; a failed round
                # is harmless (the next one retries).
                if self._stop.is_set():
                    break

    # ------------------------------------------------------------------
    def run_once(self) -> VirtualTime:
        """One full GC round; returns the horizon that was broadcast."""
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
            coordinator = self.cluster.space(self.cluster.registry_space)
            rec = _obs.recorder
            t_epoch = rec.now() if rec is not None else 0
            wall0 = time.perf_counter()
            # Scatter the summary requests to every space, then gather: the
            # epoch costs one max-of-RTTs instead of a sum of serial RTTs.
            pending = [
                coordinator.call_async(space_id, GcSummaryReq(epoch))
                for space_id in range(self.cluster.n_spaces)
            ]
            # The blocking gather runs under self._lock on purpose: the lock
            # serializes whole GC rounds, and the dispatcher threads that
            # serve the replies never take it.
            summaries = coordinator.gather(pending, timeout=10.0)  # stm-ok: STM103
            if rec is not None:
                rec.complete(
                    "gc", "gc.scatter", t_epoch, coordinator.space_id,
                    epoch=epoch, spaces=self.cluster.n_spaces,
                )
            horizon = merge_summaries(summaries)
            t_collect = rec.now() if rec is not None else 0
            collected = self._broadcast(coordinator, epoch, horizon)
            self.stats.epochs += 1
            self.stats.last_horizon = horizon
            self.stats.total_collected += collected
            self.stats.horizons.append(horizon)
            # Registry feeds are unconditional: this is a cold path (one
            # sample per epoch), and the cluster report shows GC timing even
            # when tracing is off.
            REGISTRY.histogram(
                "gc_epoch_seconds", buckets=DEFAULT_SECONDS_BUCKETS
            ).observe(time.perf_counter() - wall0)
            REGISTRY.counter("gc_collected_total").inc(collected)
            if rec is not None:
                rec.complete(
                    "gc", "gc.collect", t_collect, coordinator.space_id,
                    epoch=epoch, horizon=str(horizon), collected=collected,
                )
                rec.complete(
                    "gc", "gc.epoch", t_epoch, coordinator.space_id,
                    epoch=epoch, horizon=str(horizon), collected=collected,
                )
            return horizon

    def _broadcast(self, coordinator, epoch: int, horizon: VirtualTime) -> int:
        """Apply the horizon on every space (scatter/gather over CLF).

        Gathering before returning keeps ``run_once`` deterministic for
        callers: when it returns, every space has already collected.
        Returns the total number of items collected across the cluster this
        round.
        """
        if horizon is not INFINITY and horizon <= 0:
            return 0  # nothing below the horizon can exist
        pending = [
            coordinator.call_async(space_id, GcApplyReq(epoch, horizon))
            for space_id in range(self.cluster.n_spaces)
        ]
        return sum(coordinator.gather(pending, timeout=10.0))
