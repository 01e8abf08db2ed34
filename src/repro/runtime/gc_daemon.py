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

A round is written once, as steps that the daemon thread and ``gc_once()``
run blocking and an asyncio cluster awaits on its loop.

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
from repro.runtime.address_space import _run
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
    tests and simulations can drive collection deterministically.  Its
    rounds take turns, whoever runs them: this thread, ``gc_once()`` or an
    asyncio cluster's loop.
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
        #: the events of rounds waiting for their turn, in arrival order;
        #: None while no round runs.  Guarded by ``_lock``.
        self._turns: deque | None = None

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
        return _run(self._round_steps())

    def _round_steps(self):
        """One GC round, as steps: its turn, then the scatter/gathers."""
        coordinator = self.cluster.space(self.cluster.registry_space)
        yield from self._turn_steps(coordinator)
        try:
            self._epoch += 1
            epoch = self._epoch
            rec = _obs.recorder
            t_epoch = rec.now() if rec is not None else 0
            wall0 = time.perf_counter()
            # Scatter the summary requests to every space, then gather: the
            # epoch costs one max-of-RTTs instead of a sum of serial RTTs.
            pending = [
                coordinator.call_async(space_id, GcSummaryReq(epoch))
                for space_id in range(self.cluster.n_spaces)
            ]
            summaries = yield from coordinator._gather_steps(pending, 10.0)
            if rec is not None:
                rec.complete(
                    "gc", "gc.scatter", t_epoch, coordinator.space_id,
                    epoch=epoch, spaces=self.cluster.n_spaces,
                )
            horizon = merge_summaries(summaries)
            t_collect = rec.now() if rec is not None else 0
            collected = yield from self._broadcast_steps(
                coordinator, epoch, horizon)
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
        finally:
            self._pass_turn()

    def _turn_steps(self, coordinator):
        """Wait until no other round runs.  Rounds take turns in arrival
        order, and one waits holding no lock: a task awaits it on the loop."""
        with self._lock:
            if self._turns is None:
                self._turns = deque()
                return
            event = coordinator._make_event()
            self._turns.append(event)
        try:
            yield event, None
        except BaseException:  # a cancelled task: its place, or its turn
            with self._lock:
                waiting = event in self._turns
                if waiting:
                    self._turns.remove(event)
            if not waiting:
                self._pass_turn()
            raise

    def _pass_turn(self) -> None:
        with self._lock:
            if not self._turns:
                self._turns = None
                return
            event = self._turns.popleft()
        event.set()

    def _broadcast_steps(self, coordinator, epoch: int, horizon: VirtualTime):
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
        return sum((yield from coordinator._gather_steps(pending, 10.0)))
