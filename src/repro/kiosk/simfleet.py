"""The kiosk fleet on the simulated runtime: launch code only.

Each awaitable :mod:`repro.kiosk.procfleet`'s stages get here runs one
:class:`~repro.sim.SimThread` operation generator, so a stage coroutine
*is* a simulated task: :class:`~repro.sim.SimEngine` ``send``s to it and
gets the ``("delay", us)`` commands.  The trackers run on real pixels.
"""

from __future__ import annotations

import types

from repro.core import INFINITY
from repro.core.flags import UNKNOWN_REFCOUNT
from repro.errors import StampedeError
from repro.kiosk.procfleet import (
    LAUNCHED, FleetConfig, FleetResult, FleetStageError, fleet_channels,
    fleet_decision, thread_name,
)
from repro.kiosk.records import VideoFrame
from repro.sim import SimStampede
from repro.stm.api import Item

__all__ = ["run_sim_fleet"]

#: nominal wire size of a track/decision record in the simulated cluster.
RECORD_BYTES = 256
#: simulated period of the GC that reclaims frames (none carries a refcount).
GC_PERIOD_US = 1000.0


class _SimSTM:
    """A stage's STM, a channel (``channel`` set) or a connection
    (``conn_id`` too) in the simulation.  Every operation is a
    generator-based coroutine around the SimThread one."""

    def __init__(self, thread, channels, channel=None, conn_id=None):
        self._thread = thread
        self._channels = channels
        self._conn = (channel, conn_id)

    @types.coroutine
    def lookup(self, name: str, wait: bool = False):
        yield from ()
        return _SimSTM(self._thread, self._channels, self._channels[name])

    @types.coroutine
    def attach_input(self):
        conn_id = yield from self._thread.attach_input(self._conn[0])
        return _SimSTM(self._thread, self._channels, self._conn[0], conn_id)

    @types.coroutine
    def attach_output(self):
        conn_id = yield from self._thread.attach_output(self._conn[0])
        return _SimSTM(self._thread, self._channels, self._conn[0], conn_id)

    @types.coroutine
    def put(self, timestamp: int, value, *, refcount: int = UNKNOWN_REFCOUNT):
        nbytes = (value.pixels.nbytes if isinstance(value, VideoFrame)
                  else 1 if value is None else RECORD_BYTES)
        yield from self._thread.put(
            self._conn, timestamp, nbytes, value, refcount=refcount
        )

    @types.coroutine
    def get(self, timestamp):
        value, ts, size = yield from self._thread.get(self._conn, timestamp)
        return Item(value=value, timestamp=ts, size=size)

    @types.coroutine
    def consume_until(self, timestamp: int):
        yield from self._thread.consume(self._conn, timestamp, until=True)

    @types.coroutine
    def detach(self):
        yield from self._thread.detach(*self._conn)


def run_sim_fleet(
    config: FleetConfig | None = None, sim: SimStampede | None = None
) -> FleetResult:
    """Run the kiosk inside a simulated cluster and report.

    The decision stage runs on space 0, the others on their configured
    spaces; pass ``sim`` to control topology and costs.  ``wall_seconds``
    is *simulated* time.  The digitizer paces on the wall clock, so
    ``fps`` must be None.
    """
    config = config or FleetConfig()
    if config.fps is not None:
        raise ValueError("a paced digitizer would wait on the wall clock")
    sim = sim or SimStampede(n_spaces=1 + max(
        1, config.digitizer_space, config.tracker_space, config.hifi_space
    ))
    channels = {
        name: sim.create_channel(home, capacity, name)
        for name, capacity, home in fleet_channels(config)
    }
    tasks = {}

    def spawn(stage, space: int, virtual_time) -> None:
        tasks[stage] = sim.spawn(
            lambda t: stage(_SimSTM(t, channels), t, config, spawn),
            space=space, virtual_time=virtual_time, name=thread_name(stage),
        )

    @types.coroutine
    def decide(t):
        result = yield from fleet_decision(_SimSTM(t, channels), t, config, spawn)
        result.wall_seconds = t.now / 1e6  # *simulated* seconds
        return result

    for stage, placed in LAUNCHED:
        spawn(stage, getattr(config, placed), 0)
    decision = tasks[fleet_decision] = sim.spawn(
        decide, name=thread_name(fleet_decision))

    def collector(t):
        while not decision.done:
            yield ("delay", GC_PERIOD_US)
            if not sim.gc_once_instant().collected and all(
                task.waiting_on for task in sim.engine.pending_tasks
                if task is not t.handle
            ):
                return  # nothing to free and every stage parked: a deadlock

    sim.spawn(collector, virtual_time=INFINITY, name="sim-fleet-gc")
    try:
        sim.run()
    except Exception as exc:
        for task in filter(lambda task: not task.done, tasks.values()):
            # Run the teardown of a stage left parked (GC cannot: it yields).
            try:
                task.gen.throw(StampedeError("the simulated fleet failed"))
                while True:
                    task.gen.send(None)
            except (StopIteration, StampedeError):
                pass
        for stage, task in tasks.items():
            if task.error is exc:
                raise FleetStageError(
                    f"kiosk fleet stage {stage.__name__} failed"
                ) from exc
        raise
    return decision.result
