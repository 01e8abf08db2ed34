"""The kiosk fleet on the simulated runtime: launch code only.

Each awaitable :mod:`repro.kiosk.procfleet`'s stages get here runs one
:class:`~repro.sim.SimThread` operation generator, so a stage coroutine
*is* a simulated task: :class:`~repro.sim.SimEngine` ``send``s to it and
gets the ``("delay", us)`` commands.  The trackers run on real pixels.
"""

from __future__ import annotations

import types

from repro.errors import StampedeError
from repro.kiosk.procfleet import (
    FleetConfig, FleetResult, FleetStageError, TRACK_CHANNEL, VIDEO_CHANNEL,
    fleet_decision, fleet_digitizer, fleet_tracker,
)
from repro.kiosk.records import VideoFrame
from repro.sim import SimStampede
from repro.stm.api import Item

__all__ = ["run_sim_fleet"]

#: nominal wire size of a track/decision record in the simulated cluster.
RECORD_BYTES = 256


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
    def put(self, timestamp: int, value, *, refcount: int):
        nbytes = (value.pixels.nbytes if isinstance(value, VideoFrame)
                  else 1 if value is None else RECORD_BYTES)
        yield from self._thread.put(
            self._conn, timestamp, nbytes, value, refcount=refcount
        )

    @types.coroutine
    def get(self, timestamp: int):
        value, ts, size = yield from self._thread.get(self._conn, timestamp)
        return Item(value=value, timestamp=ts, size=size)

    @types.coroutine
    def consume(self, timestamp: int):
        yield from self._thread.consume(self._conn, timestamp)

    @types.coroutine
    def detach(self):
        yield from self._thread.detach(*self._conn)


def run_sim_fleet(
    config: FleetConfig | None = None, sim: SimStampede | None = None
) -> FleetResult:
    """Run the fleet inside a simulated cluster and report.

    The decision stage runs on space 0, digitizer and tracker on their
    configured spaces; pass ``sim`` to control topology and costs.
    ``wall_seconds`` is *simulated* time.
    """
    config = config or FleetConfig()
    sim = sim or SimStampede(
        n_spaces=max(1, config.digitizer_space, config.tracker_space) + 1
    )
    channels = {
        VIDEO_CHANNEL: sim.create_channel(
            config.digitizer_space, config.frame_channel_capacity, VIDEO_CHANNEL
        ),
        TRACK_CHANNEL: sim.create_channel(config.tracker_space, name=TRACK_CHANNEL),
    }
    tasks = {
        stage: sim.spawn(
            lambda t, stage=stage: stage(_SimSTM(t, channels), t, config),
            space=space, virtual_time=0, name=name,
        )
        for stage, space, name in (
            (fleet_digitizer, config.digitizer_space, "sim-fleet-digitizer"),
            (fleet_tracker, config.tracker_space, "sim-fleet-tracker"),
            (fleet_decision, 0, "sim-fleet-decision"),
        )
    }
    try:
        elapsed_us = sim.run()
    except Exception as exc:
        for task in filter(lambda task: not task.done, tasks.values()):
            # Run the teardown of a stage left parked (GC cannot: it yields).
            try:
                task.gen.throw(GeneratorExit)
                while True:
                    task.gen.send(None)
            except (GeneratorExit, StopIteration, StampedeError):
                pass
        for stage, task in tasks.items():
            if task.error is exc:
                raise FleetStageError(
                    f"kiosk fleet stage {stage.__name__} failed"
                ) from exc
        raise
    result = tasks[fleet_decision].result
    result.wall_seconds = elapsed_us / 1e6  # *simulated* seconds
    return result
