"""The kiosk fleet on the asyncio runtime: launch code only.

The stages of :mod:`repro.kiosk.procfleet` are written against the
awaitable surface of :class:`~repro.stm.aio.AioSTM`, so here they run as
they are, as Stampede tasks on an :class:`~repro.runtime.aio.AioCluster`.
"""

from __future__ import annotations

import asyncio
import time

from repro.kiosk.procfleet import (
    FleetConfig, FleetResult, TRACK_CHANNEL, VIDEO_CHANNEL, fleet_decision,
    fleet_digitizer, fleet_tracker, run_stage,
)
from repro.runtime.aio import AioCluster
from repro.runtime.threads import current_thread, require_current_thread
from repro.stm.aio import AioSTM

__all__ = ["run_aio_fleet"]


async def _spawned_stage(stage, config: FleetConfig):
    """Task body: ``stage`` on this space's awaitable facade."""
    return await run_stage(stage, AioSTM.here(), require_current_thread(), config)


async def run_aio_fleet(
    cluster: AioCluster, config: FleetConfig | None = None
) -> FleetResult:
    """Run the fleet as asyncio tasks on ``cluster`` and report, as
    :func:`repro.kiosk.procfleet.run_fleet` does (decision + GUI here)."""
    config = config or FleetConfig()
    space = cluster.space(0)
    was_adopted = current_thread()
    me = space.adopt_current_task()
    t0 = time.perf_counter()
    stm = AioSTM(space)
    await stm.create_channel(
        VIDEO_CHANNEL, config.frame_channel_capacity, config.digitizer_space
    )
    await stm.create_channel(TRACK_CHANNEL, home=config.tracker_space)
    stages = [
        cluster.space(on).spawn_task(_spawned_stage, (stage, config), name=name)
        for stage, on, name in (
            (fleet_digitizer, config.digitizer_space, "aio-fleet-digitizer"),
            (fleet_tracker, config.tracker_space, "aio-fleet-tracker"),
        )
    ]
    try:
        result = await run_stage(fleet_decision, stm, me, config)
    finally:
        joined = await asyncio.gather(
            *(stage.space.ajoin(stage, timeout=30.0) for stage in stages),
            return_exceptions=True,
        )
        if me is not was_adopted:
            me.exit()
    for outcome in joined:
        if isinstance(outcome, BaseException):
            raise outcome
    result.wall_seconds = time.perf_counter() - t0
    return result
