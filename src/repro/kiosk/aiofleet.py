"""The kiosk fleet on the asyncio runtime: launch code only.

The stages of :mod:`repro.kiosk.procfleet` are written against the
awaitable surface of :class:`~repro.stm.aio.AioSTM`, so here they run as
they are, as Stampede tasks on an :class:`~repro.runtime.aio.AioCluster`.
"""

from __future__ import annotations

import asyncio
import time

from repro.kiosk.procfleet import (
    LAUNCHED, FleetConfig, FleetResult, fleet_channels, fleet_decision,
    run_stage, thread_name,
)
from repro.runtime.aio import AioCluster
from repro.runtime.threads import current_thread, require_current_thread
from repro.stm.aio import AioSTM

__all__ = ["run_aio_fleet"]


async def _run(stage, stm: AioSTM, me, config: FleetConfig, spawned: list):
    """``stage`` as a task of ``me``; the tasks it spawns join ``spawned``."""

    def spawn(child, on_space: int, virtual_time) -> None:
        spawned.append(me.space.cluster.space(on_space).spawn_task(
            _spawned_stage, (child, config), name=thread_name(child),
            virtual_time=virtual_time,
        ))

    return await run_stage(stage, stm, me, config, spawn)


async def _join(spawned: list) -> list:
    return await asyncio.gather(
        *(task.space.ajoin(task, timeout=30.0) for task in spawned),
        return_exceptions=True,
    )


async def _spawned_stage(stage, config: FleetConfig):
    """Task body: ``stage`` on this space; awaits the tasks it spawned (a
    failed one has ended the run already, and the driver names it)."""
    spawned: list = []
    try:
        return await _run(
            stage, AioSTM.here(), require_current_thread(), config, spawned
        )
    finally:
        await _join(spawned)


async def run_aio_fleet(
    cluster: AioCluster, config: FleetConfig | None = None
) -> FleetResult:
    """Run the kiosk as asyncio tasks on ``cluster`` and report, as
    :func:`repro.kiosk.procfleet.run_fleet` does (decision + GUI here).
    The digitizer paces on the wall clock, so ``fps`` must be None."""
    config = config or FleetConfig()
    if config.fps is not None:
        raise ValueError("a paced digitizer would block the event loop")
    space = cluster.space(0)
    was_adopted = current_thread()
    me = space.adopt_current_task()
    t0 = time.perf_counter()
    stm = AioSTM(space)
    for name, capacity, home in fleet_channels(config):
        await stm.create_channel(name, capacity, home)
    spawned = [
        cluster.space(getattr(config, placed)).spawn_task(
            _spawned_stage, (stage, config), name=thread_name(stage))
        for stage, placed in LAUNCHED
    ]
    try:
        result = await _run(fleet_decision, stm, me, config, spawned)
    finally:
        joined = await _join(spawned)
        if me is not was_adopted:
            me.exit()
    for outcome in joined:
        if isinstance(outcome, BaseException):
            raise outcome
    result.wall_seconds = time.perf_counter() - t0
    return result
