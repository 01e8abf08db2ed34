"""The kiosk fleet: one Fig. 2 program, four drivers.

    digitizer  ->  low-fi tracker  ->  decision + GUI
    (space d)      (space t)           (driver's space)

Each stage is written once, here, as an ``async def`` taking ``(stm, me,
config)`` against the awaitable surface of :mod:`repro.stm.aio`; stages
share nothing but channels found by name.  A driver supplies ``stm`` and
launches them: :func:`run_fleet` (threads or processes: the blocking facade
behind already-complete awaitables), :func:`repro.kiosk.aiofleet
.run_aio_fleet` and :func:`repro.kiosk.simfleet.run_sim_fleet`.  §4.2: the
digitizer produces timestamps; the tracker puts while its input item is
open, so records inherit them; ``None`` at ``n_frames`` ends the stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import INFINITY
from repro.errors import NoSuchChannelError, StampedeError
from repro.kiosk.blob_tracker import BlobTracker
from repro.kiosk.decision import DecisionModule, GuiModule
from repro.kiosk.frames import SyntheticScene
from repro.kiosk.records import DecisionRecord, GuiEvent, TrackRecord, VideoFrame
from repro.runtime.threads import current_thread, require_current_thread
from repro.stm import STM
from repro.stm.api import Item

__all__ = ["FleetConfig", "FleetResult", "FleetStageError", "run_fleet"]

#: channel names — the fleet's only rendezvous besides the name service.
VIDEO_CHANNEL = "kiosk.fleet.video"
TRACK_CHANNEL = "kiosk.fleet.tracks"
#: a failed stage registers this prefix + its name (see :func:`run_stage`).
FAILED_PREFIX = "kiosk.fleet.failed:"


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of a cross-process kiosk run (must pickle under ``spawn``)."""

    n_frames: int = 30
    #: address-space placement; the driver's space hosts decision + GUI.
    digitizer_space: int = 1
    tracker_space: int = 2
    #: bound on in-flight frames (backpressure instead of unbounded growth).
    frame_channel_capacity: int = 8
    threshold: float = 25.0
    min_area: int = 60
    scene_seed: int = 1999
    noise_sigma: float = 2.0


@dataclass
class FleetResult:
    """Everything the driver can observe about one fleet run."""

    frames_digitized: int = 0
    frames_tracked: int = 0
    frames_detected: int = 0
    #: the tracker's records as the decision stage got them, in order.
    records: list[TrackRecord] = field(default_factory=list)
    decisions: list[DecisionRecord] = field(default_factory=list)
    transcript: list[GuiEvent] = field(default_factory=list)
    mean_tracking_error: float = float("nan")
    wall_seconds: float = 0.0
    #: cluster-wide harvest (``collect_telemetry=True`` on a ProcCluster
    #: with tracing armed); None otherwise.
    telemetry: object | None = None

    @property
    def fps(self) -> float:
        if self.wall_seconds <= 0:
            return float("nan")
        return self.frames_digitized / self.wall_seconds


class FleetStageError(StampedeError):
    """A fleet stage raised; the message names the first to fail."""


async def fleet_digitizer(stm, me, config: FleetConfig) -> int:
    """Render ``n_frames`` synthetic camera frames into the video channel."""
    out = await (await stm.lookup(VIDEO_CHANNEL, wait=True)).attach_output()
    scene = SyntheticScene(seed=config.scene_seed, noise_sigma=config.noise_sigma)
    try:
        for ts in range(config.n_frames):
            # Producing timestamps, its virtual time tracks the frame
            # counter (§4.2): that lets GC chase the stream.
            me.set_virtual_time(ts)
            frame = VideoFrame(timestamp=ts, pixels=scene.render(ts))
            await out.put(ts, frame, refcount=1)
        me.set_virtual_time(config.n_frames)
        await out.put(config.n_frames, None, refcount=1)  # end of stream
    finally:
        await out.detach()
    return config.n_frames


async def fleet_tracker(stm, me, config: FleetConfig) -> int:
    """Blob-track every frame; forward TrackRecords with inherited timestamps."""
    inp = await (await stm.lookup(VIDEO_CHANNEL, wait=True)).attach_input()
    out = await (await stm.lookup(TRACK_CHANNEL, wait=True)).attach_output()
    me.set_virtual_time(INFINITY)  # attached: from now on puts inherit
    scene = SyntheticScene(seed=config.scene_seed, noise_sigma=config.noise_sigma)
    tracker = BlobTracker(
        scene.background, threshold=config.threshold, min_area=config.min_area
    )
    tracked = 0
    try:
        for ts in range(config.n_frames + 1):
            item = await inp.get(ts)
            if item.value is None:  # end of stream: pass the marker on
                await out.put(ts, None, refcount=1)
                await inp.consume(ts)
                break
            record = tracker.analyze(ts, item.value.pixels)
            await out.put(ts, record, refcount=1)  # input open: inherits ts
            await inp.consume(ts)
            tracked += 1
    finally:
        await inp.detach()
        await out.detach()
    return tracked


async def fleet_decision(stm, me, config: FleetConfig) -> FleetResult:
    """Decide and react on every track record; returns what the run showed."""
    inp = await (await stm.lookup(TRACK_CHANNEL, wait=True)).attach_input()
    result = FleetResult(frames_digitized=config.n_frames)
    decider = DecisionModule()
    gui = GuiModule()
    scene = SyntheticScene(seed=config.scene_seed, noise_sigma=config.noise_sigma)
    errors: list[float] = []
    try:
        for ts in range(config.n_frames + 1):
            record = (await inp.get(ts)).value
            await inp.consume(ts)
            me.set_virtual_time(ts + 1)
            if record is None:
                break
            result.records.append(record)
            best = record.best()
            truth = scene.ground_truth(ts)
            if best is not None and truth:
                region = best[0]
                errors.append(min(
                    float(np.hypot(region.cx - gx, region.cy - gy))
                    for gx, gy in truth
                ))
            decision = decider.decide(ts, record)
            result.decisions.append(decision)
            event = gui.react(decision)
            if event is not None:
                result.transcript.append(event)
    finally:
        await inp.detach()
    result.frames_tracked = len(result.records)
    result.frames_detected = sum(record.detected for record in result.records)
    if errors:
        result.mean_tracking_error = float(np.mean(errors))
    return result


async def run_stage(stage, stm, me, config: FleetConfig):
    """Run ``stage``; if it raises, tear the fleet down and name who failed.

    Destroying a channel fails the operations parked on it, so all stages
    end.  Only the first to fail can destroy the video channel; it registers
    its name before destroying the track channel, the driver's wait.
    """
    try:
        return await stage(stm, me, config)
    except Exception as exc:
        failed = stage.__name__
        try:
            await (await stm.lookup(VIDEO_CHANNEL)).destroy()
        except StampedeError:  # torn down already: find who failed first
            failed = "unknown"
            for first in (fleet_digitizer, fleet_tracker):
                try:
                    await stm.lookup(FAILED_PREFIX + first.__name__)
                    failed = first.__name__
                except NoSuchChannelError:
                    pass
        else:
            await stm.create_channel(FAILED_PREFIX + failed)
            await (await stm.lookup(TRACK_CHANNEL)).destroy()
        raise FleetStageError(f"kiosk fleet stage {failed} failed") from exc


class _Blocking:
    """The blocking facade behind the awaitable surface of ``repro.stm.aio``:
    a call runs to completion, awaiting its result never suspends."""

    __slots__ = ("_value",)

    def __init__(self, value):
        self._value = value

    def __getattr__(self, name: str):
        method = getattr(self._value, name)
        return lambda *args, **kwargs: _Blocking(method(*args, **kwargs))

    def __await__(self):
        yield from ()
        value = self._value  # an Item or None; else a channel or connection
        return value if value is None or value.__class__ is Item else self


def _drive(coro):
    """Run ``coro`` on :class:`_Blocking`: nothing suspends, one send ends it."""
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise StampedeError(f"{coro.__qualname__} suspends on the blocking facade")


def _spawned_stage(stage, config: FleetConfig):
    """Spawn target: ``stage`` on this space's blocking facade."""
    stm = _Blocking(STM.here())
    return _drive(run_stage(stage, stm, require_current_thread(), config))


def run_fleet(
    cluster,
    config: FleetConfig | None = None,
    collect_telemetry: bool = False,
) -> FleetResult:
    """Run the fleet on ``cluster`` (thread or process runtime) and report.

    The driver runs the decision + GUI stage on space 0 — the only space a
    :class:`~repro.runtime.procs.ProcCluster` can address in-process — and
    spawns the digitizer and tracker on their spaces, which may be other
    OS processes.  A stage that raises makes this raise
    :class:`FleetStageError`.  ``collect_telemetry`` harvests the cluster's
    telemetry into ``result.telemetry`` before the children can exit (a
    :class:`~repro.obs.collect.ClusterTelemetry`; one local snapshot on
    the thread runtime).
    """
    config = config or FleetConfig()
    space = cluster.space(0)
    was_adopted = current_thread()
    me = space.adopt_current_thread()
    t0 = time.perf_counter()
    stm = STM(space)
    stm.create_channel(
        VIDEO_CHANNEL, config.frame_channel_capacity, config.digitizer_space
    )
    stm.create_channel(TRACK_CHANNEL, home=config.tracker_space)
    stages = [
        space.spawn(_spawned_stage, (stage, config), on_space=on, name=name)
        for stage, on, name in (
            (fleet_digitizer, config.digitizer_space, "fleet-digitizer"),
            (fleet_tracker, config.tracker_space, "fleet-tracker"),
        )
    ]
    try:
        result = _drive(run_stage(fleet_decision, _Blocking(stm), me, config))
    finally:
        for stage in stages:
            stage.join(timeout=30.0)
        if me is not was_adopted:
            me.exit()
    result.wall_seconds = time.perf_counter() - t0
    if collect_telemetry:
        harvest = getattr(cluster, "harvest_telemetry", None)
        if harvest is not None:
            result.telemetry = harvest()
        else:
            # Thread runtime: every space shares this process, so the local
            # snapshot already *is* the cluster-wide telemetry.
            from repro.obs.collect import ClusterTelemetry, snapshot_local

            result.telemetry = ClusterTelemetry([snapshot_local(space=0)])
    return result
