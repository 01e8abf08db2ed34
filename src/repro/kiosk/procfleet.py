"""The Smart Kiosk (paper §2-§5, Figs. 2-7): one program, four drivers.

    digitizer --video--> low-fi tracker --tracks--> decision + GUI
                              | spawns                ^  ^  ^
                              +-> hi-fi tracker -hifi-+  |  |
                 tracks --> gesture --gestures-----------+  |
    microphone --audio--------------------------------------+

Each stage is written once, here, as an ``async def`` taking ``(stm, me,
config, spawn)`` against the awaitable surface of :mod:`repro.stm.aio`;
stages share nothing but channels found by name.  A driver supplies ``stm``
and ``spawn`` and launches them: :func:`run_fleet` (threads or processes:
the blocking facade behind already-complete awaitables),
:func:`repro.kiosk.aiofleet.run_aio_fleet` and
:func:`repro.kiosk.simfleet.run_sim_fleet`.

§4.2: the digitizer and the microphone produce timestamps; every other
stage puts while an input item is open, so its records inherit them.  The
low-fi tracker gets ``STM_LATEST_UNSEEN``, skipping stale frames (Fig. 7).
At its first hypothesis it spawns the hi-fi tracker with its virtual time
at that timestamp, so the hi-fi tracker re-analyses the very frame that
triggered it (§3).  The column ``n_frames`` ends the stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import INFINITY, STM_LATEST_UNSEEN, STM_OLDEST_UNSEEN
from repro.errors import NoSuchChannelError, StampedeError
from repro.kiosk.audio import AudioRecord, SpeechDetector, SyntheticMicrophone
from repro.kiosk.blob_tracker import BlobTracker
from repro.kiosk.color_tracker import ColorTracker, color_histogram
from repro.kiosk.decision import DecisionModule, GuiModule
from repro.kiosk.frames import SyntheticScene
from repro.kiosk.gesture import GestureEvent, GestureRecognizer
from repro.kiosk.hifi_tracker import HifiTracker
from repro.kiosk.records import DecisionRecord, GuiEvent, TrackRecord, VideoFrame
from repro.runtime.realtime import Pacer
from repro.runtime.threads import current_thread, require_current_thread
from repro.stm import STM
from repro.stm.api import Item

__all__ = ["FleetConfig", "FleetResult", "FleetStageError", "run_fleet"]

#: channel names — the fleet's only rendezvous besides the name service.
VIDEO_CHANNEL = "kiosk.fleet.video"
TRACK_CHANNEL = "kiosk.fleet.tracks"
HIFI_CHANNEL = "kiosk.fleet.hifi"
AUDIO_CHANNEL = "kiosk.fleet.audio"
GESTURE_CHANNEL = "kiosk.fleet.gestures"
#: a failed stage registers this prefix + its name (see :func:`run_stage`).
FAILED_PREFIX = "kiosk.fleet.failed:"
#: frames during which the synthetic customer speaks (§2-3).
SPEECH_FRAMES = frozenset(range(10, 30))


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of a kiosk run (must pickle under ``spawn``)."""

    n_frames: int = 30
    #: camera rate the digitizer paces itself to on the wall clock (§4.3;
    #: the paper's camera runs at 30); None runs it saturated.
    fps: float | None = None
    #: address-space placement; the driver's space 0 hosts decision + GUI.
    digitizer_space: int = 1
    tracker_space: int = 2
    hifi_space: int = 0
    #: bound on stored frames; None leaves memory to GC alone.  At 1 the
    #: next frame is put only once GC has reclaimed the last, so no
    #: schedule can make the low-fi tracker skip one.
    frame_channel_capacity: int | None = 1
    threshold: float = 25.0
    min_area: int = 60
    scene_seed: int = 1999
    noise_sigma: float = 2.0


@dataclass
class FleetResult:
    """Everything the driver can observe about one fleet run."""

    frames_digitized: int = 0
    #: frames the low-fi tracker passed over, by its own count.
    frames_skipped: int = 0
    #: ticks the paced digitizer missed by more than its tolerance.
    digitizer_slips: int = 0
    #: the low-fi tracker's records as the decision stage got them, in order.
    records: list[TrackRecord] = field(default_factory=list)
    #: the hi-fi tracker's, one per low-fi column from the hypothesis on.
    hifi_records: list[TrackRecord] = field(default_factory=list)
    audio_records: list[AudioRecord] = field(default_factory=list)
    gestures: list[GestureEvent] = field(default_factory=list)
    decisions: list[DecisionRecord] = field(default_factory=list)
    transcript: list[GuiEvent] = field(default_factory=list)
    mean_tracking_error: float = float("nan")
    wall_seconds: float = 0.0
    #: cluster-wide harvest (``collect_telemetry=True`` on a ProcCluster
    #: with tracing armed); None otherwise.
    telemetry: object | None = None

    @property
    def frames_tracked(self) -> int:
        return len(self.records)

    @property
    def frames_detected(self) -> int:
        return sum(record.detected for record in self.records)

    @property
    def hifi_spawned(self) -> int:
        return int(bool(self.hifi_records))


class FleetStageError(StampedeError):
    """A fleet stage raised; the message names the first to fail."""


def _scene(config: FleetConfig) -> SyntheticScene:
    return SyntheticScene(seed=config.scene_seed, noise_sigma=config.noise_sigma)


async def fleet_digitizer(stm, me, config: FleetConfig, spawn) -> None:
    """Render ``n_frames`` synthetic camera frames into the video channel."""
    out = await (await stm.lookup(VIDEO_CHANNEL, wait=True)).attach_output()
    scene = _scene(config)
    pacer = None
    if config.fps is not None:  # late by > 4 frames: a slip, re-anchored
        pacer = Pacer(1.0 / config.fps, 4.0 / config.fps, lambda report: None)
    try:
        for ts in range(config.n_frames):
            if pacer is not None:
                pacer.wait_for_tick()
            # Producing timestamps, its virtual time tracks the frame
            # counter (§4.2): that lets GC chase the stream.
            me.set_virtual_time(ts)
            await out.put(ts, VideoFrame(timestamp=ts, pixels=scene.render(ts)))
        me.set_virtual_time(config.n_frames)
        await out.put(config.n_frames, pacer.n_slipped if pacer else 0)
    finally:
        await out.detach()


async def fleet_microphone(stm, me, config: FleetConfig, spawn) -> None:
    """Speech-detect one synthetic audio chunk per frame interval (§2-3)."""
    out = await (await stm.lookup(AUDIO_CHANNEL, wait=True)).attach_output()
    mic = SyntheticMicrophone(speech_frames=SPEECH_FRAMES)
    detector = SpeechDetector()
    try:
        for ts in range(config.n_frames):
            me.set_virtual_time(ts)
            await out.put(ts, detector.analyze(mic.chunk(ts)), refcount=1)
        me.set_virtual_time(config.n_frames)
        await out.put(config.n_frames, None, refcount=1)
    finally:
        await out.detach()


def lofi_tracker(config: FleetConfig):
    """The low-fi analysis of one frame (§2): blob tracking, with the blobs
    confirmed and refined by the customer's colour where it finds them."""
    scene = _scene(config)
    blobs = BlobTracker(
        scene.background, threshold=config.threshold, min_area=config.min_area
    )
    customer = np.asarray(scene.actors[0].color, dtype=np.uint8).reshape(1, 3)
    color = ColorTracker(color_histogram(customer))

    def analyze(ts: int, pixels: np.ndarray) -> TrackRecord:
        record = blobs.analyze(ts, pixels)
        if record.detected:
            refined = color.analyze(ts, pixels, record.regions)
            if refined.detected:
                return TrackRecord(timestamp=ts, tracker="lofi",
                                   regions=refined.regions, scores=refined.scores)
        return record

    return analyze


async def fleet_tracker(stm, me, config: FleetConfig, spawn) -> None:
    """Track the newest frame (Fig. 7); at the first hypothesis, spawn the
    hi-fi tracker at its timestamp (§3)."""
    inp = await (await stm.lookup(VIDEO_CHANNEL, wait=True)).attach_input()
    out = await (await stm.lookup(TRACK_CHANNEL, wait=True)).attach_output()
    me.set_virtual_time(INFINITY)  # attached: from now on puts inherit
    analyze = lofi_tracker(config)
    last = -1
    skipped = 0
    hypothesis = None
    try:
        while True:
            item = await inp.get(STM_LATEST_UNSEEN)  # stale frames skipped
            ts = item.timestamp
            skipped += ts - last - 1
            last = ts
            if ts == config.n_frames:  # end of stream: the digitizer's slips
                await out.put(ts, (item.value, skipped))
                await inp.consume_until(ts)
                break
            record = analyze(ts, item.value.pixels)
            if hypothesis is None and record.detected:
                # The frame is still open here: a child whose virtual time
                # is ts is legal, and the frame stays for it.
                hypothesis = ts
                spawn(fleet_hifi_tracker, config.hifi_space, ts)
            await out.put(ts, record)  # input open: inherits ts
            await inp.consume_until(ts)
    finally:
        await inp.detach()
        await out.detach()


async def fleet_hifi_tracker(stm, me, config: FleetConfig, spawn) -> None:
    """Template-track the hypothesis from its own frame on (§3).

    Spawned with its virtual time at the hypothesis, it attaches there, so
    that column's record and frame are kept for it.  It puts one record per
    low-fi column to the end of the stream, empty where it found nothing.
    """
    tracks = await (await stm.lookup(TRACK_CHANNEL, wait=True)).attach_input()
    video = await (await stm.lookup(VIDEO_CHANNEL, wait=True)).attach_input()
    out = await (await stm.lookup(HIFI_CHANNEL, wait=True)).attach_output()
    me.set_virtual_time(INFINITY)
    tracker = HifiTracker()
    try:
        while True:
            item = await tracks.get(STM_OLDEST_UNSEEN)
            ts = item.timestamp
            if ts == config.n_frames:
                await out.put(ts, None, refcount=1)
                await video.consume_until(ts)
                await tracks.consume_until(ts)
                break
            pixels = (await video.get(ts)).value.pixels
            if not tracker.acquired:  # the frame that led to the hypothesis
                tracker.acquire(pixels, item.value.best()[0])
            await out.put(ts, tracker.analyze(ts, pixels), refcount=1)
            await video.consume_until(ts)  # and the frames the low-fi skipped
            await tracks.consume_until(ts)
    finally:
        await tracks.detach()
        await video.detach()
        await out.detach()


async def fleet_gesture(stm, me, config: FleetConfig, spawn) -> None:
    """Recognize gestures over a sliding window of the track stream (§1):
    one item per low-fi column, the gesture that ends there or None.

    The recognizer keeps the window's positions itself, so each record is
    consumed once fed: a window of open items would pin the GC horizon
    (§4.2) that far behind, and a bounded frame channel would then stall
    the digitizer.
    """
    inp = await (await stm.lookup(TRACK_CHANNEL, wait=True)).attach_input()
    out = await (await stm.lookup(GESTURE_CHANNEL, wait=True)).attach_output()
    me.set_virtual_time(INFINITY)
    recognizer = GestureRecognizer(window=8, min_records=4)
    try:
        while True:
            item = await inp.get(STM_OLDEST_UNSEEN)
            ts = item.timestamp
            end = ts == config.n_frames
            await out.put(ts, None if end else recognizer.feed(item.value),
                          refcount=1)
            await inp.consume_until(ts)
            if end:
                break
    finally:
        await inp.detach()
        await out.detach()


async def fleet_decision(stm, me, config: FleetConfig, spawn) -> FleetResult:
    """Join every low-fi column with its hi-fi and audio records (§2-3),
    decide and react; returns what the run showed."""
    tracks = await (await stm.lookup(TRACK_CHANNEL, wait=True)).attach_input()
    hifi = await (await stm.lookup(HIFI_CHANNEL, wait=True)).attach_input()
    audio = await (await stm.lookup(AUDIO_CHANNEL, wait=True)).attach_input()
    gestures = await (await stm.lookup(GESTURE_CHANNEL, wait=True)).attach_input()
    result = FleetResult(frames_digitized=config.n_frames)
    decider = DecisionModule()
    gui = GuiModule()
    scene = _scene(config)
    errors: list[float] = []
    try:
        while True:
            item = await tracks.get(STM_OLDEST_UNSEEN)
            ts = item.timestamp
            # Every audio column, the ones the low-fi tracker skipped too.
            for column in range(len(result.audio_records), min(ts + 1, config.n_frames)):
                result.audio_records.append((await audio.get(column)).value)
            if ts == config.n_frames:
                result.digitizer_slips, result.frames_skipped = item.value
                break
            record = item.value
            fine = None
            if record.detected or result.hifi_records:
                # From the first hypothesis on, the hi-fi tracker puts every
                # column: blocking on it keeps the join deterministic.
                fine = (await hifi.get(ts)).value
                result.hifi_records.append(fine)
            gesture = (await gestures.get(ts)).value
            if gesture is not None:
                result.gestures.append(gesture)
            result.records.append(record)
            best, truth = record.best(), scene.ground_truth(ts)
            if best is not None and truth:
                errors.append(min(np.hypot(best[0].cx - gx, best[0].cy - gy)
                                  for gx, gy in truth))
            decision = decider.decide(ts, record, fine, result.audio_records[ts])
            result.decisions.append(decision)
            event = gui.react(decision)
            if event is not None:
                result.transcript.append(event)
            # consume_until: a skipped column must not pin the GC horizon
            for inp in (tracks, hifi, audio, gestures):
                await inp.consume_until(ts)
            me.set_virtual_time(ts + 1)
    finally:
        await tracks.detach()
        await hifi.detach()
        await audio.detach()
        await gestures.detach()
    if errors:
        result.mean_tracking_error = float(np.mean(errors))
    return result


def fleet_channels(config: FleetConfig) -> tuple:
    """What a driver creates before any stage runs: (name, capacity, home)."""
    return (
        (VIDEO_CHANNEL, config.frame_channel_capacity, config.digitizer_space),
        (AUDIO_CHANNEL, None, config.digitizer_space),
        (TRACK_CHANNEL, None, config.tracker_space),
        (GESTURE_CHANNEL, None, config.tracker_space),
        (HIFI_CHANNEL, None, config.hifi_space),
    )


#: What a driver launches, each on the space its config field names;
#: consumers first, so a process has loaded the kiosk before frames flow.
#: The decision + GUI stage runs in the driver, on its space 0; the low-fi
#: tracker spawns the hi-fi tracker through the ``spawn`` it is given.
LAUNCHED = (
    (fleet_tracker, "tracker_space"),
    (fleet_gesture, "tracker_space"),
    (fleet_microphone, "digitizer_space"),
    (fleet_digitizer, "digitizer_space"),
)
#: every stage, so a failed one can be named (see :func:`run_stage`).
STAGES = (
    fleet_digitizer, fleet_microphone, fleet_tracker, fleet_hifi_tracker,
    fleet_gesture, fleet_decision,
)


def thread_name(stage) -> str:
    """What a stage's thread or task is called: fleet-digitizer, ..."""
    return stage.__name__.replace("_", "-")


async def run_stage(stage, stm, me, config: FleetConfig, spawn):
    """Run ``stage``; if it raises, tear the fleet down and name who failed.

    Destroying a channel fails the operations parked on it, so all stages
    end.  Only the first to fail can destroy the video channel; it registers
    its name before destroying the channels the decision stage, the
    driver's wait, gets from.
    """
    try:
        return await stage(stm, me, config, spawn)
    except Exception as exc:
        failed = stage.__name__
        try:
            await (await stm.lookup(VIDEO_CHANNEL)).destroy()
        except StampedeError:  # torn down already: find who failed first
            failed = "unknown"
            for first in STAGES:
                try:
                    await stm.lookup(FAILED_PREFIX + first.__name__)
                    failed = first.__name__
                except NoSuchChannelError:
                    pass
        else:
            await stm.create_channel(FAILED_PREFIX + failed)
            for name in (AUDIO_CHANNEL, HIFI_CHANNEL, GESTURE_CHANNEL, TRACK_CHANNEL):
                await (await stm.lookup(name)).destroy()
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


def _run_blocking(stage, stm: STM, me, config: FleetConfig, spawned: list):
    """``stage`` on the blocking facade; what it spawns joins ``spawned``."""

    def spawn(child, on_space: int, virtual_time) -> None:
        spawned.append(me.space.spawn(
            _spawned_stage, (child, config), on_space=on_space,
            virtual_time=virtual_time, name=thread_name(child),
        ))

    return _drive(run_stage(stage, _Blocking(stm), me, config, spawn))


def _spawned_stage(stage, config: FleetConfig):
    """Spawn target: ``stage`` on this space; joins the stages it spawned."""
    spawned: list = []
    try:
        return _run_blocking(
            stage, STM.here(), require_current_thread(), config, spawned
        )
    finally:
        for child in spawned:
            child.join(timeout=30.0)


def run_fleet(
    cluster,
    config: FleetConfig | None = None,
    collect_telemetry: bool = False,
) -> FleetResult:
    """Run the kiosk on ``cluster`` (thread or process runtime) and report.

    The driver runs the decision + GUI stage on space 0 — the only space a
    :class:`~repro.runtime.procs.ProcCluster` can address in-process — and
    spawns the other stages on their spaces, which may be other OS
    processes.  A stage that raises makes this raise
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
    for name, capacity, home in fleet_channels(config):
        stm.create_channel(name, capacity, home)
    spawned = [
        space.spawn(_spawned_stage, (stage, config),
                    on_space=getattr(config, placed), name=thread_name(stage))
        for stage, placed in LAUNCHED
    ]
    try:
        result = _run_blocking(fleet_decision, stm, me, config, spawned)
    finally:
        for stage in spawned:
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
