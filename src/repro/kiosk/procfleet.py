"""The kiosk pipeline as a *fleet* of spawn-picklable stage functions.

:func:`~repro.kiosk.pipeline.run_pipeline` builds its stages as closures
over shared in-process state (result accumulators, the live scene object),
which is exactly right for the thread runtime and exactly wrong for the
process runtime (:mod:`repro.runtime.procs`): a closure does not pickle
under the ``spawn`` start method, and shared accumulators do not exist
across address-space *processes*.

This module is the cross-process retelling of the same Fig. 2 pipeline:

    digitizer  ->  low-fi tracker  ->  decision + GUI
    (space d)      (space t)           (driver's space)

Every stage is a **module-level function** taking only picklable arguments,
finds its channels by *name* (the registry is reachable from any space),
and binds to its hosting address space with :meth:`~repro.stm.STM.here`.
All cross-stage state travels through STM channels — which is the paper's
whole point: the channels *are* the shared state, so the program is
indifferent to whether its stages share a heap, a node, or nothing.

The stage functions follow the §4.2 timestamp discipline: the digitizer
produces timestamps (virtual time tracks the frame counter), interior
stages attach first and then jump to ``INFINITY``, putting *while the input
item is open* so the output inherits its timestamp.  End of stream is a
``None`` item at timestamp ``n_frames``.

Works unchanged on both the thread runtime (:class:`~repro.runtime.cluster
.Cluster`) and the process runtime (:class:`~repro.runtime.procs
.ProcCluster`); ``tests/kiosk/test_procfleet.py`` checks that both give
the same results.  What each driver costs for this pipeline is the spine's
``kiosk`` workload (processes) beside its ``kiosk.threads_item_cost_cal``
row (threads).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import INFINITY
from repro.kiosk.blob_tracker import BlobTracker
from repro.kiosk.decision import DecisionModule, GuiModule
from repro.kiosk.frames import SyntheticScene
from repro.kiosk.records import DecisionRecord, GuiEvent, VideoFrame
from repro.runtime.threads import current_thread, require_current_thread
from repro.stm import STM

__all__ = ["FleetConfig", "FleetResult", "run_fleet"]

#: channel names — the fleet's only rendezvous besides the name service.
VIDEO_CHANNEL = "kiosk.fleet.video"
TRACK_CHANNEL = "kiosk.fleet.tracks"


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


# ----------------------------------------------------------------------
# stage functions (module-level: picklable under the spawn start method)
# ----------------------------------------------------------------------
def fleet_digitizer(config: FleetConfig) -> int:
    """Render ``n_frames`` synthetic camera frames into the video channel."""
    stm = STM.here()
    me = require_current_thread()
    out = stm.lookup(VIDEO_CHANNEL, wait=True).attach_output()
    scene = SyntheticScene(seed=config.scene_seed, noise_sigma=config.noise_sigma)
    try:
        for ts in range(config.n_frames):
            # The digitizer *produces* timestamps, so its virtual time
            # tracks the frame counter (§4.2) — that is what lets GC chase
            # the stream instead of waiting for the whole run to end.
            me.set_virtual_time(ts)
            frame = VideoFrame(timestamp=ts, pixels=scene.render(ts))
            out.put(ts, frame, refcount=1)
        me.set_virtual_time(config.n_frames)
        out.put(config.n_frames, None, refcount=1)  # end of stream
    finally:
        out.detach()
    return config.n_frames


def fleet_tracker(config: FleetConfig) -> int:
    """Blob-track every frame; forward TrackRecords with inherited timestamps."""
    stm = STM.here()
    me = require_current_thread()
    inp = stm.lookup(VIDEO_CHANNEL, wait=True).attach_input()
    out = stm.lookup(TRACK_CHANNEL, wait=True).attach_output()
    # Attach first (at the spawn-time visibility), then become an interior
    # thread: all of this stage's puts inherit timestamps from open gets.
    me.set_virtual_time(INFINITY)
    scene = SyntheticScene(seed=config.scene_seed, noise_sigma=config.noise_sigma)
    tracker = BlobTracker(
        scene.background, threshold=config.threshold, min_area=config.min_area
    )
    tracked = 0
    try:
        for ts in range(config.n_frames + 1):
            item = inp.get(ts)
            if item.value is None:  # end of stream: pass the marker on
                out.put(ts, None, refcount=1)
                inp.consume(ts)
                break
            record = tracker.analyze(ts, item.value.pixels)
            # Put while the input item is open so the record inherits ts.
            out.put(ts, record, refcount=1)
            inp.consume(ts)
            tracked += 1
    finally:
        inp.detach()
        out.detach()
    return tracked


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_fleet(
    cluster,
    config: FleetConfig | None = None,
    collect_telemetry: bool = False,
) -> FleetResult:
    """Run the fleet on ``cluster`` (thread or process runtime) and report.

    The driver hosts the decision + GUI stage on the cluster's space 0 —
    the only space a :class:`~repro.runtime.procs.ProcCluster` can address
    in-process — and spawns the digitizer and tracker on the configured
    spaces, which may live in other OS processes.

    ``collect_telemetry`` harvests the whole cluster's telemetry right
    after the run (before the child processes can exit) into
    ``result.telemetry`` — a :class:`~repro.obs.collect.ClusterTelemetry`
    when the cluster supports the harvest RPC (ProcCluster), else a
    single-process snapshot of the local recorder/registry.
    """
    config = config or FleetConfig()
    space = cluster.space(0)
    was_adopted = current_thread()
    me = space.adopt_current_thread()
    result = FleetResult()
    t0 = time.perf_counter()
    stm = STM(space)
    video = stm.create_channel(
        VIDEO_CHANNEL,
        capacity=config.frame_channel_capacity,
        home=config.digitizer_space,
    )
    tracks = stm.create_channel(TRACK_CHANNEL, home=config.tracker_space)
    inp = tracks.attach_input()
    digitizer = space.spawn(
        fleet_digitizer, (config,), on_space=config.digitizer_space,
        name="fleet-digitizer",
    )
    tracker = space.spawn(
        fleet_tracker, (config,), on_space=config.tracker_space,
        name="fleet-tracker",
    )
    decider = DecisionModule()
    gui = GuiModule()
    scene = SyntheticScene(seed=config.scene_seed, noise_sigma=config.noise_sigma)
    errors: list[float] = []
    try:
        for ts in range(config.n_frames + 1):
            item = inp.get_consume(ts)
            me.set_virtual_time(ts + 1)
            if item.value is None:
                break
            record = item.value
            result.frames_tracked += 1
            if record.detected:
                result.frames_detected += 1
                best = record.best()
                truth = scene.ground_truth(ts)
                if best is not None and truth:
                    region, _score = best
                    errors.append(
                        min(
                            float(np.hypot(region.cx - gx, region.cy - gy))
                            for gx, gy in truth
                        )
                    )
            decision = decider.decide(ts, record)
            result.decisions.append(decision)
            event = gui.react(decision)
            if event is not None:
                result.transcript.append(event)
        digitizer.join(timeout=30.0)
        tracker.join(timeout=30.0)
    finally:
        inp.detach()
        if was_adopted is None:
            me.exit()
    result.frames_digitized = config.n_frames
    result.wall_seconds = time.perf_counter() - t0
    if errors:
        result.mean_tracking_error = float(np.mean(errors))
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
