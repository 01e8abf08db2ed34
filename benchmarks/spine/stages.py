"""Stage functions and seeded inputs of the workloads.

Everything a cluster runs on behalf of a workload lives here, at module
level in an importable module, so that ``spawn`` children can unpickle it
(a function defined in ``__main__`` cannot cross a ProcCluster boundary).
Stages find their channels by name, bind to their hosting space with
``STM.here()``, and detach every connection on every path.

Inputs derive from the ``--seed`` alone: payload bytes, the 16 random
frames of ``remote_frames``, the kiosk scene (actors, background, noise),
and the lag/churn order of ``gc_fanout``.  The program only ever sees the
generated inputs.
"""

from __future__ import annotations

import random
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import INFINITY, STM_LATEST_UNSEEN, STM_OLDEST_UNSEEN
from repro.errors import ChannelEmptyError
from repro.kiosk.blob_tracker import BlobTracker
from repro.kiosk.frames import FRAME_HEIGHT, FRAME_WIDTH, Actor, SyntheticScene
from repro.kiosk.records import VideoFrame
from repro.runtime.threads import require_current_thread
from repro.stm import STM

from spine import trace

__all__ = [
    "FanoutState",
    "checksum64",
    "fanout_producer",
    "fanout_reader",
    "frames_producer",
    "kiosk_digitizer",
    "kiosk_scene",
    "kiosk_tracker",
    "render_frames",
    "seeded_frames",
]

pc = time.perf_counter_ns

# -- remote_frames -----------------------------------------------------
FRAMES_CHANNEL = "spine.frames"
FRAMES_STOP = "spine.frames.stop"
N_SEEDED_FRAMES = 16
#: how often the producer polls its (local) stop channel, in frames.
STOP_POLL_EVERY = 16

# -- kiosk ---------------------------------------------------------------
VIDEO_CHANNEL = "spine.kiosk.video"
TRACKS_CHANNEL = "spine.kiosk.tracks"
CONTROL_CHANNEL = "spine.kiosk.control"
KIOSK_LOOP_FRAMES = 64
SATURATE = "saturate"
PACED = "paced"
STOP = "stop"
END_OF_STREAM = "eos"
#: head start the digitizer gives the pipeline to drain the closed-loop
#: backlog before the first paced frame is due.
PACED_LEAD_NS = 100_000_000

# -- gc_fanout -----------------------------------------------------------
FANOUT_CHANNELS = 8
FANOUT_CONNS_PER_CHANNEL = 64
FANOUT_PAYLOAD_BYTES = 1024
FANOUT_CHURN_EVERY = 8
_FANOUT_HEAD = struct.Struct("<qq")  # put stamp (ns), timestamp


def checksum64(pixels: np.ndarray) -> int:
    """Sum of the frame's bytes read as 64-bit words (~15 us for a frame).

    Carried inside the item and recomputed by the consumer on every frame;
    a CRC-32 of 230 400 bytes would cost a tenth of the item it checks.
    """
    return int(pixels.reshape(-1).view(np.uint64).sum())


def seeded_frames(seed: int) -> list[tuple[int, np.ndarray]]:
    """The 16 random 230 400-byte frames of ``remote_frames`` + checksums."""
    rng = np.random.default_rng([seed, 1])
    frames = []
    for _ in range(N_SEEDED_FRAMES):
        pixels = rng.integers(
            0, 256, size=(FRAME_HEIGHT, FRAME_WIDTH, 3), dtype=np.uint8
        )
        frames.append((checksum64(pixels), pixels))
    return frames


def frames_producer(seed: int, traced: bool) -> None:
    """Stream seeded frames until the stop token appears, then end the stream.

    Closed loop: the capacity-8 channel's back-pressure is the only pacing.
    The stop channel is homed on this stage's own space, so polling it is a
    local non-blocking get that adds no wire traffic to the measured path.
    """
    if traced:
        trace.install()
    stm = STM.here()
    me = require_current_thread()
    out = stm.lookup(FRAMES_CHANNEL, wait=True).attach_output()
    stop = stm.lookup(FRAMES_STOP, wait=True).attach_input()
    try:
        frames = seeded_frames(seed)
        ts = 0
        while True:
            if ts % STOP_POLL_EVERY == 0:
                try:
                    stop.get(0, block=False)
                except ChannelEmptyError:
                    pass
                else:
                    stop.consume(0)
                    break
            me.set_virtual_time(ts)
            checksum, pixels = frames[ts % N_SEEDED_FRAMES]
            # the consumer attaches in workloads.RemoteFrames, to a channel it
            # names through this module's constant, which stmgraph cannot follow
            out.put(ts, (pc(), checksum, VideoFrame(ts, pixels)),  # stm-ok: STM503
                    refcount=1)
            ts += 1
        me.set_virtual_time(ts)
        out.put(ts, None, refcount=1)  # end of stream
    finally:
        out.detach()
        stop.detach()
        if traced:
            trace.dump()


# ----------------------------------------------------------------------
# kiosk
# ----------------------------------------------------------------------
def kiosk_scene(seed: int) -> SyntheticScene:
    """The scene: two customers crossing a seeded, textured background.

    The seed draws the background texture and the sensor noise; the two
    trajectories are fixed, because what ``BlobTracker.analyze`` costs
    depends on where the blobs are (3.0-4.2 ms/frame over ten seeded
    trajectories), and a workload whose work changes with the seed cannot
    be compared across seeds.  Both customers leave before the 64-frame
    loop wraps, so every lap exercises the decision module's
    greet -> engage -> farewell cycle.
    """
    actors = [
        Actor(color=(200, 40, 40), start=(60.0, 120.0), velocity=(2.0, 0.7),
              enters_at=6, leaves_at=40),
        Actor(color=(40, 60, 210), start=(250.0, 90.0), velocity=(-1.5, 1.1),
              enters_at=22, leaves_at=54),
    ]
    return SyntheticScene(actors=actors, seed=seed)


def render_frames(seed: int) -> list[np.ndarray]:
    """Pre-render the 64-frame loop (load generation, never timed).

    ``SyntheticScene`` derives its per-frame noise from ``hash()`` of a
    string, which differs between processes; the spine adds its own noise
    from ``(seed, t)`` so that the digitizer child and the single-threaded
    reference in the harness see byte-identical frames.
    """
    scene = kiosk_scene(seed)
    frames = []
    for t in range(KIOSK_LOOP_FRAMES):
        clean = scene.render(t, with_noise=False).astype(np.int16)
        noise = np.random.default_rng([seed, 2, t]).standard_normal(clean.shape)
        noisy = clean + (noise * scene.noise_sigma).astype(np.int16)
        frames.append(np.clip(noisy, 0, 255).astype(np.uint8))
    return frames


@dataclass
class StageClock:
    """A stage's own timers over the saturate phase (ns)."""

    wall: int = 0
    in_stm: int = 0  # inside put/get/consume: work of the call plus blocking

    def shares(self) -> tuple[float, float]:
        """(busy, blocked) shares of the stage's wall time."""
        if self.wall <= 0:
            return (0.0, 0.0)
        blocked = self.in_stm / self.wall
        return (1.0 - blocked, blocked)


def kiosk_digitizer(seed: int, traced: bool) -> None:
    """Put pre-rendered frames: closed loop, then open loop at a fixed rate.

    Commands arrive on a control channel homed on this stage's space:
    ``(SATURATE,)`` is the initial mode, ``(PACED, fps)`` switches to the
    open loop and ``(STOP,)`` ends the stream.  A paced frame is stamped
    with the time it was *due*, so a stall shows in every later frame's
    latency; how late the generator itself ran travels with the frame.
    """
    if traced:
        trace.install()
    stm = STM.here()
    me = require_current_thread()
    out = stm.lookup(VIDEO_CHANNEL, wait=True).attach_output()
    control = stm.lookup(CONTROL_CHANNEL, wait=True).attach_input()
    clock = StageClock()
    try:
        frames = render_frames(seed)
        mode, period_ns, first_due, k = SATURATE, 0, 0, 0
        ts = 0
        while True:
            t_iter = pc()
            try:
                cmd = control.get(STM_OLDEST_UNSEEN, block=False)
            except ChannelEmptyError:
                cmd = None
            if cmd is not None:
                cmd, cmd_ts = cmd.value, cmd.timestamp
                control.consume(cmd_ts)
                if cmd[0] == STOP:
                    break
                mode, period_ns = PACED, int(1e9 / cmd[1])
                first_due, k = pc() + PACED_LEAD_NS, 0
            if mode == PACED:
                stamp = first_due + k * period_ns
                k += 1
                delay = stamp - pc()
                if delay > 0:
                    # open-loop load generation: frames are due on a wall-clock
                    # schedule whether or not the pipeline keeps up.
                    time.sleep(delay / 1e9)  # stm-ok: STM506
                late = max(0, pc() - stamp)
            else:
                stamp, late = pc(), 0
            me.set_virtual_time(ts)
            frame = VideoFrame(ts, frames[ts % KIOSK_LOOP_FRAMES])
            t_put = pc()
            out.put(ts, (mode, stamp, late, frame), refcount=1)
            t_done = pc()
            if mode == SATURATE:
                clock.wall += t_done - t_iter
                clock.in_stm += t_done - t_put
            ts += 1
        me.set_virtual_time(ts)
        out.put(ts, (END_OF_STREAM, {"digitizer": clock.shares()}), refcount=1)
    finally:
        out.detach()
        control.detach()
        if traced:
            trace.dump()


def kiosk_tracker(seed: int, traced: bool) -> None:
    """Blob-track every frame; the record inherits the frame's timestamp."""
    if traced:
        trace.install()
    stm = STM.here()
    me = require_current_thread()
    inp = stm.lookup(VIDEO_CHANNEL, wait=True).attach_input()
    out = stm.lookup(TRACKS_CHANNEL, wait=True).attach_output()
    # Attach first, then become an interior thread: every put below inherits
    # its timestamp from the open input item (paper 4.2).
    me.set_virtual_time(INFINITY)
    clock = StageClock()
    try:
        tracker = BlobTracker(kiosk_scene(seed).background)
        ts = 0
        while True:
            t_iter = pc()
            value = inp.get(ts).value
            t_got = pc()
            if value[0] == END_OF_STREAM:  # pass the marker on, with our shares
                result = (END_OF_STREAM, {**value[1], "tracker": clock.shares()})
            else:
                mode, stamp, late, frame = value
                result = (mode, stamp, late, tracker.analyze(ts, frame.pixels))
            t_put = pc()
            # Put while the frame is open, so the record inherits ts.  The
            # consumer is workloads.Kiosk, which names the channel through
            # this module's constant (beyond stmgraph's constant folding).
            out.put(ts, result, refcount=1)  # stm-ok: STM503
            inp.consume(ts)
            t_done = pc()
            if result[0] == END_OF_STREAM:
                break
            if result[0] == SATURATE:
                clock.wall += t_done - t_iter
                clock.in_stm += (t_got - t_iter) + (t_done - t_put)
            ts += 1
    finally:
        inp.detach()
        out.detach()
        if traced:
            trace.dump()


# ----------------------------------------------------------------------
# gc_fanout (thread Cluster: the stages share this state object)
# ----------------------------------------------------------------------
@dataclass
class FanoutState:
    """What the harness, the producer and the reader of gc_fanout share."""

    handles: list  # ChannelHandle per channel
    seed: int
    stop: bool = False
    producer_done: bool = False
    produced: int = 0  # timestamps put on every channel
    #: (completion ns, latency ns) per fresh-reader get; the harness swaps
    #: the list out at window boundaries.
    samples: list = field(default_factory=list)
    rounds: int = 0  # reader rounds completed
    gets: int = 0
    skipped: int = 0
    failures: list[str] = field(default_factory=list)


def _fanout_bodies(seed: int) -> list[bytes]:
    rng = random.Random(seed)
    size = FANOUT_PAYLOAD_BYTES - _FANOUT_HEAD.size
    return [rng.randbytes(size) for _ in range(16)]


def fanout_producer(state: FanoutState) -> None:
    """Put each timestamp on every channel, then advance virtual time."""
    stm = STM.here()
    me = require_current_thread()
    outs = [stm.channel(h).attach_output() for h in state.handles]
    try:
        bodies = _fanout_bodies(state.seed)
        ts = 0
        while not state.stop:
            body = bodies[ts % len(bodies)]
            for out in outs:
                out.put(ts, _FANOUT_HEAD.pack(pc(), ts) + body)
            ts += 1
            me.set_virtual_time(ts)
            state.produced = ts
    except Exception as exc:  # reported as a failed run, not a hang
        state.failures.append(f"producer: {exc!r}")
    finally:
        state.producer_done = True
        for out in outs:
            out.detach()


def fanout_reader(state: FanoutState) -> None:
    """512 input connections: one fresh reader per channel, the rest lag.

    Per round and channel, connection 0 gets the latest unseen item and
    consumes everything up to it; one of the other 63 (in seeded order)
    catches up with a range consume.  Every eighth round one lagging
    connection detaches and re-attaches.  Nothing here may ever see
    ``ItemGarbageCollectedError``: every get is on an attached connection
    that has not consumed the item, so the GC daemon must not have taken it.
    """
    stm = STM.here()
    me = require_current_thread()
    channels = [stm.channel(h) for h in state.handles]
    conns = [
        [chan.attach_input() for _ in range(FANOUT_CONNS_PER_CHANNEL)]
        for chan in channels
    ]
    me.set_virtual_time(INFINITY)  # only open items hold this thread's visibility
    rng = random.Random(state.seed)
    lag_order = list(range(1, FANOUT_CONNS_PER_CHANNEL))
    rng.shuffle(lag_order)
    bodies = _fanout_bodies(state.seed)
    last_seen = [-1] * len(channels)
    rnd = 0
    try:
        while not state.producer_done:
            lag_index = lag_order[rnd % len(lag_order)]
            for c, chan_conns in enumerate(conns):
                fresh = chan_conns[0]
                try:
                    item = fresh.get(STM_LATEST_UNSEEN, block=False)
                except ChannelEmptyError:
                    # Nothing new (the producer is held back by the channel's
                    # capacity): the laggard still catches up, which is what
                    # lets the GC daemon make room.
                    if last_seen[c] >= 0:
                        chan_conns[lag_index].consume_until(last_seen[c])
                    continue
                now = pc()
                ts = item.timestamp
                stamp, carried_ts = _FANOUT_HEAD.unpack_from(item.value)
                state.gets += 1
                if (
                    carried_ts != ts
                    or ts <= last_seen[c]
                    or item.value[_FANOUT_HEAD.size:] != bodies[ts % len(bodies)]
                ):
                    state.failures.append(f"channel {c}: bad item at {ts}")
                state.skipped += ts - last_seen[c] - 1
                last_seen[c] = ts
                state.samples.append((now, now - stamp))
                fresh.consume_until(ts)
                chan_conns[lag_index].consume_until(ts)
            if rnd % FANOUT_CHURN_EVERY == 0:
                c = rng.randrange(len(channels))
                j = rng.randrange(1, FANOUT_CONNS_PER_CHANNEL)
                conns[c][j].detach()
                conns[c][j] = channels[c].attach_input()
            rnd += 1
            state.rounds = rnd
    except Exception as exc:  # ItemGarbageCollectedError lands here
        state.failures.append(f"reader: {exc!r}")
    finally:
        for chan_conns in conns:
            for conn in chan_conns:
                conn.detach()
