"""The five workloads.  The names are the contract.

Each workload is an object with three steps the runner drives in order:
``setup(seed, traced)`` builds the cluster, spawns the stages and warms up
(all of it charged to ``setup_s``); ``measure(seconds)`` runs calibrated
windows and returns an :class:`Outcome`; ``teardown(outcome)`` drains,
detaches, runs a last GC round and records how many items are still
resident on the channels the harness can reach (expected 0).

Output checks run inside ``measure`` on every item; a violation counts as
a failed item, and a failed item misses every latency limit.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.kiosk.blob_tracker import BlobTracker
from repro.kiosk.decision import DecisionModule, GuiModule
from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS, REGISTRY, percentile
from repro.runtime import Cluster, ProcCluster
from repro.runtime.aio import AioCluster
from repro.stm import STM
from repro.stm.aio import AioSTM

from spine import stages, trace
from spine.harness import (
    OpenWindow,
    Windows,
    cal_ns,
    cpu_kept_awake,
)

__all__ = ["WORKLOADS", "Outcome", "held_items"]

pc = time.perf_counter_ns

WINDOW_NS = 100_000_000
#: longer windows where items are slower, so a window still holds the ~200
#: samples its p95 needs.
SLOW_WINDOW_NS = 250_000_000


@dataclass
class Outcome:
    """What one measured phase of a workload produced."""

    cost: Windows
    #: windows the latency metrics come from, when not ``cost``.
    latency: Windows | None = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: perf_counter_ns bounds of the measured phase (for the span budget).
    t_begin: int = 0
    t_end: int = 0
    payload_bytes: int = 0
    #: items completed between ``t_begin`` and ``t_end``.
    phase_items: int = 0
    #: items still resident on reachable channels after teardown (expected 0).
    held_items_after: int = 0
    #: workload-derived per-layer metrics (kiosk.*, runtime.gc.*, bench.*).
    extras: dict[str, float] = field(default_factory=dict)


def held_items(spaces) -> int:
    """Items resident on every channel homed in ``spaces``."""
    return sum(len(ch.kernel) for sp in spaces for ch in sp.local_channels())


def _wire_bytes(cluster) -> int:
    """Bytes every space of the cluster has handed to its transport so far."""
    if isinstance(cluster, ProcCluster):  # children answer over RPC
        return sum(
            cluster.endpoint_stats(i)["clf"]["bytes_sent"]
            for i in range(cluster.n_spaces)
        )
    return sum(space.endpoint.stats.bytes_sent for space in cluster.spaces)


class _GcProbe:
    """The GC daemon's work over a phase, from its public stats."""

    def __init__(self, cluster):
        self.stats = cluster.gc_daemon.stats
        self.epochs0 = self.stats.epochs
        self.collected0 = self.stats.total_collected
        self.held_max = 0

    def sample(self, spaces) -> None:
        self.held_max = max(self.held_max, held_items(spaces))

    def metrics(self) -> dict[str, float]:
        epochs = self.stats.epochs - self.epochs0
        # the daemon feeds this histogram unconditionally, one sample an epoch;
        # set-up reset the registry, so it holds this cluster's epochs only
        hist = REGISTRY.histogram("gc_epoch_seconds", buckets=DEFAULT_SECONDS_BUCKETS)
        return {
            "runtime.gc.epoch_ms_p50":
                hist.percentile(50.0) * 1e3 if hist.count else 0.0,
            "runtime.gc.reclaimed_per_epoch":
                (self.stats.total_collected - self.collected0) / max(epochs, 1),
            "runtime.gc.held_items_max": float(self.held_max),
        }


class Workload:
    name = ""
    why = ""

    def setup(self, seed: int, traced: bool = False) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def teardown(self, out: Outcome) -> None:
        raise NotImplementedError


# ======================================================================
# local_cycle
# ======================================================================
class LocalCycle(Workload):
    name = "local_cycle"
    why = (
        "one thread, put/get/consume on 16 local channels: only stm.api, "
        "runtime.address_space and core run and nothing parks, so kernel, lock "
        "and facade changes show fully and transport changes not at all"
    )
    N_CHANNELS = 16
    WARMUP_CYCLES = 2_000

    def setup(self, seed: int, traced: bool = False) -> None:
        rng = random.Random(seed)
        self.payloads = [rng.randbytes(8) for _ in range(256)]
        self.cluster = Cluster(n_spaces=1, gc_period=None)
        space = self.cluster.space(0)
        self.me = space.adopt_current_thread(virtual_time=0)
        stm = STM(space)
        channels = [
            stm.create_channel(f"spine.local.{i}") for i in range(self.N_CHANNELS)
        ]
        self.outs = [chan.attach_output() for chan in channels]
        self.inps = [chan.attach_input() for chan in channels]
        self.cycle = 0
        self._cycles(Outcome(Windows()), self.WARMUP_CYCLES)

    def _cycles(self, out: Outcome, warmup_cycles: int = 0,
                seconds: float = 0.0) -> None:
        """Run ``warmup_cycles`` untimed, or calibrated windows for ``seconds``.

        Cycle ``i`` uses channel ``i % 16`` at timestamp ``i // 16``: each
        channel sees consecutive timestamps, so its consumed-set stays
        compact and memory does not grow with the number of cycles run.
        """
        outs, inps, payloads, n_channels = (
            self.outs, self.inps, self.payloads, self.N_CHANNELS
        )
        cycle = self.cycle
        for _ in range(warmup_cycles):
            k, ts = cycle % n_channels, cycle // n_channels
            outs[k].put(ts, payloads[cycle & 255], refcount=1)
            inps[k].get(ts)
            inps[k].consume(ts)
            cycle += 1
        deadline = pc() + int(seconds * 1e9)
        while pc() < deadline and not trace.full():
            cal0 = cal_ns()
            latencies: list[int] = []
            w0 = t1 = pc()
            w_end = w0 + WINDOW_NS
            while t1 < w_end:
                k, ts = cycle % n_channels, cycle // n_channels
                payload = payloads[cycle & 255]
                t0 = pc()
                outs[k].put(ts, payload, refcount=1)
                item = inps[k].get(ts)
                inps[k].consume(ts)
                t1 = pc()
                latencies.append(t1 - t0)
                if item.value != payload or item.timestamp != ts:
                    out.failed += 1
                cycle += 1
            out.attempted += len(latencies)
            out.cost.add(len(latencies), t1 - w0, cal0, cal_ns(), latencies)
        self.cycle = cycle

    def measure(self, seconds: float) -> Outcome:
        out = Outcome(Windows(), t_begin=pc())
        self._cycles(out, seconds=seconds)
        out.t_end = pc()
        out.phase_items = out.attempted
        out.payload_bytes = out.attempted * 8
        return out

    def teardown(self, out: Outcome) -> None:
        for conn in (*self.outs, *self.inps):
            conn.detach()
        self.me.exit()
        out.held_items_after = held_items(self.cluster.spaces)
        self.cluster.shutdown()


# ======================================================================
# aio_pingpong
# ======================================================================
class AioPingPong(Workload):
    name = "aio_pingpong"
    why = (
        "two asyncio tasks on one capacity-1 channel: the same kernel, but "
        "every item parks one side and is completed by the other's op, so a "
        "fast path bought by a dearer parked path shows as a loss"
    )
    WARMUP_ITEMS = 2_000
    _RING = 4_096  # put stamps, indexed by timestamp

    def setup(self, seed: int, traced: bool = False) -> None:
        rng = random.Random(seed)
        self.payloads = [rng.randbytes(8) for _ in range(256)]
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._asetup())

    async def _asetup(self) -> None:
        self.cluster = AioCluster(n_spaces=1)
        space = self.cluster.space(0)
        self.me = space.adopt_current_task(virtual_time=0)
        chan = await AioSTM(space).create_channel("spine.pingpong", capacity=1)
        self.inp = await chan.attach_input()
        self.ts = 0
        self.stamps = [0] * self._RING
        self.puts_started = 0
        self.stop = False
        self.producer = space.spawn_task(self._produce, (chan,), virtual_time=0)
        await self._consume(Outcome(Windows()), self.WARMUP_ITEMS)

    async def _produce(self, chan) -> None:
        stamps, payloads = self.stamps, self.payloads
        async with chan.attach_output() as out:
            ts = 0
            while not self.stop:
                self.puts_started = ts + 1
                stamps[ts % self._RING] = pc()
                await out.put(ts, payloads[ts & 255], refcount=1)
                ts += 1

    async def _consume(self, out: Outcome, warmup_items: int = 0,
                       seconds: float = 0.0) -> None:
        """Consume ``warmup_items`` untimed, or windows for ``seconds``."""
        inp, stamps, payloads = self.inp, self.stamps, self.payloads
        ts = self.ts
        for _ in range(warmup_items):
            await inp.get(ts)
            await inp.consume(ts)
            ts += 1
        deadline = pc() + int(seconds * 1e9)
        while pc() < deadline and not trace.full():
            window = OpenWindow(WINDOW_NS)
            open_ = True
            while open_:
                item = await inp.get(ts)
                await inp.consume(ts)
                open_ = window.item(stamps[ts % self._RING], pc())
                if item.value != payloads[ts & 255] or item.timestamp != ts:
                    out.failed += 1
                out.attempted += 1
                ts += 1
            window.close(out.cost)
        self.ts = ts

    def measure(self, seconds: float) -> Outcome:
        out = Outcome(Windows(), t_begin=pc())
        self.loop.run_until_complete(self._consume(out, seconds=seconds))
        out.t_end = pc()
        out.phase_items = out.attempted
        out.payload_bytes = out.attempted * 8
        return out

    async def _ateardown(self, out: Outcome) -> None:
        self.stop = True
        space = self.cluster.space(0)
        # The producer may be parked on the full channel: keep consuming
        # whatever it has started to put until it has seen the stop flag.
        while True:
            if self.ts < self.puts_started:
                await self.inp.get(self.ts)
                await self.inp.consume(self.ts)
                self.ts += 1
            elif self.producer.aio_task.done():
                break
            else:
                await asyncio.sleep(0)
        await space.ajoin(self.producer, timeout=10.0)
        await self.inp.detach()
        self.me.exit()
        out.held_items_after = held_items(self.cluster.spaces)
        await self.cluster.ashutdown()

    def teardown(self, out: Outcome) -> None:
        try:
            self.loop.run_until_complete(self._ateardown(out))
        finally:
            self.loop.close()


# ======================================================================
# remote_frames
# ======================================================================
class RemoteFrames(Workload):
    name = "remote_frames"
    why = (
        "230 KB frames from a child process into a channel homed at the "
        "consumer (paper Fig. 10/11): cost is serialization, shm ring, doorbell "
        "and RPC; kernel work is ~0, so kernel gains must not move it"
    )
    WARMUP_FRAMES = 64
    CAPACITY = 8

    def setup(self, seed: int, traced: bool = False) -> None:
        self.frames = stages.seeded_frames(seed)
        self.cluster = ProcCluster(n_spaces=2, gc_period=None)
        space = self.cluster.space(0)
        self.me = space.adopt_current_thread(virtual_time=0)
        stm = STM(space)
        frames = stm.create_channel(
            stages.FRAMES_CHANNEL, capacity=self.CAPACITY, home=0
        )
        stop = stm.create_channel(stages.FRAMES_STOP, home=1)
        self.inp = frames.attach_input()
        self.stop_out = stop.attach_output()
        self.producer = space.spawn(
            stages.frames_producer, (seed, traced), on_space=1,
            name="spine-frames-producer",
        )
        # The harness thread stays at virtual time 0 so that it can put the
        # stop token; nothing here needs the GC horizon to move (no daemon,
        # and every frame is reclaimed by its declared refcount).
        self.ts = 0
        self._consume(Outcome(Windows()), warmup_items=self.WARMUP_FRAMES)

    def _check(self, ts: int, item, out: Outcome) -> int:
        """Verify one frame item; returns its put stamp."""
        stamp, checksum, frame = item.value
        if (
            item.timestamp != ts
            or frame.timestamp != ts
            or checksum != self.frames[ts % len(self.frames)][0]
            or stages.checksum64(frame.pixels) != checksum
        ):
            out.failed += 1
        out.payload_bytes += item.size
        return stamp

    def _consume(self, out: Outcome, warmup_items: int = 0,
                 seconds: float = 0.0) -> None:
        inp = self.inp
        ts = self.ts
        for _ in range(warmup_items):
            self._check(ts, inp.get(ts), out)
            inp.consume(ts)
            ts += 1
        deadline = pc() + int(seconds * 1e9)
        while pc() < deadline and not trace.full():
            window = OpenWindow(SLOW_WINDOW_NS)
            open_ = True
            while open_:
                item = inp.get(ts)
                inp.consume(ts)
                t_done = pc()
                open_ = window.item(self._check(ts, item, out), t_done)
                out.attempted += 1
                ts += 1
            window.close(out.cost)
        self.ts = ts

    def measure(self, seconds: float) -> Outcome:
        wire = _wire_bytes(self.cluster)
        out = Outcome(Windows(), t_begin=pc())
        self._consume(out, seconds=seconds)
        out.t_end = pc()
        out.phase_items = out.attempted
        wire = _wire_bytes(self.cluster) - wire
        out.extras["transport.wire_bytes_per_item"] = wire / max(out.attempted, 1)
        return out

    def teardown(self, out: Outcome) -> None:
        self.stop_out.put(0, True, refcount=1)
        while True:  # drain to the end-of-stream marker
            item = self.inp.get(self.ts)
            self.inp.consume(self.ts)
            if item.value is None:
                break
            self._check(self.ts, item, out)
            out.attempted += 1
            self.ts += 1
        self.producer.join(timeout=30.0)
        self.inp.detach()
        self.stop_out.detach()
        self.me.exit()
        self.cluster.gc_once()
        out.held_items_after = held_items([self.cluster.space(0)])
        self.cluster.shutdown()


# ======================================================================
# kiosk
# ======================================================================
def _focus_error(focus, truth) -> float | None:
    if focus is None or not truth:
        return None
    return min(float(np.hypot(focus[0] - gx, focus[1] - gy)) for gx, gy in truth)


class Kiosk(Workload):
    name = "kiosk"
    why = (
        "the paper's kiosk, digitizer -> tracker -> decision over 3 processes, "
        "saturated then paced at 30 fps; tracking costs ~3 ms against ~1-2 ms "
        "of STM work, so it shows what a layer gain is worth to a user"
    )
    #: the thread driver runs the same stages for kiosk.threads_item_cost_cal
    cluster_cls = ProcCluster
    FPS = 30.0
    CAPACITY = 8
    #: share of the measured seconds spent saturated (the rest is paced).
    SATURATE_SHARE = 1 / 4
    #: paced-phase calibration cadence, in frames (one kernel a second)
    CAL_EVERY = 30

    def setup(self, seed: int, traced: bool = False) -> None:
        REGISTRY.reset()
        self.cluster = self.cluster_cls(n_spaces=3)
        space = self.cluster.space(0)
        self.me = space.adopt_current_thread(virtual_time=0)
        stm = STM(space)
        stm.create_channel(stages.VIDEO_CHANNEL, capacity=self.CAPACITY, home=1)
        control = stm.create_channel(stages.CONTROL_CHANNEL, home=1)
        tracks = stm.create_channel(
            stages.TRACKS_CHANNEL, capacity=self.CAPACITY, home=2
        )
        decisions = stm.create_channel("spine.kiosk.decisions", home=0)
        self.control_out = control.attach_output()
        self.tracks_in = tracks.attach_input()
        self.decisions_out = decisions.attach_output()
        self.decisions_in = decisions.attach_input()
        self.threads = [
            space.spawn(stages.kiosk_digitizer, (seed, traced),
                        on_space=1, name="spine-digitizer"),
            space.spawn(stages.kiosk_tracker, (seed, traced),
                        on_space=2, name="spine-tracker"),
        ]
        # The single-threaded, no-STM reference over the same seeded frames
        # (also the kiosk.inline_* floor): one record per loop frame.
        frames = stages.render_frames(seed)
        scene = stages.kiosk_scene(seed)
        tracker = BlobTracker(scene.background)
        self.reference = [tracker.analyze(t, f) for t, f in enumerate(frames)]
        self.truth = [scene.ground_truth(t) for t in range(len(frames))]
        self.decider = DecisionModule()
        self.gui = GuiModule()
        self.decided: list = []  # DecisionRecord per timestamp
        self.clock = stages.StageClock()
        self.shares: dict[str, tuple[float, float]] = {}
        self.ts = 0
        for _ in range(stages.KIOSK_LOOP_FRAMES):  # warm-up: one lap
            self._frame()

    def _frame(self):
        """Decide one frame; returns (mode, stamp_ns, late_ns, done_ns)."""
        ts = self.ts
        t_iter = pc()
        value = self.tracks_in.get(ts).value
        t_got = pc()
        if value[0] == stages.END_OF_STREAM:
            self.tracks_in.consume(ts)
            self.shares = dict(value[1])
            return None
        mode, stamp, late, record = value
        decision = self.decider.decide(ts, record)
        t_put = pc()
        # Put while the record is open, so the decision inherits ts (4.2).
        self.decisions_out.put(ts, decision, refcount=1)
        self.tracks_in.consume(ts)
        shown = self.decisions_in.get(ts).value
        self.gui.react(shown)
        self.decisions_in.consume(ts)
        t_done = pc()
        self.decided.append(shown)
        if mode == stages.SATURATE:
            self.clock.wall += t_done - t_iter
            self.clock.in_stm += (t_got - t_iter) + (t_done - t_put)
        self.ts = ts + 1
        # This thread's virtual time tracks the frame counter, as the
        # digitizer's does, so the GC daemon's horizon follows the stream.
        self.me.set_virtual_time(ts + 1)
        return mode, stamp, late, t_done

    def _command(self, *cmd) -> None:
        """Send the digitizer a command, stamped with the next frame."""
        self.control_out.put(self.ts, cmd, refcount=1)

    def measure(self, seconds: float) -> Outcome:
        out = Outcome(Windows(), latency=Windows(), t_begin=pc())
        first = self.ts
        gc = _GcProbe(self.cluster)
        wire = _wire_bytes(self.cluster)
        # -- saturate: closed loop through back-pressure -> item cost -----
        deadline = out.t_begin + int(seconds * self.SATURATE_SHARE * 1e9)
        while pc() < deadline and not trace.full():
            window = OpenWindow(SLOW_WINDOW_NS)
            open_ = True
            while open_:
                _mode, stamp, _late, t_done = self._frame()
                open_ = window.item(stamp, t_done)
            window.close(out.cost, with_latency=False)
            gc.sample([self.cluster.space(0)])
        out.t_end = pc()
        out.phase_items = self.ts - first
        wire = _wire_bytes(self.cluster) - wire
        out.extras["transport.wire_bytes_per_item"] = wire / max(out.phase_items, 1)
        # -- paced: open loop at the paper's 30 fps -> latency --------------
        # The phase is one window: 30 frames a second are too few for a p95
        # per second, so the percentiles are whole-phase and the cal unit is
        # the median of the kernels run once a second, right after a frame
        # (the ~3 ms kernel is done long before the next record can arrive).
        paced_frames = int(seconds * (1 - self.SATURATE_SHARE) * self.FPS)
        latencies: list[int] = []
        lates: list[int] = []
        t_paced = pc()
        with cpu_kept_awake():
            self._command(stages.PACED, self.FPS)
            cals = [cal_ns()]
            while len(latencies) < paced_frames and not trace.full():
                mode, stamp, late, t_done = self._frame()
                if mode != stages.PACED:
                    continue  # the closed-loop backlog draining
                latencies.append(t_done - stamp)
                lates.append(late)
                if len(latencies) % self.CAL_EVERY == 0:
                    cals.append(cal_ns())
        unit = int(statistics.median(cals))
        out.extras["bench.generator_late_p99_us"] = (
            percentile(lates, 99.0) / 1e3 if lates else 0.0
        )
        out.extras.update(gc.metrics())
        out.latency.add(len(latencies), pc() - t_paced, unit, unit, latencies)
        out.attempted = self.ts - first
        out.payload_bytes = out.attempted * stages.FRAME_HEIGHT * stages.FRAME_WIDTH * 3
        return out

    def teardown(self, out: Outcome) -> None:
        self._command(stages.STOP)
        while self._frame() is not None:
            pass
        for thread in self.threads:
            thread.join(timeout=30.0)
        for conn in (self.control_out, self.tracks_in, self.decisions_out,
                     self.decisions_in):
            conn.detach()
        self.me.exit()
        self._verify(out)
        for stage, (busy, blocked) in {
            **self.shares, "decision": self.clock.shares()
        }.items():
            out.extras[f"kiosk.busy_share.{stage}"] = busy
            out.extras[f"kiosk.blocked_share.{stage}"] = blocked
        self.cluster.gc_once()
        out.held_items_after = held_items([self.cluster.space(0)])
        self.cluster.shutdown()

    def _verify(self, out: Outcome) -> None:
        """Every decision must equal the single-threaded reference's."""
        decider = DecisionModule()
        n_loop = len(self.reference)
        errors, ref_errors = [], []
        for ts, got in enumerate(self.decided):
            want = decider.decide(ts, self.reference[ts % n_loop])
            if got != want:
                out.failed += 1
            for focus, sink in ((got.focus, errors), (want.focus, ref_errors)):
                err = _focus_error(focus, self.truth[ts % n_loop])
                if err is not None:
                    sink.append(err)
        if errors != ref_errors:
            out.errors.append("kiosk: tracking error differs from the reference")
            out.failed = max(out.failed, 1)


# ======================================================================
# gc_fanout
# ======================================================================
class GcFanout(Workload):
    name = "gc_fanout"
    why = (
        "8 channels, 512 input connections, wildcard gets, range consumes, "
        "attach churn and the 50 ms GC daemon beside the puts, half across "
        "spaces: a put/get gain paid for in GC or minimum tracking shows"
    )
    CAPACITY = 256
    #: every lagging connection has caught up twice before the first window
    WARMUP_ROUNDS = 2 * (stages.FANOUT_CONNS_PER_CHANNEL - 1)

    def setup(self, seed: int, traced: bool = False) -> None:
        REGISTRY.reset()
        self.cluster = Cluster(n_spaces=2)
        handles = [
            self.cluster.space(i % 2).create_channel(
                f"spine.fanout.{i}", capacity=self.CAPACITY
            )
            for i in range(stages.FANOUT_CHANNELS)
        ]
        self.state = stages.FanoutState(handles, seed)
        self.threads = [
            self.cluster.space(1).spawn(
                stages.fanout_reader, (self.state,), virtual_time=0,
                name="spine-fanout-reader",
            ),
            self.cluster.space(0).spawn(
                stages.fanout_producer, (self.state,), virtual_time=0,
                name="spine-fanout-producer",
            ),
        ]
        deadline = time.monotonic() + 30.0
        while self.state.rounds < self.WARMUP_ROUNDS and not self.state.failures:
            if time.monotonic() > deadline:
                raise TimeoutError("gc_fanout warm-up made no progress")
            time.sleep(0.01)

    def measure(self, seconds: float) -> Outcome:
        state = self.state
        gc = _GcProbe(self.cluster)
        gets0, skipped0 = state.gets, state.skipped
        wire = _wire_bytes(self.cluster)
        out = Outcome(Windows(), t_begin=pc())
        deadline = out.t_begin + int(seconds * 1e9)
        while pc() < deadline and not trace.full() and not state.failures:
            window = OpenWindow(SLOW_WINDOW_NS)
            # The harness thread only keeps time here; the two STM threads
            # are the workload.
            time.sleep(SLOW_WINDOW_NS / 1e9)
            samples, state.samples = state.samples, []
            for t_done, latency in samples:
                window.item(t_done - latency, t_done)
            window.close(out.cost)
            gc.sample(self.cluster.spaces)
        out.t_end = pc()
        out.attempted = out.phase_items = state.gets - gets0
        out.payload_bytes = out.attempted * stages.FANOUT_PAYLOAD_BYTES
        skipped = state.skipped - skipped0
        wire = _wire_bytes(self.cluster) - wire
        out.extras.update(gc.metrics())
        out.extras["bench.skipped_share"] = skipped / max(skipped + out.attempted, 1)
        out.extras["transport.wire_bytes_per_item"] = wire / max(out.attempted, 1)
        return out

    def teardown(self, out: Outcome) -> None:
        self.state.stop = True
        for thread in self.threads:
            thread.join(timeout=30.0)
        out.errors.extend(self.state.failures)
        out.failed += len(self.state.failures)
        self.cluster.gc_once()
        out.held_items_after = held_items(self.cluster.spaces)
        self.cluster.shutdown()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (LocalCycle, AioPingPong, RemoteFrames, Kiosk, GcFanout)
}
