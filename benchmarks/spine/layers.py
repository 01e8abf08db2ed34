"""Per-layer micro-benches: public functions of each layer, driven directly.

Every bench runs in the harness process for a slice of the traced run's
budget and reports the **median over batches** of the time per call.  None
of them depends on the workload being run, so every traced run reports all
of them; which end-to-end metric each should move, on which workload, is in
``spec.PER_LAYER`` and the README.

Metrics that only a *workload* can produce (GC epochs, kiosk stage shares,
wire bytes) default to 0 here (:data:`WORKLOAD_DEFAULTS`) and are
overwritten by the workload that has them: 0 means the layer did not run.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import threading
import time

from repro.core import STM_LATEST_UNSEEN
from repro.core.channel_state import ChannelKernel
from repro.core.payload import CopyPolicy, decode, encode
from repro.kiosk.blob_tracker import BlobTracker
from repro.kiosk.decision import DecisionModule
from repro.kiosk.procfleet import FleetConfig
from repro.kiosk.records import VideoFrame
from repro.kiosk.simfleet import run_sim_fleet
from repro.obs import events as obs_events
from repro.runtime import Cluster, ProcCluster
from repro.runtime import sync as runtime_sync
from repro.runtime.aio import AioCluster
from repro.runtime.messages import PutReq, RpcRequest
from repro.sim import SimStampede
from repro.sim.engine import SimEngine
from repro.stm import STM
from repro.stm.aio import AioSTM
from repro.transport.clf import ClfNetwork, ClusterTopology
from repro.transport.packets import Reassembler, fragment_sg
from repro.transport.serialization import (
    Frame,
    decode_message,
    encode_message_sg,
    frame_stats,
)
from repro.transport.shm_ring import ShmRing
from repro.transport.sockets import SocketEndpoint

from spine import stages, workloads
from spine.harness import summarize

__all__ = ["SHARE_OF_RUN", "WORKLOAD_DEFAULTS", "run_all"]

#: share of a traced run's ``--seconds`` the micro-benches may use.
SHARE_OF_RUN = 0.4
#: benches sharing the budget equally (the fixed-cost ones take what they take)
_SLICES = 40

WORKLOAD_DEFAULTS = {
    "runtime.gc.epoch_ms_p50": 0.0,
    "runtime.gc.reclaimed_per_epoch": 0.0,
    "runtime.gc.held_items_max": 0.0,
    "transport.wire_bytes_per_item": 0.0,
    "kiosk.stm_overhead_share": 0.0,
    "bench.generator_late_p99_us": 0.0,
    "bench.skipped_share": 0.0,
    **{
        f"kiosk.{kind}_share.{stage}": 0.0
        for kind in ("busy", "blocked")
        for stage in ("digitizer", "tracker", "decision")
    },
}

pc = time.perf_counter_ns
SMALL = b"12345678"


def _median_per_call(batch, budget_s: float, min_batches: int = 5) -> float:
    """Median over batches of ns per call; ``batch()`` -> (elapsed_ns, calls)."""
    per_call = []
    deadline = time.perf_counter() + budget_s
    while len(per_call) < min_batches or time.perf_counter() < deadline:
        elapsed, calls = batch()
        per_call.append(elapsed / calls)
    return statistics.median(per_call)


def _timed(fn, calls: int = 1):
    """A batch that times ``calls`` invocations of ``fn()``."""
    def batch():
        t0 = pc()
        for _ in range(calls):
            fn()
        return pc() - t0, calls
    return batch


def _frame_value(seed: int) -> VideoFrame:
    return VideoFrame(0, stages.seeded_frames(seed)[0][1])


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def core_layer(seed: int, slice_s: float) -> dict[str, float]:
    out: dict[str, float] = {}
    # put / get / consume with 64 resident items, no locks
    kernel = ChannelKernel(1)
    kernel.attach_output(0)
    kernel.attach_input(1, 0)
    for ts in range(64):
        kernel.put(0, ts, SMALL, 8)
    state = {"ts": 64}
    K = 64

    def cycle_batches():
        puts, gets, consumes = [], [], []
        deadline = time.perf_counter() + 3 * slice_s
        while len(puts) < 5 or time.perf_counter() < deadline:
            base = state["ts"]
            t0 = pc()
            for ts in range(base, base + K):
                kernel.put(0, ts, SMALL, 8, 1)
            t1 = pc()
            for ts in range(base, base + K):
                kernel.get(1, ts)
            t2 = pc()
            for ts in range(base, base + K):
                kernel.consume(1, ts)
            t3 = pc()
            state["ts"] = base + K
            puts.append((t1 - t0) / K)
            gets.append((t2 - t1) / K)
            consumes.append((t3 - t2) / K)
        return map(statistics.median, (puts, gets, consumes))

    (out["core.kernel.put_ns"], out["core.kernel.get_ns"],
     out["core.kernel.consume_ns"]) = cycle_batches()

    # wildcard get with 1 024 resident items
    kernel = ChannelKernel(2)
    kernel.attach_output(0)
    kernel.attach_input(1, 0)
    for ts in range(1024):
        kernel.put(0, ts, SMALL, 8)
    state = {"ts": 1024}

    def latest_unseen():
        elapsed = 0
        for _ in range(K):
            ts = state["ts"]
            kernel.put(0, ts, SMALL, 8)
            t0 = pc()
            kernel.get(1, STM_LATEST_UNSEEN)
            elapsed += pc() - t0
            state["ts"] = ts + 1
        # keep 1 024 resident: retire the oldest K
        kernel.consume_until(1, state["ts"] - 1025)
        kernel.collect_below(state["ts"] - 1024)
        return elapsed, K

    out["core.kernel.get_latest_unseen_ns"] = _median_per_call(latest_unseen, slice_s)

    # range consume over a span of 32 items
    kernel = ChannelKernel(3)
    kernel.attach_output(0)
    kernel.attach_input(1, 0)
    state = {"ts": 0}

    def consume_until():
        base = state["ts"]
        for ts in range(base, base + 32 * 16):
            kernel.put(0, ts, SMALL, 8)
        t0 = pc()
        for i in range(16):
            kernel.consume_until(1, base + 32 * (i + 1) - 1)
        elapsed = pc() - t0
        state["ts"] = base + 32 * 16
        kernel.collect_below(state["ts"])
        return elapsed, 16

    out["core.kernel.consume_until_ns"] = _median_per_call(consume_until, slice_s)

    # attach + detach among 512 input connections
    kernel = ChannelKernel(4)
    for conn in range(512):
        kernel.attach_input(conn, 0)
    state = {"next": 512}

    def attach_detach():
        base = state["next"]
        t0 = pc()
        for i in range(K):
            kernel.detach(base - 512 + i)
            kernel.attach_input(base + i, 0)
        state["next"] = base + K
        return pc() - t0, K

    out["core.kernel.attach_detach_ns"] = _median_per_call(attach_detach, slice_s)

    # steady-state unconsumed_min with sparse per-connection minima
    for label, n_conns in (("c512", 512), ("c10k", 10_000)):
        kernel = ChannelKernel(5)
        kernel.attach_output(0)
        for ts in range(64):
            kernel.put(0, ts, SMALL, 8)
        for i in range(n_conns):
            kernel.attach_input(i + 1, 0)
            kernel.consume_until(i + 1, i % 63)
        kernel.unconsumed_min()  # warm every view's cache
        out[f"core.kernel.unconsumed_min_us.{label}"] = _median_per_call(
            _timed(kernel.unconsumed_min, 4), slice_s
        ) / 1e3

    # reclaim 256 items below a horizon
    kernel = ChannelKernel(6)
    kernel.attach_output(0)
    state = {"ts": 0}

    def collect_below():
        base = state["ts"]
        for ts in range(base, base + 256):
            kernel.put(0, ts, SMALL, 8)
        state["ts"] = base + 256
        t0 = pc()
        kernel.collect_below(base + 256)
        return pc() - t0, 1

    out["core.kernel.collect_below_us"] = _median_per_call(collect_below, slice_s) / 1e3

    # payload copy-in + copy-out
    frame = _frame_value(seed)
    for label, value, calls, scale in (
        ("encode_decode_ns.small", SMALL, 256, 1.0),
        ("encode_decode_us.frame", frame, 4, 1e3),
    ):
        out[f"core.payload.{label}"] = _median_per_call(
            _timed(lambda v=value: decode(encode(v, CopyPolicy.SERIALIZE)[0],
                                          CopyPolicy.SERIALIZE), calls),
            slice_s,
        ) / scale
    return out


# ----------------------------------------------------------------------
# runtime + stm (the facade is measured as what it adds to the space cycle)
# ----------------------------------------------------------------------
class _CountingLock:
    """A lock that counts acquisitions (via ``runtime.sync.install_factories``)."""

    acquires = 0

    def __init__(self, _name: str):
        self._lock = threading.Lock()

    def acquire(self, *args, **kwargs):
        _CountingLock.acquires += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    def __enter__(self):
        _CountingLock.acquires += 1
        self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()


def _local_cluster():
    cluster = Cluster(n_spaces=1, gc_period=None)
    space = cluster.space(0)
    me = space.adopt_current_thread(virtual_time=0)
    return cluster, space, me


def space_and_facade_layers(slice_s: float) -> dict[str, float]:
    out: dict[str, float] = {}
    K = 64
    cluster, space, me = _local_cluster()
    try:
        # AddressSpace called below the facade
        handle = space.create_channel("spine.micro.space")
        out_id = space.attach(handle, is_input=False, thread=me)
        in_id = space.attach(handle, is_input=True, thread=me)
        stored, size = encode(SMALL, CopyPolicy.SERIALIZE)
        state = {"ts": 0}
        puts, gets, consumes = [], [], []
        deadline = time.perf_counter() + 3 * slice_s
        while len(puts) < 5 or time.perf_counter() < deadline:
            base = state["ts"]
            t0 = pc()
            for ts in range(base, base + K):
                space.put(handle, out_id, ts, stored, size, refcount=1)
            t1 = pc()
            for ts in range(base, base + K):
                space.get(handle, in_id, ts)
            t2 = pc()
            for ts in range(base, base + K):
                space.consume(handle, in_id, ts)
            t3 = pc()
            state["ts"] = base + K
            puts.append((t1 - t0) / K)
            gets.append((t2 - t1) / K)
            consumes.append((t3 - t2) / K)
        space_cycle = 0.0
        for op, values in (("put", puts), ("get", gets), ("consume", consumes)):
            out[f"runtime.space.{op}_ns"] = statistics.median(values)
            space_cycle += out[f"runtime.space.{op}_ns"]
        space.detach(handle, out_id)
        space.detach(handle, in_id)

        # the same cycle through the stm.api facade
        chan = STM(space).create_channel("spine.micro.facade")
        with chan.attach_output() as out_conn, chan.attach_input() as in_conn:
            state = {"ts": 0}

            def facade_cycle():
                base = state["ts"]
                t0 = pc()
                for ts in range(base, base + K):
                    out_conn.put(ts, SMALL, refcount=1)
                    in_conn.get(ts)
                    in_conn.consume(ts)
                state["ts"] = base + K
                return pc() - t0, K

            facade = _median_per_call(facade_cycle, slice_s)
        out["stm.api.facade_ns_per_cycle"] = facade - space_cycle
    finally:
        me.exit()
        cluster.shutdown()

    # lock acquisitions per facade cycle: an exact count
    runtime_sync.install_factories(_CountingLock, None)
    try:
        cluster, space, me = _local_cluster()
        try:
            chan = STM(space).create_channel("spine.micro.locks")
            with chan.attach_output() as out_conn, chan.attach_input() as in_conn:
                _CountingLock.acquires = 0
                for ts in range(200):
                    out_conn.put(ts, SMALL, refcount=1)
                    in_conn.get(ts)
                    in_conn.consume(ts)
                out["runtime.space.lock_acquires_per_cycle"] = (
                    _CountingLock.acquires / 200
                )
        finally:
            me.exit()
            cluster.shutdown()
    finally:
        runtime_sync.clear_factories()
    return out


def _pingpong_partner(space, rounds: int) -> None:
    """Echo ``rounds`` items from the ping channel to the pong channel."""
    stm = STM(space)
    with stm.lookup("spine.micro.ping").attach_input() as ping, \
            stm.lookup("spine.micro.pong").attach_output() as pong:
        for ts in range(rounds):
            ping.get(ts)  # parks until the driver's put completes it
            pong.put(ts, SMALL, refcount=1)
            ping.consume(ts)


def park_wake_threads(slice_s: float) -> dict[str, float]:
    """Two OS threads: each round parks and wakes a get on either side."""
    rounds = 400
    cluster, space, me = _local_cluster()
    try:
        stm = STM(space)
        ping = stm.create_channel("spine.micro.ping")
        pong = stm.create_channel("spine.micro.pong")
        partner = space.spawn(_pingpong_partner, (space, rounds), virtual_time=0)
        times = []
        with ping.attach_output() as out_conn, pong.attach_input() as in_conn:
            for ts in range(rounds):
                t0 = pc()
                out_conn.put(ts, SMALL, refcount=1)
                in_conn.get(ts)
                in_conn.consume(ts)
                times.append(pc() - t0)
        partner.join(timeout=30.0)
    finally:
        me.exit()
        cluster.shutdown()
    return {"runtime.space.park_wake_us": statistics.median(times) / 2 / 1e3}


def aio_layers(slice_s: float) -> dict[str, float]:
    """asyncio driver: park/wake between two tasks, and the facade's cost."""
    rounds = 800
    K = 64

    async def main() -> dict[str, float]:
        out: dict[str, float] = {}
        async with AioCluster(n_spaces=1, gc_period=None) as cluster:
            space = cluster.space(0)
            me = space.adopt_current_task(virtual_time=0)
            stm = AioSTM(space)
            ping = await stm.create_channel("spine.micro.aping")
            pong = await stm.create_channel("spine.micro.apong")

            async def partner() -> None:
                async with ping.attach_input() as inp, pong.attach_output() as outp:
                    for ts in range(rounds):
                        await inp.get(ts)
                        await outp.put(ts, SMALL, refcount=1)
                        await inp.consume(ts)

            task = space.spawn_task(partner, virtual_time=0)
            times = []
            async with ping.attach_output() as out_conn, \
                    pong.attach_input() as in_conn:
                for ts in range(rounds):
                    t0 = pc()
                    await out_conn.put(ts, SMALL, refcount=1)
                    await in_conn.get(ts)
                    await in_conn.consume(ts)
                    times.append(pc() - t0)
            await space.ajoin(task, timeout=30.0)
            out["runtime.aio.park_wake_us"] = statistics.median(times) / 2 / 1e3

            # facade twin vs the AioAddressSpace entry points it drives
            chan = await stm.create_channel("spine.micro.afacade")
            stored, size = encode(SMALL, CopyPolicy.SERIALIZE)
            out_id = await space.aattach(chan.handle, is_input=False, thread=me)
            in_id = await space.aattach(chan.handle, is_input=True, thread=me)
            below, above = [], []
            ts = 0
            deadline = time.perf_counter() + slice_s
            async with chan.attach_output() as out_conn, \
                    chan.attach_input() as in_conn:
                while len(below) < 5 or time.perf_counter() < deadline:
                    t0 = pc()
                    for _ in range(K):
                        await space.aput(chan.handle, out_id, ts, stored, size,
                                         refcount=2)
                        await space.aget(chan.handle, in_id, ts)
                        await space.aconsume(chan.handle, in_id, ts)
                        ts += 1
                    t1 = pc()
                    for _ in range(K):
                        await out_conn.put(ts, SMALL, refcount=2)
                        await in_conn.get(ts)
                        await in_conn.consume(ts)
                        ts += 1
                    t2 = pc()
                    # both input connections see every item: retire the rest
                    await in_conn.consume_until(ts - 1)
                    await space.aconsume(chan.handle, in_id, ts - 1, until=True)
                    below.append((t1 - t0) / K)
                    above.append((t2 - t1) / K)
            await space.adetach(chan.handle, out_id)
            await space.adetach(chan.handle, in_id)
            out["stm.aio.facade_ns_per_cycle"] = (
                statistics.median(above) - statistics.median(below)
            )
            me.exit()
        return out

    return asyncio.run(main())


def _rpc_rtt_us(cluster, slice_s: float) -> float:
    """Payload-free remote consume: one request, one reply."""
    space = cluster.space(0)
    me = space.adopt_current_thread(virtual_time=0)
    try:
        handle = space.create_channel("spine.micro.rpc", home=1)
        conn = space.attach(handle, is_input=True, thread=me)
        state = {"ts": 0}

        def consume():
            state["ts"] += 1
            space.consume(handle, conn, state["ts"])

        rtt = _median_per_call(_timed(consume, 16), slice_s)
        space.detach(handle, conn)
    finally:
        me.exit()
    return rtt / 1e3


def rpc_layers(slice_s: float) -> dict[str, float]:
    out: dict[str, float] = {}
    with Cluster(n_spaces=2, gc_period=None) as cluster:
        out["runtime.space.rpc_rtt_us"] = _rpc_rtt_us(cluster, slice_s)
    t0 = time.perf_counter()
    cluster = ProcCluster(n_spaces=2, gc_period=None)
    out["runtime.procs.spawn_s"] = time.perf_counter() - t0
    try:
        out["runtime.procs.rpc_rtt_us"] = _rpc_rtt_us(cluster, slice_s)
    finally:
        cluster.shutdown()
    return out


# ----------------------------------------------------------------------
# transport
# ----------------------------------------------------------------------
def _put_message(payload: bytes) -> RpcRequest:
    """The message a remote put really sends (payload framed out-of-band)."""
    return RpcRequest(7, 0, PutReq(1, 2, 3, Frame(payload), len(payload), 1, True))


def _joined(segments) -> bytes:
    return b"".join(bytes(memoryview(seg)) for seg in segments)


def transport_layer(seed: int, slice_s: float) -> dict[str, float]:
    out: dict[str, float] = {}
    frame_bytes = encode(_frame_value(seed), CopyPolicy.SERIALIZE)[0]
    small_bytes = encode(SMALL, CopyPolicy.SERIALIZE)[0]
    sizes = {"small": (small_bytes, 256), "frame": (frame_bytes, 8)}

    for label, (payload, calls) in sizes.items():
        msg = _put_message(payload)
        wire = _joined(encode_message_sg(msg))
        unit, scale = ("ns", 1.0) if label == "small" else ("us", 1e3)
        out[f"transport.serialization.encode_{unit}.{label}"] = _median_per_call(
            _timed(lambda m=msg: encode_message_sg(m), calls), slice_s) / scale
        out[f"transport.serialization.decode_{unit}.{label}"] = _median_per_call(
            _timed(lambda w=wire: decode_message(w), calls), slice_s) / scale

    frame_stats.reset()
    decode_message(_joined(encode_message_sg(_put_message(frame_bytes))))
    snap = frame_stats.snapshot()
    out["transport.serialization.copies_per_byte"] = (
        snap["payload_bytes_copied"] / snap["payload_bytes_framed"]
    )

    segments = encode_message_sg(_put_message(frame_bytes))
    packets = list(fragment_sg(1, segments))
    out["transport.packets.fragment_us.frame"] = _median_per_call(
        _timed(lambda: list(fragment_sg(1, segments)), 4), slice_s) / 1e3
    reassembler = Reassembler()

    def reassemble():
        for packet in packets:
            reassembler.feed(packet)

    out["transport.packets.reassemble_us.frame"] = _median_per_call(
        _timed(reassemble, 4), slice_s) / 1e3

    ring = ShmRing.create(f"spine{os.getpid():x}")
    try:
        for label, (payload, calls) in sizes.items():
            segs = encode_message_sg(_put_message(payload))
            nbytes = sum(memoryview(s).nbytes for s in segs)

            def write_read(segs=segs, nbytes=nbytes):
                ring.write(segs, nbytes)
                ring.read(nbytes)

            out[f"transport.shm_ring.write_read_us.{label}"] = _median_per_call(
                _timed(write_read, calls), slice_s) / 1e3
    finally:
        ring.close()
        ring.unlink()

    # in-process CLF: fragment -> queue -> reassemble
    network = ClfNetwork.create(2)
    a, b = network.endpoint(0), network.endpoint(1)
    for label, (payload, calls) in sizes.items():
        segs = encode_message_sg(_put_message(payload))

        def oneway(segs=segs):
            a.send(1, segs)
            b.recv()

        out[f"transport.clf.oneway_us.{label}"] = _median_per_call(
            _timed(oneway, calls), slice_s) / 1e3
    network.close()

    # two SocketEndpoints over TCP on loopback (send -> reader thread -> recv)
    topology = ClusterTopology(2, spaces_per_node=1)
    session = f"spine{os.getpid():x}"
    ep0 = SocketEndpoint(0, topology, session=session)
    ep1 = SocketEndpoint(1, topology, session=session)
    try:
        directory = {0: ep0.port, 1: ep1.port}
        dialer = threading.Thread(target=ep0.connect_mesh, args=(directory,))
        dialer.start()
        ep1.connect_mesh(directory)
        dialer.join(timeout=30.0)
        for label, (payload, calls) in sizes.items():
            segs = encode_message_sg(_put_message(payload))

            def oneway(segs=segs):
                ep0.send(1, segs)
                ep1.recv(timeout=30.0)

            out[f"transport.sockets.oneway_us.{label}"] = _median_per_call(
                _timed(oneway, calls), slice_s) / 1e3
    finally:
        ep0.close()
        ep1.close()
    return out


# ----------------------------------------------------------------------
# kiosk, sim, obs
# ----------------------------------------------------------------------
def kiosk_layer(seed: int, slice_s: float, threads_s: float) -> dict[str, float]:
    out: dict[str, float] = {}
    scene = stages.kiosk_scene(seed)
    frames = stages.render_frames(seed)[:16]
    tracker = BlobTracker(scene.background)
    decider = DecisionModule()
    state = {"t": 0}

    def next_t() -> int:
        state["t"] += 1
        return state["t"] % len(frames)

    out["kiosk.render_ms"] = _median_per_call(
        _timed(lambda: scene.render(next_t())), slice_s) / 1e6
    out["kiosk.analyze_ms"] = _median_per_call(
        _timed(lambda: tracker.analyze(0, frames[next_t()])), slice_s) / 1e6
    records = [tracker.analyze(t, f) for t, f in enumerate(frames)]
    out["kiosk.decide_us"] = _median_per_call(
        _timed(lambda: decider.decide(0, records[next_t()]), 16), slice_s) / 1e3

    def inline():  # the floor: the same frames, one thread, no STM
        t = next_t()
        decider.decide(t, tracker.analyze(t, frames[t]))

    out["kiosk.inline_ms_per_frame"] = _median_per_call(_timed(inline), slice_s) / 1e6

    # the same stage functions on the thread driver (BENCH_pr6's question)
    workload = workloads.Kiosk()
    workload.cluster_cls = Cluster
    workload.setup(seed)
    outcome = workload.measure(threads_s)
    workload.teardown(outcome)
    out["kiosk.threads_item_cost_cal"] = summarize(outcome.cost)["item_cost_cal"]
    return out


def sim_layer(slice_s: float) -> dict[str, float]:
    out: dict[str, float] = {}
    items = 50
    sim = SimStampede(n_spaces=2)
    chan = sim.create_channel(home=1)  # at the consumer, as in Fig. 10

    def producer(t):
        conn = yield from t.attach_output(chan)
        for i in range(items):
            t.set_virtual_time(i)
            yield from t.put(conn, i, nbytes=8)

    def consumer(t):
        conn = yield from t.attach_input(chan)
        for i in range(items):
            yield from t.get(conn, i)
            yield from t.consume(conn, i)

    sim.spawn(producer, space=0)
    sim.spawn(consumer, space=1)
    sim.run()
    out["sim.fig10_cycle_us.b8"] = sim.now / items  # virtual time: exact

    n_tasks, n_steps = 8, 500

    def ticker():
        for _ in range(n_steps):
            yield ("delay", 1.0)

    def engine_run():
        engine = SimEngine()
        for _ in range(n_tasks):
            engine.spawn(ticker)
        engine.run()

    per_run = _median_per_call(_timed(engine_run), slice_s)
    out["sim.engine.events_per_s"] = n_tasks * n_steps / (per_run / 1e9)

    n_frames = 6
    t0 = time.perf_counter()
    run_sim_fleet(FleetConfig(n_frames=n_frames))
    out["sim.kiosk_wall_ms_per_frame"] = (time.perf_counter() - t0) * 1e3 / n_frames
    return out


def obs_layer(seed: int, slice_s: float) -> dict[str, float]:
    """local_cycle item cost with repro.obs armed, over disarmed."""
    workload = workloads.LocalCycle()
    workload.setup(seed)
    try:
        costs = {}
        for armed in (False, True, False, True):
            if armed:
                obs_events.enable()
            try:
                outcome = workload.measure(max(slice_s, 0.11))
            finally:
                obs_events.disable()
            costs.setdefault(armed, []).append(
                summarize(outcome.cost)["bench.item_cost_us"]
            )
    finally:
        workload.teardown(outcome)
    enabled, disabled = (statistics.median(costs[k]) for k in (True, False))
    return {"obs.enabled_overhead_pct": 100.0 * (enabled / disabled - 1.0)}


def run_all(seed: int, budget_s: float) -> dict[str, float]:
    """Every layer's micro-benches within roughly ``budget_s`` seconds."""
    slice_s = budget_s / _SLICES
    out: dict[str, float] = {}
    out.update(core_layer(seed, slice_s))
    out.update(space_and_facade_layers(slice_s))
    out.update(park_wake_threads(slice_s))
    out.update(aio_layers(slice_s))
    out.update(rpc_layers(slice_s))
    out.update(transport_layer(seed, slice_s))
    out.update(kiosk_layer(seed, slice_s, threads_s=budget_s / 4))
    out.update(sim_layer(slice_s))
    out.update(obs_layer(seed, slice_s))
    return out
