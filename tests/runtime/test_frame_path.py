"""The frame path (DESIGN.md section 5c): who copies a frame-sized payload.

A put that crosses address spaces ships the caller's own buffers (pickle
protocol-5 out-of-band, :class:`repro.core.payload.Parts`); every medium has
copied them by the time ``put`` returns, the home stores what it received,
and each get copies once more into memory of its own.  These tests pin what
§4.1 promises across that path — re-use after put, private writable copies
after get — on the thread, process and asyncio drivers, and pin its cost.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import pickle
import threading
import zlib

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.core import INFINITY
from repro.core.payload import CopyPolicy, Parts, decode, encode
from repro.errors import ChannelEmptyError, StmSanError
from repro.kiosk.frames import FRAME_HEIGHT, FRAME_WIDTH
from repro.kiosk.records import VideoFrame
from repro.runtime import AioCluster, Cluster, ProcCluster
from repro.stm import STM
from repro.stm.aio import AioSTM
from repro.transport.packets import max_payload
from repro.transport.serialization import frame_stats
from tests.runtime._frame_cost_worker import (
    COST_SEED,
    TRACED_PUTS,
    WARMUP_PUTS,
    put_cost_worker,
)
from tests.runtime._frame_cost_worker import frame as _frame

FRAME_BYTES = FRAME_HEIGHT * FRAME_WIDTH * 3  # 230 400: the spine's item

_names = itertools.count()


def _crc(frame: VideoFrame) -> int:
    return zlib.crc32(frame.pixels)


@pytest.fixture(scope="module", params=["threads", "procs"])
def cluster(request):
    """One three-space cluster per driver for the whole module; every test
    uses channel names of its own and detaches what it attached."""
    factory = Cluster if request.param == "threads" else ProcCluster
    with factory(n_spaces=3, gc_period=None) as running:
        yield running


@pytest.fixture
def me(cluster):
    thread = cluster.space(0).adopt_current_thread(virtual_time=0)
    yield thread
    if thread.alive:
        thread.exit()


@contextlib.contextmanager
def _remote_channel(cluster, **kwargs):
    """A channel homed at space 1 with the test thread (space 0) attached
    at both ends: every put and every get crosses the wire."""
    chan = STM(cluster.space(0)).create_channel(
        f"fp.{next(_names)}", home=1, **kwargs)
    out, inp = chan.attach_output(), chan.attach_input()
    try:
        yield chan, out, inp
    finally:
        out.detach()
        inp.detach()


# ----------------------------------------------------------------------
# (a) §4.1: "after a put, a thread may immediately safely re-use its buffer"
# ----------------------------------------------------------------------
class TestReuseAfterPut:
    def test_overwriting_the_array_the_moment_put_returns(self, cluster, me):
        with _remote_channel(cluster) as (_chan, out, inp):
            for ts in range(8):
                me.set_virtual_time(ts)
                frame = _frame(ts)
                want = _crc(frame)
                out.put(ts, frame, refcount=1)
                frame.pixels[:] = 0xAA
                assert _crc(inp.get_consume(ts).value) == want

    def test_a_put_that_parked_on_a_full_channel_and_was_drained_later(
        self, cluster, me
    ):
        """The home parks the request *it received*; the drain that lands it
        replays that body, long after the sender's array has changed."""
        with _remote_channel(cluster, capacity=1) as (_chan, out, inp):
            out.put(0, _frame(0), refcount=1)  # the channel is full
            inp.get(0)
            frame = _frame(1)
            want = _crc(frame)
            drain = threading.Timer(0.2, inp.consume, args=(0,))
            drain.start()
            out.put(1, frame, refcount=1, timeout=30)  # parks, then lands
            frame.pixels[:] = 0x55
            drain.join(timeout=10)
            assert _crc(inp.get_consume(1).value) == want

    def test_a_put_that_timed_out_while_the_channel_drained(self, cluster, me):
        """``RpcCancel`` races the drain: the put either lands or raises,
        and an item that landed is the frame as it was when put was called."""
        with _remote_channel(cluster, capacity=1) as (_chan, out, inp):
            for k in range(12):
                first, second = 2 * k, 2 * k + 1
                me.set_virtual_time(first)
                out.put(first, _frame(first), refcount=1)
                inp.get(first)
                frame = _frame(second)
                want = _crc(frame)
                drain = threading.Timer(0.02, inp.consume, args=(first,))
                drain.start()
                try:
                    out.put(second, frame, refcount=1, timeout=0.02)
                except TimeoutError:
                    pass
                frame.pixels[:] = k
                drain.join(timeout=10)
                try:
                    item = inp.get(second, block=False)
                except ChannelEmptyError:
                    continue  # the cancel won: nothing was stored, also legal
                assert _crc(item.value) == want
                inp.consume(second)

    def test_asyncio_put_cancelled_at_any_await(self):
        """``aput`` to a remote home sends the caller's own buffers (a
        ``Parts``, as a thread's put does) before its first ``await``.  A
        task cancelled at a later ``await`` — its request parked at the full
        home, or already landed there by a drain the task has not seen —
        has its buffer back when ``CancelledError`` reaches it, and what
        landed is the frame as it was when ``put`` was called, or
        nothing."""

        async def main():
            async with AioCluster(n_spaces=2, gc_period=None) as cluster:
                space = cluster.space(0)
                task_thread = space.adopt_current_task(virtual_time=0)
                chan = await AioSTM(space).create_channel(
                    "fp.aio", home=1, capacity=1)
                out = await chan.attach_output()
                # attached through the home: its ops never suspend the task
                at_home = await AioSTM(cluster.space(1)).channel(
                    chan.handle).attach_input()
                home = cluster.space(1)._channel(chan.channel_id)
                landed = []
                for k in range(12):
                    first, second = 2 * k, 2 * k + 1
                    await out.put(first, _frame(first), refcount=1)  # full
                    frame = _frame(second)
                    want = _crc(frame)
                    put = asyncio.ensure_future(
                        out.put(second, frame, refcount=1))
                    await asyncio.sleep(0)  # sent: the put awaits its reply
                    if k % 2:
                        while not home.put_waiters:
                            await asyncio.sleep(0.001)
                        await at_home.get_consume(first)  # lands the put
                    put.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await put
                    frame.pixels[:] = k  # the caller has its buffer back
                    if not k % 2:
                        await at_home.get_consume(first)
                    try:
                        item = await at_home.get(second, block=False)
                    except ChannelEmptyError:
                        continue  # the cancel won: nothing was stored
                    assert _crc(item.value) == want
                    await at_home.consume(second)
                    landed.append(k)
                # parked and cancelled: withdrawn; landed first: stands
                assert landed == [1, 3, 5, 7, 9, 11]
                await at_home.detach()
                await out.detach()
                task_thread.exit()

        asyncio.run(main())


# ----------------------------------------------------------------------
# (b) the cost is pinned
# ----------------------------------------------------------------------
def test_a_remote_frame_put_maps_no_scratch_buffer():
    """200 remote puts of a 230 400-byte ``VideoFrame`` from a child: the
    in-band pickle cost 58 minor faults and a 345 KB buffer per put."""
    n_puts = 200
    total = WARMUP_PUTS + n_puts + TRACED_PUTS
    with ProcCluster(n_spaces=2, gc_period=None) as cluster:
        me = cluster.space(0).adopt_current_thread(virtual_time=0)
        stm = STM(cluster.space(0))
        frames = stm.create_channel("fp.cost.frames", capacity=4)
        report = stm.create_channel("fp.cost.report")
        inp, rep = frames.attach_input(), report.attach_input()
        handle = cluster.spawn(put_cost_worker, (n_puts,), on_space=1)
        want = _crc(_frame(COST_SEED))
        for ts in range(total):  # the home's own getter: a local get
            item = inp.get(ts, timeout=60)
            assert item.size >= FRAME_BYTES
            if ts % 32 == 0:
                assert _crc(item.value) == want
            inp.consume(ts)
        faults_per_put, peak = rep.get_consume(0, timeout=60).value
        handle.join(timeout=30)
        inp.detach()
        rep.detach()
        me.exit()
    assert faults_per_put < 8, faults_per_put
    assert peak < 64 * 1024, peak


# ----------------------------------------------------------------------
# (c) shapes
# ----------------------------------------------------------------------
def _same(got, want) -> bool:
    if isinstance(want, VideoFrame):
        return got.timestamp == want.timestamp and _same(got.pixels, want.pixels)
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and got.shape == want.shape and np.array_equal(got, want))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in want)
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, pickle.PickleBuffer):
        return bytes(got) == bytes(want)
    return got == want


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


SHAPES = {
    "c_contiguous": lambda: np.arange(60_000, dtype=np.float32).reshape(200, 300),
    "f_contiguous": lambda: np.asfortranarray(
        np.arange(60_000, dtype=np.int16).reshape(200, 300)),
    # numpy pickles a non-contiguous array in-band: the plain-bytes path
    "non_contiguous": lambda: np.arange(60_000, dtype=np.uint8).reshape(200, 300)[:, ::3],
    "read_only": lambda: _read_only(np.arange(50_000, dtype=np.uint16)),
    "zero_length": lambda: np.zeros((0, 3), dtype=np.float64),
    "two_arrays": lambda: {"left": _frame(1).pixels, "right": _frame(2).pixels},
    "bytearray_member": lambda: [bytearray(b"abc" * 20_000), 7],
    "picklebuffer_members": lambda: (
        pickle.PickleBuffer(b"read-only" * 9_000),
        pickle.PickleBuffer(bytearray(b"writable" * 9_000)),
    ),
    "no_buffer": lambda: {"frame": 42, "tags": ["a", "b"], "pad": "x" * 20_000},
    "video_frame": lambda: _frame(5),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shapes_round_trip(cluster, me, shape):
    value = SHAPES[shape]()
    in_band = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    with _remote_channel(cluster) as (_chan, out, inp):
        out.put(0, value, refcount=1)
        item = inp.get_consume(0)
    assert _same(item.value, value)
    # faithful size: the bytes that crossed, within a few opcodes of the
    # in-band pickle of the same value
    assert abs(item.size - in_band) <= 64, (item.size, in_band)


def test_which_values_leave_in_band():
    policy = CopyPolicy.SERIALIZE
    for shape in ("non_contiguous", "bytearray_member", "no_buffer"):
        value = SHAPES[shape]()
        stored, size = encode(value, policy, True)
        assert stored.__class__ is bytes and size == len(stored)
        assert stored == encode(value, policy)[0]
    stored, size = encode(SHAPES["two_arrays"](), policy, True)
    assert stored.__class__ is Parts
    assert [len(b) for b in stored.buffers] == [FRAME_BYTES, FRAME_BYTES]
    assert size == len(stored.stream) + 2 * FRAME_BYTES
    # a tuple payload of another policy is never taken for a Parts
    pair = (b"stream", [b"buffer"])
    assert decode(pair, CopyPolicy.REFERENCE) is pair
    assert decode(pair, CopyPolicy.DEEPCOPY) == pair


# ----------------------------------------------------------------------
# (d) §4.1: "after a successful get, a client can safely modify the copy"
# ----------------------------------------------------------------------
def test_every_get_is_an_independent_writable_copy(cluster, me):
    with _remote_channel(cluster) as (chan, out, inp):
        second = chan.attach_input()
        frame = _frame(9)
        want = _crc(frame)
        out.put(0, frame, refcount=2)
        mine = inp.get(0).value
        assert mine.pixels.flags.writeable
        mine.pixels[:] = 0
        theirs = second.get(0).value
        assert _crc(theirs) == want
        theirs.pixels[:] = 1
        assert _crc(inp.get(0).value) == want  # a second get of the same item
        inp.consume(0)
        second.consume(0)
        second.detach()


# ----------------------------------------------------------------------
# (e) onward from the home: cache pushes and third-space gets
# ----------------------------------------------------------------------
def _third_space_reader(name: str, n_items: int) -> None:
    """On space 2: get, check by mutation-safe checksum, consume, report."""
    stm = STM.here()
    inp = stm.lookup(name, wait=True).attach_input()
    report = stm.lookup(name + ".report", wait=True).attach_output()
    report.put(0, "attached", refcount=1)
    crcs = []
    for ts in range(n_items):
        item = inp.get(ts, timeout=60)
        crcs.append(_crc(item.value))
        item.value.pixels[:] = 0
        inp.consume(ts)
    report.put(1, crcs, refcount=1)
    inp.detach()
    report.detach()


@pytest.mark.parametrize("push", [False, True], ids=["get_reply", "cache_push"])
def test_an_item_that_arrived_by_remote_put_travels_on_intact(cluster, me, push):
    n_items = 6
    name = f"fp.onward.{next(_names)}"
    stm = STM(cluster.space(0))
    chan = stm.create_channel(name, home=1, push=push)
    report = stm.create_channel(name + ".report")
    out, rep = chan.attach_output(), report.attach_input()
    reader = cluster.space(0).spawn(
        _third_space_reader, (name, n_items), on_space=2)
    assert rep.get_consume(0, timeout=60).value == "attached"
    procs = isinstance(cluster, ProcCluster)
    if procs:
        for space in range(3):
            cluster.endpoint_stats(space, reset_frames=True)
    else:
        frame_stats.reset()
    frames = [_frame(100 + ts) for ts in range(n_items)]
    for ts, frame in enumerate(frames):
        me.set_virtual_time(ts)
        out.put(ts, frame, refcount=1)
    assert rep.get_consume(1, timeout=60).value == [_crc(f) for f in frames]
    reader.join(timeout=30)
    # One copy per framed byte per side: the producer gathers each frame
    # once, the home receives it once and gathers it once more (into the
    # push, or into the get reply), the reader receives it once.
    moved = n_items * FRAME_BYTES
    if procs:
        for space, sides in ((0, 1), (1, 2), (2, 1)):
            stats = cluster.endpoint_stats(space)["frames"]
            copies = stats["payload_bytes_copied"] / moved
            assert sides <= copies <= sides * 1.01, (space, stats)
    else:  # three spaces, one process: the same four copies, counted together
        copies = frame_stats.payload_bytes_copied / moved
        assert 4 <= copies <= 4 * 1.01, frame_stats.snapshot()
    out.detach()
    rep.detach()


# ----------------------------------------------------------------------
# (f) the size rule: a payload of at most one packet's payload rides in-band
# ----------------------------------------------------------------------
INBAND_MAX = max_payload()  # 8 120 B


def _reset_frame_stats(cluster) -> None:
    if isinstance(cluster, ProcCluster):
        for space in range(3):
            cluster.endpoint_stats(space, reset_frames=True)
    else:
        frame_stats.reset()


def _frame_stats(cluster) -> dict:
    """``frame_stats`` summed over the cluster's processes."""
    if not isinstance(cluster, ProcCluster):
        return frame_stats.snapshot()
    total: dict = {}
    for space in range(3):
        for key, value in cluster.endpoint_stats(space)["frames"].items():
            total[key] = total.get(key, 0) + value
    return total


@pytest.mark.parametrize("push", [False, True], ids=["get_reply", "cache_push"])
@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_the_in_band_boundary(cluster, me, kind, push):
    """An 8 120 B stored payload crosses in the message's pickle, as
    ``bytes``, with no frame; 8 121 B is framed, one copy per side.  The put
    carries it to the home, and the get reply or the cache push back."""
    space = cluster.space(0)
    handle = space.create_channel(f"fp.{next(_names)}", home=1, push=push)
    out = space.attach(handle, is_input=False, thread=me)
    inp = space.attach(handle, is_input=True, thread=me)
    pattern = bytes(range(251)) * (INBAND_MAX // 251 + 1)
    for ts, nbytes in enumerate((INBAND_MAX, INBAND_MAX + 1)):
        payload = pattern[:nbytes]
        _reset_frame_stats(cluster)
        space.put(handle, out, ts, kind(payload), nbytes, refcount=1)
        got, got_ts, size = space.get(handle, inp, ts)
        space.consume(handle, inp, ts)
        assert (bytes(got), got_ts, size) == (payload, ts, nbytes)
        stats = _frame_stats(cluster)
        if nbytes == INBAND_MAX:
            assert got.__class__ is bytes
            assert stats == dict.fromkeys(stats, 0), stats
        else:
            assert stats["frames_encoded"] == stats["frames_decoded"] == 2
            assert stats["payload_bytes_framed"] == 2 * nbytes
            assert stats["payload_bytes_copied"] / stats["payload_bytes_framed"] == 2.0
    space.detach(handle, out)
    space.detach(handle, inp)


# ----------------------------------------------------------------------
# STM303 on the multi-part payload
# ----------------------------------------------------------------------
@pytest.fixture
def stmsan():
    """The sanitizer on for one test; a run under ``STMSAN=1`` keeps it on."""
    was = sanitizer.enabled()
    sanitizer.enable()
    sanitizer.reset()
    try:
        yield
    finally:
        sanitizer.reset()
        if not was:
            sanitizer.disable()


class TestSanitizerOnReceivedFrames:
    def test_a_frame_touched_after_its_consume_dies_with_the_reclaiming_stack(
        self, stmsan
    ):
        with Cluster(n_spaces=2, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            with _remote_channel(cluster) as (chan, out, inp):
                out.put(0, _frame(0), refcount=1)
                home = cluster.space(1)._channel(chan.channel_id)
                record = home.kernel.items[0]
                stored = record.payload
                assert stored.__class__ is Parts
                views = list(stored.buffers)
                inp.get_consume(0)  # refcount 1: reclaimed on the spot
                assert all(isinstance(v, memoryview) for v in views)
                for view in views:  # every alias of the received bytes
                    with pytest.raises(ValueError, match="released"):
                        view[0]
                with pytest.raises(StmSanError) as caught:
                    record.payload.buffers
                assert "after the kernel reclaimed it" in str(caught.value)
                assert "consume" in caught.value.stack
            me.exit()
        assert any(f.rule_id == "STM303" for f in sanitizer.findings())

    def test_an_open_item_is_never_poisoned(self, stmsan):
        with Cluster(n_spaces=2, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            with _remote_channel(cluster) as (chan, out, inp):
                frame = _frame(1)
                out.put(0, frame)  # unknown refcount: GC reclaims it
                inp.get(0)  # open on this connection
                me.set_virtual_time(INFINITY)
                home = cluster.space(1)._channel(chan.channel_id)
                stored = home.kernel.items[0].payload
                cluster.space(1).apply_gc_horizon(INFINITY)
                assert stored.__class__ is Parts
                assert _crc(decode(stored, CopyPolicy.SERIALIZE)) == _crc(frame)
                inp.consume(0)
            me.exit()
        assert sanitizer.findings() == []
