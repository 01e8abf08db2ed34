"""A ``bytes`` payload is its own serialized form (DESIGN.md section 5c).

SERIALIZE stores an exact ``bytes`` payload as the object itself: it cannot
change, so it meets both halves of §4.1 — the putter may re-use its buffer,
the getter may modify its copy — with no copy at all.  Only a payload whose
first byte is the pickle PROTO opcode (``0x80``) is pickled, so that a
stored pickle can never be mistaken for raw bytes.  These tests pin what a
getter receives on every path (equal, exact ``bytes``; the very object on a
local get), that every other bytes-like value still comes back as a copy of
its own, and what a remote put of a frame-sized ``bytes`` copies.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.payload import CopyPolicy, decode, encode
from repro.errors import ChannelEmptyError
from repro.runtime import AioCluster, Cluster, ProcCluster
from repro.stm import STM
from repro.stm.aio import AioSTM
from repro.transport.packets import max_payload
from repro.transport.serialization import frame_stats

INBAND_MAX = max_payload()  # 8 120 B: the largest stored payload sent in-band
FRAME_BYTES = 480 * 160 * 3  # 230 400 B, the spine's frame
#: appended to a drawn head, this makes every payload framed
_FILL = bytes(range(256)) * (INBAND_MAX // 256 + 1)

#: a stored pickle of every kind a 0x80-leading payload could be taken for
PICKLES = [pickle.dumps(obj, protocol=p) for p in (2, 5)
           for obj in (b"abc", 7, ("t", 1.5), None)]

_names = itertools.count()
_stamps = itertools.count()

_settings = settings(max_examples=40, deadline=None)


class Tagged(bytes):
    """A ``bytes`` subclass: it carries state an exact ``bytes`` cannot."""


@pytest.fixture(scope="module")
def threads():
    with Cluster(n_spaces=2, gc_period=None) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def procs():
    with ProcCluster(n_spaces=2, gc_period=None) as cluster:
        yield cluster


@contextlib.contextmanager
def _channel(cluster, *, home: int, push: bool = False, inputs: int = 1):
    """A channel homed at ``home`` with the test's thread, adopted by space
    0, attached as its producer and as ``inputs`` consumers."""
    me = cluster.space(0).adopt_current_thread(virtual_time=0)
    chan = STM(cluster.space(0)).create_channel(
        f"bp.{next(_names)}", home=home, push=push)
    out = chan.attach_output()
    inps = [chan.attach_input() for _ in range(inputs)]
    try:
        yield out, inps
    finally:
        out.detach()
        for inp in inps:
            inp.detach()
        me.exit()


def _through(cluster, payloads, **where) -> list:
    """Put each payload, get it back once, consume; the values gotten."""
    got = []
    with _channel(cluster, **where) as (out, (inp,)):
        for payload in payloads:
            ts = next(_stamps)
            out.put(ts, payload, refcount=1)
            got.append(inp.get_consume(ts, timeout=30).value)
    return got


def _exact(got, want) -> bool:
    return got.__class__ is bytes and got == want


def _framed(head: bytes) -> bytes:
    return head + _FILL


# ----------------------------------------------------------------------
# any bytes round-trips, as bytes, on every path
# ----------------------------------------------------------------------
_small = st.binary(max_size=INBAND_MAX - 64)  # in-band even when pickled

PATHS = {
    "local": ({"home": 0}, _small),
    "remote_in_band": ({"home": 1}, _small),
    "remote_framed": ({"home": 1}, st.binary().map(_framed)),
    "push_cache": ({"home": 1, "push": True}, _small),
    "push_cache_framed": ({"home": 1, "push": True}, st.binary().map(_framed)),
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_any_binary_round_trips_as_exact_bytes(threads, path):
    where, strategy = PATHS[path]

    @_settings
    @given(st.lists(strategy, min_size=1, max_size=4))
    @example([b""])
    @example(PICKLES)
    def check(payloads):
        for got, want in zip(_through(threads, payloads, **where), payloads):
            assert _exact(got, want), (got[:16], want[:16])

    check()


@_settings
@given(st.lists(st.one_of(st.binary(), st.binary().map(_framed)),
                min_size=1, max_size=4))
@example(PICKLES + [_framed(p) for p in PICKLES])
def test_any_binary_round_trips_between_processes(procs, payloads):
    got = _through(procs, payloads, home=1)
    for value, want in zip(got, payloads):
        assert _exact(value, want), (value[:16], want[:16])


def _aio_through(payloads, home: int) -> list:
    async def main():
        async with AioCluster(n_spaces=2, gc_period=None) as cluster:
            space = cluster.space(0)
            me = space.adopt_current_task(virtual_time=0)
            chan = await AioSTM(space).create_channel(
                f"bp.aio.{next(_names)}", home=home)
            out = await chan.attach_output()
            inp = await chan.attach_input()
            got = []
            for ts, payload in enumerate(payloads):
                await out.put(ts, payload, refcount=1)
                got.append((await inp.get_consume(ts, timeout=30)).value)
            await out.detach()
            await inp.detach()
            me.exit()
            return got

    return asyncio.run(main())


@pytest.mark.parametrize("home", [0, 1], ids=["local", "remote"])
def test_any_binary_round_trips_through_the_asyncio_facade(home):
    @_settings
    @given(st.lists(st.one_of(_small, st.binary().map(_framed)),
                    min_size=1, max_size=4))
    @example(PICKLES)
    def check(payloads):
        for got, want in zip(_aio_through(payloads, home), payloads):
            assert _exact(got, want), (got[:16], want[:16])

    check()


def test_a_pickle_put_as_a_payload_comes_back_as_those_bytes(threads, procs):
    """``0x80`` is where a stored pickle starts: such a payload is pickled
    like any other value, so a get never unpickles the caller's bytes."""
    framed = [pickle.dumps(_FILL + bytes(n)) for n in (0, 1)]
    for cluster, where in ((threads, {"home": 0}), (threads, {"home": 1}),
                           (threads, {"home": 1, "push": True}),
                           (procs, {"home": 1})):
        for got, want in zip(_through(cluster, PICKLES + framed, **where),
                             PICKLES + framed):
            assert _exact(got, want), (where, got[:16])
    for home in (0, 1):
        assert _aio_through(PICKLES, home) == PICKLES
    stored, size = encode(PICKLES[0], CopyPolicy.SERIALIZE)
    assert stored != PICKLES[0] and size == len(stored)
    assert decode(stored, CopyPolicy.SERIALIZE) == PICKLES[0]


# ----------------------------------------------------------------------
# zero copies for a local bytes payload, copies for everything else
# ----------------------------------------------------------------------
def test_a_local_get_returns_the_very_object_put(threads):
    payload = b"frame-0" * 1000
    with _channel(threads, home=0, inputs=2) as (out, (first, second)):
        ts = next(_stamps)
        out.put(ts, payload, refcount=2)
        assert first.get_consume(ts).value is payload
        assert second.get_consume(ts).value is payload
    assert encode(payload, CopyPolicy.SERIALIZE) == (payload, len(payload))
    assert _aio_through([payload], home=0)[0] is payload


MUTABLE = {
    "bytearray": (lambda: bytearray(b"abcd" * 3000),
                  lambda v: v.__setitem__(slice(0, 4), b"XXXX")),
    "ndarray": (lambda: np.arange(3000, dtype=np.int32),
                lambda v: v.__setitem__(slice(0, 4), -1)),
    "bytes_subclass": (lambda: Tagged(b"abcd" * 3000),
                       lambda v: setattr(v, "tag", "changed")),
}


def _same(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return got.__class__ is np.ndarray and np.array_equal(got, want)
    return (got.__class__ is want.__class__ and got == want
            and getattr(got, "tag", None) == getattr(want, "tag", None))


@pytest.mark.parametrize("home", [0, 1], ids=["local", "remote"])
@pytest.mark.parametrize("kind", sorted(MUTABLE))
def test_other_bytes_like_values_come_back_as_copies_of_their_own(
        threads, kind, home):
    make, mutate = MUTABLE[kind]
    value, want = make(), make()
    with _channel(threads, home=home, inputs=2) as (out, (first, second)):
        ts = next(_stamps)
        out.put(ts, value, refcount=2)
        mutate(value)  # the putter re-uses its buffer
        mine = first.get_consume(ts).value
        assert mine is not value and _same(mine, want)
        mutate(mine)  # the getter modifies its copy
        assert _same(second.get_consume(ts).value, want)


MEMORYVIEW_PATHS = {
    "local": ({"home": 0}, 12_000),
    "in_band": ({"home": 1}, 4_000),
    "framed": ({"home": 1}, INBAND_MAX + 1_000),
}


@pytest.mark.parametrize("head", [b"abcd", b"\x80abc"], ids=["raw", "proto"])
@pytest.mark.parametrize("path", sorted(MEMORYVIEW_PATHS))
def test_a_memoryview_round_trips_as_bytes(threads, path, head):
    """A ``memoryview`` is copied into ``bytes`` at the put (pickle cannot
    serialize one): the putter may re-use the buffer under it at once, and
    the get returns exact ``bytes``, a ``0x80`` head included."""
    where, n = MEMORYVIEW_PATHS[path]
    buffer = bytearray((head * n)[:n])
    want = bytes(buffer)
    with _channel(threads, **where) as (out, (inp,)):
        ts = next(_stamps)
        out.put(ts, memoryview(buffer), refcount=1)
        buffer[:4] = b"XXXX"  # the putter re-uses its buffer
        assert _exact(inp.get_consume(ts).value, want)
    array = np.arange(6, dtype=np.int16)
    assert encode(memoryview(array), CopyPolicy.SERIALIZE) == (
        array.tobytes(), 12)


@pytest.mark.parametrize("home", [0, 1], ids=["local", "remote"])
def test_a_memoryview_round_trips_through_the_asyncio_facade(home):
    payloads = [b"abcd" * 3000, b"\x80abc" * 3000]
    got = _aio_through([memoryview(p) for p in payloads], home)
    assert all(_exact(g, w) for g, w in zip(got, payloads))


# ----------------------------------------------------------------------
# what a remote frame-sized bytes put copies
# ----------------------------------------------------------------------
def test_a_remote_frame_sized_put_frames_the_callers_object(threads):
    """What a frame-sized ``bytes`` put from space 0 and got at its home
    copies, counted: no encode copy (the put's out-of-band segment is a view
    of the caller's own ``bytes``), one per side of the transport (the home
    stores a view of the message it received), one into the getter's
    ``bytes``: 3, where a pickled payload makes 4."""
    payload = bytes(range(256)) * (FRAME_BYTES // 256)
    space = threads.space(0)
    sent = []
    send = space.endpoint.send

    def recording_send(dst, segments):
        sent.extend(segments)
        return send(dst, segments)

    with _channel(threads, home=1) as (out, (inp,)):
        ts = next(_stamps)
        frame_stats.reset()
        space.endpoint.send = recording_send
        try:
            out.put(ts, payload, refcount=1)
        finally:
            space.endpoint.send = send
        put_stats = frame_stats.snapshot()
        assert any(isinstance(seg, memoryview) and seg.obj is payload
                   for seg in sent)
        assert put_stats["payload_bytes_framed"] == FRAME_BYTES
        assert put_stats["payload_bytes_copied"] / FRAME_BYTES == 2.0
        home = threads.space(1)._channel(out._channel_id)
        stored = home.kernel.items[ts].payload
        assert stored.__class__ is memoryview and stored.obj is not payload
        mine = decode(stored, CopyPolicy.SERIALIZE)
        assert _exact(mine, payload) and mine is not stored.obj
        item = inp.get_consume(ts)
        assert _exact(item.value, payload) and item.size == FRAME_BYTES
    stats = frame_stats.snapshot()
    assert stats["payload_bytes_copied"] / stats["payload_bytes_framed"] == 2.0


def test_a_remote_frame_sized_asyncio_put_copies_what_a_threads_put_does():
    """The asyncio facade's remote put sends from the task before its first
    ``await``, so it frames the caller's own ``bytes`` as a thread's put
    does and copies as much: 2 copies per payload byte for the put, 2 per
    framed byte with the get."""
    payload = bytes(range(256)) * (FRAME_BYTES // 256)

    async def main():
        async with AioCluster(n_spaces=2, gc_period=None) as cluster:
            space = cluster.space(0)
            me = space.adopt_current_task(virtual_time=0)
            chan = await AioSTM(space).create_channel(
                f"bp.aio.{next(_names)}", home=1)
            out = await chan.attach_output()
            inp = await chan.attach_input()
            sent = []
            send = space.endpoint.send

            def recording_send(dst, segments):
                sent.extend(segments)
                return send(dst, segments)

            frame_stats.reset()
            space.endpoint.send = recording_send
            try:
                await out.put(0, payload, refcount=1)
            finally:
                space.endpoint.send = send
            put_stats = frame_stats.snapshot()
            item = await inp.get_consume(0)
            await out.detach()
            await inp.detach()
            me.exit()
            return sent, put_stats, item, frame_stats.snapshot()

    sent, put_stats, item, stats = asyncio.run(main())
    assert any(isinstance(seg, memoryview) and seg.obj is payload
               for seg in sent)
    assert put_stats["payload_bytes_framed"] == FRAME_BYTES
    assert put_stats["payload_bytes_copied"] / FRAME_BYTES == 2.0
    assert _exact(item.value, payload) and item.size == FRAME_BYTES
    assert stats["payload_bytes_copied"] / stats["payload_bytes_framed"] == 2.0
