"""Spawn-safety sweep: every wire message survives a real child process.

The process runtime (:mod:`repro.runtime.procs`) uses the ``spawn`` start
method, so everything that crosses an address-space boundary — every
``@register_message`` envelope, every registered RPC body it can carry, the
:class:`~repro.transport.serialization.Frame` zero-copy wrapper, and the
:data:`~repro.core.INFINITY` virtual-time sentinel — must pickle under a
*fresh* interpreter with none of the parent's incidental module state.
These tests round-trip the full message bestiary through an actual spawned
child (encode → child decodes and re-encodes → parent decodes) and check
the semantically load-bearing fields, not just "no exception".
"""

import math
import multiprocessing

from repro.core import INFINITY, STM_LATEST_UNSEEN
from repro.runtime.messages import (
    AttachReq,
    CachePushMsg,
    ClockProbeReq,
    ConsumeReq,
    CreateChannelReq,
    DestroyChannelReq,
    DetachReq,
    EndpointStatsReq,
    GcApplyReq,
    GcSummaryReq,
    GetReq,
    LookupNameReq,
    PutReq,
    RegisterNameReq,
    RpcCancel,
    RpcReply,
    RpcRequest,
    ShutdownMsg,
    SpawnReq,
    TelemetryHarvestReq,
)
from repro.transport.serialization import (
    Frame,
    decode_message,
    encode_message,
    message_types,
)

def _sample_bodies() -> list:
    """One instance of every RPC body the envelopes can carry."""
    return [
        CreateChannelReq(name="spawn-safety", capacity=8, push=True),
        DestroyChannelReq(channel_id=7),
        AttachReq(channel_id=7, conn_id=3, is_input=True, visibility=INFINITY),
        DetachReq(channel_id=7, conn_id=3),
        PutReq(channel_id=7, conn_id=3, timestamp=42,
               payload=Frame(b"pixels" * 100), size=600, refcount=2),
        GetReq(channel_id=7, conn_id=3, request=STM_LATEST_UNSEEN,
               cache_ok=True),
        ConsumeReq(channel_id=7, conn_id=3, timestamp=42, until=True),
        RegisterNameReq(name="spawn-safety", handle=("opaque", 1)),
        LookupNameReq(name="spawn-safety", wait=True),
        # module-level, so it pickles by reference into a spawned child
        SpawnReq(fn=math.factorial, args=(10,), kwargs={}, name="t",
                 virtual_time=INFINITY),
        GcSummaryReq(epoch=3),
        GcApplyReq(epoch=3, horizon=INFINITY),
        EndpointStatsReq(reset_frames=True),
        TelemetryHarvestReq(disarm=True),
        ClockProbeReq(),
    ]


def _sample_messages() -> list:
    """At least one instance of every registered wire tag."""
    samples = [RpcRequest(call_id=i, src_space=0, body=body)
               for i, body in enumerate(_sample_bodies())]
    samples += [
        RpcReply(call_id=1, value={"clf": {"messages_sent": 3}}),
        RpcReply(call_id=2, error=RuntimeError("remote boom")),
        RpcCancel(call_id=3),
        GcApplyReq(epoch=9, horizon=17),
        GcApplyReq(epoch=9, horizon=INFINITY),
        ShutdownMsg(reason="spawn-safety sweep"),
        CachePushMsg(channel_id=7, timestamp=42, payload=Frame(b"\x00" * 64),
                     size=64),
    ]
    return samples


def _echo_child(conn) -> None:
    """Child: decode each message blob and send back its re-encoding."""
    try:
        n = conn.recv()
        for _ in range(n):
            blob = conn.recv_bytes()
            msg = decode_message(blob)
            conn.send_bytes(bytes(encode_message(msg)))
        conn.send("ok")
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        conn.send(f"child failed: {exc!r}")
    finally:
        conn.close()


def _roundtrip_all(samples: list) -> list:
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_echo_child, args=(child,), daemon=True)
    proc.start()
    child.close()
    try:
        parent.send(len(samples))
        echoed = []
        for msg in samples:
            parent.send_bytes(bytes(encode_message(msg)))
            echoed.append(decode_message(parent.recv_bytes()))
        status = parent.recv()
        assert status == "ok", status
    finally:
        parent.close()
        proc.join(timeout=30)
        if proc.is_alive():  # pragma: no cover - hung child
            proc.kill()
            proc.join()
    assert proc.exitcode == 0
    return echoed


class TestSpawnSafety:
    def test_every_registered_tag_is_covered(self):
        # bodies are registered too: they count when an envelope carries them
        samples = _sample_messages()
        tags = {type(m) for m in samples}
        tags |= {type(m.body) for m in samples if isinstance(m, RpcRequest)}
        assert set(message_types().values()) <= tags

    def test_roundtrip_through_spawned_child(self):
        samples = _sample_messages()
        echoed = _roundtrip_all(samples)
        assert len(echoed) == len(samples)
        by_type: dict[type, list] = {}
        for msg in echoed:
            by_type.setdefault(type(msg), []).append(msg)
        assert set(by_type) == {type(m) for m in samples}
        # every body came back as its own class, in the order sent
        assert [type(m.body) for m in echoed if isinstance(m, RpcRequest)] == [
            type(body) for body in _sample_bodies()
        ]

        # Load-bearing fields survive, including the INFINITY singleton.
        requests = by_type[RpcRequest]
        put = next(r.body for r in requests if isinstance(r.body, PutReq))
        assert bytes(put.payload.data) == b"pixels" * 100
        assert put.refcount == 2
        attach = next(r.body for r in requests if isinstance(r.body, AttachReq))
        assert attach.visibility is INFINITY
        spawn = next(r.body for r in requests if isinstance(r.body, SpawnReq))
        assert spawn.virtual_time is INFINITY
        assert spawn.fn(10) == math.factorial(10)  # resolved back to the same callable
        get = next(r.body for r in requests if isinstance(r.body, GetReq))
        assert get.request is STM_LATEST_UNSEEN

        horizons = {m.horizon for m in by_type[GcApplyReq]}
        assert 17 in horizons and INFINITY in horizons
        errors = [m.error for m in by_type[RpcReply] if m.error is not None]
        assert len(errors) == 1 and "remote boom" in str(errors[0])
        push = by_type[CachePushMsg][0]
        assert bytes(push.payload.data) == b"\x00" * 64

    def test_frame_roundtrips_large_payload_through_child(self):
        payload = bytes(range(256)) * 4096  # 1 MB
        msg = RpcRequest(
            call_id=0, src_space=0,
            body=PutReq(channel_id=1, conn_id=1, timestamp=0,
                        payload=Frame(payload), size=len(payload)),
        )
        echoed = _roundtrip_all([msg])[0]
        assert bytes(echoed.body.payload.data) == payload
