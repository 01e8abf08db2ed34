"""Unit tests for the tagged message codec."""

import dataclasses
import pickle
from dataclasses import dataclass

import pytest

from repro.core import INFINITY, STM_LATEST_UNSEEN
from repro.errors import ChannelFullError, TransportError
from repro.runtime.messages import (
    AttachReq,
    ConsumeReq,
    GcApplyReq,
    GetReq,
    PutReq,
    RpcReply,
    RpcRequest,
)
from repro.transport.serialization import (
    Frame,
    decode_message,
    encode_message,
    encode_message_sg,
    frame_stats,
    message_types,
    register_message,
)
from tests.transport.test_spawn_safety import _sample_messages


@dataclass
class _UnregisteredBody:
    """A body no tag knows: travels pickled by value inside the envelope."""

    thread_name: str
    retries: int = 3


def _assert_same(sent, got, path="msg"):
    """Field-for-field equality, through the types ``==`` does not cover."""
    assert type(got) is type(sent), path
    if dataclasses.is_dataclass(sent):
        for f in dataclasses.fields(sent):
            _assert_same(getattr(sent, f.name), getattr(got, f.name),
                         f"{path}.{f.name}")
    elif isinstance(sent, Frame):
        assert bytes(got.data) == bytes(sent.data), path
    elif isinstance(sent, BaseException):
        assert got.args == sent.args, path
    elif isinstance(sent, (tuple, list)):
        assert len(got) == len(sent), path
        for i, (a, b) in enumerate(zip(sent, got)):
            _assert_same(a, b, f"{path}[{i}]")
    elif sent is INFINITY or sent is STM_LATEST_UNSEEN:
        assert got is sent, path
    else:
        assert got == sent, path


class TestRoundtrip:
    def test_rpc_request(self):
        msg = RpcRequest(call_id=7, src_space=1, body={"op": "put"})
        out = decode_message(encode_message(msg))
        assert out == msg

    def test_rpc_reply_with_exception(self):
        msg = RpcReply(call_id=3, error=ValueError("boom"))
        out = decode_message(encode_message(msg))
        assert isinstance(out.error, ValueError)
        assert str(out.error) == "boom"

    def test_gc_collect_with_infinity(self):
        from repro.core.time import INFINITY

        msg = GcApplyReq(epoch=2, horizon=INFINITY)
        out = decode_message(encode_message(msg))
        assert out.horizon is INFINITY  # singleton preserved across the wire


class TestFlatTupleWire:
    """Every message crosses as ``tag | pickle(tuple of field values)``."""

    def test_every_registered_class_round_trips_field_for_field(self):
        samples = _sample_messages()
        covered = {type(m) for m in samples}
        covered |= {type(m.body) for m in samples if isinstance(m, RpcRequest)}
        assert covered >= set(message_types().values())
        for sent in samples:
            _assert_same(sent, decode_message(encode_message(sent)))

    def test_registered_body_is_flattened_into_the_envelope(self):
        body = ConsumeReq(channel_id=7, conn_id=3, timestamp=42, until=True)
        wire = encode_message(RpcRequest(call_id=5, src_space=1, body=body))
        body_tag = next(t for t, c in message_types().items() if c is ConsumeReq)
        assert pickle.loads(wire[2:]) == (5, 1, body_tag, (7, 3, 42, True))
        # a bare registered body is a message in its own right
        assert decode_message(encode_message(body)) == body

    def test_singletons_keep_their_identity(self):
        get = decode_message(encode_message(
            RpcRequest(1, 0, GetReq(1, 2, STM_LATEST_UNSEEN))))
        assert get.body.request is STM_LATEST_UNSEEN
        attach = decode_message(encode_message(
            RpcRequest(1, 0, AttachReq(1, 2, True, INFINITY))))
        assert attach.body.visibility is INFINITY

    def test_reply_error_travels_by_value(self):
        sent = RpcReply(call_id=3, error=ChannelFullError("channel 7 is full"))
        got = decode_message(encode_message(sent))
        assert type(got.error) is ChannelFullError
        assert got.error.args == ("channel 7 is full",) and got.value is None

    def test_unregistered_body_travels_pickled_by_value(self):
        sent = RpcRequest(9, 2, _UnregisteredBody("worker-3"))
        wire = encode_message(sent)
        assert pickle.loads(wire[2:])[2] is None  # no body tag
        assert decode_message(wire) == sent

    def test_frame_payload_comes_back_as_a_view_of_the_received_buffer(self):
        payload = bytes(range(256)) * 64
        segments = encode_message_sg(
            RpcRequest(1, 0, PutReq(7, 3, 42, Frame(payload), len(payload))))
        assert segments[-1].obj is payload  # sent un-copied, as a segment
        wire = bytearray(b"".join(segments))
        frame_stats.reset()
        put = decode_message(wire).body
        assert isinstance(put.payload, Frame)
        assert put.payload.data.obj is wire and put.payload.data == payload
        assert frame_stats.frames_decoded == 1
        assert (put.channel_id, put.conn_id, put.timestamp, put.size) == (
            7, 3, 42, len(payload))

    def test_payload_free_messages_fit_64_bytes(self):
        big = 2**31 - 1  # ids and timestamps of a long run
        for msg in (
            RpcRequest(big, 3, GetReq(big, big, big, True, False)),
            RpcRequest(big, 3, ConsumeReq(big, big, big, False)),
            RpcReply(big),
        ):
            assert len(encode_message(msg)) <= 64, msg


class TestRegistry:
    def test_registered_types_present(self):
        types = message_types()
        assert types[1] is RpcRequest
        assert types[2] is RpcReply

    def test_unregistered_type_rejected(self):
        @dataclass
        class NotRegistered:
            x: int = 0

        with pytest.raises(TransportError, match="unregistered"):
            encode_message(NotRegistered())

    def test_duplicate_tag_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_message(1)  # tag 1 is RpcRequest
            @dataclass
            class Clash:
                pass

    def test_reregistering_same_class_is_idempotent(self):
        register_message(1)(RpcRequest)  # no error

    def test_tag_range_checked(self):
        with pytest.raises(ValueError, match="16 bits"):

            @register_message(1 << 17)
            @dataclass
            class TooBig:
                pass


class TestDecodeErrors:
    def test_short_message(self):
        with pytest.raises(TransportError, match="too short"):
            decode_message(b"\x01")

    def test_unknown_tag(self):
        with pytest.raises(TransportError, match="unknown message tag"):
            decode_message(b"\xff\xff" + b"junk")

    def test_tag_body_mismatch(self):
        fake = (1).to_bytes(2, "little") + pickle.dumps({"not": "RpcRequest"})
        with pytest.raises(TransportError, match="wraps"):
            decode_message(fake)

    def test_fields_that_do_not_fit_the_class(self):
        tag = (2).to_bytes(2, "little")  # RpcReply takes at most 3 fields
        with pytest.raises(TransportError, match="does not fit"):
            decode_message(tag + pickle.dumps((1, None, None, "extra")))
        with pytest.raises(TransportError, match="does not fit"):
            decode_message((1).to_bytes(2, "little") + pickle.dumps((1,)))

    def test_unknown_body_tag(self):
        fake = (1).to_bytes(2, "little") + pickle.dumps((1, 0, 0xFFF0, ()))
        with pytest.raises(TransportError, match="unknown body tag"):
            decode_message(fake)

    def test_truncated_framed_message(self):
        wire = encode_message(
            RpcRequest(1, 0, PutReq(7, 3, 42, Frame(b"x" * 100), 100)))
        with pytest.raises(TransportError, match="truncated"):
            decode_message(wire[:-1])
        with pytest.raises(TransportError, match="truncated|corrupt"):
            decode_message(wire[:12])
