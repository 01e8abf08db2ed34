"""Message serialization for cross-address-space traffic.

All runtime control messages (channel RPCs, GC protocol, thread spawning)
are dataclasses registered under a 16-bit tag.  A message crosses the wire
as its tag followed by the pickle (protocol 5) of a **flat tuple of its
field values**, in field order; the receiver looks the class up by tag and
rebuilds it with ``cls(*fields)``.  No class name, module path or field name
travels — every space of a cluster runs one code version, so the tag alone
says what the tuple means — and that is what makes a payload-free request
~35 bytes and ~1.5 us each way instead of the ~180 bytes and ~4.5 us a
pickled dataclass-in-a-dataclass costs.  Item payloads are *already*
encoded by the time they reach a message (the channel facade encodes them
under the SERIALIZE copy policy, to ``bytes`` or to a
:class:`~repro.core.payload.Parts`), so a payload crosses the wire inside
the message without a second encode.

An *envelope* (``register_message(tag, envelope=True)``, i.e.
``RpcRequest``) carries another message in its last field.  When that body's
class is registered too it is flattened in place — the envelope's tuple ends
``..., body_tag, body_fields)`` — otherwise (``JoinReq``, bodies defined by
tests) the tuple ends ``..., None, body)`` and the body is pickled by value.
Field *values* are pickled as they are: ``INFINITY`` and the get wildcards
keep their singleton identity, exceptions and handles travel by value.

Corrupted or foreign traffic fails loudly: an unknown tag, a payload that is
not a tuple, a tuple the class cannot be built from and a truncated frame
all raise :class:`~repro.errors.TransportError`.

Zero-copy payload framing
-------------------------
Wrapping a bytes-like payload in :class:`Frame` before it enters a message
makes :func:`encode_message_sg` emit it as a pickle protocol-5 *out-of-band
buffer*: the pickle stream carries only a reference, and the payload itself
travels as a separate scatter/gather segment handed to
:meth:`~repro.transport.clf.ClfEndpoint.send`.  The sender then copies the
payload exactly once (gathering segments into MTU packets) and the receiver
exactly once (reassembling packets into the message), instead of the 2-3
extra copies a re-pickle of megabyte payloads costs — the "one memcpy each
way" framing §5's Memory Channel path intends.  :data:`frame_stats` counts
those per-side copies for the benchmarks.  Any protocol-5 out-of-band
buffer in a message's fields is framed the same way, whoever offers it: a
``Parts`` payload hands the pickler one ``PickleBuffer`` per part.

Wire format: an unframed message is ``tag(2) | pickle(fields)``.  A framed
message is ``tag(2) | 0x01 | nbufs(2) | pkl_len(4) | pickle(fields) |
(buf_len(8) | buf)*`` — distinguishable because a protocol-2+ pickle always
begins with the 0x80 PROTO opcode, never 0x01.
"""

from __future__ import annotations

import dataclasses
import pickle
import struct
from operator import attrgetter
from typing import Any, Callable, Type

from repro.errors import TransportError

__all__ = [
    "register_message",
    "encode_message",
    "encode_message_sg",
    "decode_message",
    "message_types",
    "Frame",
    "frame_stats",
]

_BY_TAG: dict[int, Type] = {}
#: class -> (tag, ``tag(2)`` wire prefix, flatten: message -> field tuple)
_CODECS: dict[Type, tuple[int, bytes, Callable[[Any], tuple]]] = {}
#: tags of envelope classes, whose last field holds another message.
_ENVELOPES: set[int] = set()

#: third byte of a framed message (a pickle stream would have 0x80 here).
_FRAMED_MAGIC = 0x01
_FRAMED_MAGIC_BYTE = bytes((_FRAMED_MAGIC,))
_FRAMED_HEADER = struct.Struct("<HI")  # nbufs, pickle length
_BUF_HEADER = struct.Struct("<Q")  # per-buffer length


class Frame:
    """Marks a bytes-like payload for out-of-band (zero-copy) framing.

    The runtime wraps already-encoded SERIALIZE payloads larger than one
    packet's payload in a Frame before placing them in a
    ``PutReq``/reply/push message; the codec then ships the bytes as a
    separate wire segment instead of re-pickling them.  After
    decoding, ``data`` is a memoryview into the received message buffer —
    still zero-copy — so consumers must treat it as read-only bytes-like.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data

    def __reduce_ex__(self, protocol):
        if protocol >= 5:
            return (Frame, (pickle.PickleBuffer(self.data),))
        return (Frame, (bytes(self.data),))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Frame {memoryview(self.data).nbytes} bytes>"


class FrameStats:
    """Counters for the framing layer (read by the copy-count tests and the
    spine's ``transport.serialization.copies_per_byte`` row).

    ``payload_bytes_copied`` counts one copy per side per framed payload:
    the send-side gather into MTU packets and the receive-side reassembly
    join each touch the payload exactly once, and nothing else does.
    """

    __slots__ = (
        "frames_encoded",
        "frames_decoded",
        "payload_bytes_copied",
        "payload_bytes_framed",
    )

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.frames_encoded = 0
        self.frames_decoded = 0
        self.payload_bytes_copied = 0
        self.payload_bytes_framed = 0

    def snapshot(self) -> dict:
        return {
            "frames_encoded": self.frames_encoded,
            "frames_decoded": self.frames_decoded,
            "payload_bytes_copied": self.payload_bytes_copied,
            "payload_bytes_framed": self.payload_bytes_framed,
        }


frame_stats = FrameStats()


def _flattener(cls: Type, envelope: bool) -> Callable[[Any], tuple]:
    """message -> tuple of its field values, in dataclass field order."""
    names = [f.name for f in dataclasses.fields(cls)]
    if not names:
        return lambda msg: ()
    if len(names) == 1:
        (name,) = names
        get_one = attrgetter(name)
        flatten: Callable[[Any], tuple] = lambda msg: (get_one(msg),)
    else:
        flatten = attrgetter(*names)
    if not envelope:
        return flatten

    def flatten_envelope(msg: Any) -> tuple:
        fields = flatten(msg)
        body = fields[-1]
        codec = _CODECS.get(body.__class__)
        if codec is None:  # unregistered body: pickled by value
            return (*fields[:-1], None, body)
        body_tag, _prefix, flatten_body = codec
        return (*fields[:-1], body_tag, flatten_body(body))

    return flatten_envelope


def register_message(tag: int, *, envelope: bool = False):
    """Class decorator registering a dataclass message under a unique tag.

    ``envelope=True`` marks a class whose *last* field carries another
    message (``RpcRequest.body``); a registered body is flattened into the
    envelope's field tuple instead of being pickled as an object.
    """

    def apply(cls: Type) -> Type:
        if tag in _BY_TAG:
            if _BY_TAG[tag] is cls:
                return cls  # re-registering the same class is idempotent
            raise ValueError(
                f"message tag {tag} already registered for {_BY_TAG[tag].__name__}"
            )
        if not 0 <= tag <= 0xFFFF:
            raise ValueError(f"tag must fit 16 bits, got {tag}")
        _BY_TAG[tag] = cls
        _CODECS[cls] = (tag, tag.to_bytes(2, "little"), _flattener(cls, envelope))
        if envelope:
            _ENVELOPES.add(tag)
        return cls

    return apply


def message_types() -> dict[int, Type]:
    """Snapshot of the registry (diagnostics and tests)."""
    return dict(_BY_TAG)


def encode_message_sg(msg: Any) -> list:
    """Serialize a registered message to a list of wire segments.

    Returns ``[tag+pickle]`` for ordinary messages; when the message
    contains :class:`Frame`-wrapped payloads, their bytes follow as extra
    segments (each preceded by a small length segment), un-copied.  Feed
    the list to :meth:`~repro.transport.clf.ClfEndpoint.send`, which
    gathers segments directly into packets.
    """
    codec = _CODECS.get(msg.__class__)
    if codec is None:
        raise TransportError(
            f"cannot encode unregistered message type {type(msg).__name__}"
        )
    _tag, prefix, flatten = codec
    buffers: list[pickle.PickleBuffer] = []
    pkl = pickle.dumps(flatten(msg), protocol=5, buffer_callback=buffers.append)
    if not buffers:
        return [prefix + pkl]
    segments: list = [
        prefix + _FRAMED_MAGIC_BYTE
        + _FRAMED_HEADER.pack(len(buffers), len(pkl)) + pkl
    ]
    framed = 0
    for buf in buffers:
        raw = buf.raw()
        segments.append(_BUF_HEADER.pack(raw.nbytes))
        segments.append(raw)
        framed += raw.nbytes
    frame_stats.frames_encoded += len(buffers)
    frame_stats.payload_bytes_framed += framed
    # the send side will copy each buffer exactly once: segment -> packet
    frame_stats.payload_bytes_copied += framed
    return segments


def encode_message(msg: Any) -> bytes:
    """Serialize a registered message to contiguous wire bytes.

    The joined form of :func:`encode_message_sg` — used where a single
    buffer is required (fault injection, tests); the runtime's hot paths
    send the segment list instead.
    """
    segments = encode_message_sg(msg)
    if len(segments) == 1:
        return segments[0]
    return b"".join(segments)


def decode_message(data) -> Any:
    """Deserialize wire bytes produced by either encoder.

    Accepts any bytes-like object; framed payloads come back as
    :class:`Frame` objects whose ``data`` is a memoryview into ``data``
    (no copy).
    """
    view = memoryview(data)
    if view.nbytes < 2:
        raise TransportError(f"message too short: {view.nbytes} bytes")
    tag = int.from_bytes(view[:2], "little")
    cls = _BY_TAG.get(tag)
    if cls is None:
        raise TransportError(f"unknown message tag {tag}")
    if view.nbytes > 2 and view[2] == _FRAMED_MAGIC:
        fields = _decode_framed(view)
    else:
        fields = pickle.loads(view[2:])
    if fields.__class__ is not tuple:
        raise TransportError(
            f"message tag {tag} ({cls.__name__}) wraps a {type(fields).__name__}"
        )
    try:
        if tag in _ENVELOPES:
            *head, body_tag, body = fields
            if body_tag is not None:
                body_cls = _BY_TAG.get(body_tag)
                if body_cls is None:
                    raise TransportError(
                        f"unknown body tag {body_tag} in {cls.__name__}"
                    )
                body = body_cls(*body)
            return cls(*head, body)
        return cls(*fields)
    except (TypeError, ValueError) as exc:
        raise TransportError(
            f"message tag {tag} ({cls.__name__}) does not fit its fields: {exc}"
        ) from exc


def _decode_framed(view: memoryview) -> Any:
    try:
        nbufs, pkl_len = _FRAMED_HEADER.unpack_from(view, 3)
        offset = 3 + _FRAMED_HEADER.size
        pkl = view[offset:offset + pkl_len]
        if pkl.nbytes != pkl_len:
            raise TransportError("framed message truncated in pickle section")
        offset += pkl_len
        buffers: list[memoryview] = []
        copied = 0
        for _ in range(nbufs):
            (buf_len,) = _BUF_HEADER.unpack_from(view, offset)
            offset += _BUF_HEADER.size
            buf = view[offset:offset + buf_len]
            if buf.nbytes != buf_len:
                raise TransportError("framed message truncated in buffer section")
            offset += buf_len
            copied += buf_len
            buffers.append(buf)
        frame_stats.frames_decoded += nbufs
        # the receive side copied each buffer exactly once: packets ->
        # reassembled message (the buffers are views into that message)
        frame_stats.payload_bytes_copied += copied
    except struct.error as exc:
        raise TransportError(f"corrupt framed message header: {exc}") from exc
    return pickle.loads(pkl, buffers=buffers)
