"""What ``benchmarks/spine`` calls in ``src/`` by name.

The spine measures the program from outside: ``layers.py`` calls public
functions with fixed argument shapes and ``trace.py`` wraps the names in its
``BOUNDARIES`` table where they are looked up.  A perf change may not edit
the spine, so a ``src/`` change that moves one of these breaks the benchmark
pipeline, not a test — unless it is pinned here.
"""

from __future__ import annotations

import inspect
import os
import pathlib
import socket
import sys
import threading

import numpy as np
import pytest

from repro.core.payload import CopyPolicy, decode, encode
from repro.kiosk.records import VideoFrame
from repro.runtime.address_space import AddressSpace
from repro.runtime.messages import PutReq, RpcRequest
from repro.transport.clf import ClusterTopology
from repro.transport.serialization import (
    Frame,
    decode_message,
    encode_message_sg,
    frame_stats,
)
from repro.transport.sockets import SocketEndpoint

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture
def spine_trace():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        from spine import trace
        yield trace
    finally:
        sys.path.remove(str(BENCHMARKS))


def _frame_value() -> VideoFrame:
    return VideoFrame(0, np.full((240, 320, 3), 7, dtype=np.uint8))


def test_two_argument_encode_of_a_frame_is_bytes_and_its_length():
    """``layers.transport_layer`` wraps ``encode(...)[0]`` in ``Frame`` and
    takes ``len`` of it; ``layers.payload_layer`` feeds it to ``decode``."""
    value = _frame_value()
    stored, size = encode(value, CopyPolicy.SERIALIZE)
    assert stored.__class__ is bytes and size == len(stored)
    assert (decode(stored, CopyPolicy.SERIALIZE).pixels == value.pixels).all()


def test_a_framed_put_request_round_trips_at_two_copies_per_byte():
    """``layers._put_message``: ``Frame(bytes)`` inside ``PutReq`` inside
    ``RpcRequest``, and the ``transport.serialization.copies_per_byte`` row."""
    payload = encode(_frame_value(), CopyPolicy.SERIALIZE)[0]
    message = RpcRequest(7, 0, PutReq(1, 2, 3, Frame(payload), len(payload), 1, True))
    before = frame_stats.snapshot()
    segments = encode_message_sg(message)
    back = decode_message(b"".join(bytes(memoryview(s)) for s in segments))
    after = frame_stats.snapshot()
    assert back.call_id == 7 and back.body.timestamp == 3
    assert bytes(back.body.payload.data) == payload
    copied = after["payload_bytes_copied"] - before["payload_bytes_copied"]
    framed = after["payload_bytes_framed"] - before["payload_bytes_framed"]
    assert framed == len(payload) and copied / framed == 2.0


def test_address_space_put_keeps_its_positional_order():
    """``layers``: ``space.put(handle, out_id, ts, stored, size, refcount=1)``;
    ``trace`` reads the timestamp of put/get/consume as positional arg 3."""
    assert list(inspect.signature(AddressSpace.put).parameters)[:7] == [
        "self", "handle", "conn_id", "timestamp", "payload", "size", "refcount"]
    for op in ("get", "consume"):
        assert list(inspect.signature(getattr(AddressSpace, op)).parameters)[:3] == [
            "self", "handle", "conn_id"]


def test_the_bare_inter_node_socket_pair_is_tcp_with_a_port_directory():
    """``layers.transport_layer``'s ``transport.sockets.oneway_us`` rows:
    ``SocketEndpoint(i, ClusterTopology(2, spaces_per_node=1), session=...)``,
    ``{0: ep0.port, 1: ep1.port}`` to ``connect_mesh`` (space 0 dialling from
    a second thread), then ``send`` of a framed put and ``recv(timeout=...)``
    — over TCP, as before same-node pairs moved to Unix sockets."""
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
        assert ep0._peers[1].sock.family == socket.AF_INET
        payload = encode(_frame_value(), CopyPolicy.SERIALIZE)[0]
        message = RpcRequest(7, 0, PutReq(1, 2, 3, Frame(payload), len(payload), 1, True))
        ep0.send(1, encode_message_sg(message))
        src, wire = ep1.recv(timeout=30.0)
        assert src == 0 and decode_message(wire).body.timestamp == 3
    finally:
        ep0.close()
        ep1.close()


def test_every_trace_boundary_resolves_as_install_resolves_it(spine_trace):
    missing = []
    for boundary in spine_trace.BOUNDARIES:
        target = spine_trace._resolve(boundary.owner)
        if boundary.attr not in target.__dict__:
            missing.append(f"{boundary.owner}.{boundary.attr}")
    assert missing == []
