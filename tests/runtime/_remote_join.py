"""A timed-out remote join, checked the same way on every driver.

``tests/runtime/test_cluster.py`` runs it on threads, ``tests/procs`` on
child processes, which resolve ``_sleeper`` by importing this module.
"""

from __future__ import annotations

import time

import pytest

from repro.runtime.messages import RpcReply


def _sleeper(seconds: float) -> None:
    """Module-level so it pickles for cross-space spawn."""
    time.sleep(seconds)


def assert_join_cancel_is_withdrawn(cluster, monkeypatch, runs_s: float = 1.0):
    """A join of a thread that runs ``runs_s`` on space 1, timed out after
    50 ms: it raises ``TimeoutError`` well inside the cancel grace period,
    the one reply to it is that error, and a second join still returns
    once the thread exits."""
    space = cluster.space(0)
    replies: list[RpcReply] = []
    complete = space._complete_call

    def recording(reply):
        replies.append(reply)
        complete(reply)

    monkeypatch.setattr(space, "_complete_call", recording)
    started = time.monotonic()
    handle = space.spawn(_sleeper, (runs_s,), on_space=1)
    with pytest.raises(TimeoutError):
        handle.join(timeout=0.05)
    assert time.monotonic() - started < 0.5
    (cancelled,) = [r for r in replies if isinstance(r.error, TimeoutError)]
    handle.join(timeout=runs_s + 10)
    assert time.monotonic() - started >= runs_s
    # the exit's replies follow the cancel's on the same stream, in order
    assert [r.call_id for r in replies].count(cancelled.call_id) == 1
