"""Dynamic sanitizer (STMSAN): lock order, kernel guard, tombstones.

The sanitizer *records* findings rather than raising (so instrumented runs
finish their workload), except for the two violations that cannot be
deferred: re-acquiring a non-reentrant lock (real deadlock) and touching a
reclaimed payload's tombstone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis import sanitizer
from repro.core.channel_state import ChannelKernel
from repro.errors import StmSanError

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture
def stmsan():
    """Enable the sanitizer for one test, with clean state on both sides."""
    sanitizer.enable()
    sanitizer.reset()
    try:
        yield sanitizer
    finally:
        sanitizer.disable()
        sanitizer.reset()


@pytest.mark.skipif(
    os.environ.get("STMSAN", "") not in ("", "0"),
    reason="this run enables the sanitizer via STMSAN",
)
def test_off_by_default_returns_plain_locks():
    assert not sanitizer.enabled()
    lock = sanitizer.san_lock("X")
    assert not isinstance(lock, sanitizer.SanLock)


def test_enabled_returns_sanlock(stmsan):
    lock = sanitizer.san_lock("X")
    assert isinstance(lock, sanitizer.SanLock)
    with lock:
        assert lock.held_by_current()
    assert not lock.held_by_current()


def test_lock_order_inversion_recorded(stmsan):
    a, b = sanitizer.SanLock("A"), sanitizer.SanLock("B")
    with a:
        with b:
            pass

    def inverted():
        with b:
            with a:
                pass

    t = threading.Thread(target=inverted)
    t.start()
    t.join()
    found = sanitizer.findings()
    assert [f.rule_id for f in found] == ["STM301"]
    assert "inversion" in found[0].message


def test_consistent_order_is_silent(stmsan):
    a, b = sanitizer.SanLock("A"), sanitizer.SanLock("B")
    for _ in range(3):
        with a:
            with b:
                pass
    assert sanitizer.findings() == []


def test_reentrant_acquire_raises(stmsan):
    lock = sanitizer.SanLock("R")
    with lock:
        with pytest.raises(StmSanError):
            lock.acquire()
    # the lock is still usable afterwards
    with lock:
        pass
    assert [f.rule_id for f in sanitizer.findings()] == ["STM301"]


def test_kernel_mutation_without_lock_recorded(stmsan):
    kernel = ChannelKernel(7)
    lock = sanitizer.SanLock("LocalChannel.lock")
    sanitizer.guard_kernel(kernel, lock)
    kernel.attach_output(1)  # mutation without the owning lock
    with lock:
        kernel.attach_input(2, 0)  # properly locked: silent
    found = sanitizer.findings()
    assert [f.rule_id for f in found] == ["STM302"]
    assert "attach_output" in found[0].message


def test_tombstone_after_refcount_reclaim(stmsan):
    kernel = ChannelKernel(8)
    lock = sanitizer.SanLock("LocalChannel.lock")
    sanitizer.guard_kernel(kernel, lock)
    with lock:
        kernel.attach_output(1)
        kernel.attach_input(2, 0)
        kernel.put(1, 5, b"payload", size=7, refcount=1)
        record = kernel.items.get(5)
        kernel.consume(2, 5)  # refcount hits zero -> eager reclaim
    assert len(kernel) == 0
    assert isinstance(record.payload, sanitizer.Tombstone)
    with pytest.raises(StmSanError) as exc:
        record.payload.pixels
    assert exc.value.stack  # the reclaiming stack rides along
    assert any(f.rule_id == "STM303" for f in sanitizer.findings())


def test_gc_sweep_releases_zero_copy_views(stmsan):
    kernel = ChannelKernel(9)
    lock = sanitizer.SanLock("LocalChannel.lock")
    sanitizer.guard_kernel(kernel, lock)
    view = memoryview(bytearray(b"framing-payload"))
    with lock:
        kernel.attach_output(1)
        kernel.put(1, 3, view, size=15)
        assert kernel.collect_below(10) == [3]
    # every alias of the zero-copy buffer is dead, not just the record
    with pytest.raises(ValueError):
        view.tobytes()


def test_open_items_are_never_poisoned(stmsan):
    """A reader holding an item open (e.g. a get reply in flight) keeps a
    legitimate reference; reclaim triggered by *another* connection must not
    poison the payload out from under it."""
    kernel = ChannelKernel(10)
    lock = sanitizer.SanLock("LocalChannel.lock")
    sanitizer.guard_kernel(kernel, lock)
    with lock:
        kernel.attach_output(1)
        kernel.attach_input(2, 0)
        kernel.attach_input(3, 0)
        kernel.put(1, 5, b"shared", size=6, refcount=1)
        result = kernel.get(2, 5)       # conn 2 holds ts=5 open
        kernel.consume(3, 5)            # conn 3 drives refcount to zero
    assert result.payload == b"shared"  # untouched, not a tombstone
    assert sanitizer.findings() == []


def test_kiosk_smoke_pipeline_zero_dynamic_findings(stmsan):
    """Acceptance: the kiosk pipeline runs clean under the sanitizer."""
    from repro.kiosk.procfleet import FleetConfig, run_fleet
    from repro.runtime import Cluster

    with Cluster(n_spaces=2, gc_period=0.02) as cluster:
        result = run_fleet(
            cluster,
            FleetConfig(n_frames=12, digitizer_space=0, tracker_space=1,
                        hifi_space=1, frame_channel_capacity=None),
        )
    assert result is not None
    findings = sanitizer.findings()
    assert findings == [], "\n".join(f.render() for f in findings)


def test_stmsan_env_var_enables_at_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["STMSAN"] = "1"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.analysis import sanitizer; "
            "from repro.runtime import Cluster\n"
            "assert sanitizer.enabled()\n"
            "with Cluster(n_spaces=1) as c:\n"
            "    chan = c.space(0)._channels if False else None\n"
            "print('ok')",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ok" in proc.stdout
