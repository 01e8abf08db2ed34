"""Crash and wedge detection in the process runtime.

A space process that dies must surface as a clean
:class:`~repro.errors.TransportClosedError` in every blocked caller — never
a hang — and a process that is alive but not scheduling (SIGSTOP) must be
caught by the heartbeat timeout.  Both paths funnel into
``ProcCluster._on_space_failure``, which poisons the parent endpoint.
"""

import os
import signal
import threading
import time

import pytest

from repro.errors import TransportClosedError
from repro.runtime.procs import ProcCluster
from repro.stm import STM
from tests.procs import _import_probe


class TestCrashPropagation:
    def test_killed_space_fails_blocked_get(self):
        """SIGKILL mid-blocked-get: the get raises instead of hanging."""
        with ProcCluster(
            n_spaces=2, gc_period=None,
            heartbeat_interval=0.2, heartbeat_timeout=1.0,
        ) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            chan = stm.create_channel("sup.frames", home=1)
            inp = chan.attach_input()
            victim = cluster._procs[1].pid

            killer = threading.Timer(0.3, os.kill, (victim, signal.SIGKILL))
            killer.start()
            t0 = time.monotonic()
            try:
                # Nothing will ever be put: only the crash can end this get,
                # and it must do so within the heartbeat timeout.
                with pytest.raises(TransportClosedError):
                    inp.get(0, timeout=10.0)
                detect_s = time.monotonic() - t0
                assert detect_s < 0.3 + 1.0 + 1.0  # kill delay + timeout + slack
                assert cluster.wait_failed(timeout=5.0)
                with pytest.raises(TransportClosedError):
                    cluster.check_failure()
            finally:
                killer.cancel()
                me.exit()

    def test_wedged_space_trips_heartbeat_timeout(self):
        """SIGSTOP (alive but not scheduling): heartbeats catch it."""
        cluster = ProcCluster(
            n_spaces=2, gc_period=None,
            heartbeat_interval=0.2, heartbeat_timeout=0.8,
        )
        victim = cluster._procs[1].pid
        try:
            time.sleep(0.5)  # let a few heartbeats land first
            os.kill(victim, signal.SIGSTOP)
            t0 = time.monotonic()
            assert cluster.wait_failed(timeout=5.0)
            detect_s = time.monotonic() - t0
            assert detect_s < 0.8 + 1.0  # timeout + supervisor poll slack
            assert "heartbeat" in str(cluster.failure)
        finally:
            os.kill(victim, signal.SIGCONT)  # so shutdown can reap it
            cluster.shutdown()
        with pytest.raises(OSError):
            os.kill(victim, 0)  # reaped: no such process

    def test_failure_poisons_later_calls(self):
        """After a crash, cluster RPC surfaces the failure immediately."""
        with ProcCluster(
            n_spaces=2, gc_period=None,
            heartbeat_interval=0.2, heartbeat_timeout=1.0,
        ) as cluster:
            os.kill(cluster._procs[1].pid, signal.SIGKILL)
            assert cluster.wait_failed(timeout=5.0)
            with pytest.raises(TransportClosedError):
                cluster.endpoint_stats(1)


# A main script whose re-import in a spawned child (as ``__mp_main__``) runs
# CHILD, then builds a two-space cluster and prints how that went.
_STARTUP_SCRIPT = """
import sys, time
if __name__ == "__mp_main__":
    {child}
if __name__ == "__main__":
    from repro.runtime.procs import ProcCluster
    t0 = time.monotonic()
    try:
        ProcCluster(n_spaces=2, gc_period=None{kwargs}).shutdown()
        print("started")
    except Exception as exc:
        print(type(exc).__name__, exc)
    print(time.monotonic() - t0)
"""


def _start_cluster(tmp_path, child: str, kwargs: str = "") -> tuple[str, float]:
    """(outcome line, seconds the constructor took) of one script run."""
    script = tmp_path / "startup_main.py"
    script.write_text(_STARTUP_SCRIPT.format(child=child, kwargs=kwargs))
    done = _import_probe.python(str(script))
    outcome, seconds = done.stdout.strip().splitlines()[-2:]
    return outcome, float(seconds)


class TestStartUp:
    def test_a_child_that_dies_fails_start_up_at_once(self, tmp_path):
        """The rendezvous used to wait out mesh_timeout (35 s) and then
        blame the name service."""
        outcome, seconds = _start_cluster(tmp_path, "sys.exit(3)")
        assert outcome == (
            "TransportError address space 1 process exited with code 3 "
            "during start-up"
        )
        assert seconds < 5.0

    def test_a_slow_child_still_gets_mesh_timeout(self, tmp_path):
        outcome, seconds = _start_cluster(
            tmp_path, "time.sleep(4)", ", mesh_timeout=1.0"
        )
        assert outcome.startswith("TransportError space 0: name service "
                                  "rendezvous failed")
        assert 1.0 <= seconds < 4.0

    def test_a_slow_child_within_mesh_timeout_joins(self, tmp_path):
        outcome, _ = _start_cluster(tmp_path, "time.sleep(1)")
        assert outcome == "started"
