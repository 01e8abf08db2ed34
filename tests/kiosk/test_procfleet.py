"""The spawn-picklable kiosk fleet, on both runtimes.

The fleet must produce the *same* tracking results whether its stages share
a heap (thread runtime) or nothing (process runtime) — STM channels are the
only coupling, so the runtimes cannot diverge semantically.
"""

from repro.kiosk.procfleet import FleetConfig, run_fleet
from repro.runtime import Cluster, ProcCluster


class TestFleet:
    def test_fleet_on_thread_runtime(self):
        config = FleetConfig(n_frames=10)
        with Cluster(n_spaces=3, gc_period=0.05) as cluster:
            result = run_fleet(cluster, config)
        assert result.frames_tracked == 10
        assert result.frames_detected > 0
        assert len(result.decisions) == 10
        assert result.mean_tracking_error < 5.0

    def test_fleet_on_process_runtime_matches(self):
        config = FleetConfig(n_frames=10)
        with Cluster(n_spaces=3, gc_period=0.05) as cluster:
            threads = run_fleet(cluster, config)
        with ProcCluster(n_spaces=3, gc_period=0.05) as cluster:
            procs = run_fleet(cluster, config)
        assert procs.frames_tracked == threads.frames_tracked
        assert procs.frames_detected == threads.frames_detected
        assert procs.mean_tracking_error == threads.mean_tracking_error
        assert [d.action for d in procs.decisions] == [
            d.action for d in threads.decisions
        ]
