"""End-to-end conformance: one kiosk fleet program on every runtime driver.

The Fig. 2 stages (digitizer -> blob tracker -> decision/GUI) are written
once in ``repro.kiosk.procfleet`` and launched by four drivers: threads and
processes (``run_fleet``), asyncio (``run_aio_fleet``) and the simulator
(``run_sim_fleet``).  They run real trackers on real synthetic pixels, so
the TrackRecord and DecisionRecord streams fingerprint the whole runtime:
if a driver delivered a different frame, dropped an item or mis-sequenced
a timestamp, a stream would change.  Every driver must deliver streams
equal to the thread runtime's, on three configs whose streams differ.
"""

from __future__ import annotations

import asyncio
import gc
import pickle
import time

import pytest

from repro.errors import StampedeError
from repro.kiosk import procfleet
from repro.kiosk.aiofleet import run_aio_fleet
from repro.kiosk.blob_tracker import BlobTracker
from repro.kiosk.decision import DecisionModule
from repro.kiosk.frames import SyntheticScene
from repro.kiosk.procfleet import FleetConfig, FleetStageError, run_fleet
from repro.kiosk.simfleet import run_sim_fleet
from repro.runtime import Cluster, ProcCluster
from repro.runtime.aio import AioCluster
from repro.runtime.threads import current_thread

pytestmark = pytest.mark.conformance

N_FRAMES = 10

#: Three configs whose record streams differ pairwise ("noisy" finds 114
#: regions in 10 frames, the default 10).  Varying the scene seed alone
#: does not do that: at the default threshold seeds 1999, 7 and 11 give
#: equal records.
CONFIGS = {
    "default": FleetConfig(n_frames=N_FRAMES),
    "sensitive": FleetConfig(
        n_frames=N_FRAMES, threshold=8, min_area=4, noise_sigma=4, scene_seed=3
    ),
    "noisy": FleetConfig(
        n_frames=N_FRAMES, threshold=10, min_area=2, noise_sigma=6, scene_seed=5
    ),
}


def run_threads(config):
    with Cluster(n_spaces=3, gc_period=0.05) as cluster:
        return run_fleet(cluster, config)


def run_procs(config):
    with ProcCluster(n_spaces=3, gc_period=0.05) as cluster:
        return run_fleet(cluster, config)


def run_aio(config):
    async def main():
        async with AioCluster(n_spaces=3, gc_period=0.05) as cluster:
            return await run_aio_fleet(cluster, config)

    return asyncio.run(main())


DRIVERS = {"threads": run_threads, "aio": run_aio, "sim": run_sim_fleet}


@pytest.fixture(scope="module")
def reference():
    """The thread runtime's fleet output per config, shared by every comparison."""
    return {name: run_threads(config) for name, config in CONFIGS.items()}


def assert_identical(result, reference):
    assert result.records == reference.records
    assert result.decisions == reference.decisions
    assert result.transcript == reference.transcript
    assert result.frames_tracked == reference.frames_tracked
    assert result.frames_detected == reference.frames_detected
    assert result.mean_tracking_error == reference.mean_tracking_error


def test_thread_fleet_is_sane(reference):
    result = reference["default"]
    assert result.frames_tracked == len(result.records) == N_FRAMES
    assert [record.timestamp for record in result.records] == list(range(N_FRAMES))
    assert result.frames_detected > 0
    assert len(result.decisions) == N_FRAMES
    assert result.mean_tracking_error < 5.0


def test_configs_give_pairwise_different_streams(reference):
    streams = [result.records for result in reference.values()]
    for i, left in enumerate(streams):
        for right in streams[i + 1:]:
            assert left != right
    assert sum(len(r.regions) for r in reference["noisy"].records) > 100


def test_aio_fleet_matches_thread_fleet(reference):
    for name, config in CONFIGS.items():
        assert_identical(run_aio(config), reference[name])


def test_sim_fleet_matches_thread_fleet(reference):
    for name, config in CONFIGS.items():
        result = run_sim_fleet(config)
        assert_identical(result, reference[name])
        # The frames' pixel bytes and the records' nominal 256 B are what
        # the simulator charges; the simulated time pins that.
        assert result.wall_seconds == pytest.approx(0.0508812, rel=1e-6)


def test_proc_fleet_matches_thread_fleet(reference):
    for name, config in CONFIGS.items():
        assert_identical(run_procs(config), reference[name])


def test_config_pickles():
    config = FleetConfig(n_frames=3)
    assert pickle.loads(pickle.dumps(config)) == config


def test_blocking_driver_refuses_a_stage_that_suspends():
    async def suspends():
        await asyncio.sleep(0)

    with pytest.raises(StampedeError, match="suspends on the blocking facade"):
        procfleet._drive(suspends())


def test_aio_fleet_keeps_the_callers_adopted_task():
    async def main():
        async with AioCluster(n_spaces=3, gc_period=0.05) as cluster:
            me = cluster.space(0).adopt_current_task()
            await run_aio_fleet(cluster, FleetConfig(n_frames=3))
            kept = me.alive and current_thread() is me
            me.exit()
            return kept

    assert asyncio.run(main())


def test_thread_fleet_keeps_the_callers_adopted_thread():
    with Cluster(n_spaces=3, gc_period=0.05) as cluster:
        me = cluster.space(0).adopt_current_thread()
        run_fleet(cluster, FleetConfig(n_frames=3))
        kept = me.alive and current_thread() is me
        me.exit()
    assert kept


def _raise_at_frame_3(method):
    def patched(self, timestamp, *args):
        if timestamp == 3:
            raise ValueError("injected fault at frame 3")
        return method(self, timestamp, *args)

    return patched


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize(
    "owner, method, stage",
    [
        (SyntheticScene, "render", "fleet_digitizer"),
        (BlobTracker, "analyze", "fleet_tracker"),
        (DecisionModule, "decide", "fleet_decision"),
    ],
)
def test_failed_stage_ends_the_run_and_is_named(
    monkeypatch, driver, owner, method, stage
):
    monkeypatch.setattr(owner, method, _raise_at_frame_3(getattr(owner, method)))
    t0 = time.monotonic()
    with pytest.raises(FleetStageError, match=f"stage {stage} failed"):
        DRIVERS[driver](CONFIGS["default"])
    assert time.monotonic() - t0 < 10.0
    gc.collect()  # a stage left suspended mid-teardown would report here
