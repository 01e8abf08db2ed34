"""End-to-end tests of the Smart Kiosk on STM (paper Figs. 2-7), paced and
on an unbounded frame channel, so the low-fi tracker may skip frames."""

import pytest

from repro.kiosk import FleetConfig, run_fleet
from repro.kiosk.procfleet import VIDEO_CHANNEL
from repro.runtime import Cluster

ONE_SPACE = dict(digitizer_space=0, tracker_space=0, hifi_space=0)


def paced(n_frames, **knobs):
    knobs = {**ONE_SPACE, "frame_channel_capacity": None, **knobs}
    return FleetConfig(n_frames=n_frames, fps=200.0, scene_seed=11, **knobs)


def greetings(result):
    return sum(event.action == "greet" for event in result.transcript)


@pytest.fixture(scope="module")
def single_space_result():
    with Cluster(n_spaces=1, gc_period=0.02) as cluster:
        yield run_fleet(cluster, paced(50))


class TestSingleSpace:
    def test_all_frames_digitized(self, single_space_result):
        assert single_space_result.frames_digitized == 50

    def test_lofi_analyzed_most_frames(self, single_space_result):
        r = single_space_result
        assert r.frames_tracked >= 25
        assert r.frames_tracked + r.frames_skipped <= 50

    def test_records_inherit_frame_timestamps(self, single_space_result):
        for record in single_space_result.records:
            assert 0 <= record.timestamp < 50

    def test_customer_greeted(self, single_space_result):
        assert greetings(single_space_result) >= 1

    def test_decisions_cover_analyzed_frames(self, single_space_result):
        r = single_space_result
        assert len(r.decisions) == r.frames_tracked

    def test_tracking_accuracy(self, single_space_result):
        assert single_space_result.mean_tracking_error < 10.0

    def test_hifi_spawned_dynamically(self, single_space_result):
        r = single_space_result
        assert r.hifi_spawned >= 1
        assert len(r.hifi_records) >= 1

    def test_hifi_is_temporally_sparser_or_equal(self, single_space_result):
        """§3: higher levels become temporally sparser (they start later
        and may drop frames)."""
        r = single_space_result
        assert len(r.hifi_records) <= r.frames_digitized


class TestMultiSpace:
    def test_pipeline_across_three_spaces(self):
        with Cluster(n_spaces=3, gc_period=0.02) as cluster:
            config = paced(
                40, digitizer_space=0, tracker_space=1, hifi_space=1,
            )
            result = run_fleet(cluster, config)
        assert result.frames_digitized == 40
        assert result.frames_tracked >= 15
        assert greetings(result) >= 1
        assert result.mean_tracking_error < 10.0


class TestVariants:
    def test_bounded_frame_channel(self):
        """A small frame channel throttles but must not deadlock (GC frees
        slots as the trackers consume)."""
        with Cluster(n_spaces=1, gc_period=0.01) as cluster:
            result = run_fleet(cluster, paced(30, frame_channel_capacity=4))
        assert result.frames_digitized == 30
        assert result.frames_tracked >= 10

    def test_gc_reclaims_frames_during_run(self):
        with Cluster(n_spaces=1, gc_period=0.01) as cluster:
            result = run_fleet(cluster, paced(40))
            stm_space = cluster.space(0)
            video = [
                ch for ch in stm_space.local_channels()
                if ch.handle.name == VIDEO_CHANNEL
            ][0]
            # after the run, everything is consumable; a final GC round
            # leaves (at most) the sentinel column
            cluster.gc_once()
            assert len(video.kernel) <= 1
        assert result.frames_digitized == 40


class TestMultiModal:
    @pytest.fixture(scope="class")
    def result(self):
        with Cluster(n_spaces=1, gc_period=0.02) as cluster:
            yield run_fleet(cluster, paced(50))  # speech in frames 10-29

    def test_audio_stream_covers_every_frame(self, result):
        assert len(result.audio_records) == 50

    def test_speech_detected_on_schedule(self, result):
        """The detector finds (almost exactly) the scheduled speech burst."""
        assert 15 <= sum(r.speech for r in result.audio_records) <= 22
        speech_ts = {r.timestamp for r in result.audio_records if r.speech}
        assert speech_ts <= set(range(10, 32))  # no far-off false positives

    def test_audio_boosts_decision_confidence(self, result):
        by_ts = {d.timestamp: d for d in result.decisions}
        speaking = [d.confidence for ts, d in by_ts.items() if 12 <= ts < 28]
        silent = [d.confidence for ts, d in by_ts.items() if ts < 8 or ts > 35]
        assert speaking and silent
        assert max(speaking) > max(silent)

    def test_gesture_stage_produces_events(self, result):
        assert result.gestures
        # the synthetic customer walks across the scene
        assert any(e.gesture == "walk" for e in result.gestures)

    def test_gesture_events_inherit_column_timestamps(self, result):
        for event in result.gestures:
            assert 0 <= event.timestamp < 50
