"""Tests for gesture recognition over a sliding STM window (paper §1)."""

import math

import pytest

from repro.core import INFINITY, STM_OLDEST_UNSEEN
from repro.kiosk.gesture import GestureRecognizer, classify_trajectory
from repro.kiosk.procfleet import (
    GESTURE_CHANNEL,
    TRACK_CHANNEL,
    FleetConfig,
    _spawned_stage,
    fleet_gesture,
)
from repro.kiosk.records import Region, TrackRecord
from repro.runtime import Cluster
from repro.stm import STM


def track(ts, x, y):
    region = Region(int(x) - 5, int(y) - 5, int(x) + 5, int(y) + 5,
                    float(x), float(y), 100)
    return TrackRecord(timestamp=ts, tracker="lofi", regions=[region],
                       scores=[0.9])


class TestClassifier:
    def test_wave(self):
        xs = [100, 110, 100, 110, 100, 110, 100]
        ys = [50.0] * 7
        label, conf = classify_trajectory(xs, ys)
        assert label == "wave"
        assert conf > 0.5

    def test_walk(self):
        xs = [100 + 4 * i for i in range(8)]
        ys = [50 + 1 * i for i in range(8)]
        label, conf = classify_trajectory(xs, ys)
        assert label == "walk"
        assert conf > 0.7

    def test_still(self):
        xs = [100 + 0.2 * math.sin(i) for i in range(8)]
        ys = [50.0] * 8
        label, conf = classify_trajectory(xs, ys)
        assert label == "still"

    def test_too_short_is_still(self):
        assert classify_trajectory([1, 2], [1, 2])[0] == "still"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            classify_trajectory([1, 2, 3], [1, 2])

    def test_jittery_walk_is_not_wave(self):
        """Small oscillation on top of strong drift stays a walk."""
        xs = [100 + 5 * i + (0.3 if i % 2 else -0.3) for i in range(10)]
        ys = [50.0] * 10
        assert classify_trajectory(xs, ys)[0] == "walk"


class TestRecognizer:
    def test_needs_min_records(self):
        rec = GestureRecognizer(window=8, min_records=5)
        for ts in range(4):
            assert rec.feed(track(ts, 100 + ts, 50)) is None
        assert rec.feed(track(4, 104, 50)) is not None

    def test_wave_detected_in_stream(self):
        rec = GestureRecognizer(window=8, min_records=6)
        events = []
        for ts in range(12):
            x = 100 + (8 if ts % 2 else 0)
            event = rec.feed(track(ts, x, 50))
            if event:
                events.append(event)
        assert any(e.gesture == "wave" for e in events)

    def test_window_slides(self):
        rec = GestureRecognizer(window=5, min_records=3)
        for ts in range(10):
            rec.feed(track(ts, 100, 50))
        assert rec.trailing_edge == 5  # only the last window retained

    def test_missing_detections_tolerated(self):
        rec = GestureRecognizer(window=8, min_records=3)
        rec.feed(track(0, 100, 50))
        empty = TrackRecord(timestamp=1, tracker="lofi")  # no region
        rec.feed(empty)
        rec.feed(track(2, 104, 50))
        event = rec.feed(track(3, 108, 50))
        assert event is not None

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            GestureRecognizer(window=2)


class TestGestureStageOnSTM:
    def test_stage_recognizes_a_wave_over_stm(self):
        """The kiosk's gesture stage: one item per track column, the
        gesture ending there or None, each inheriting its timestamp."""
        n = 20
        with Cluster(n_spaces=1, gc_period=None) as cluster:
            boot = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            out = stm.create_channel(TRACK_CHANNEL).attach_output()
            inp = stm.create_channel(GESTURE_CHANNEL).attach_input()
            handle = cluster.space(0).spawn(
                _spawned_stage, (fleet_gesture, FleetConfig(n_frames=n)),
                virtual_time=0,
            )
            for ts in range(n):
                boot.set_virtual_time(ts)
                x = 100 + (6 if ts % 2 else 0)  # waving
                out.put(ts, track(ts, x, 50))
            boot.set_virtual_time(n)
            out.put(n, None)
            items = [inp.get(STM_OLDEST_UNSEEN) for _ in range(n + 1)]
            handle.join(30)
            boot.set_virtual_time(INFINITY)
            out.detach()
            inp.detach()
            boot.exit()
        assert [item.timestamp for item in items] == list(range(n + 1))
        events = [(item.timestamp, item.value) for item in items if item.value]
        assert all(event.timestamp == ts for ts, event in events)
        assert any(event.gesture == "wave" for _, event in events)

    def test_stage_keeps_window_alive_in_channel(self):
        """While the stage is mid-stream, items inside its window survive
        GC; items behind the trailing edge are reclaimed."""
        import threading
        import time

        with Cluster(n_spaces=1, gc_period=0.01) as cluster:
            boot = cluster.space(0).adopt_current_thread(virtual_time=0)
            stm = STM(cluster.space(0))
            chan = stm.create_channel("tracks2")
            out = chan.attach_output()
            window = 6
            paused = threading.Event()

            def stage():
                inp = chan.attach_input()
                recognizer = GestureRecognizer(window=window, min_records=4)
                from repro.core import STM_OLDEST_UNSEEN
                from repro.runtime import current_thread

                current_thread().set_virtual_time(INFINITY)
                for _ in range(12):
                    item = inp.get(STM_OLDEST_UNSEEN)
                    recognizer.feed(item.value)
                    edge = recognizer.trailing_edge
                    if edge is not None and edge > 0:
                        inp.consume_until(edge - 1)
                paused.set()
                time.sleep(0.2)  # hold the window while we inspect
                inp.consume_until(10**6)
                inp.detach()

            handle = cluster.space(0).spawn(stage, virtual_time=0)
            for ts in range(12):
                boot.set_virtual_time(ts)
                out.put(ts, track(ts, 100 + ts, 50))
            boot.set_virtual_time(INFINITY)
            assert paused.wait(20)
            time.sleep(0.05)  # several GC rounds
            kernel = cluster.space(0)._channel(chan.channel_id).kernel
            stored = kernel.timestamps()
            # the last `window` columns are alive; older ones are collected
            assert stored and min(stored) >= 12 - window
            handle.join(20)
            boot.exit()
