"""Unit + differential tests for the image-differencing blob tracker.

The oracle is ``_reference_blob_tracker``: the per-pixel two-pass labeller
the run-based kernel replaced.  Labels must be ``array_equal`` to it,
numbering included, and ``TrackRecord``s ``==`` (no tolerance: the run kernel
sums the same integers and averages the same float32 values in the same
order).
"""

import sys

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kiosk.blob_tracker import BlobTracker, connected_components
from repro.kiosk.frames import Actor, SyntheticScene
from tests.kiosk import _reference_blob_tracker as reference


def _mask(rows):
    """A mask from strings of ``#`` (set) and ``.`` (clear)."""
    return np.array([[c == "#" for c in row] for row in rows], dtype=bool)


class TestConnectedComponents:
    def test_empty_mask(self):
        labels, n = connected_components(np.zeros((5, 5), dtype=bool))
        assert n == 0
        assert not labels.any()

    def test_single_blob(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[2:4, 2:5] = True
        labels, n = connected_components(mask)
        assert n == 1
        assert (labels > 0).sum() == 6

    def test_two_separate_blobs(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 0] = True
        mask[5, 5] = True
        labels, n = connected_components(mask)
        assert n == 2
        assert labels[0, 0] != labels[5, 5]

    def test_diagonal_is_not_connected(self):
        """4-connectivity: diagonal touch is two components."""
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        _, n = connected_components(mask)
        assert n == 2

    def test_u_shape_merges_via_union_find(self):
        mask = np.array(
            [
                [1, 0, 1],
                [1, 0, 1],
                [1, 1, 1],
            ],
            dtype=bool,
        )
        labels, n = connected_components(mask)
        assert n == 1
        assert len(np.unique(labels[mask])) == 1

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            connected_components(np.zeros((3, 3), dtype=np.uint8))

    @given(
        hnp.arrays(dtype=bool, shape=st.tuples(st.integers(1, 24),
                                               st.integers(1, 24)))
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy(self, mask):
        """Differential test against scipy.ndimage.label (4-connectivity)."""
        ours, n_ours = connected_components(mask)
        structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        theirs, n_theirs = ndi.label(mask, structure=structure)
        assert n_ours == n_theirs
        # label values may differ; the partition must be identical
        for component in range(1, n_ours + 1):
            cells = ours == component
            their_labels = np.unique(theirs[cells])
            assert len(their_labels) == 1
            assert (theirs == their_labels[0]).sum() == cells.sum()

    @given(
        shape=st.tuples(st.integers(1, 48), st.integers(1, 64)),
        density=st.sampled_from([0.03, 0.2, 0.5, 0.8, 0.97]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_labels_equal_the_oracle_numbering_included(self, shape, density, seed):
        mask = np.random.default_rng(seed).random(shape) < density
        ours, n_ours = connected_components(mask)
        theirs, n_theirs = reference.connected_components(mask)
        assert n_ours == n_theirs
        assert ours.dtype == theirs.dtype == np.int32
        np.testing.assert_array_equal(ours, theirs)

    EDGE_MASKS = {
        "all_true": (["####"] * 3, 1),
        "all_false": (["...."] * 3, 0),
        "single_pixel": (["...", ".#.", "..."], 1),
        "single_row": (["##.#.###"], 3),
        "single_column": (["#", "#", ".", "#"], 2),
        # the flattened buffer must not join a run ending at the last column
        # to one starting at column 0 of the next row
        "row_wrap": (["..##", "##.."], 2),
        "row_wrap_twice": (["..##", "##..", "...#", "#..."], 4),
        "u_shape": (["#..#", "#..#", "####"], 1),
        # the teeth get five provisional roots that only the last row joins
        "comb": (["#.#.#.#.#", "#.#.#.#.#", "#########"], 1),
        "comb_upside_down": (["#########", "#.#.#.#.#", "#.#.#.#.#"], 1),
        # the right arm is met first in raster order, the left arm owns the root
        "late_merge_renumbers": ([".#..#", "##..#", ".#.##", ".####", "#...."], 2),
        "both_borders": (["#..#", "....", "####", "#..#"], 3),
        "staircase": (["#...", "##..", ".##.", "..##"], 1),
    }

    @pytest.mark.parametrize("name", sorted(EDGE_MASKS))
    def test_edge_masks(self, name):
        rows, expected = self.EDGE_MASKS[name]
        mask = _mask(rows)
        ours, n = connected_components(mask)
        theirs, n_ref = reference.connected_components(mask)
        assert n == n_ref == expected
        np.testing.assert_array_equal(ours, theirs)
        np.testing.assert_array_equal(ours > 0, mask)

    def test_components_are_numbered_by_first_pixel_in_raster_order(self):
        mask = _mask(["..#.#", "#.#..", "#...#"])
        labels, n = connected_components(mask)
        assert n == 4
        firsts = [tuple(np.argwhere(labels == k)[0]) for k in range(1, n + 1)]
        assert firsts == sorted(firsts) == [(0, 2), (0, 4), (1, 0), (2, 4)]


def _spine_like_scene(seed):
    """Two customers who enter, overlap in time and leave inside 64 frames."""
    actors = [
        Actor(color=(200, 40, 40), start=(60.0, 120.0), velocity=(2.0, 0.7),
              enters_at=6, leaves_at=40),
        Actor(color=(40, 60, 210), start=(250.0, 90.0), velocity=(-1.5, 1.1),
              enters_at=22, leaves_at=54),
    ]
    return SyntheticScene(actors=actors, seed=seed)


class TestRecordsEqualTheOracle:
    """``TrackRecord ==``: regions and scores, bit for bit."""

    @staticmethod
    def _assert_same(background, frames, laps=1, **kwargs):
        ours = BlobTracker(background, **kwargs)
        theirs = reference.BlobTracker(background, **kwargs)
        regions = 0
        for lap in range(laps):
            for t, frame in enumerate(frames):
                ts = lap * len(frames) + t
                record = ours.analyze(ts, frame)
                assert record == theirs.analyze(ts, frame), (ts, kwargs)
                regions += len(record.regions)
        np.testing.assert_array_equal(ours._background, theirs._background)
        assert ours.frames_processed == theirs.frames_processed
        return regions

    @pytest.fixture(scope="class")
    def loop(self):
        scene = _spine_like_scene(11)
        return scene.background, [scene.render(t) for t in range(64)]

    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_two_actor_scene(self, seed):
        scene = _spine_like_scene(seed)
        frames = [scene.render(t) for t in range(64)]
        assert self._assert_same(scene.background, frames) >= 64

    def test_many_small_components(self, loop):
        """A threshold inside the noise: hundreds of specks, most kept."""
        background, frames = loop
        regions = self._assert_same(background, frames[20:23],
                                    threshold=2, min_area=2)
        assert regions > 3 * 500

    def test_adapting_background_over_two_laps(self, loop):
        """After frame 0 the background is no longer integer-valued, so the
        float32 association of the channel mean and of the update shows."""
        background, frames = loop
        assert self._assert_same(background, frames, laps=2, adapt=0.05) > 0

    def test_non_default_shape(self):
        rng = np.random.default_rng(4)
        background = rng.integers(90, 130, size=(40, 40, 3), dtype=np.uint8)
        frames = []
        for t in range(12):
            frame = background.astype(np.int16)
            frame[5 + t:17 + t, 3:12] = (220, 30, 30)
            frame[28:36, 38 - 2 * t:40] = (20, 40, 230)  # touches the right border
            frame += (rng.standard_normal(frame.shape) * 2).astype(np.int16)
            frames.append(np.clip(frame, 0, 255).astype(np.uint8))
        assert self._assert_same(background, frames, min_area=10) >= 12
        assert self._assert_same(background, frames, min_area=10, adapt=0.2) >= 12


def _calls_of(fn):
    """Python and C function calls made while ``fn`` runs (no clock)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


class TestBlobTracker:
    @pytest.fixture(scope="class")
    def scene(self):
        return SyntheticScene(seed=3)

    def test_work_is_per_run_not_per_row_or_pixel(self, scene):
        """A counted cost pin: the per-pixel labeller made 737 calls on an
        empty 240 x 320 frame (one pass per row) and 2 400-3 900 on these
        two-blob frames (one ``np.unique`` per run, one image scan per
        component); the run kernel makes 19 and ~160."""
        tracker = BlobTracker(scene.background)
        assert not tracker.analyze(0, scene.background).detected
        assert _calls_of(lambda: tracker.analyze(1, scene.background)) < 60
        frame = scene.render(50)
        assert len(tracker.analyze(2, frame).regions) == 2
        assert _calls_of(lambda: tracker.analyze(3, frame)) < 1_500

    @pytest.mark.parametrize(
        "shape", [(1, 1, 3), (320, 240, 3), (240, 320), (240, 320, 1)]
    )
    def test_wrongly_shaped_frame_is_rejected(self, scene, shape):
        """Every one of these broadcasts against a (240, 320, 3) background,
        or would fill an ``out=`` buffer without complaint."""
        tracker = BlobTracker(scene.background)
        with pytest.raises(ValueError) as excinfo:
            tracker.analyze(0, np.zeros(shape, dtype=np.uint8))
        assert str(shape) in str(excinfo.value)
        assert "(240, 320, 3)" in str(excinfo.value)
        assert tracker.frames_processed == 0

    def test_detects_actor(self, scene):
        tracker = BlobTracker(scene.background)
        record = tracker.analyze(0, scene.render(0))
        assert record.detected
        assert record.tracker == "lofi"
        (gx, gy) = scene.ground_truth(0)[0]
        best, score = record.best()
        assert abs(best.cx - gx) < 4 and abs(best.cy - gy) < 4
        assert 0 < score <= 1

    def test_empty_scene_no_detection(self, scene):
        empty = SyntheticScene(actors=[], seed=3)
        tracker = BlobTracker(empty.background)
        record = tracker.analyze(0, empty.render(0))
        assert not record.detected
        assert record.best() is None

    def test_two_actors_two_regions(self, scene):
        record = BlobTracker(scene.background).analyze(50, scene.render(50))
        assert len(record.regions) == 2

    def test_min_area_filters_noise(self, scene):
        frame = scene.render(0)
        huge_min = BlobTracker(scene.background, min_area=10_000)
        assert not huge_min.analyze(0, frame).detected

    def test_region_geometry_consistent(self, scene):
        record = BlobTracker(scene.background).analyze(0, scene.render(0))
        for region in record.regions:
            assert region.x0 < region.x1 and region.y0 < region.y1
            assert region.contains(region.cx, region.cy)
            assert region.area <= region.width * region.height

    def test_background_adaptation(self):
        """With adaptation on, a permanent change fades into the background."""
        base = np.full((40, 40, 3), 100, dtype=np.uint8)
        changed = base.copy()
        changed[10:30, 10:30] = 180
        tracker = BlobTracker(base, threshold=20, min_area=10, adapt=0.5)
        assert tracker.analyze(0, changed).detected
        # the changed region is 'active', so it does NOT adapt; but change
        # the scene back and the quiet pixels converge again
        for t in range(1, 4):
            tracker.analyze(t, base)
        record = tracker.analyze(5, base)
        assert not record.detected

    def test_frames_processed_counter(self, scene):
        tracker = BlobTracker(scene.background)
        for t in range(3):
            tracker.analyze(t, scene.render(t))
        assert tracker.frames_processed == 3
