"""Unit + differential tests for the image-differencing blob tracker.

The oracle is ``_reference_blob_tracker``: the per-pixel two-pass labeller
the run-based kernel replaced.  Labels must be ``array_equal`` to it,
numbering included, and ``TrackRecord``s ``==`` (no tolerance: the run kernel
sums the same integers and averages the same float32 values in the same
order).
"""

import sys
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kiosk.blob_tracker import BlobTracker, connected_components
from repro.kiosk.frames import Actor, SyntheticScene
from tests._hypothesis import examples
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


def _outcome(tracker, ts, frame):
    """A record, or the exception class: threshold 0 divides a score by 0."""
    try:
        return tracker.analyze(ts, frame)
    except ZeroDivisionError as exc:
        return type(exc)


def _near(k):
    """``k / 3`` in double, the float32 mean of a channel sum of ``k``, its
    float32 neighbours and doubles a quarter ulp either side: thresholds at
    which float32 rounding, of the mean or of the threshold, decides."""
    third = np.float32(k) / np.float32(3)
    quarter = float(np.spacing(third)) / 4
    return [
        k / 3,
        float(third),
        float(third) - quarter,
        float(third) + quarter,
        float(np.nextafter(third, np.float32(-np.inf))),
        float(np.nextafter(third, np.float32(np.inf))),
    ]


#: 0 passes every difference; at 25 + 1/3 the threshold's own float32
#: rounding decides (a sum of 76 stays quiet); from 255 up no pixel passes.
THRESHOLDS = st.one_of(
    st.sampled_from([0.0, 25.0, 25 + 1 / 3, 255.0]),
    st.integers(0, 3 * 255).flatmap(lambda k: st.sampled_from(_near(k))),
    st.floats(255.0, 1e4),
)


def _even_split(sums):
    """Channel differences summing to ``sums``, at most one apart."""
    d0 = sums // 3
    d1 = (sums - d0) // 2
    return np.stack([d0, d1, sums - d0 - d1], axis=-1)


def _scene(seed, shape, threshold):
    """A uint8 background, three uint8 frames and one int16 frame.  Quiet
    pixels differ from the background by channel sums 0..7; up to three
    rectangular blobs by sums within 2 of ``3 * threshold``, split over the
    channels at random or evenly, and signed to stay in 0..255 where they
    can."""
    rng = np.random.default_rng(seed)
    h, w = shape
    background = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    near = int(np.clip(round(3 * min(threshold, 255.0)), 0, 765))
    frames = []
    for _ in range(3):
        sums = rng.integers(0, 8, size=(h, w))
        for _ in range(int(rng.integers(0, 4))):
            y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
            y1, x1 = y0 + int(rng.integers(1, h + 1)), x0 + int(rng.integers(1, w + 1))
            block = sums[y0:y1, x0:x1]
            block[...] = np.clip(near + rng.integers(-2, 3, size=block.shape), 0, 765)
        if rng.integers(2):  # split at random
            d0 = rng.integers(np.maximum(0, sums - 510), np.minimum(255, sums) + 1)
            rest = sums - d0
            d1 = rng.integers(np.maximum(0, rest - 255), np.minimum(255, rest) + 1)
            diffs = np.stack([d0, d1, rest - d1], axis=2)
        else:
            diffs = _even_split(sums)
        base = background.astype(np.int16)
        frame = np.where(base + diffs <= 255, base + diffs, base - diffs)
        frames.append(np.clip(frame, 0, 255).astype(np.uint8))
    wide = frames[1].astype(np.int16)
    wide[: h // 2] += rng.integers(-400, 400, size=wide[: h // 2].shape, dtype=np.int16)
    frames.insert(2, wide)  # a default tracker's float path, between uint8 frames
    return background, frames


class TestIntegerPathEqualsTheOracle:
    """The uint8 differencing of a default tracker against the float32
    oracle, at thresholds where float32 rounding decides a pixel; an
    adapting tracker and an int16 frame take the float path."""

    @given(
        threshold=THRESHOLDS,
        min_area=st.integers(1, 40),
        shape=st.tuples(st.integers(1, 24), st.integers(1, 32)),
        seed=st.integers(0, 2**32 - 1),
        adapt=st.sampled_from([None, 0.2]),
    )
    @settings(max_examples=examples(150), deadline=None)
    def test_records_equal_the_oracle(self, threshold, min_area, shape, seed, adapt):
        background, frames = _scene(seed, shape, threshold)
        ours = BlobTracker(background, threshold, min_area, adapt)
        theirs = reference.BlobTracker(background, threshold, min_area, adapt)
        for ts, frame in enumerate(frames):
            assert _outcome(ours, ts, frame) == _outcome(theirs, ts, frame), ts
        np.testing.assert_array_equal(ours._background, theirs._background)

    def test_every_sum_at_every_rounding_threshold(self):
        """One row holding every channel sum 0..765 in ascending order, split
        evenly: the active pixels are one run from the least sum that passes,
        which must be the oracle's at each of ``_near``'s thresholds."""
        background = np.zeros((1, 3 * 255 + 1, 3), dtype=np.uint8)
        frame = _even_split(np.arange(3 * 255 + 1))[None].astype(np.uint8)
        for k in range(3 * 255 + 1):
            for threshold in _near(k):
                ours = BlobTracker(background, threshold, min_area=1)
                theirs = reference.BlobTracker(background, threshold, min_area=1)
                assert _outcome(ours, 0, frame) == _outcome(theirs, 0, frame), (
                    k, threshold)

    def test_the_threshold_is_compared_in_float32(self):
        """76 / 3 exceeds 25 + 1/3 in exact arithmetic, but the comparison
        rounds the threshold to float32, where it equals the mean of a
        channel sum of 76: that pixel stays quiet and one of 77 passes."""
        background = np.zeros((1, 2, 3), dtype=np.uint8)
        frame = np.array([[[26, 25, 25], [26, 26, 25]]], dtype=np.uint8)
        ours = BlobTracker(background, 25 + 1 / 3, min_area=1).analyze(0, frame)
        assert [(r.x0, r.x1) for r in ours.regions] == [(1, 2)]
        assert ours == reference.BlobTracker(
            background, 25 + 1 / 3, min_area=1).analyze(0, frame)


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

    @pytest.mark.parametrize("shape", [(4, 4), (4, 4, 1), (4, 4, 4)])
    @pytest.mark.parametrize("adapt", [None, 0.5])
    def test_background_of_other_than_three_channels_is_rejected(self, shape, adapt):
        """The float path sums channels 0-2 and divides by 3, the integer
        path reads pixels as three bytes; the oracle averages them all."""
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            BlobTracker(np.zeros(shape, dtype=np.uint8), adapt=adapt)

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

    def test_working_set(self, scene):
        """A default tracker owns 0.77 MB of arrays (2.23 MB of float32
        scratch before the integer path), and a warm ``analyze`` of a
        two-blob frame allocates well under one frame-sized plane."""
        tracker = BlobTracker(scene.background)
        owned = {}
        for value in vars(tracker).values():
            if isinstance(value, np.ndarray):
                base = value if value.base is None else value.base
                owned[id(base)] = base.nbytes
        assert sum(owned.values()) <= 1_000_000
        frame = scene.render(50)
        assert len(tracker.analyze(0, frame).regions) == 2
        tracemalloc.start()
        try:
            tracker.analyze(1, frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_frames_processed_counter(self, scene):
        tracker = BlobTracker(scene.background)
        for t in range(3):
            tracker.analyze(t, scene.render(t))
        assert tracker.frames_processed == 3
