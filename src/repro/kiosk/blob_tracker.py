"""Low-fi blob tracker: repetitive image differencing (paper §2).

    "In the quiescent state, a blob tracker does simple repetitive
    image-differencing to detect activity in the field of view."

The tracker diffs each frame against a reference background, thresholds the
per-pixel difference magnitude (the mean absolute channel difference), and
extracts 4-connected components.  It is the *cheap* stage of the hierarchy,
in contrast to the hi-fi tracker: a few whole-frame numpy passes, then work
per active pixel and per horizontal **run** of them (a kiosk frame has
50-100), never per row or per pixel of the frame.

One run-length kernel, :func:`_label_runs`, serves labelling and tracking.
It numbers components in raster order of their first pixel, as the two-pass
per-pixel labeller it replaced did; that one survives as the oracle in
``tests/kiosk/_reference_blob_tracker.py``, and records are equal to its
records bit for bit: areas, boxes and centroid numerators are exact integer
sums over runs, divided once, and a score is the mean of a component's
difference values in raster order, the very array ``diff[ys, xs]`` the
oracle averages.

The difference values are the oracle's float32 ``mean(axis=2)``, which
numpy sums as ``(a0 + a1) + a2`` and then divides by 3.  A tracker with a
fixed uint8 background (``adapt=None``, the kiosk's) works on a uint8 frame
in integers instead, and that is exact.  Every ``a`` is an integer of at
most 255, so the float32 sum is the integer channel sum ``s`` (at most 765,
far below 2**24) in any association, and a pixel's mean is
``float32(s) / 3``: a function of ``s`` that ascends with it.  So a pixel is
active iff ``s >= s_min``, the least sum whose mean passes, found once with
the float path's own division and comparison (which rounds the threshold to
float32), and an active pixel's value is ``float32(s) / 3``, divided the
same way.  ``|f - b|`` per channel is max - min in uint8.  An active pixel
has a channel difference of at least ``ceil(s_min / 3)``, which a kiosk
frame's ~1 000 active pixels have and its other 75 000 do not, so one
comparison picks the candidates and only theirs are summed.  A default
tracker owns 0.77 MB of uint8 scratch where float32 frame copies took
2.2 MB; in a running kiosk, where the STM's frame copies share the cache,
that counts for more than the arithmetic.  An adapting tracker, whose
background stops being integer-valued, and a frame of any other dtype take
the float path, whose scratch is allocated when first used.

A tracker owns frame-sized scratch buffers that ``analyze`` overwrites, so
an instance belongs to one stage thread.
"""

from __future__ import annotations

import numpy as np

from repro.kiosk.records import Region, TrackRecord

__all__ = ["connected_components", "BlobTracker"]


def _label_runs(
    pixels: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Horizontal runs of a mask and the component each belongs to.

    ``pixels`` are the set pixels of an (H, ``width``) mask, as ascending
    indices into the flattened mask.  Returns ``(starts, lengths, component,
    n)``: per run, in raster order, its first pixel's index, its length and
    its 0-based component out of ``n``.
    """
    if pixels.size == 0:
        return pixels, pixels, pixels, 0
    # A run ends where the next set pixel is not the next pixel, or starts
    # a row.
    follows = pixels[1:] - pixels[:-1] == 1
    follows &= pixels[1:] % width != 0
    firsts = np.concatenate(([0], (~follows).nonzero()[0] + 1))
    starts = pixels[firsts]
    lengths = np.concatenate((firsts[1:], [pixels.size])) - firsts
    ends = starts + lengths
    count = starts.size
    # Run i touches run j of the row above iff they overlap once i is moved up
    # a row: ends[j] > starts[i] - width and starts[j] < ends[i] - width.
    # Both keys ascend, and the moved run stays inside that row, so the js
    # form a range within it (empty for row 0).
    first = np.searchsorted(ends, starts - width, side="right")
    stop = np.searchsorted(starts, ends - width, side="left")
    # A forest whose links all point at a lower index, so that a tree's root
    # is the component's first run: every run starts linked to the first run
    # it touches above, and only one touching several (the bottom of a U)
    # needs a union.
    index = np.arange(count)
    root = np.where(stop > first, first, index).tolist()
    for i in np.flatnonzero(stop - first > 1).tolist():
        for j in range(first[i] + 1, stop[i]):
            a, b = i, j
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            root[a] = root[b] = root[i] = root[j] = min(a, b)
    for i in range(count):  # ascending, so root[root[i]] is already final
        root[i] = root[root[i]]
    roots = np.array(root)
    is_root = roots == index
    return starts, lengths, (np.cumsum(is_root) - 1)[roots], int(is_root.sum())


def connected_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected labeling of a boolean mask.

    Returns ``(labels, n)`` where ``labels`` is int32 with 0 = background
    and components numbered 1..n in raster order of their first pixel.
    """
    if mask.dtype != bool or mask.ndim != 2:
        raise ValueError(f"mask must be a 2-D bool array, got {mask.dtype} {mask.ndim}D")
    pixels = np.flatnonzero(mask)
    _, lengths, component, n = _label_runs(pixels, mask.shape[1])
    labels = np.zeros(mask.shape, dtype=np.int32)
    labels.reshape(-1)[pixels] = np.repeat(component + 1, lengths)
    return labels, n


class BlobTracker:
    """Image-differencing activity detector.

    One instance per stage thread: ``analyze`` works in scratch buffers the
    tracker keeps between frames.

    Parameters
    ----------
    background:
        Reference frame (H, W, 3) uint8; typically the scene with no actors.
    threshold:
        Minimum mean absolute per-channel difference for a pixel to count
        as "active".
    min_area:
        Components smaller than this many pixels are noise and dropped.
    adapt:
        When set, the background is updated with an exponential moving
        average of inactive pixels (rate = ``adapt``), tracking slow
        lighting changes like a long-running kiosk must.
    """

    def __init__(
        self,
        background: np.ndarray,
        threshold: float = 25.0,
        min_area: int = 60,
        adapt: float | None = None,
    ):
        if background.ndim != 3 or background.shape[2] != 3:
            # both paths, like the docstring, know three channels only
            raise ValueError(f"background must be (H, W, 3), got {background.shape}")
        self.threshold = float(threshold)
        self.min_area = int(min_area)
        self.adapt = adapt
        self.frames_processed = 0
        # The float path's scratch, allocated by the first frame that needs it.
        self._signed = self._magnitude = self._diff = self._mask = None
        self._integer = adapt is None and background.dtype == np.uint8
        if not self._integer:
            self._background = background.astype(np.float32)
            return
        # A fixed uint8 background: the integer path (module docstring).
        self._background = background.copy()
        self._high = np.empty_like(background)
        self._low = np.empty_like(background)
        self._candidates = np.empty(background.shape[0] * background.shape[1], dtype=bool)
        # The least channel sum whose mean passes, from the float path's own
        # division and comparison (the means ascend with the sum), and the
        # least channel difference such a sum needs.
        means = np.arange(3 * 255 + 1, dtype=np.float32)
        np.divide(means, 3, out=means)
        self._min_sum = int(np.count_nonzero(~np.greater(means, self.threshold)))
        self._min_channel = min(255, -(-self._min_sum // 3))

    def analyze(self, timestamp: int, frame: np.ndarray) -> TrackRecord:
        """Detect active regions in ``frame``; returns the tracking record."""
        if frame.shape != self._background.shape:  # it would broadcast
            raise ValueError(
                f"frame shape {frame.shape} does not match the background's "
                f"{self._background.shape}"
            )
        if self._integer and frame.dtype == np.uint8:
            pixels, values = self._integer_differences(frame)
        else:
            pixels, values = self._float_differences(frame)
        self.frames_processed += 1
        record = TrackRecord(timestamp=timestamp, tracker="lofi")
        width = frame.shape[1]
        starts, lengths, component, n = _label_runs(pixels, width)
        del pixels  # the runs say it all now; free it before the gather below
        if n == 0:
            return record
        # The runs grouped by component, in raster order within each; every
        # per-run quantity is then reduced over each component's group.
        order = np.argsort(component, kind="stable")
        groups = np.searchsorted(component[order], np.arange(n))
        raster_first = np.cumsum(lengths) - lengths
        lengths = lengths[order]
        # Likewise the active pixels' difference values: a run's pixels move
        # by the same offset, from raster order to the runs' new order.
        offset = raster_first[order] - (np.cumsum(lengths) - lengths)
        moved = np.repeat(offset, lengths)
        moved += np.arange(moved.size)
        active = values[moved]
        ys, x0s = np.divmod(starts[order], width)
        x1s = x0s + lengths
        area = np.add.reduceat(lengths, groups)
        upto = np.cumsum(area)
        box_x0 = np.minimum.reduceat(x0s, groups)
        box_x1 = np.maximum.reduceat(x1s, groups)
        box_y1 = np.maximum.reduceat(ys, groups) + 1
        # A run's pixels sum to len * (x0 + x1 - 1) / 2 in x and len * y in y.
        sum_x = np.add.reduceat(lengths * (x0s + x1s - 1), groups) // 2
        sum_y = np.add.reduceat(lengths * ys, groups)
        for k in np.flatnonzero(area >= self.min_area).tolist():
            a = int(area[k])
            record.regions.append(
                Region(
                    x0=int(box_x0[k]),
                    y0=int(ys[groups[k]]),
                    x1=int(box_x1[k]),
                    y1=int(box_y1[k]),
                    cx=int(sum_x[k]) / a,
                    cy=int(sum_y[k]) / a,
                    area=a,
                )
            )
            # Activity confidence: how far above threshold the region is.
            strength = float(active[upto[k] - a:upto[k]].mean())
            record.scores.append(min(1.0, strength / (2.0 * self.threshold)))
        return record

    def _integer_differences(self, frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The active pixels (ascending flat indices) and their difference
        values, from uint8 channel differences."""
        high, low, background = self._high, self._low, self._background
        np.maximum(frame, background, out=high)
        np.minimum(frame, background, out=low)
        np.subtract(high, low, out=high)
        # A pixel can pass only where one of its channel differences reaches
        # _min_channel, which few do: sum theirs alone.  The largest of each
        # three consecutive differences takes two contiguous passes, then one
        # strided copy keeps those that start a pixel.
        diffs, largest = high.reshape(-1), low.reshape(-1)
        np.maximum(diffs[:-1], diffs[1:], out=largest[:-1])
        np.maximum(largest[:-2], diffs[2:], out=largest[:-2])
        reaches = largest.view(bool)
        np.greater_equal(largest, self._min_channel, out=reaches)
        np.copyto(self._candidates, reaches[::3])
        pixels = self._candidates.nonzero()[0]
        channels = high.reshape(-1, 3)[pixels]
        sums = channels[:, 0].astype(np.uint16)
        sums += channels[:, 1]
        sums += channels[:, 2]
        passed = sums >= self._min_sum
        values = sums[passed].astype(np.float32)
        values /= 3  # the float path's mean, exactly
        return pixels[passed], values

    def _float_differences(self, frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The active pixels (ascending flat indices) and their mean
        absolute channel differences in float32; then adapt."""
        if self._diff is None:
            self._signed = np.empty(self._background.shape, dtype=np.float32)
            # Adapting needs the signed difference after its magnitude is taken.
            self._magnitude = (
                self._signed if self.adapt is None else np.empty_like(self._signed)
            )
            self._diff = np.empty(self._background.shape[:2], dtype=np.float32)
            self._mask = np.empty(self._diff.shape, dtype=bool)
        signed, magnitude, diff, mask = self._signed, self._magnitude, self._diff, self._mask
        np.copyto(signed, frame)  # the cast on its own: cheaper than inside subtract
        np.subtract(signed, self._background, out=signed)
        np.abs(signed, out=magnitude)
        np.add(magnitude[:, :, 0], magnitude[:, :, 1], out=diff)
        np.add(diff, magnitude[:, :, 2], out=diff)
        np.divide(diff, 3, out=diff)
        np.greater(diff, self.threshold, out=mask)
        if self.adapt is not None:
            np.multiply(signed, self.adapt, out=signed)
            signed[mask] = 0.0
            self._background += signed
        pixels = mask.reshape(-1).nonzero()[0]
        return pixels, diff.reshape(-1)[pixels]
