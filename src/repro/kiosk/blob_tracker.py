"""Low-fi blob tracker: repetitive image differencing (paper §2).

    "In the quiescent state, a blob tracker does simple repetitive
    image-differencing to detect activity in the field of view."

The tracker diffs each frame against a reference background, thresholds the
per-pixel difference magnitude, and extracts 4-connected components.  It is
the *cheap* stage of the hierarchy, in contrast to the hi-fi tracker: a few
whole-frame numpy passes, then work per horizontal **run** of the mask (a
kiosk frame has 50-100), never per row or pixel.

One run-length kernel, :func:`_label_runs`, serves labelling and tracking.
It numbers components in raster order of their first pixel, as the two-pass
per-pixel labeller it replaced did; that one survives as the oracle in
``tests/kiosk/_reference_blob_tracker.py``, and records are equal to its
records bit for bit: areas, boxes and centroid numerators are exact integer
sums over runs, divided once; the difference image is float32 in numpy's own
association for ``mean(axis=2)``, ``(a0 + (a1 + a2)) / 3``; and a score is
the mean of a component's difference values in raster order, the very array
``diff[ys, xs]`` used to gather.

A tracker owns frame-sized scratch buffers that ``analyze`` overwrites, so
an instance belongs to one stage thread.
"""

from __future__ import annotations

import numpy as np

from repro.kiosk.records import Region, TrackRecord

__all__ = ["connected_components", "BlobTracker"]


def _label_runs(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Horizontal runs of a mask and the component each belongs to.

    ``padded`` is the (H, W) mask inside an (H, W + 2) bool buffer whose first
    and last columns are False, so one pass over the flattened buffer finds
    every run and none crosses a row.  Returns ``(starts, lengths, component,
    n)``: per run, in raster order, its start position in the flattened
    buffer, its length and its 0-based component out of ``n``.
    """
    flat = padded.reshape(-1)
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    lengths = ends - starts
    count = starts.size
    if count == 0:
        return starts, lengths, starts, 0
    # Run i touches run j of the row above iff they overlap once i is moved up
    # a row: ends[j] > starts[i] - stride and starts[j] < ends[i] - stride.
    # Both keys ascend, and the moved run covers no padding, so the js form a
    # range within that row (empty for row 0).
    stride = padded.shape[1]
    first = np.searchsorted(ends, starts - stride, side="right")
    stop = np.searchsorted(starts, ends - stride, side="left")
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
    h, w = mask.shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask
    _, lengths, component, n = _label_runs(padded)
    labels = np.zeros((h, w), dtype=np.int32)
    labels[mask] = np.repeat(component + 1, lengths)
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
        self._background = background.astype(np.float32)
        self.threshold = float(threshold)
        self.min_area = int(min_area)
        self.adapt = adapt
        self.frames_processed = 0
        h, w = background.shape[:2]
        self._signed = np.empty_like(self._background)
        # Adapting needs the signed difference after its magnitude is taken.
        self._magnitude = self._signed if adapt is None else np.empty_like(self._signed)
        self._diff = np.empty((h, w), dtype=np.float32)
        self._padded = np.zeros((h, w + 2), dtype=bool)

    def analyze(self, timestamp: int, frame: np.ndarray) -> TrackRecord:
        """Detect active regions in ``frame``; returns the tracking record."""
        if frame.shape != self._background.shape:  # it would broadcast
            raise ValueError(
                f"frame shape {frame.shape} does not match the background's "
                f"{self._background.shape}"
            )
        signed, magnitude, diff = self._signed, self._magnitude, self._diff
        np.copyto(signed, frame)  # the cast on its own: cheaper than inside subtract
        np.subtract(signed, self._background, out=signed)
        np.abs(signed, out=magnitude)
        np.add(magnitude[:, :, 1], magnitude[:, :, 2], out=diff)
        np.add(magnitude[:, :, 0], diff, out=diff)
        np.divide(diff, 3, out=diff)
        mask = self._padded[:, 1:-1]
        np.greater(diff, self.threshold, out=mask)
        if self.adapt is not None:
            np.multiply(signed, self.adapt, out=signed)
            signed[mask] = 0.0
            self._background += signed
        self.frames_processed += 1
        record = TrackRecord(timestamp=timestamp, tracker="lofi")
        starts, lengths, component, n = _label_runs(self._padded)
        if n == 0:
            return record
        # Difference values of the active pixels, grouped by component and in
        # raster order within each.
        active = diff[mask][np.argsort(np.repeat(component, lengths), kind="stable")]
        # Likewise the runs; every per-run quantity is then reduced over each
        # component's group.
        order = np.argsort(component, kind="stable")
        groups = np.searchsorted(component[order], np.arange(n))
        lengths = lengths[order]
        ys, x0s = np.divmod(starts[order], self._padded.shape[1])
        x0s -= 1  # the padding column
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
