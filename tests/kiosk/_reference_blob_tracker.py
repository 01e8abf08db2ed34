"""Reference blob tracker: the per-pixel two-pass labeller, test-only.

This is ``repro.kiosk.blob_tracker`` as it stood before the run-based kernel
replaced it, moved here verbatim.  It is the oracle of
``test_blob_tracker.py``: the shipped tracker must return ``array_equal``
labels (numbering included) and ``==`` ``TrackRecord``s.  Do not optimise it.
"""

from __future__ import annotations

import numpy as np

from repro.kiosk.records import Region, TrackRecord

__all__ = ["connected_components", "BlobTracker"]


def connected_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected labeling of a boolean mask.

    Returns ``(labels, n)`` where ``labels`` is int32 with 0 = background
    and components numbered 1..n.  Two-pass algorithm with union-find over
    provisional row-run labels.
    """
    if mask.dtype != bool or mask.ndim != 2:
        raise ValueError(f"mask must be a 2-D bool array, got {mask.dtype} {mask.ndim}D")
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int32)
    parent: list[int] = [0]  # parent[i] for union-find; 0 is background

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    next_label = 1
    for y in range(h):
        row = mask[y]
        if not row.any():
            continue
        # Find runs of True in this row.
        padded = np.concatenate(([False], row, [False]))
        changes = np.flatnonzero(padded[1:] != padded[:-1])
        starts, ends = changes[0::2], changes[1::2]
        for x0, x1 in zip(starts, ends, strict=True):
            # Labels of the row above overlapping this run (4-connectivity).
            if y > 0:
                above = labels[y - 1, x0:x1]
                touching = np.unique(above[above > 0])
            else:
                touching = np.empty(0, dtype=np.int32)
            if touching.size == 0:
                label = next_label
                parent.append(label)
                next_label += 1
            else:
                label = int(touching.min())
                for other in touching:
                    union(label, int(other))
            labels[y, x0:x1] = label
    if next_label == 1:
        return labels, 0
    # Second pass: map provisional labels to compact roots.
    roots = np.array([find(i) for i in range(next_label)], dtype=np.int32)
    compact = np.zeros(next_label, dtype=np.int32)
    uniq = np.unique(roots[1:])
    compact[uniq] = np.arange(1, uniq.size + 1, dtype=np.int32)
    remap = compact[roots]
    return remap[labels], int(uniq.size)


class BlobTracker:
    """Image-differencing activity detector.

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

    def analyze(self, timestamp: int, frame: np.ndarray) -> TrackRecord:
        """Detect active regions in ``frame``; returns the tracking record."""
        diff = np.abs(frame.astype(np.float32) - self._background).mean(axis=2)
        mask = diff > self.threshold
        if self.adapt is not None:
            quiet = ~mask
            self._background[quiet] += self.adapt * (
                frame.astype(np.float32)[quiet] - self._background[quiet]
            )
        labels, n = connected_components(mask)
        regions: list[Region] = []
        scores: list[float] = []
        for component in range(1, n + 1):
            ys, xs = np.nonzero(labels == component)
            area = int(xs.size)
            if area < self.min_area:
                continue
            regions.append(
                Region(
                    x0=int(xs.min()),
                    y0=int(ys.min()),
                    x1=int(xs.max()) + 1,
                    y1=int(ys.max()) + 1,
                    cx=float(xs.mean()),
                    cy=float(ys.mean()),
                    area=area,
                )
            )
            # Activity confidence: how far above threshold the region is.
            strength = float(diff[ys, xs].mean())
            scores.append(min(1.0, strength / (2.0 * self.threshold)))
        self.frames_processed += 1
        return TrackRecord(
            timestamp=timestamp, tracker="lofi", regions=regions, scores=scores
        )
