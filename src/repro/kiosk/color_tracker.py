"""Color-histogram tracker (paper §2).

    "a color tracker can be initiated that checks the color histogram of the
    interesting region of the image, to refine the hypothesis that an
    interesting object (e.g., a human) is in view."

Given a target color model (a normalized 3-D RGB histogram learned from an
example patch), the tracker back-projects the model onto a frame — every
pixel gets the probability mass of its color bin — and scores candidate
regions by their mean back-projection.  It can also *localize* the target by
running a few mean-shift iterations on the back-projection inside a search
window, which is how the pipeline refines a low-fi region hypothesis.
"""

from __future__ import annotations

import numpy as np

from repro.kiosk.records import Region, TrackRecord

__all__ = ["color_histogram", "back_project", "ColorTracker"]


def color_histogram(patch: np.ndarray, bins: int = 8) -> np.ndarray:
    """Normalized ``bins³`` RGB histogram of a (N, 3) or (H, W, 3) patch."""
    pixels = patch.reshape(-1, 3)
    if pixels.size == 0:
        raise ValueError("cannot build a color histogram from an empty patch")
    idx = (pixels.astype(np.uint16) * bins) // 256  # per-channel bin indices
    flat = (idx[:, 0] * bins + idx[:, 1]) * bins + idx[:, 2]
    hist = np.bincount(flat, minlength=bins**3).astype(np.float64)
    return hist / hist.sum()


def back_project(frame: np.ndarray, hist: np.ndarray, bins: int = 8) -> np.ndarray:
    """Per-pixel probability of belonging to the histogram's color model."""
    if hist.shape != (bins**3,):
        raise ValueError(f"expected a flat {bins}^3 histogram, got {hist.shape}")
    idx = (frame.astype(np.uint16) * bins) // 256
    flat = (idx[..., 0] * bins + idx[..., 1]) * bins + idx[..., 2]
    return hist[flat]


class ColorTracker:
    """Track a color-modeled target through frames.

    Parameters
    ----------
    model:
        Normalized flat histogram of the target (from :func:`color_histogram`).
    bins:
        Histogram resolution per channel.
    accept_score:
        Minimum mean back-projection for the target to count as present.
    window:
        Half-size of the mean-shift window in pixels.
    """

    def __init__(
        self,
        model: np.ndarray,
        bins: int = 8,
        accept_score: float = 0.02,
        window: int = 24,
    ):
        self.model = model
        self.bins = bins
        self.accept_score = accept_score
        self.window = window

    def score_region(self, frame: np.ndarray, region: Region) -> float:
        """Mean back-projection of the model inside ``region``."""
        patch = frame[region.y0 : region.y1, region.x0 : region.x1]
        if patch.size == 0:
            return 0.0
        return float(back_project(patch, self.model, self.bins).mean())

    def localize(
        self,
        frame: np.ndarray,
        start: tuple[float, float],
        iterations: int = 5,
    ) -> tuple[float, float, float]:
        """Mean-shift from ``start``; returns ``(cx, cy, score)``.

        Runs on the back-projection of the whole frame; each iteration moves
        the window to the probability-weighted centroid.
        """
        bp = back_project(frame, self.model, self.bins)
        h, w = bp.shape
        cx, cy = start
        win = self.window
        for _ in range(iterations):
            x0 = max(int(cx) - win, 0)
            x1 = min(int(cx) + win + 1, w)
            y0 = max(int(cy) - win, 0)
            y1 = min(int(cy) + win + 1, h)
            sub = bp[y0:y1, x0:x1]
            mass = sub.sum()
            if mass <= 0:
                break
            ys, xs = np.mgrid[y0:y1, x0:x1]
            nx = float((xs * sub).sum() / mass)
            ny = float((ys * sub).sum() / mass)
            if abs(nx - cx) < 0.5 and abs(ny - cy) < 0.5:
                cx, cy = nx, ny
                break
            cx, cy = nx, ny
        x0 = max(int(cx) - win, 0)
        x1 = min(int(cx) + win + 1, w)
        y0 = max(int(cy) - win, 0)
        y1 = min(int(cy) + win + 1, h)
        score = float(bp[y0:y1, x0:x1].mean()) if (x1 > x0 and y1 > y0) else 0.0
        return cx, cy, score

    def _window(self, frame: np.ndarray, cx: float, cy: float, area: int) -> Region:
        """The tracking window around ``(cx, cy)``, clipped to the frame."""
        win = self.window
        return Region(
            x0=max(int(cx) - win, 0), y0=max(int(cy) - win, 0),
            x1=min(int(cx) + win, frame.shape[1]),
            y1=min(int(cy) + win, frame.shape[0]),
            cx=cx, cy=cy, area=area,
        )

    def analyze(
        self,
        timestamp: int,
        frame: np.ndarray,
        candidates: list[Region] | None = None,
    ) -> TrackRecord:
        """Confirm/refine candidate regions (or scan the whole frame).

        With candidates (the normal pipeline path: the low-fi tracker's
        regions), each is scored against the color model and accepted
        regions are refined by mean-shift.  Without candidates the tracker
        localizes from the frame's global back-projection peak.
        """
        regions: list[Region] = []
        scores: list[float] = []
        if candidates:
            for cand in candidates:
                score = self.score_region(frame, cand)
                if score < self.accept_score:
                    continue
                cx, cy, refined = self.localize(frame, (cand.cx, cand.cy))
                regions.append(self._window(frame, cx, cy, cand.area))
                scores.append(max(score, refined))
        else:
            bp = back_project(frame, self.model, self.bins)
            peak = np.unravel_index(int(np.argmax(bp)), bp.shape)
            cx, cy, score = self.localize(frame, (float(peak[1]), float(peak[0])))
            if score >= self.accept_score:
                regions.append(self._window(frame, cx, cy, (2 * self.window) ** 2))
                scores.append(score)
        return TrackRecord(
            timestamp=timestamp, tracker="color", regions=regions, scores=scores
        )
