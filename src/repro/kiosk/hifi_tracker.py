"""Hi-fi tracker: expensive model-based target tracking (paper §2-3).

The paper's hi-fi stage runs "a more sophisticated articulated-body or
face-recognition algorithm on the region of interest, beginning again with
the original camera images that led to this hypothesis".  We stand in a
normalized cross-correlation (NCC) template tracker: it acquires a template
from the hypothesis region of the *original* frame (re-analysis of earlier
data — the dynamism that complicates buffer recycling, §3 bullet 3) and then
matches it in a search window of each later frame.

NCC over a search window is deliberately the heavyweight stage — a couple of
orders of magnitude more compute than the blob tracker — giving the pipeline
the paper's property that higher levels are temporally sparser because they
cannot keep up with the full frame rate (§3 bullet 4).  The search is
vectorized with stride tricks (one big einsum instead of Python loops).
"""

from __future__ import annotations

import numpy as np

from repro.kiosk.records import Region, TrackRecord

__all__ = ["normalized_cross_correlation", "HifiTracker"]


def _box_sums(a: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Sum of every ``th x tw`` window of ``a`` via an integral image.

    O(HW) regardless of window size — the standard trick that keeps dense
    template matching tractable.
    """
    c = np.cumsum(np.cumsum(a, axis=0, dtype=np.float64), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    return c[th:, tw:] - c[:-th, tw:] - c[th:, :-tw] + c[:-th, :-tw]


def normalized_cross_correlation(
    image: np.ndarray, template: np.ndarray
) -> np.ndarray:
    """Dense NCC of a grayscale ``template`` over ``image``.

    Returns a map of shape ``(H - th + 1, W - tw + 1)`` with values in
    [-1, 1].  Flat image patches (zero variance) score 0.

    Implementation: the numerator (correlation with the zero-mean template)
    is computed with one FFT-based correlation; the per-window energies in
    the denominator come from integral images — O(HW log HW) total instead
    of the naive O(HW·th·tw).
    """
    if image.ndim != 2 or template.ndim != 2:
        raise ValueError("image and template must be 2-D grayscale arrays")
    th, tw = template.shape
    if th > image.shape[0] or tw > image.shape[1]:
        raise ValueError(
            f"template {template.shape} larger than image {image.shape}"
        )
    image = image.astype(np.float64)
    template = template.astype(np.float64)
    h, w = image.shape
    t = template - template.mean()
    t_norm = np.sqrt((t * t).sum())
    if t_norm <= 1e-12:  # flat template matches nothing meaningfully
        return np.zeros((h - th + 1, w - tw + 1))
    # Correlation == convolution with the flipped kernel; since sum(t) == 0,
    # corr already equals the centered-window dot product.
    fshape = (h + th - 1, w + tw - 1)
    fi = np.fft.rfft2(image, fshape)
    ft = np.fft.rfft2(t[::-1, ::-1], fshape)
    conv = np.fft.irfft2(fi * ft, fshape)
    numer = conv[th - 1 : h, tw - 1 : w]
    # Window energy around the window mean: sum(x^2) - (sum x)^2 / n.
    n = th * tw
    wsum = _box_sums(image, th, tw)
    wsum2 = _box_sums(image * image, th, tw)
    var = np.maximum(wsum2 - wsum * wsum / n, 0.0)
    denom = np.sqrt(var) * t_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        ncc = np.where(denom > 1e-9, numer / np.where(denom == 0, 1, denom), 0.0)
    return np.clip(ncc, -1.0, 1.0)


def _gray(frame: np.ndarray) -> np.ndarray:
    return frame.astype(np.float64).mean(axis=2)


class HifiTracker:
    """Template tracker instantiated from a hypothesis on an earlier frame.

    Parameters
    ----------
    accept_score:
        Minimum NCC peak to report a detection.
    search_margin:
        How far (pixels) around the last known position to search; the
        window grows by ``search_growth`` each consecutive miss so the
        tracker can reacquire a fast-moving target.
    """

    def __init__(
        self,
        accept_score: float = 0.55,
        search_margin: int = 24,
        search_growth: int = 12,
        max_margin: int = 80,
    ):
        self.accept_score = accept_score
        self.search_margin = search_margin
        self.search_growth = search_growth
        self.max_margin = max_margin
        self.template: np.ndarray | None = None
        self.last_position: tuple[float, float] | None = None
        self._margin = search_margin

    @property
    def acquired(self) -> bool:
        return self.template is not None

    def acquire(self, frame: np.ndarray, region: Region) -> None:
        """Cut the template from ``region`` of the hypothesis frame.

        This is the re-analysis step of §3: the hi-fi tracker begins from
        the *original* image that led to the hypothesis, which the low-fi
        tracker has long since moved past — only STM's timestamp addressing
        keeps that frame retrievable.
        """
        patch = _gray(frame[region.y0 : region.y1, region.x0 : region.x1])
        if patch.size == 0:
            raise ValueError(f"empty acquisition region {region}")
        self.template = patch
        self.last_position = (region.cx, region.cy)
        self._margin = self.search_margin

    def analyze(self, timestamp: int, frame: np.ndarray) -> TrackRecord:
        """Match the template around the last known position."""
        if self.template is None:
            raise RuntimeError("HifiTracker.analyze called before acquire()")
        gray = _gray(frame)
        th, tw = self.template.shape
        h, w = gray.shape
        cx, cy = self.last_position  # type: ignore[misc]
        m = self._margin
        x0 = max(int(cx - tw / 2) - m, 0)
        y0 = max(int(cy - th / 2) - m, 0)
        x1 = min(int(cx + tw / 2) + m, w)
        y1 = min(int(cy + th / 2) + m, h)
        window = gray[y0:y1, x0:x1]
        regions: list[Region] = []
        scores: list[float] = []
        if window.shape[0] >= th and window.shape[1] >= tw:
            ncc = normalized_cross_correlation(window, self.template)
            peak = np.unravel_index(int(np.argmax(ncc)), ncc.shape)
            score = float(ncc[peak])
            if score >= self.accept_score:
                px = x0 + peak[1]
                py = y0 + peak[0]
                ncx = px + tw / 2.0
                ncy = py + th / 2.0
                regions.append(
                    Region(
                        x0=px, y0=py, x1=px + tw, y1=py + th,
                        cx=ncx, cy=ncy, area=tw * th,
                    )
                )
                scores.append(score)
                self.last_position = (ncx, ncy)
                self._margin = self.search_margin
            else:
                self._margin = min(self._margin + self.search_growth,
                                   self.max_margin)
        return TrackRecord(
            timestamp=timestamp, tracker="hifi", regions=regions, scores=scores
        )
