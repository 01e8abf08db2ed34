"""Gesture recognition over a sliding window of tracking records (paper §1).

    "...a gesture recognition module may need to analyze a sliding window
    over a video stream."

A stage can keep the last ``window`` columns of the track channel *alive*
by consuming only the recognizer's :attr:`~GestureRecognizer.trailing_edge`
(STM's third access pattern, after LATEST_UNSEEN skipping and
specific-timestamp re-analysis).  The recognizer keeps the window's
positions itself, though, and open items pin the global GC horizon (§4.2),
so the kiosk's gesture stage (:func:`repro.kiosk.procfleet.fleet_gesture`)
consumes each record once fed.

The classifier itself is deliberately simple (this is a systems paper): a
trajectory is a **wave** when the horizontal velocity alternates sign with
sufficient amplitude, a **walk** when displacement is consistently
directional, and **still** otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kiosk.records import TrackRecord

__all__ = ["GestureEvent", "classify_trajectory", "GestureRecognizer"]


@dataclass(frozen=True)
class GestureEvent:
    """A recognized gesture ending at frame ``timestamp``."""

    timestamp: int
    gesture: str  # "wave" | "walk" | "still"
    #: frames of evidence behind the classification.
    span: int
    confidence: float


def classify_trajectory(
    xs: list[float],
    ys: list[float],
    *,
    wave_min_swings: int = 2,
    wave_min_amplitude: float = 3.0,
    walk_min_displacement: float = 2.0,
) -> tuple[str, float]:
    """Classify a trajectory of per-frame positions; returns (label, conf).

    * **wave**: the x-velocity changes sign at least ``wave_min_swings``
      times with mean |vx| above ``wave_min_amplitude``.
    * **walk**: mean per-frame displacement exceeds
      ``walk_min_displacement`` in a consistent direction.
    * **still**: anything else.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 3:
        return ("still", 0.0)
    vx = np.diff(np.asarray(xs, dtype=np.float64))
    vy = np.diff(np.asarray(ys, dtype=np.float64))
    speed = np.hypot(vx, vy)
    moving = speed.mean()

    signs = np.sign(vx[np.abs(vx) > 0.5])
    swings = int(np.count_nonzero(np.diff(signs) != 0)) if signs.size else 0
    if swings >= wave_min_swings and np.abs(vx).mean() >= wave_min_amplitude:
        confidence = min(1.0, swings / (2.0 * wave_min_swings) + 0.25)
        return ("wave", confidence)

    net = np.hypot(xs[-1] - xs[0], ys[-1] - ys[0])
    path = float(speed.sum())
    if moving >= walk_min_displacement and path > 0 and net / path > 0.7:
        return ("walk", min(1.0, net / path))

    return ("still", 1.0 - min(moving / walk_min_displacement, 1.0))


class GestureRecognizer:
    """Streaming classifier over the last ``window`` tracking records."""

    def __init__(self, window: int = 10, min_records: int = 5):
        if window < 3:
            raise ValueError(f"window must be >= 3, got {window}")
        self.window = window
        self.min_records = min_records
        self._history: dict[int, tuple[float, float]] = {}

    def feed(self, record: TrackRecord) -> GestureEvent | None:
        """Add one tracking record; returns a gesture event when one fires."""
        best = record.best()
        if best is not None:
            self._history[record.timestamp] = (best[0].cx, best[0].cy)
        # drop everything outside the window
        floor = record.timestamp - self.window + 1
        self._history = {t: p for t, p in self._history.items() if t >= floor}
        points = sorted(self._history.items())
        if len(points) < self.min_records:
            return None
        xs = [p[1][0] for p in points]
        ys = [p[1][1] for p in points]
        label, confidence = classify_trajectory(xs, ys)
        return GestureEvent(
            timestamp=record.timestamp,
            gesture=label,
            span=len(points),
            confidence=confidence,
        )

    @property
    def trailing_edge(self) -> int | None:
        """Oldest timestamp still needed; everything below is consumable."""
        if not self._history:
            return None
        return min(self._history)
