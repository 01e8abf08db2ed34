"""Synthetic video source for the Smart Kiosk pipeline (paper §2, §8.1).

The paper's digitizer grabs 320×240, 24-bit frames at 30 fps from a real
camera — 230 400 bytes per frame, 6.912 MB/s.  We cannot attach a 1998 frame
grabber, so this module synthesizes an equivalent stream: a static noisy
background across which colored "people" (elliptical blobs) move along known
trajectories.  The synthetic scene

* produces byte-identical-shape data (dtype uint8, (240, 320, 3)),
* exercises the same tracker code paths (image differencing fires exactly
  when a blob is present; color histograms discriminate between blobs), and
* carries ground truth, so the pipeline's end-to-end *accuracy* is testable
  — something the real kiosk could not check automatically.

Determinism: everything derives from a seeded :class:`numpy.random.Generator`,
so tests and benchmarks are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FRAME_WIDTH", "FRAME_HEIGHT", "Actor", "SyntheticScene", "frame_bytes"]

FRAME_WIDTH = 320
FRAME_HEIGHT = 240


def frame_bytes() -> int:
    """Bytes per frame: 230 400, as in §8.1."""
    return FRAME_WIDTH * FRAME_HEIGHT * 3


@dataclass
class Actor:
    """One moving blob: a synthetic kiosk customer.

    The trajectory is linear with reflection off the frame borders; position
    at frame ``t`` is computable in closed form via :meth:`position`, giving
    the tests exact ground truth.
    """

    color: tuple[int, int, int]
    start: tuple[float, float]  # (x, y) at frame 0
    velocity: tuple[float, float]  # pixels per frame
    radii: tuple[float, float] = (14.0, 22.0)  # (rx, ry) of the ellipse
    #: frame at which the actor enters the scene (absent before).
    enters_at: int = 0
    #: frame at which the actor leaves (absent from then on); None = never.
    leaves_at: int | None = None

    def present(self, t: int) -> bool:
        if t < self.enters_at:
            return False
        return self.leaves_at is None or t < self.leaves_at

    def position(self, t: int) -> tuple[float, float]:
        """Ground-truth centre at frame ``t`` (reflecting off borders)."""

        def reflect(p: float, v: float, steps: int, lo: float, hi: float) -> float:
            span = hi - lo
            if span <= 0:
                return lo
            x = p - lo + v * steps
            period = 2.0 * span
            x %= period
            if x < 0:
                x += period
            return lo + (x if x <= span else period - x)

        steps = t - self.enters_at
        rx, ry = self.radii
        x = reflect(self.start[0], self.velocity[0], steps, rx, FRAME_WIDTH - rx)
        y = reflect(self.start[1], self.velocity[1], steps, ry, FRAME_HEIGHT - ry)
        return (x, y)


class SyntheticScene:
    """Deterministic generator of kiosk camera frames.

    Parameters
    ----------
    actors:
        The moving blobs.  Defaults to two "customers" with distinct shirt
        colors, one entering at frame 0 and one at frame 40 — enough to
        exercise dynamic hi-fi tracker creation.
    noise_sigma:
        Std-dev of per-pixel sensor noise added to every frame.
    seed:
        Seed for the background texture and, with the frame number, for each
        frame's noise: a scene renders the same frames in every process, and
        scenes with different seeds differ in both.
    """

    def __init__(
        self,
        actors: list[Actor] | None = None,
        noise_sigma: float = 2.0,
        seed: int = 1999,
    ):
        self.actors = actors if actors is not None else _default_actors()
        self.noise_sigma = noise_sigma
        self.seed = seed
        rng = np.random.default_rng(seed)
        base = rng.integers(96, 128, size=(FRAME_HEIGHT, FRAME_WIDTH, 3))
        self.background = base.astype(np.uint8)
        # Precompute coordinate grids once; rendering is then pure numpy.
        self._yy, self._xx = np.mgrid[0:FRAME_HEIGHT, 0:FRAME_WIDTH]

    def render(self, t: int, with_noise: bool = True) -> np.ndarray:
        """Render frame ``t`` as a (240, 320, 3) uint8 array."""
        frame = self.background.astype(np.int16).copy()
        for actor in self.actors:
            if not actor.present(t):
                continue
            cx, cy = actor.position(t)
            rx, ry = actor.radii
            mask = (
                ((self._xx - cx) / rx) ** 2 + ((self._yy - cy) / ry) ** 2
            ) <= 1.0
            frame[mask] = np.asarray(actor.color, dtype=np.int16)
        if with_noise and self.noise_sigma > 0:
            noise = self._noise_for(t)
            frame = frame + noise
        return np.clip(frame, 0, 255).astype(np.uint8)

    def _noise_for(self, t: int) -> np.ndarray:
        """Per-frame noise, deterministic in ``t`` (independent of call order)."""
        rng = np.random.default_rng([self.seed, t])
        return (rng.standard_normal((FRAME_HEIGHT, FRAME_WIDTH, 3)) *
                self.noise_sigma).astype(np.int16)

    def ground_truth(self, t: int) -> list[tuple[float, float]]:
        """Centres of all actors present at frame ``t``."""
        return [a.position(t) for a in self.actors if a.present(t)]

    def present_actors(self, t: int) -> list[Actor]:
        return [a for a in self.actors if a.present(t)]


def _default_actors() -> list[Actor]:
    return [
        Actor(color=(200, 40, 40), start=(60.0, 120.0), velocity=(2.0, 0.7)),
        Actor(
            color=(40, 60, 210),
            start=(250.0, 90.0),
            velocity=(-1.5, 1.1),
            enters_at=40,
        ),
    ]
