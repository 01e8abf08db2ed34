"""Unit tests for the synthetic video source."""

import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

from repro.kiosk.frames import (
    FRAME_HEIGHT,
    FRAME_WIDTH,
    Actor,
    SyntheticScene,
    frame_bytes,
)


@pytest.fixture(scope="module")
def scene():
    return SyntheticScene(seed=1)


class TestGeometry:
    def test_frame_shape_matches_paper(self, scene):
        frame = scene.render(0)
        assert frame.shape == (FRAME_HEIGHT, FRAME_WIDTH, 3)
        assert frame.dtype == np.uint8
        assert frame.nbytes == frame_bytes() == 230_400

    def test_determinism(self):
        a = SyntheticScene(seed=5).render(3)
        b = SyntheticScene(seed=5).render(3)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SyntheticScene(seed=5).render(3)
        b = SyntheticScene(seed=6).render(3)
        assert not np.array_equal(a, b)

    def test_noise_is_per_frame_deterministic(self, scene):
        np.testing.assert_array_equal(scene.render(7), scene.render(7))

    def test_noise_follows_the_scene_seed(self):
        """Same background value range, different seeds: the *noise* differs
        (it used to be seeded from the frame number alone)."""
        def noise(seed):
            scene = SyntheticScene(actors=[], seed=seed)
            return scene.render(3).astype(np.int16) - scene.background
        assert not np.array_equal(noise(5), noise(6))

    def test_frames_are_identical_across_processes(self):
        """A ProcCluster digitizer child must render what its parent would:
        string hashing is randomised per process and must not reach the
        noise.  Two interpreters with different hash seeds, one CRC."""
        program = (
            "import zlib; from repro.kiosk.frames import SyntheticScene; "
            "print(zlib.crc32(SyntheticScene(seed=5).render(3).tobytes()))"
        )
        crcs = set()
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            out = subprocess.run([sys.executable, "-c", program], env=env,
                                 capture_output=True, text=True, timeout=60,
                                 check=True)
            crcs.add(int(out.stdout))
        here = zlib.crc32(SyntheticScene(seed=5).render(3).tobytes())
        assert crcs == {here}


class TestActors:
    def test_default_scene_has_two_actors(self, scene):
        assert len(scene.actors) == 2
        assert len(scene.ground_truth(0)) == 1  # second enters at 40
        assert len(scene.ground_truth(50)) == 2

    def test_enter_leave_windows(self):
        actor = Actor(color=(255, 0, 0), start=(50, 50), velocity=(1, 0),
                      enters_at=10, leaves_at=20)
        assert not actor.present(9)
        assert actor.present(10)
        assert actor.present(19)
        assert not actor.present(20)

    def test_position_moves_linearly(self):
        actor = Actor(color=(255, 0, 0), start=(50.0, 60.0), velocity=(2.0, 1.0))
        x0, y0 = actor.position(0)
        x5, y5 = actor.position(5)
        assert (x5 - x0, y5 - y0) == (10.0, 5.0)

    def test_position_reflects_at_borders(self):
        actor = Actor(color=(255, 0, 0), start=(300.0, 120.0),
                      velocity=(10.0, 0.0), radii=(10.0, 10.0))
        for t in range(200):
            x, y = actor.position(t)
            assert 10.0 <= x <= FRAME_WIDTH - 10.0
            assert 10.0 <= y <= FRAME_HEIGHT - 10.0

    def test_actor_pixels_present_in_frame(self, scene):
        frame = scene.render(0, with_noise=False)
        (cx, cy) = scene.ground_truth(0)[0]
        color = np.asarray(scene.actors[0].color)
        np.testing.assert_array_equal(frame[int(cy), int(cx)], color)

    def test_background_where_no_actor(self, scene):
        frame = scene.render(0, with_noise=False)
        # corner far from both actor trajectories equals the background
        np.testing.assert_array_equal(frame[0, 0], scene.background[0, 0])
