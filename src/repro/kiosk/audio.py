"""Synthetic audio modality for the kiosk (paper §2-3).

    "A future kiosk will use microphone arrays to acquire speech input from
    customers" ... "Similar hierarchies can exist for audio and other input
    modalities, and these hierarchies can merge as multiple modalities are
    combined to further refine the understanding of the environment."

We synthesize a microphone signal aligned to the video timeline: each audio
item covers one video frame interval (33.3 ms at 16 kHz = 533 samples), so
an audio item and a video frame with the same timestamp are temporally
correlated — they share a column of the space-time table, which is what
lets the decision module fuse them with two same-timestamp gets (§3).

The analysis stage is a classic energy + zero-crossing-rate speech/activity
detector; the synthetic signal interleaves silence (noise floor) with
"speech" bursts (amplitude-modulated harmonics) on a known schedule, giving
tests exact ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AUDIO_RATE",
    "SAMPLES_PER_FRAME",
    "AudioChunk",
    "AudioRecord",
    "SyntheticMicrophone",
    "SpeechDetector",
]

#: microphone sample rate (Hz).
AUDIO_RATE = 16_000
#: samples per video-frame interval (16 kHz / 30 fps).
SAMPLES_PER_FRAME = AUDIO_RATE // 30  # 533


@dataclass
class AudioChunk:
    """One frame-interval of microphone samples, timestamped like video."""

    timestamp: int
    samples: np.ndarray  # float32 in [-1, 1], SAMPLES_PER_FRAME long

    def __post_init__(self):
        if self.samples.ndim != 1:
            raise ValueError(
                f"audio chunk must be 1-D, got {self.samples.ndim}-D"
            )


@dataclass
class AudioRecord:
    """Speech-detector output for the column ``timestamp``."""

    timestamp: int
    speech: bool
    energy: float
    zero_crossing_rate: float


@dataclass
class SyntheticMicrophone:
    """Deterministic microphone: silence with scheduled speech bursts.

    ``speech_frames`` lists the frame indices during which a customer is
    speaking; everything else is sensor noise.
    """

    speech_frames: frozenset = field(
        default_factory=lambda: frozenset(range(10, 25))
    )
    noise_rms: float = 0.01
    speech_rms: float = 0.2
    seed: int = 404

    def speaking(self, t: int) -> bool:
        return t in self.speech_frames

    def chunk(self, t: int) -> AudioChunk:
        """Synthesize the audio chunk for frame ``t`` (deterministic in t)."""
        rng = np.random.default_rng(self.seed * 1_000_003 + t)
        n = SAMPLES_PER_FRAME
        samples = rng.standard_normal(n).astype(np.float32) * self.noise_rms
        if self.speaking(t):
            # a "voiced" burst: low-frequency harmonics with vibrato.
            base = 120.0 + 15.0 * np.sin(t / 3.0)
            time_axis = (np.arange(n) + t * n) / AUDIO_RATE
            voiced = np.zeros(n)
            for harmonic in (1, 2, 3):
                voiced += np.sin(2 * np.pi * base * harmonic * time_axis) / harmonic
            samples = samples + (self.speech_rms * voiced / 1.8).astype(
                np.float32
            )
        return AudioChunk(timestamp=t, samples=np.clip(samples, -1.0, 1.0))


class SpeechDetector:
    """Energy + zero-crossing-rate speech detector.

    Speech is *loud* (energy well above the noise floor) and *voiced*
    (low zero-crossing rate compared to white noise).  The detector
    calibrates its energy threshold from the first ``calibration`` chunks,
    which must be non-speech — the usual bootstrap assumption.
    """

    def __init__(self, energy_factor: float = 4.0, zcr_max: float = 0.25,
                 calibration: int = 5):
        self.energy_factor = energy_factor
        self.zcr_max = zcr_max
        self.calibration = calibration
        self._noise_energies: list[float] = []

    @staticmethod
    def features(samples: np.ndarray) -> tuple[float, float]:
        """(RMS energy, zero-crossing rate) of a chunk."""
        energy = float(np.sqrt(np.mean(samples.astype(np.float64) ** 2)))
        signs = np.sign(samples)
        signs[signs == 0] = 1
        zcr = float(np.count_nonzero(np.diff(signs)) / max(len(samples) - 1, 1))
        return energy, zcr

    def analyze(self, chunk: AudioChunk) -> AudioRecord:
        energy, zcr = self.features(chunk.samples)
        if len(self._noise_energies) < self.calibration:
            self._noise_energies.append(energy)
            speech = False
        else:
            floor = float(np.median(self._noise_energies))
            speech = energy > self.energy_factor * floor and zcr < self.zcr_max
        return AudioRecord(
            timestamp=chunk.timestamp,
            speech=speech,
            energy=energy,
            zero_crossing_rate=zcr,
        )
