"""The child-process half of ``test_frame_path``'s cost test.

A module of its own, importing nothing but what a producer stage imports:
the child resolves the worker by importing its module, and the fault count
below depends on what the process freed before.  glibc raises its mmap
threshold to the size of every mmapped chunk it frees, so one large free —
pytest's imports do several — and a later 345 KB scratch buffer comes from
the heap and faults nothing, in-band pickle or not.
"""

from __future__ import annotations

import resource
import tracemalloc

import numpy as np

from repro.kiosk.frames import FRAME_HEIGHT, FRAME_WIDTH
from repro.kiosk.records import VideoFrame
from repro.stm import STM

WARMUP_PUTS = 8
TRACED_PUTS = 16
COST_SEED = 11


def frame(seed: int) -> VideoFrame:
    """A seeded 230 400-byte frame, drawn as the spine draws its frames."""
    rng = np.random.default_rng(seed)
    return VideoFrame(seed, rng.integers(
        0, 256, (FRAME_HEIGHT, FRAME_WIDTH, 3), dtype=np.uint8))


def put_cost_worker(n_puts: int) -> None:
    """Remote puts of one frame, measured from inside the putting process:
    minor faults per put over ``n_puts``, then the peak Python allocation
    inside one put; reported as one item on ``fp.cost.report``."""
    stm = STM.here()
    out = stm.lookup("fp.cost.frames", wait=True).attach_output()
    report = stm.lookup("fp.cost.report", wait=True).attach_output()
    item = frame(COST_SEED)
    for ts in range(WARMUP_PUTS):  # allocator arenas, ring pages, code paths
        out.put(ts, item, refcount=1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for ts in range(WARMUP_PUTS, WARMUP_PUTS + n_puts):
        out.put(ts, item, refcount=1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tracemalloc.start()
    peak = 0
    first = WARMUP_PUTS + n_puts
    for ts in range(first, first + TRACED_PUTS):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out.put(ts, item, refcount=1)
        peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    tracemalloc.stop()
    report.put(0, (faults / n_puts, peak), refcount=1)
    out.detach()
    report.detach()
