#!/usr/bin/env python
"""The Smart Kiosk vision pipeline of the paper's Fig. 2, end to end.

digitizer -> low-fi tracker -> (dynamically spawned) hi-fi tracker
          -> decision module -> GUI, beside a microphone and a gesture stage

Everything flows through STM channels; the digitizer paces itself with the
real-time API (§4.3); the low-fi tracker skips stale frames; the hi-fi
tracker is created on the fly when the low-fi tracker hypothesizes a
customer and *re-analyzes the original frame* that triggered the hypothesis
(§3) — retrievable only because STM indexes items by timestamp and GC is
driven by visibility, not FIFO order.

Run:  python examples/vision_pipeline.py [--frames N] [--fps F] [--spaces K]
                                         [--trace OUT.json] [--procs]

``--procs`` runs the same kiosk on :mod:`repro.runtime.procs`: each address
space is its own OS process, wired by shared-memory rings — same channels,
same timestamps, real protection domains and no shared GIL.
"""

import argparse
import contextlib

from repro import Cluster, ProcCluster
from repro.kiosk import FleetConfig, run_fleet
from repro.obs import trace


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=90,
                        help="frames to digitize (default 90)")
    parser.add_argument("--fps", type=float, default=60.0,
                        help="camera rate; the paper's camera runs at 30")
    parser.add_argument("--spaces", type=int, default=None, choices=[1, 3],
                        help="1 = SMP configuration, 3 = clustered stages "
                             "(the default with --procs)")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="record a Chrome trace_event timeline of the run "
                             "(open in https://ui.perfetto.dev)")
    parser.add_argument("--procs", action="store_true",
                        help="run each address space as its own OS process")
    args = parser.parse_args()
    spaces = args.spaces or (3 if args.procs else 1)

    # Three spaces: digitizer + microphone on 1, trackers on 2, the hi-fi
    # tracker spawned onto 0 beside decision + GUI; one space hosts all.
    placement = {} if spaces == 3 else dict(
        digitizer_space=0, tracker_space=0, hifi_space=0)
    config = FleetConfig(n_frames=args.frames, fps=args.fps,
                         frame_channel_capacity=None, **placement)
    runtime = ProcCluster if args.procs else Cluster
    tracing = trace(args.trace) if args.trace else contextlib.nullcontext()
    with tracing:
        with runtime(n_spaces=spaces, gc_period=0.02) as cluster:
            result = run_fleet(cluster, config)

    kind = "processes" if args.procs else "threads"
    print(f"\n=== Smart Kiosk pipeline ({spaces} address space(s), {kind}) ===")
    print(f"frames digitized        : {result.frames_digitized}")
    print(f"low-fi frames analyzed  : {result.frames_tracked} "
          f"({result.frames_skipped} skipped via STM_LATEST_UNSEEN)")
    print(f"hi-fi trackers spawned  : {result.hifi_spawned}")
    print(f"hi-fi frames analyzed   : {len(result.hifi_records)} "
          f"(temporally sparser than the camera, §3)")
    print(f"decisions made          : {len(result.decisions)}")
    print(f"mean tracking error     : {result.mean_tracking_error:.2f} px")
    print(f"digitizer slippages     : {result.digitizer_slips}")
    print(f"wall time               : {result.wall_seconds:.2f} s")
    print("\nkiosk conversation:")
    for event in result.transcript:
        print(f"  [frame {event.timestamp:3d}] kiosk says: {event.utterance}")
    if args.trace:
        print(f"\ntrace written to {args.trace} "
              f"(open in https://ui.perfetto.dev or chrome://tracing)")


if __name__ == "__main__":
    main()
