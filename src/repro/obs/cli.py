"""Command line for repro.obs: trace a workload, inspect a trace.

Subcommands::

    python -m repro.obs kiosk --frames 60 --trace out.json
        Run the Smart Kiosk pipeline with tracing armed; write the Chrome
        trace, print the trace summary, the space-time lag report, and the
        metrics registry snapshot.  Open ``out.json`` in Perfetto
        (https://ui.perfetto.dev) or chrome://tracing.

    python -m repro.obs report TRACE.json [--format text|json]
        Validate and summarize a previously captured trace.

    python -m repro.obs lag TRACE.json [--fps F]
        The space-time lag report (per-thread virtual time vs. wall clock,
        paper §8) reconstructed from a captured trace.

    python -m repro.obs validate TRACE.json
        Schema-check a trace; exit 1 with the problems listed otherwise.

    python -m repro.obs serve --port 9464 [--frames 200] [--procs]
        Run the kiosk workload with a live Prometheus exposition endpoint:
        ``curl http://127.0.0.1:9464/metrics`` during the run returns the
        current metrics in text exposition format (merged across all
        address-space processes under ``--procs``, each series labelled by
        space); ``/snapshot`` is the same data as JSON.

    python -m repro.obs top TARGET [--watch SECONDS]
        The stmtop view — per-channel latency percentiles, GC epochs, wire
        traffic, per-thread virtual time — from a serve endpoint URL or a
        saved JSON snapshot; ``--watch`` refreshes until interrupted.

Exit codes: 0 ok, 1 invalid trace / failed run, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs import events as obs_events
from repro.obs.export import (
    lag_report_from_doc,
    render_lag_report,
    render_trace_summary,
    summarize_trace,
    validate_chrome_trace,
)
from repro.obs.metrics import REGISTRY

__all__ = ["main"]


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _run_kiosk(args: argparse.Namespace, on_cluster=lambda cluster: None):
    """The kiosk of ``--frames`` frames, on a ProcCluster (``--procs``) or a
    thread Cluster; ``on_cluster`` sees the cluster before the run."""
    # Imported lazily: the CLI must stay usable for trace inspection even
    # where numpy (pulled in by the kiosk stages) is unavailable.
    from repro.kiosk.procfleet import FleetConfig, run_fleet
    from repro.runtime import Cluster, ProcCluster

    spaces = args.spaces or (3 if args.procs else 1)
    placement = {} if spaces == 3 else dict(
        digitizer_space=0, tracker_space=0, hifi_space=0)
    config = FleetConfig(n_frames=args.frames, fps=args.fps,
                         frame_channel_capacity=None, **placement)
    runtime = ProcCluster if args.procs else Cluster
    was_armed = obs_events.armed()
    obs_events.enable(capacity=args.capacity)
    try:
        with runtime(n_spaces=spaces, gc_period=0.02) as cluster:
            on_cluster(cluster)
            return run_fleet(cluster, config, collect_telemetry=True)
    finally:
        if not was_armed:
            obs_events.disable()


def _cmd_kiosk(args: argparse.Namespace) -> int:
    result = _run_kiosk(args)
    telemetry = result.telemetry
    doc = telemetry.write_chrome_trace(args.trace)
    problems = validate_chrome_trace(doc)
    if problems:  # pragma: no cover - would be a bug in the merger
        print("exported trace failed schema validation:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    summary = summarize_trace(doc)
    lag = lag_report_from_doc(doc, fps=args.fps)
    if args.format == "json":
        print(json.dumps({
            "trace": str(args.trace),
            "processes": len(telemetry.processes),
            "frames_digitized": result.frames_digitized,
            "frames_tracked": result.frames_tracked,
            "summary": summary,
            "lag": lag,
            "metrics": telemetry.metrics_snapshot(),
        }, indent=2, default=str))
        return 0
    print(f"kiosk run across {len(telemetry.processes)} process(es): "
          f"{result.frames_digitized} frames digitized, "
          f"{result.frames_tracked} analyzed, "
          f"{len(result.decisions)} decisions, "
          f"{result.wall_seconds:.2f} s wall")
    print(f"trace written to {args.trace} "
          f"({summary['flows']} cross-process flows; open in "
          f"https://ui.perfetto.dev or chrome://tracing)")
    print()
    print(render_trace_summary(summary))
    print()
    print(render_lag_report(lag))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    doc = _load(args.trace)
    problems = validate_chrome_trace(doc)
    if problems:
        print(f"{args.trace}: not a valid trace_event document:",
              file=sys.stderr)
        for problem in problems[:20]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    summary = summarize_trace(doc)
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(render_trace_summary(summary))
    return 0


def _cmd_lag(args: argparse.Namespace) -> int:
    report = lag_report_from_doc(_load(args.trace), fps=args.fps)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_lag_report(report))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problems = validate_chrome_trace(_load(args.trace))
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print(f"{args.trace}: valid trace_event document")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.promtext import ExpositionServer

    # The source is swapped under the scraper's feet as the run progresses:
    # registry-only before the cluster is up, live cluster harvest during a
    # --procs run, the final merged harvest after teardown.
    source_holder = {"fn": REGISTRY.dump}
    server = ExpositionServer(
        source=lambda: source_holder["fn"](), port=args.port
    )
    server.start()
    print(f"exposition endpoint: {server.url} (/snapshot for JSON, /healthz)")
    sys.stdout.flush()
    try:
        if args.frames > 0:
            def live(cluster) -> None:
                harvest = getattr(cluster, "harvest_telemetry", None)
                if harvest is not None:
                    source_holder["fn"] = lambda: harvest().metrics_dump()

            result = _run_kiosk(args, live)
            source_holder["fn"] = result.telemetry.metrics_dump
            print(f"kiosk run done: {result.frames_digitized} frames "
                  f"digitized, {result.frames_tracked} analyzed")
        if args.linger > 0:
            _time.sleep(args.linger)
        elif args.frames <= 0:
            print("no workload requested; serving until interrupted (Ctrl-C)")
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time
    from urllib.request import urlopen

    from repro.obs.promtext import render_top

    def fetch() -> dict:
        if args.target.startswith(("http://", "https://")):
            url = args.target.rstrip("/")
            if not url.endswith("/snapshot"):
                url += "/snapshot"
            with urlopen(url) as resp:
                return json.load(resp)
        with open(args.target) as fh:
            return json.load(fh)

    while True:
        snapshot = fetch()
        if args.watch:
            print("\x1b[2J\x1b[H", end="")  # clear screen, home cursor
        print(render_top(snapshot))
        if not args.watch:
            return 0
        try:
            _time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Tracing, metrics, and timeline export for the STM runtime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kiosk = sub.add_parser("kiosk", help="run the kiosk pipeline traced")
    kiosk.add_argument("--frames", type=int, default=60)
    kiosk.add_argument("--fps", type=float, default=120.0)
    kiosk.add_argument("--spaces", type=int, default=None, choices=[1, 3],
                       help="1 or 3 (the default with --procs)")
    kiosk.add_argument("--trace", default="kiosk_trace.json",
                       help="output Chrome trace path (default %(default)s)")
    kiosk.add_argument("--capacity", type=int,
                       default=obs_events.DEFAULT_CAPACITY,
                       help="per-thread ring capacity in events")
    kiosk.add_argument("--format", choices=["text", "json"], default="text")
    kiosk.add_argument("--procs", action="store_true",
                       help="run each address space as its own OS process "
                            "and write the harvested, merged cluster trace")
    kiosk.set_defaults(fn=_cmd_kiosk)

    report = sub.add_parser("report", help="summarize a captured trace")
    report.add_argument("trace")
    report.add_argument("--format", choices=["text", "json"], default="text")
    report.set_defaults(fn=_cmd_report)

    lag = sub.add_parser("lag", help="space-time lag report from a trace")
    lag.add_argument("trace")
    lag.add_argument("--fps", type=float, default=None,
                     help="intended tick rate, for absolute lag")
    lag.add_argument("--format", choices=["text", "json"], default="text")
    lag.set_defaults(fn=_cmd_lag)

    validate = sub.add_parser("validate", help="schema-check a trace file")
    validate.add_argument("trace")
    validate.set_defaults(fn=_cmd_validate)

    serve = sub.add_parser(
        "serve", help="Prometheus exposition endpoint over a kiosk run"
    )
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default: ephemeral, printed)")
    serve.add_argument("--frames", type=int, default=60,
                       help="kiosk workload length; 0 = serve idle forever")
    serve.add_argument("--spaces", type=int, default=None, choices=[1, 3])
    serve.add_argument("--procs", action="store_true",
                       help="drive a ProcCluster; /metrics serves the live "
                            "cluster-merged harvest")
    serve.add_argument("--capacity", type=int,
                       default=obs_events.DEFAULT_CAPACITY)
    serve.add_argument("--linger", type=float, default=0.0,
                       help="keep serving this many seconds after the run")
    serve.set_defaults(fn=_cmd_serve, fps=None)

    top = sub.add_parser(
        "top", help="stmtop: live metrics view from a serve endpoint"
    )
    top.add_argument("target",
                     help="serve endpoint URL or a saved /snapshot JSON file")
    top.add_argument("--watch", type=float, default=None,
                     help="refresh every N seconds until interrupted")
    top.set_defaults(fn=_cmd_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `... | head`; not an error
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
