"""The benchmark's one command.

Contract form (what the driver of ``BENCHMARK.json`` runs, once per call)::

    python3 benchmarks/spine/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as its last line, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  It exits non-zero when an output check
fails, or when the program under ``src/`` is not there to measure.  The
measurement runs in a child of this command, which then reaps every process
the run started (:func:`supervise`), so nothing outlives the command.

Report form (what a person runs)::

    python3 benchmarks/spine/run.py --seed N [--workload NAME] [--traced]
                  [--runs K] [--compare OLD.json] [--smoke] [--cpus K]

runs every workload (each in a fresh process, so set-up time and peak RSS
are its own), prints every metric by name with its unit, writes the result
to ``benchmarks/spine/_out/result-seed<N>.json`` and, with ``--compare``,
classifies each end-to-end metric against an older result file.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start, as near as Python lets us see it

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

_HERE = pathlib.Path(__file__).resolve().parent
_SRC = _HERE.parents[1] / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"spine: nothing to measure, {_SRC / 'repro'} is not there")
# ``spine`` is imported as a package from benchmarks/; the script's own
# directory must not lead sys.path, or ``import trace`` anywhere in the
# standard library would find spine/trace.py.
sys.path[:] = [str(_HERE.parent), str(_SRC)] + [
    p for p in sys.path if pathlib.Path(p or ".").resolve() not in (_HERE, _HERE.parent, _SRC)
]

from spine import spec  # noqa: E402  (names and units only: imports nothing heavy)

SETUP_REPEATS = 3
SMOKE_SECONDS = 1.0
#: how long :func:`supervise` lets leftover processes end by themselves.
REAP_GRACE_S = 10.0
_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def supervise(argv: list[str]) -> int:
    """Run the contract form in a child, then reap every process it started.

    A run starts processes that end a moment *after* the process that
    measured (multiprocessing's resource tracker exits once its parent's
    pipe closes) or, if the run dies, perhaps not at all (cluster children,
    the idle burner).  This process makes itself their reaper, so orphans are
    re-parented to it rather than to init; it waits for each and kills what
    is still alive after ``REAP_GRACE_S``.  The child is told when the
    command started, so ``setup_s`` still counts from there.
    """
    if ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0):
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # reap on that path too
    child = subprocess.Popen(
        [sys.executable, str(pathlib.Path(__file__).resolve()), *argv, "--t0", repr(_T0)]
    )
    try:
        return child.wait()
    finally:
        if child.returncode is None:
            child.kill()
        _reap(REAP_GRACE_S)


def _reap(grace_s: float) -> None:
    """Wait until no descendant is left; SIGKILL the ones alive after ``grace_s``."""
    me = os.getpid()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # none left, not even a zombie
        if pid:
            continue
        if time.monotonic() > deadline:
            for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
                try:  # fields after the command name: state, ppid, ...
                    ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
                except OSError:
                    continue  # ended while we looked
                if ppid == me:
                    os.kill(int(stat.parent.name), signal.SIGKILL)
        time.sleep(0.005)


def measure_end_to_end(name: str, seed: int, seconds: float, cpus: int,
                       setup_repeats: int, t0: float) -> dict:
    """One untraced run of one workload: the end-to-end metrics.

    ``t0`` is the ``perf_counter`` reading at which the command started.
    """
    from spine import harness
    from spine.workloads import WORKLOADS, Outcome

    host = harness.pin(cpus)
    imports_s = time.perf_counter() - t0
    setups = []
    for attempt in range(setup_repeats):
        workload = WORKLOADS[name]()
        t_setup = time.perf_counter()
        workload.setup(seed)
        setups.append(time.perf_counter() - t_setup)
        if attempt < setup_repeats - 1:
            workload.teardown(Outcome(harness.Windows()))
    out = workload.measure(seconds)
    rss_mb = harness.peak_rss_mb(harness.cluster_pids())
    workload.teardown(out)
    summary = harness.summarize(out.cost, out.latency)
    metrics = {
        # process start -> first timed op: imports, then cluster/process
        # spawn, attach, pre-render and warm-up (median of the set-ups made)
        "setup_s": imports_s + statistics.median(setups),
        "item_cost_cal": summary["item_cost_cal"],
        "item_latency_p50_cal": summary["item_latency_p50_cal"],
        "item_latency_p95_cal": summary["item_latency_p95_cal"],
        "peak_rss_mb": rss_mb,
    }
    return _result(out, metrics, host)


def measure_per_layer(name: str, seed: int, seconds: float, cpus: int) -> dict:
    """One traced run: layer micro-benches, an untraced and a traced phase."""
    from spine import harness, layers, trace
    from spine.workloads import WORKLOADS

    host = harness.pin(cpus)
    metrics = layers.run_all(seed, budget_s=seconds * layers.SHARE_OF_RUN)
    phase_s = seconds * (1.0 - layers.SHARE_OF_RUN) / 2.0

    def phase(traced: bool):
        workload = WORKLOADS[name]()
        workload.setup(seed, traced)
        pids = harness.cluster_pids()
        cpu0 = harness.cpu_ns(pids)
        out = workload.measure(phase_s)
        cpu_us = (harness.cpu_ns(pids) - cpu0) / max(out.attempted, 1) / 1e3
        workload.teardown(out)
        return out, cpu_us, harness.summarize(out.cost, out.latency)

    plain, cpu_us, summary = phase(traced=False)
    trace.clear_dumps()
    trace.install()
    try:
        traced, traced_cpu_us, traced_summary = phase(traced=True)
        trace.dump()
    finally:
        trace.uninstall()
    # What tracing cost per item: the traced phase's item cost over the
    # untraced one's, each in its own cal units, priced at the traced unit.
    overhead_us = max(0.0, (
        traced_summary["item_cost_cal"] - summary["item_cost_cal"]
    ) * traced_summary["bench.cal_unit_ns"] / 1e3)
    budget = trace.budget(
        trace.collect(), traced.t_begin, traced.t_end, traced.phase_items,
        overhead_ns_per_item=overhead_us * 1e3,
    )
    attributed = sum(v for k, v in budget.items() if k.endswith(".self_us"))
    seconds_measured = sum(plain.cost.wall_ns) / 1e9
    metrics.update(layers.WORKLOAD_DEFAULTS)
    metrics.update(plain.extras)
    metrics.update({k: v for k, v in summary.items() if k.startswith("bench.")})
    metrics.update(budget)
    metrics.update({
        # time an item spends queued, parked or descheduled: what is left of
        # its (untraced) median latency once every layer's CPU is taken out
        "budget.wait_us": max(0.0, summary["bench.item_latency_p50_us"] - attributed),
        # CPU the cluster burnt per item outside every recorded span
        "budget.unattributed_us": max(0.0, traced_cpu_us - overhead_us - attributed),
        "bench.payload_mb_per_s":
            plain.payload_bytes / 1e6 / seconds_measured if seconds_measured else 0.0,
        "bench.cpu_us_per_item": cpu_us,
        "bench.trace_overhead_pct": 100.0 * (
            traced_summary["item_cost_cal"] / summary["item_cost_cal"] - 1.0
        ),
        "bench.failed_share": plain.failed / max(plain.attempted, 1),
        "bench.held_items_after": float(plain.held_items_after),
    })
    if name == "kiosk":
        inline_us = metrics["kiosk.inline_ms_per_frame"] * 1e3
        metrics["kiosk.stm_overhead_share"] = 1.0 - inline_us / summary["bench.item_cost_us"]
    plain.failed += traced.failed
    plain.errors += traced.errors
    plain.held_items_after += traced.held_items_after
    return _result(plain, metrics, host)


def _result(out, metrics: dict[str, float], host: dict) -> dict:
    correct = (
        out.failed == 0 and out.held_items_after == 0 and not out.errors
        and out.attempted > 0 and all(map(math.isfinite, metrics.values()))
    )
    return {
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": metrics,
        "held_items_after": out.held_items_after,
        "errors": out.errors[:10],
        "samples": {"windows": len(out.cost), "latency_samples":
                    (out.latency or out.cost).samples},
        "host": host,
    }


# ----------------------------------------------------------------------
# report form
# ----------------------------------------------------------------------
def _run_child(name: str, seed: int, seconds: float, trace: int, cpus: int,
               smoke: bool) -> dict:
    cmd = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--cpus", str(cpus), "--full-result",
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "errors": [f"exit code {proc.returncode}, no result"]}
    return json.loads(lines[-1])


def _pooled(results: list[dict]) -> dict:
    """Several runs of one (workload, kind) as one entry: medians + spread."""
    from spine import compare

    names = list(results[0]["metrics"])
    values = {m: [r["metrics"][m] for r in results if m in r["metrics"]] for m in names}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "held_items_after": sum(r.get("held_items_after", 0) for r in results),
        "errors": [e for r in results for e in r.get("errors", [])][:10],
        "metrics": {m: statistics.median(v) for m, v in values.items()},
        "values": values,  # every run made, in seed order
        "spread": {m: compare.spread_of(v) for m, v in values.items()},
        "samples": [r.get("samples") for r in results],
    }


def report(args) -> int:
    from spine import compare, harness

    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    seeds = list(range(args.seed, args.seed + args.runs))
    doc = {
        "seeds": seeds,
        "seconds": seconds,
        "commit": compare.git_commit(_HERE),
        "host": {**harness.fingerprint(), "cpus_used": args.cpus},
        "workloads": {},
    }
    ok = True
    for name in names:
        kinds = {"end_to_end": 0, **({"per_layer": 1} if args.traced else {})}
        entry = {
            kind: _pooled([
                _run_child(name, seed, seconds, trace, args.cpus, args.smoke)
                for seed in seeds
            ])
            for kind, trace in kinds.items()
        }
        entry["spread"] = entry["end_to_end"]["spread"]
        doc["workloads"][name] = entry
        for kind in kinds:
            result = entry[kind]
            ok = ok and result["correct"]
            print(f"\n== {name} [{kind}] runs={len(seeds)} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_share={result['failed'] / result['attempted']:.6f} "
                  f"held_items_after={result['held_items_after']}")
            for error in result["errors"]:
                print(f"   ! {error}")
            for metric, value in result["metrics"].items():
                spread = (f"  spread {result['spread'][metric]:.2%}"
                          if len(seeds) > 1 else "")
                print(f"   {metric:44s} {value:16.4f} {spec.unit_of(metric)}{spread}")
    out_dir = _HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"result-seed{args.seed}.json"
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nresult written to {out_path}")
    if args.compare:
        old = json.loads(pathlib.Path(args.compare).read_text())
        print()
        print(compare.render(compare.compare_docs(old, doc)))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract form: 0 = end-to-end, 1 = per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="report form: also make the traced per-layer run")
    parser.add_argument("--compare", metavar="OLD.json")
    parser.add_argument("--runs", type=int, default=1,
                        help="report form: runs per workload, seeds N..N+K-1; "
                             "records each metric's median and spread")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s per workload, one set-up")
    parser.add_argument("--cpus", type=int, default=1,
                        help="CPUs to pin to (the contract run uses 1)")
    parser.add_argument("--full-result", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace is None:
        return report(args)
    if not args.workload:
        parser.error("--trace needs --workload")
    if args.t0 is None:  # the command itself; the child it starts has --t0
        return supervise(sys.argv[1:] if argv is None else argv)
    if args.trace:
        result = measure_per_layer(args.workload, args.seed, args.seconds, args.cpus)
    else:
        result = measure_end_to_end(
            args.workload, args.seed, args.seconds, args.cpus,
            1 if args.smoke else SETUP_REPEATS, args.t0,
        )
    if not args.full_result:  # the contract's line: four keys, values with units
        for error in result["errors"]:
            print(f"! {error}", file=sys.stderr)
        result = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        result["metrics"] = {
            k: {"value": v, "unit": spec.unit_of(k)}
            for k, v in result["metrics"].items()
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
