"""Command-line harness: regenerate every paper table and ablation.

Usage::

    python -m repro.bench                 # simulated tables (the paper repro)
    python -m repro.bench --mode both     # + measured rows on this host
    python -m repro.bench --only fig10    # one experiment
    python -m repro.bench --out tables.txt

This is the scriptable twin of ``pytest benchmarks/ -s``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.bench.ablations import (
    channel_depth_ablation,
    gc_cadence_ablation,
    gc_strategy_ablation,
    placement_ablation,
    push_ablation,
    skipping_ablation,
)
from repro.bench.fig08 import clf_latency_table
from repro.bench.pipeline_sim import pipeline_placement_table
from repro.bench.fig09 import clf_bandwidth_table
from repro.bench.fig10 import stm_latency_table
from repro.bench.fig11 import stm_bandwidth_table
from repro.bench.tables import TableResult

__all__ = ["EXPERIMENTS", "run", "main"]

#: experiment id -> (description, callable(mode) -> list[TableResult])
EXPERIMENTS: dict[str, tuple[str, Callable[[str], list[TableResult]]]] = {
    "fig08": (
        "Fig. 8: CLF one-way latencies",
        lambda mode: _modes(clf_latency_table, mode),
    ),
    "fig09": (
        "Fig. 9: CLF bandwidths",
        lambda mode: _modes(clf_bandwidth_table, mode),
    ),
    "fig10": (
        "Fig. 10: STM one-way latencies",
        lambda mode: _modes(stm_latency_table, mode),
    ),
    "fig11": (
        "Fig. 11: STM bandwidths (image payloads)",
        lambda mode: _modes(stm_bandwidth_table, mode),
    ),
    "ablation-gc": (
        "Ablation: GC strategies (§6)",
        lambda mode: [gc_strategy_ablation()],
    ),
    "ablation-placement": (
        "Ablation: channel placement (§6/§9)",
        lambda mode: [placement_ablation()],
    ),
    "ablation-depth": (
        "Ablation: bounded channel depth (§4.1)",
        lambda mode: [channel_depth_ablation()],
    ),
    "ablation-skipping": (
        "Ablation: LATEST_UNSEEN skipping (§3)",
        lambda mode: [skipping_ablation()],
    ),
    "ablation-gc-cadence": (
        "Ablation: GC cadence (§4.2)",
        lambda mode: [gc_cadence_ablation()],
    ),
    "ablation-push": (
        "Ablation: eager push vs pull (§9; measured on this host)",
        lambda mode: [push_ablation()],
    ),
    "pipeline-placement": (
        "Kiosk pipeline latency per placement (sim vs scheduler model)",
        lambda mode: [pipeline_placement_table()],
    ),
}


def _modes(driver: Callable[[str], TableResult], mode: str) -> list[TableResult]:
    if mode == "both":
        return [driver("simulated"), driver("measured")]
    return [driver(mode)]


def run(only: list[str] | None = None, mode: str = "simulated") -> list[TableResult]:
    """Run the selected experiments; returns the tables in order."""
    ids = only or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiment id(s) {unknown}; choose from "
            f"{sorted(EXPERIMENTS)}"
        )
    tables: list[TableResult] = []
    for exp_id in ids:
        _desc, fn = EXPERIMENTS[exp_id]
        tables.extend(fn(mode))
    return tables


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's performance tables.",
    )
    parser.add_argument(
        "--mode",
        choices=["simulated", "measured", "both"],
        default="simulated",
        help="simulated = 1998-cluster reproduction; measured = this host",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        metavar="ID",
        help=f"experiment ids to run (default: all of {sorted(EXPERIMENTS)})",
    )
    parser.add_argument("--out", help="also write the tables to this file")
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for exp_id, (desc, _fn) in EXPERIMENTS.items():
            print(f"{exp_id:22s} {desc}")
        return 0

    tables = run(args.only, args.mode)
    text = "\n\n".join(table.render() for table in tables)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"\n[written to {args.out}]", file=sys.stderr)
    return 0
