"""``--compare OLD.json``: classify each end-to-end metric against a baseline.

One row per (workload, end-to-end metric): both values, the ratio with its
base, the bound, and a verdict.  Per-layer rows are listed below and never
gated.  A metric whose recorded same-code spread (the interquartile range of
repeated runs, as a share of their median, written by ``--runs K``) exceeds
its bound cannot be resolved by a single comparison and says so.
"""

from __future__ import annotations

import pathlib
import statistics
import subprocess
from typing import NamedTuple

from spine import spec

__all__ = ["Row", "classify", "compare_docs", "git_commit", "render", "spread_of"]


class Row(NamedTuple):
    workload: str
    metric: str
    old: float
    new: float
    ratio: float  # new / old
    bound: float | None
    verdict: str  # better | within | worse | unresolved | listed


def spread_of(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def classify(old: float, new: float, bound: float, better: str,
             spread: float = 0.0) -> str:
    """``better | within | worse | unresolved`` for one end-to-end metric."""
    if spread > bound:
        return "unresolved"
    change = (new - old) / old  # > 0: the value grew
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within"


def _metrics(doc: dict, workload: str, kind: str) -> dict[str, float]:
    return doc["workloads"].get(workload, {}).get(kind, {}).get("metrics", {})


def compare_docs(old: dict, new: dict) -> list[Row]:
    rows: list[Row] = []
    for workload in new["workloads"]:
        old_m, new_m = (_metrics(d, workload, "end_to_end") for d in (old, new))
        spreads = old["workloads"].get(workload, {}).get("spread", {})
        for metric in spec.END_TO_END:
            if metric.name not in old_m or metric.name not in new_m:
                continue
            a, b = old_m[metric.name], new_m[metric.name]
            rows.append(Row(
                workload, metric.name, a, b, b / a, metric.bound,
                classify(a, b, metric.bound, metric.better,
                         spreads.get(metric.name, 0.0)),
            ))
    for workload in new["workloads"]:
        old_m, new_m = (_metrics(d, workload, "per_layer") for d in (old, new))
        for metric in spec.PER_LAYER:
            if metric.name in old_m and metric.name in new_m:
                a, b = old_m[metric.name], new_m[metric.name]
                rows.append(Row(workload, metric.name, a, b,
                                b / a if a else float("nan"), None, "listed"))
    return rows


def render(rows: list[Row]) -> str:
    lines = [f"{'workload':14s} {'metric':44s} {'old':>14s} {'new':>14s} "
             f"{'new/old':>8s} {'bound':>6s}  verdict"]
    for row in rows:
        bound = f"{row.bound:.0%}" if row.bound is not None else "-"
        lines.append(
            f"{row.workload:14s} {row.metric:44s} {row.old:14.4f} {row.new:14.4f} "
            f"{row.ratio:8.3f} {bound:>6s}  {row.verdict}"
        )
    return "\n".join(lines)


def git_commit(where: pathlib.Path) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=where, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None
