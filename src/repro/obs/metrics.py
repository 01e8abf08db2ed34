"""The metrics registry: counters, gauges, and fixed-bucket histograms.

This module supersedes the ad-hoc counter scattering the runtime grew over
time: :func:`repro.runtime.stats.cluster_report` and the benchmark harness
are now views over one :class:`MetricsRegistry` (the process-wide default is
:data:`REGISTRY`).  Metrics are keyed by name plus free-form labels
(``channel=...``, ``space=...``, ``connection=...``), so per-channel latency
distributions — the thing that separates STM protocol behaviours, per the
Synchrobench comparison (PAPERS.md) — fall out of the same instrumentation
points the tracer uses.

Histograms use fixed log-spaced buckets (a 1-2-5 series) so a million-sample
run costs O(#buckets) memory and percentile estimates (p50/p95/p99) are
computed by linear interpolation inside the bucket — accurate to the bucket
resolution, which is what latency reporting needs.

The streaming-statistics helpers (:class:`OnlineStats`, :func:`percentile`,
:func:`summarize`) moved here from ``repro.util.stats``; the deprecation
shim that bridged the move has since been removed.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = [
    "OnlineStats",
    "percentile",
    "summarize",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "DEFAULT_SECONDS_BUCKETS",
    "merge_dumps",
    "dump_as_snapshot",
]


# ======================================================================
# streaming statistics (canonical home)
# ======================================================================
def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile of ``samples`` (``q`` in [0, 100]).

    Mirrors ``numpy.percentile(..., method="linear")`` but avoids pulling
    numpy into the hot measurement path for tiny sample sets.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    data = sorted(samples)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * (q / 100.0)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return data[lo]
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


@dataclass
class OnlineStats:
    """Welford online accumulator with optional sample retention.

    Parameters
    ----------
    keep_samples:
        When true, raw samples are retained so percentiles can be computed.
    """

    keep_samples: bool = False
    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    samples: list[float] = field(default_factory=list)

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if self.keep_samples:
            self.samples.append(x)

    def extend(self, xs) -> None:
        for x in xs:
            self.add(x)

    @property
    def variance(self) -> float:
        """Sample variance (Bessel-corrected); 0.0 for fewer than 2 samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def pctl(self, q: float) -> float:
        if not self.keep_samples:
            raise ValueError("OnlineStats was created with keep_samples=False")
        return percentile(self.samples, q)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new accumulator combining both (Chan parallel merge)."""
        merged = OnlineStats(keep_samples=self.keep_samples and other.keep_samples)
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other.mean - self.mean
        merged.mean = self.mean + delta * other.count / merged.count
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        if merged.keep_samples:
            merged.samples = self.samples + other.samples
        return merged

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


def summarize(samples) -> OnlineStats:
    """Build an :class:`OnlineStats` (with retained samples) from an iterable."""
    stats = OnlineStats(keep_samples=True)
    stats.extend(samples)
    return stats


# ======================================================================
# registry metrics
# ======================================================================
def _bucket_series(lo: float, hi: float) -> list[float]:
    """A 1-2-5 log series of bucket upper bounds covering [lo, hi]."""
    out: list[float] = []
    decade = 10.0 ** math.floor(math.log10(lo))
    while decade <= hi:
        for mult in (1.0, 2.0, 5.0):
            bound = decade * mult
            if lo <= bound <= hi:
                out.append(bound)
        decade *= 10.0
    return out


#: Default latency buckets: 1 µs to 10 s, in nanoseconds (1-2-5 series).
DEFAULT_LATENCY_BUCKETS_NS: tuple[float, ...] = tuple(_bucket_series(1e3, 1e10))

#: Duration buckets for slow-path timings kept in seconds (e.g. GC epochs).
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = tuple(_bucket_series(1e-6, 1e2))


class Counter:
    """A monotonically increasing count (ops, bytes, packets, ...)."""

    __slots__ = ("name", "labels", "_value", "_lock")
    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, object], ...] = ()):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int | float = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int | float:
        return self._value

    def as_dict(self) -> dict:
        return {"value": self._value}

    def dump(self) -> dict:
        """Complete, mergeable state (see :func:`merge_dumps`)."""
        return {"value": self._value}

    def merge(self, other: "Counter") -> "Counter":
        """A new counter carrying both counts (cross-process aggregation)."""
        merged = Counter(self.name, self.labels)
        merged._value = self._value + other._value
        return merged


class Gauge:
    """A value that goes up and down (occupancy, virtual time, lag)."""

    __slots__ = ("name", "labels", "_value", "_lock")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, object], ...] = ()):
        self.name = name
        self.labels = labels
        self._value: float | int | None = None
        self._lock = threading.Lock()

    def set(self, value: float | int) -> None:
        self._value = value

    def inc(self, n: float | int = 1) -> None:
        with self._lock:
            self._value = (self._value or 0) + n

    @property
    def value(self) -> float | int | None:
        return self._value

    def as_dict(self) -> dict:
        return {"value": self._value}

    def dump(self) -> dict:
        return {"value": self._value}

    def merge(self, other: "Gauge") -> "Gauge":
        """A new gauge; the other side's sample wins when it has one.

        Gauges are point-in-time readings, so "merge" can only pick one —
        harvest order puts the most recently snapshotted process last, and
        that reading is the freshest available.
        """
        merged = Gauge(self.name, self.labels)
        merged._value = other._value if other._value is not None else self._value
        return merged


class Histogram:
    """Fixed-bucket histogram with interpolated percentile estimates.

    ``buckets`` are the upper bounds of the finite buckets (sorted); one
    overflow bucket catches everything above the last bound.  Exact min,
    max, count, and sum are tracked alongside, so ``percentile`` clamps its
    interpolation to the observed range (a single sample reports itself,
    not its bucket's midpoint).
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum",
                 "min", "max", "_lock")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, object], ...] = (),
        buckets: tuple[float, ...] | None = None,
    ):
        self.name = name
        self.labels = labels
        if buckets is None:
            buckets = DEFAULT_LATENCY_BUCKETS_NS
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)  # +1 overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile by interpolating inside the bucket."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            raise ValueError("percentile of an empty histogram")
        rank = (q / 100.0) * self.count
        cumulative = 0
        for idx, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lo = self.buckets[idx - 1] if idx > 0 else self.min
                hi = self.buckets[idx] if idx < len(self.buckets) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                frac = (rank - cumulative) / n
                return lo + (hi - lo) * frac
            cumulative += n
        return self.max  # pragma: no cover - rank <= count always hits above

    def as_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def dump(self) -> dict:
        """Complete, mergeable state: bucket bounds *and* per-bucket counts.

        ``as_dict`` is the human stats view (percentiles only); merging
        histograms across processes needs the raw bucket occupancy, which
        is what the telemetry harvest ships.
        """
        return {
            "buckets": list(self.buckets),
            "bucket_counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dump(
        cls,
        entry: dict,
        name: str = "",
        labels: tuple[tuple[str, object], ...] = (),
    ) -> "Histogram":
        """Reconstruct a histogram from :meth:`dump` output (no locking state)."""
        hist = cls(name, labels, buckets=tuple(entry["buckets"]))
        hist.counts = list(entry["bucket_counts"])
        hist.count = entry["count"]
        hist.sum = entry["sum"]
        hist.min = entry["min"] if entry.get("min") is not None else math.inf
        hist.max = entry["max"] if entry.get("max") is not None else -math.inf
        return hist

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram pooling both sides' samples (exact, not approximate).

        Fixed-bucket histograms over the *same* bounds merge losslessly:
        per-bucket counts, count, sum, min, and max all add/extremize
        exactly, so percentile estimates of the merged histogram equal the
        estimates a single histogram fed the pooled sample stream would
        give.  Mismatched bucket bounds raise — resolution cannot be
        invented after the fact.
        """
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{len(self.buckets)} vs {len(other.buckets)} bounds"
            )
        merged = Histogram(self.name, self.labels, buckets=self.buckets)
        merged.counts = [a + b for a, b in zip(self.counts, other.counts,
                                               strict=True)]
        merged.count = self.count + other.count
        merged.sum = self.sum + other.sum
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged


class MetricsRegistry:
    """Get-or-create registry of metrics keyed by (name, labels)."""

    def __init__(self):
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()
        #: bumped by :meth:`reset`; a caller that keeps a metric handle
        #: across calls re-resolves it when the epoch it saw has passed.
        self.epoch = 0

    @staticmethod
    def _key(name: str, labels: dict) -> tuple:
        return (name, tuple(sorted(labels.items())))

    def _get_or_create(self, cls, name: str, labels: dict, **kwargs):
        key = self._key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} {labels!r} already registered as "
                    f"{metric.kind}, requested {cls.kind}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    def find(self, name: str, **labels):
        """The metric registered under (name, labels), or None."""
        with self._lock:
            return self._metrics.get(self._key(name, labels))

    def collect(self, name: str | None = None) -> list:
        """All metrics (optionally filtered by name), creation-ordered."""
        with self._lock:
            return [
                m for m in self._metrics.values()
                if name is None or m.name == name
            ]

    def snapshot(self) -> dict:
        """JSON-ready dump: name -> list of {labels, kind, ...stats}."""
        out: dict[str, list] = {}
        for metric in self.collect():
            out.setdefault(metric.name, []).append(
                {"labels": dict(metric.labels), "kind": metric.kind,
                 **metric.as_dict()}
            )
        return out

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
            self.epoch += 1

    def dump(self) -> dict:
        """Mergeable dump: name -> list of {labels, kind, ...full state}.

        Same outer shape as :meth:`snapshot`, but each entry carries the
        *complete* metric state (raw bucket counts, not percentiles), so
        dumps harvested from different processes can be pooled with
        :func:`merge_dumps` and only then rendered with
        :func:`dump_as_snapshot`.  Everything inside is picklable and
        JSON-ready.
        """
        out: dict[str, list] = {}
        for metric in self.collect():
            out.setdefault(metric.name, []).append(
                {"labels": dict(metric.labels), "kind": metric.kind,
                 **metric.dump()}
            )
        return out


def _merge_dump_entries(kind: str, a: dict, b: dict) -> dict:
    """Merge two same-kind dump entries (labels already known equal)."""
    if kind == "counter":
        return {**a, "value": a["value"] + b["value"]}
    if kind == "gauge":
        return {**a, "value": b["value"] if b["value"] is not None
                else a["value"]}
    if kind == "histogram":
        merged = Histogram.from_dump(a).merge(Histogram.from_dump(b))
        return {"labels": a["labels"], "kind": kind, **merged.dump()}
    raise ValueError(f"unknown metric kind {kind!r}")


def merge_dumps(dumps: list[dict]) -> dict:
    """Pool several :meth:`MetricsRegistry.dump` documents into one.

    Entries sharing (name, labels, kind) are combined — counters add,
    gauges keep the last non-None reading, histograms merge their bucket
    counts exactly.  Entries unique to one dump pass through unchanged.
    The result is itself a valid dump (mergeable again, renderable with
    :func:`dump_as_snapshot`).
    """
    merged: dict[str, dict[tuple, dict]] = {}
    for dump in dumps:
        for name, entries in dump.items():
            per_name = merged.setdefault(name, {})
            for entry in entries:
                key = (tuple(sorted(entry["labels"].items())), entry["kind"])
                prior = per_name.get(key)
                if prior is None:
                    per_name[key] = dict(entry)
                else:
                    per_name[key] = _merge_dump_entries(
                        entry["kind"], prior, entry)
    return {name: list(per_name.values())
            for name, per_name in merged.items()}


def dump_as_snapshot(dump: dict) -> dict:
    """Render a dump in the human :meth:`MetricsRegistry.snapshot` shape.

    Histogram entries are reconstructed so p50/p95/p99 come from the
    (possibly merged) bucket counts, exactly as a live registry would
    report them.
    """
    out: dict[str, list] = {}
    for name, entries in dump.items():
        for entry in entries:
            if entry["kind"] == "histogram":
                stats = Histogram.from_dump(entry, name=name).as_dict()
            else:
                stats = {"value": entry["value"]}
            out.setdefault(name, []).append(
                {"labels": entry["labels"], "kind": entry["kind"], **stats}
            )
    return out


#: The process-wide default registry (instrumentation points feed this one).
REGISTRY = MetricsRegistry()
