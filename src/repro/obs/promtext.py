"""Prometheus text exposition + the ``stmtop`` live view.

:func:`render_prometheus` turns any mergeable metrics dump (one process's
:meth:`~repro.obs.metrics.MetricsRegistry.dump`, or a cluster-merged dump
from :meth:`~repro.obs.collect.ClusterTelemetry.metrics_dump` where every
series carries a ``space`` label) into `Prometheus text exposition format
0.0.4 <https://prometheus.io/docs/instrumenting/exposition_formats/>`_:
``# TYPE`` headers, cumulative ``_bucket{le=...}`` series, ``_sum`` and
``_count``, escaped label values, deterministically ordered output.

:class:`ExpositionServer` serves it over stdlib ``http.server`` — no new
dependencies — so ``curl localhost:PORT/metrics`` or a Prometheus scrape
job works against a live cluster run (``python -m repro.obs serve``).

:func:`render_top` is the terminal view of the same snapshot: per-channel
put/get latency percentiles, GC epoch times, wire traffic, and per-thread
virtual time — the paper-§8 space-time picture, one screenful at a time.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.obs import metrics as _metrics
from repro.obs.metrics import dump_as_snapshot

__all__ = [
    "CONTENT_TYPE",
    "render_prometheus",
    "ExpositionServer",
    "render_top",
]

#: The exposition-format content type Prometheus scrapers expect.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------
def _escape_label_value(value: object) -> str:
    """Escape a label value per the exposition format (\\\\, \\", \\n)."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _format_value(value: float | int | None) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _format_le(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else _format_value(float(bound))


def _label_str(labels: dict, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [(k, _escape_label_value(v)) for k, v in sorted(labels.items())]
    pairs += list(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def _sanitize_name(name: str) -> str:
    out = "".join(
        c if c.isalnum() or c in ("_", ":") else "_" for c in name
    )
    if out and out[0].isdigit():
        out = "_" + out
    return out


def render_prometheus(dump: dict | _metrics.MetricsRegistry) -> str:
    """Render a metrics dump in Prometheus text exposition format 0.0.4.

    Accepts a live registry (dumped on the spot) or any mergeable dump —
    including a cluster-merged one whose entries carry ``space`` labels.
    Output is deterministic: metric names sorted, series sorted by label
    string, labels sorted by key inside each series.
    """
    if isinstance(dump, _metrics.MetricsRegistry):
        dump = dump.dump()
    lines: list[str] = []
    for name in sorted(dump):
        entries = dump[name]
        if not entries:
            continue
        pname = _sanitize_name(name)
        kind = entries[0]["kind"]
        lines.append(f"# TYPE {pname} {kind}")
        series: list[str] = []
        for entry in entries:
            labels = entry["labels"]
            if entry["kind"] == "counter":
                series.append(
                    f"{pname}{_label_str(labels)} "
                    f"{_format_value(entry['value'])}"
                )
            elif entry["kind"] == "gauge":
                if entry["value"] is None:
                    continue  # never set: no sample to expose
                series.append(
                    f"{pname}{_label_str(labels)} "
                    f"{_format_value(entry['value'])}"
                )
            elif entry["kind"] == "histogram":
                chunk: list[str] = []
                cumulative = 0
                bounds = [*entry["buckets"], math.inf]
                for bound, count in zip(
                    bounds, entry["bucket_counts"], strict=True
                ):
                    cumulative += count
                    le = (("le", _format_le(bound)),)
                    chunk.append(
                        f"{pname}_bucket{_label_str(labels, le)} {cumulative}"
                    )
                chunk.append(
                    f"{pname}_sum{_label_str(labels)} "
                    f"{_format_value(entry['sum'])}"
                )
                chunk.append(
                    f"{pname}_count{_label_str(labels)} {entry['count']}"
                )
                series.append("\n".join(chunk))
        lines.extend(sorted(series))
    return "\n".join(lines) + "\n" if lines else "\n"


# ----------------------------------------------------------------------
# the exposition endpoint
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    server: "ExpositionServer"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        try:
            if path in ("/metrics", "/"):
                body = render_prometheus(self.server.source()).encode()
                ctype = CONTENT_TYPE
            elif path == "/snapshot":
                snap = dump_as_snapshot(self.server.source())
                body = json.dumps(snap, indent=1, default=str).encode()
                ctype = "application/json; charset=utf-8"
            elif path == "/healthz":
                body = b"ok\n"
                ctype = "text/plain; charset=utf-8"
            else:
                self.send_error(404, "unknown path (try /metrics)")
                return
        except Exception as exc:  # pragma: no cover - defensive
            self.send_error(500, f"snapshot failed: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass  # scrapes every few seconds; keep stderr quiet


class ExpositionServer(ThreadingHTTPServer):
    """A stdlib HTTP endpoint exposing a metrics source to Prometheus.

    ``source`` is any zero-argument callable returning a mergeable dump —
    the process-wide registry by default, or a cluster harvest for the
    merged multi-process view::

        server = ExpositionServer(port=9464)
        server.start()          # daemon thread; server.port is bound
        ... curl http://127.0.0.1:9464/metrics ...
        server.stop()

    Routes: ``/metrics`` (Prometheus text), ``/snapshot`` (JSON stats
    view), ``/healthz``.
    """

    daemon_threads = True
    #: socketserver's default listen backlog is 5 — a fleet of Prometheus
    #: instances scraping in lockstep overflows that and sees connection
    #: resets or SYN-retransmit stalls (tests/obs/test_promtext.py fires
    #: 100 scrapes at once and fails with the default).
    request_queue_size = 128

    def __init__(
        self,
        source: Callable[[], dict] | None = None,
        port: int = 0,
        host: str = "127.0.0.1",
    ):
        super().__init__((host, port), _Handler)
        self.source = source if source is not None else _metrics.REGISTRY.dump
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}/metrics"

    def start(self) -> "ExpositionServer":
        self._thread = threading.Thread(
            target=self.serve_forever, name="stm-exposition", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# ----------------------------------------------------------------------
# stmtop: the terminal view
# ----------------------------------------------------------------------
def _fmt_ns(ns: float | None) -> str:
    if ns is None:
        return "      -"
    if ns >= 1e9:
        return f"{ns / 1e9:6.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:5.1f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:5.1f}µs"
    return f"{ns:5.0f}ns"


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:7.1f} {unit}"
        n /= 1024
    return f"{n:7.1f} GiB"  # pragma: no cover - loop always returns


def render_top(snapshot: dict) -> str:
    """An ``stmtop`` screen from a metrics snapshot (single- or multi-space).

    Sections: per-channel put/get latency (count, p50/p95/p99), GC epochs,
    CLF wire traffic, and per-thread virtual time — whatever the snapshot
    actually carries; absent sections are omitted.
    """
    lines: list[str] = []
    ops = []
    for op, metric in (("put", "stm_put_ns"), ("get", "stm_get_ns"),
                       ("consume", "stm_consume_ns")):
        for entry in snapshot.get(metric, []):
            if entry.get("count"):
                ops.append((op, entry))
    if ops:
        lines.append("channel ops (latency)")
        lines.append(
            f"  {'op':<8} {'channel':<20} {'space':>5} {'count':>8} "
            f"{'p50':>8} {'p95':>8} {'p99':>8}"
        )
        for op, entry in ops:
            labels = entry["labels"]
            lines.append(
                f"  {op:<8} {str(labels.get('channel', '-')):<20} "
                f"{str(labels.get('space', '-')):>5} {entry['count']:>8} "
                f"{_fmt_ns(entry.get('p50')):>8} "
                f"{_fmt_ns(entry.get('p95')):>8} "
                f"{_fmt_ns(entry.get('p99')):>8}"
            )
    gc_entries = [e for e in snapshot.get("gc_epoch_seconds", [])
                  if e.get("count")]
    if gc_entries:
        lines.append("garbage collector")
        for entry in gc_entries:
            labels = entry["labels"]
            space = labels.get("space", "-")
            lines.append(
                f"  space {space}: {entry['count']} epochs, "
                f"mean {entry['mean'] * 1e3:.2f} ms, "
                f"p95 {entry['p95'] * 1e3:.2f} ms"
            )
        collected = snapshot.get("gc_collected_total", [])
        total = sum(e.get("value") or 0 for e in collected)
        if total:
            lines.append(f"  items reclaimed: {int(total)}")
    wire = snapshot.get("clf_wire_bytes_total", [])
    if wire:
        lines.append("clf wire traffic")
        for entry in sorted(
            wire, key=lambda e: tuple(sorted(e["labels"].items()))
        ):
            labels = entry["labels"]
            lines.append(
                f"  space {labels.get('space', '-')} "
                f"{str(labels.get('medium', '?')):<4} "
                f"{str(labels.get('direction', '?')):<2} "
                f"{_fmt_bytes(entry.get('value') or 0)}"
            )
    vt = [e for e in snapshot.get("stm_virtual_time", [])
          if e.get("value") is not None]
    if vt:
        lines.append("virtual time")
        for entry in sorted(
            vt, key=lambda e: tuple(sorted(e["labels"].items()))
        ):
            labels = entry["labels"]
            value = entry["value"]
            shown = "∞" if isinstance(value, float) and math.isinf(value) \
                else f"{value:g}"
            lines.append(
                f"  space {labels.get('space', '-')} "
                f"{str(labels.get('thread', '?')):<24} vt={shown}"
            )
    if not lines:
        return "stmtop: no metrics recorded yet"
    return "\n".join(lines)
