"""Prometheus exposition tests: golden text format, escaping, HTTP routes."""

import json
import math
import threading
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import (
    CONTENT_TYPE,
    ExpositionServer,
    _escape_label_value,
    _format_value,
    render_prometheus,
    render_top,
)


def sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("frames_total", space=0, stage="digitizer").inc(30)
    reg.counter("frames_total", space=1, stage="tracker").inc(29)
    reg.gauge("stm_virtual_time", space=0, thread="driver").set(12)
    reg.histogram("stm_put_ns", buckets=(10.0, 100.0, 1000.0),
                  channel="video").observe(5)
    reg.histogram("stm_put_ns", buckets=(10.0, 100.0, 1000.0),
                  channel="video").observe(50)
    reg.histogram("stm_put_ns", buckets=(10.0, 100.0, 1000.0),
                  channel="video").observe(5000)
    return reg


class TestRendering:
    def test_golden_document(self):
        text = render_prometheus(sample_registry())
        lines = text.splitlines()
        # One TYPE header per metric, names sorted.
        types = [line for line in lines if line.startswith("# TYPE")]
        assert types == [
            "# TYPE frames_total counter",
            "# TYPE stm_put_ns histogram",
            "# TYPE stm_virtual_time gauge",
        ]
        assert 'frames_total{space="0",stage="digitizer"} 30' in lines
        assert 'frames_total{space="1",stage="tracker"} 29' in lines
        assert 'stm_virtual_time{space="0",thread="driver"} 12' in lines
        # Histogram: cumulative buckets up to +Inf, then _sum and _count.
        assert 'stm_put_ns_bucket{channel="video",le="10"} 1' in lines
        assert 'stm_put_ns_bucket{channel="video",le="100"} 2' in lines
        assert 'stm_put_ns_bucket{channel="video",le="1000"} 2' in lines
        assert 'stm_put_ns_bucket{channel="video",le="+Inf"} 3' in lines
        assert 'stm_put_ns_sum{channel="video"} 5055' in lines
        assert 'stm_put_ns_count{channel="video"} 3' in lines
        assert text.endswith("\n")

    def test_accepts_dump_and_is_deterministic(self):
        reg = sample_registry()
        assert render_prometheus(reg.dump()) == render_prometheus(reg)
        assert render_prometheus(reg) == render_prometheus(reg)

    def test_label_keys_sorted_regardless_of_insertion_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m", zulu=1, alpha=2).inc()
        b.counter("m", alpha=2, zulu=1).inc()
        line = 'm{alpha="2",zulu="1"} 1'
        assert line in render_prometheus(a)
        assert render_prometheus(a) == render_prometheus(b)

    def test_label_value_escaping(self):
        assert _escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        reg = MetricsRegistry()
        reg.counter("m", path='C:\\tmp "x"\nend').inc(2)
        text = render_prometheus(reg)
        assert 'm{path="C:\\\\tmp \\"x\\"\\nend"} 2' in text
        # The rendered document itself still has one sample per line.
        sample_lines = [ln for ln in text.splitlines()
                        if not ln.startswith("#")]
        assert sample_lines == ['m{path="C:\\\\tmp \\"x\\"\\nend"} 2']

    def test_value_formatting(self):
        assert _format_value(42) == "42"
        assert _format_value(42.0) == "42"          # float collapse
        assert _format_value(0.25) == "0.25"
        assert _format_value(float("inf")) == "+Inf"
        assert _format_value(float("-inf")) == "-Inf"
        assert _format_value(float("nan")) == "NaN"
        assert _format_value(None) == "NaN"

    def test_unset_gauge_is_skipped_but_inf_is_exposed(self):
        reg = MetricsRegistry()
        reg.gauge("never_set", space=0)
        reg.gauge("vt", thread="interior").set(float("inf"))
        text = render_prometheus(reg)
        assert "never_set{" not in text
        assert 'vt{thread="interior"} +Inf' in text

    def test_metric_name_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("weird-name.with spaces").inc()
        text = render_prometheus(reg)
        assert "# TYPE weird_name_with_spaces counter" in text

    def test_empty_registry(self):
        assert render_prometheus(MetricsRegistry()) == "\n"

    def test_series_sorted_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("m", space=2).inc()
        reg.counter("m", space=0).inc()
        reg.counter("m", space=1).inc()
        lines = render_prometheus(reg).splitlines()
        assert lines == [
            "# TYPE m counter",
            'm{space="0"} 1', 'm{space="1"} 1', 'm{space="2"} 1',
        ]


class TestExpositionServer:
    @pytest.fixture()
    def server(self):
        reg = sample_registry()
        server = ExpositionServer(source=reg.dump).start()
        yield server
        server.stop()

    def _get(self, server, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}{path}", timeout=10
        ) as resp:
            return resp.status, resp.headers, resp.read()

    def test_metrics_route_content_type_and_body(self, server):
        status, headers, body = self._get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        text = body.decode()
        assert "# TYPE frames_total counter" in text
        assert 'frames_total{space="0",stage="digitizer"} 30' in text
        # Root serves the same document.
        assert self._get(server, "/")[2] == body

    def test_snapshot_route_is_json(self, server):
        status, headers, body = self._get(server, "/snapshot")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        snap = json.loads(body)
        entry = snap["stm_put_ns"][0]
        assert entry["labels"] == {"channel": "video"}
        assert entry["count"] == 3

    def test_healthz(self, server):
        status, _headers, body = self._get(server, "/healthz")
        assert status == 200
        assert body == b"ok\n"

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(server, "/nope")
        assert exc.value.code == 404

    def test_url_property(self, server):
        assert server.url == f"http://127.0.0.1:{server.port}/metrics"

    def test_concurrent_scrapes_all_get_the_same_body(self, server):
        """100 scrapers fire at once, as a fleet scraping in lockstep does."""
        n = 100
        barrier = threading.Barrier(n)
        bodies: list = [None] * n

        def scrape(idx: int) -> None:
            barrier.wait()
            try:
                bodies[idx] = self._get(server, "/metrics")[2]
            except Exception as exc:  # noqa: BLE001 - asserted below
                bodies[idx] = exc

        threads = [threading.Thread(target=scrape, args=(i,)) for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        failed = [b for b in bodies if not isinstance(b, bytes)]
        assert not failed, failed[:3]
        assert set(bodies) == {render_prometheus(sample_registry()).encode()}

    def test_live_source_reflects_updates(self):
        reg = MetricsRegistry()
        counter = reg.counter("ticks_total")
        server = ExpositionServer(source=reg.dump).start()
        try:
            assert b"ticks_total 0" in self._get(server, "/metrics")[2]
            counter.inc(7)
            assert b"ticks_total 7" in self._get(server, "/metrics")[2]
        finally:
            server.stop()


class TestRenderTop:
    def test_sections_present(self):
        snapshot = {
            "stm_put_ns": [{
                "labels": {"channel": "video", "space": 1},
                "count": 30, "p50": 1500.0, "p95": 2.5e6, "p99": 1.2e9,
            }],
            "gc_epoch_seconds": [{
                "labels": {"space": 0},
                "count": 4, "mean": 0.002, "p95": 0.004,
            }],
            "gc_collected_total": [{"labels": {"space": 0}, "value": 17}],
            "clf_wire_bytes_total": [{
                "labels": {"space": 0, "medium": "shm", "direction": "tx"},
                "value": 2048.0,
            }],
            "stm_virtual_time": [
                {"labels": {"space": 0, "thread": "driver"}, "value": 12},
                {"labels": {"space": 2, "thread": "tracker"},
                 "value": float("inf")},
            ],
        }
        text = render_top(snapshot)
        assert "channel ops (latency)" in text
        assert "video" in text and "1.5µs" in text
        assert "space 0: 4 epochs" in text
        assert "items reclaimed: 17" in text
        assert "2.0 KiB" in text
        assert "vt=12" in text
        assert "vt=∞" in text

    def test_empty_snapshot(self):
        assert render_top({}) == "stmtop: no metrics recorded yet"

    def test_works_from_dump_as_snapshot(self):
        from repro.obs.metrics import dump_as_snapshot

        snap = dump_as_snapshot(sample_registry().dump())
        text = render_top(snap)
        assert "channel ops (latency)" in text
        assert "video" in text

    def test_infinity_not_math_domain_error(self):
        # A gauge holding inf must render, not crash f-string formatting.
        text = render_top({
            "stm_virtual_time": [
                {"labels": {"thread": "t"}, "value": float("inf")}]
        })
        assert math.isfinite(len(text))
