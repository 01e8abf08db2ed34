"""End-to-end tracing through the real runtime: clusters, the kiosk, CLI.

These are the acceptance tests of the observability PR: a traced run must
yield a *valid* Chrome trace containing put/get/consume spans, GC-epoch
spans, CLF packet events, and per-thread virtual-time counters.
"""

import json

import pytest

from repro.obs import events as obs_events
from repro.obs.export import (
    lag_report,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.metrics import REGISTRY
from repro.runtime import Cluster
from repro.runtime.threads import require_current_thread
from repro.stm import STM


def run_traced_pipeline(n_items=15):
    """Producer on space 0, consumer on space 1, one GC round; traced."""
    with obs_events.trace() as rec:
        with Cluster(n_spaces=2, gc_period=10.0) as cluster:
            def producer():
                thread = require_current_thread()
                stm = STM(thread.space)
                chan = stm.create_channel(name="frames", capacity=4)
                with chan.attach_output(thread) as out:
                    for i in range(1, n_items + 1):
                        thread.set_virtual_time(i)
                        out.put(i, b"x" * 256)

            def consumer():
                thread = require_current_thread()
                stm = STM(thread.space)
                chan = stm.lookup("frames", wait=True)
                with chan.attach_input(thread) as inp:
                    for i in range(1, n_items + 1):
                        item = inp.get(i)
                        inp.consume(item.timestamp)
                        thread.set_virtual_time(i + 1)

            t1 = cluster.space(0).spawn(producer, name="producer")
            t2 = cluster.space(1).spawn(consumer, name="consumer")
            t1.join()
            t2.join()
            cluster.gc_daemon.run_once()
    return rec


class TestClusterTracing:
    @pytest.fixture(scope="class")
    def recording(self):
        # Class-scoped: one traced cluster run feeds every assertion below.
        obs_events.disable()
        REGISTRY.reset()
        rec = run_traced_pipeline()
        yield rec, to_chrome_trace(rec)
        REGISTRY.reset()

    def test_trace_is_valid(self, recording):
        _, doc = recording
        assert validate_chrome_trace(doc) == []

    def test_op_spans_present(self, recording):
        rec, _ = recording
        assert len(rec.spans("put")) == 15
        assert len(rec.spans("get")) == 15
        assert len(rec.spans("consume")) == 15
        # the bounded (capacity 4) channel must have blocked the producer
        assert rec.spans("block(put)")

    def test_gc_epoch_spans_present(self, recording):
        rec, _ = recording
        assert rec.spans("gc.epoch")
        assert rec.spans("gc.scatter")
        assert rec.spans("gc.collect")
        apply_spans = rec.spans("gc.apply")
        assert apply_spans
        assert sum(s[6]["collected"] for s in apply_spans) >= 15

    def test_clf_packet_events_present(self, recording):
        rec, _ = recording
        events = rec.events()
        sends = [ev for ev in events if ev[2] == "clf.send"]
        recvs = [ev for ev in events if ev[2] == "clf.recv"]
        assert sends and recvs
        assert all(ev[6]["bytes"] > 0 for ev in sends)
        assert all(ev[6]["bytes"] > 0 for ev in recvs)
        # conservation: everything sent was received (in-process transport)
        assert sum(ev[6]["bytes"] for ev in sends) == sum(
            ev[6]["bytes"] for ev in recvs
        )

    def test_virtual_time_counters_per_thread(self, recording):
        rec, doc = recording
        report = {e["thread"]: e for e in lag_report(rec)}
        assert report["producer"]["last_vt"] == 15
        assert report["consumer"]["last_vt"] == 16
        assert report["producer"]["space"] == 0
        assert report["consumer"]["space"] == 1
        counter_names = {
            ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "C"
        }
        assert counter_names == {"vt producer", "vt consumer"}

    def test_tracks_are_per_thread_per_space(self, recording):
        _, doc = recording
        puts = [ev for ev in doc["traceEvents"] if ev.get("name") == "put"]
        gets = [ev for ev in doc["traceEvents"] if ev.get("name") == "get"]
        assert {ev["pid"] for ev in puts} == {0}
        assert {ev["pid"] for ev in gets} == {1}
        assert {ev["tid"] for ev in puts}.isdisjoint(
            ev["tid"] for ev in gets
        )

    def test_registry_latency_histograms(self, recording):
        put_h = REGISTRY.find("stm_put_ns", channel="frames")
        get_h = REGISTRY.find("stm_get_ns", channel="frames")
        assert put_h is not None and put_h.count == 15
        assert get_h is not None and get_h.count == 15
        assert put_h.as_dict()["p95"] > 0
        gc_h = REGISTRY.find("gc_epoch_seconds")
        assert gc_h is not None and gc_h.count >= 1

    def test_connection_histograms_follow_a_registry_reset(self):
        # A connection keeps its latency histograms across ops; after
        # REGISTRY.reset() it must record into the new registry's ones.
        with obs_events.trace(), Cluster(n_spaces=1, gc_period=None) as cluster:
            me = cluster.space(0).adopt_current_thread(virtual_time=0)
            try:
                chan = STM(cluster.space(0)).create_channel(name="reset")
                with chan.attach_output() as out, chan.attach_input() as inp:
                    out.put(1, b"a")
                    inp.get(1)
                    REGISTRY.reset()
                    out.put(2, b"b")
                    inp.get(2)
            finally:
                me.exit()
        assert REGISTRY.find("stm_put_ns", channel="reset").count == 1
        assert REGISTRY.find("stm_get_ns", channel="reset").count == 1
        REGISTRY.reset()

    def test_disabled_run_records_nothing(self):
        assert obs_events.recorder is None
        with Cluster(n_spaces=1) as cluster:
            def worker():
                thread = require_current_thread()
                stm = STM(thread.space)
                chan = stm.create_channel(name="quiet")
                with chan.attach_output(thread) as out:
                    out.put(1, b"x")

            cluster.space(0).spawn(worker, name="w").join()
        assert obs_events.recorder is None


class TestClusterReportIntegration:
    def test_gc_timing_and_wire_bytes_in_render(self):
        from repro.runtime.stats import cluster_report

        REGISTRY.reset()
        with Cluster(n_spaces=2, gc_period=10.0) as cluster:
            def worker():
                thread = require_current_thread()
                stm = STM(thread.space)
                chan = stm.create_channel(name="c", home=1)
                with chan.attach_output(thread) as out:
                    thread.set_virtual_time(1)
                    out.put(1, b"y" * 128)

            cluster.space(0).spawn(worker, name="w").join()
            cluster.gc_daemon.run_once()
            report = cluster_report(cluster)
        assert report.gc_epoch_timing is not None
        assert report.gc_epoch_timing["count"] >= 1
        text = report.render()
        assert "cluster report" in text
        assert "gc timing:" in text
        assert "wire=" in text
        # per-space bytes in and out are both shown
        assert "msgs in (" in text


class TestKioskTracing:
    def test_kiosk_trace_flag_end_to_end(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.kiosk import PipelineConfig, run_pipeline

        out = tmp_path / "kiosk.json"
        with obs_events.trace(out) as rec:
            with Cluster(n_spaces=1, gc_period=0.02) as cluster:
                result = run_pipeline(
                    cluster, PipelineConfig(n_frames=12, fps=200.0)
                )
        assert result.frames_digitized == 12
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        names = {ev.get("name") for ev in doc["traceEvents"]}
        assert {"put", "get", "consume"} <= names
        assert any(n and n.startswith("vt ") for n in names)
        assert rec.spans("put")

    def test_example_script_trace_flag(self, tmp_path):
        pytest.importorskip("numpy")
        import os
        import pathlib
        import subprocess
        import sys

        repo = pathlib.Path(__file__).resolve().parents[2]
        out = tmp_path / "example.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        proc = subprocess.run(
            [sys.executable, str(repo / "examples" / "vision_pipeline.py"),
             "--frames", "10", "--fps", "200", "--trace", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "trace written to" in proc.stdout
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []

    def test_obs_cli_kiosk_and_inspection(self, tmp_path, capsys):
        pytest.importorskip("numpy")
        from repro.obs.cli import main

        out = tmp_path / "cli.json"
        assert main(["kiosk", "--frames", "10", "--fps", "200",
                     "--trace", str(out)]) == 0
        text = capsys.readouterr().out
        assert "trace written to" in text
        assert "trace summary" in text

        assert main(["validate", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "spans" in summary and summary["spans"]
        assert main(["lag", str(out)]) == 0

    def test_obs_cli_validate_rejects_garbage(self, tmp_path):
        from repro.obs.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "Q"}]}))
        assert main(["validate", str(bad)]) == 1
