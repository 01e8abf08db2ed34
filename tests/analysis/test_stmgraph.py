"""Whole-program channel-graph pass: corpus exactness, golden topology.

The seeded graph corpus reuses the ``# VIOLATION: STM###`` marker idiom
from test_static_passes; each STM5xx rule must fire exactly on its
marked line and stay silent on the clean idioms.  The golden-topology
test pins the extracted kiosk graph to the documented §2 structure
(digitizer -> video -> {low-fi, hi-fi} -> decision + GUI).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.findings import RULES
from repro.analysis.source import filter_suppressed, load_sources
from repro.analysis.stmgraph import check_channel_graph, extract_graph

from tests.analysis.test_static_passes import expected_violations

CORPUS = Path(__file__).parent / "corpus"
REPO = Path(__file__).resolve().parents[2]

GRAPH_CORPUS = [
    "graph_deadlock.py",
    "graph_starvation.py",
    "graph_orphan.py",
    "graph_ts_regression.py",
    "graph_locked.py",
    "graph_sleep.py",
]


def graph_findings_for(path: Path) -> set[tuple[str, int]]:
    sources = load_sources([str(path)], root=path.parent)
    findings = filter_suppressed(check_channel_graph(sources), sources)
    return {(f.rule_id, f.line) for f in findings}


@pytest.mark.parametrize("name", GRAPH_CORPUS)
def test_graph_rules_fire_exactly_on_marked_lines(name):
    path = CORPUS / name
    expected = expected_violations(path)
    assert expected, f"corpus file {name} has no markers"
    assert graph_findings_for(path) == expected


def test_clean_graph_corpus_is_silent():
    assert graph_findings_for(CORPUS / "graph_clean.py") == set()


def test_every_graph_rule_has_a_corpus_case():
    graph_rules = {r for r in RULES if r.startswith("STM5")}
    demonstrated = set()
    for name in GRAPH_CORPUS:
        demonstrated |= {r for r, _ in expected_violations(CORPUS / name)}
    assert demonstrated == graph_rules


def test_inline_suppression_waives_a_graph_rule(tmp_path):
    bad = tmp_path / "waived.py"
    body = (
        "def helper(conn, ts):\n"
        "    return conn.get(ts, block=True)\n"
        "\n"
        "def reader(space):\n"
        "    inp = space.lookup('w.chan').attach_input(){}\n"
        "    helper(inp, 0)\n"
    )
    bad.write_text(body.format("  # stm-ok: STM502"))
    assert graph_findings_for(bad) == set()
    bad.write_text(body.format(""))
    assert graph_findings_for(bad) == {("STM502", 5)}


# ----------------------------------------------------------------------
# golden topology: the kiosk of DESIGN.md §2, as its fleet stages
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def kiosk_graph():
    sources = load_sources(
        [str(REPO / "src/repro/kiosk/procfleet.py")], root=REPO
    )
    return extract_graph(sources)


def _label(graph, node_id: str) -> str:
    t = graph.threads.get(node_id)
    return t.label if t is not None else node_id


def test_kiosk_graph_is_finding_free(kiosk_graph):
    assert kiosk_graph.findings == [], [
        f.render() for f in kiosk_graph.findings
    ]


def test_kiosk_channels(kiosk_graph):
    assert set(kiosk_graph.channels) == {
        "kiosk.fleet.video",
        "kiosk.fleet.tracks",
        "kiosk.fleet.hifi",
        "kiosk.fleet.audio",
        "kiosk.fleet.gestures",
    }


def test_kiosk_stage_threads(kiosk_graph):
    labels = {t.label for t in kiosk_graph.threads.values()}
    assert {
        "run_fleet",
        "fleet_digitizer",
        "fleet_tracker",
        "fleet_hifi_tracker",
        "fleet_microphone",
        "fleet_gesture",
        "fleet_decision",
    } <= labels


def test_kiosk_dataflow_matches_documented_structure(kiosk_graph):
    g = kiosk_graph
    puts = {(_label(g, e.src), e.dst) for e in g.edges if e.kind == "put"}
    gets = {(e.src, _label(g, e.dst)) for e in g.edges if e.kind == "get"}
    assert puts == {
        ("fleet_digitizer", "kiosk.fleet.video"),
        ("fleet_tracker", "kiosk.fleet.tracks"),
        ("fleet_hifi_tracker", "kiosk.fleet.hifi"),
        ("fleet_microphone", "kiosk.fleet.audio"),
        ("fleet_gesture", "kiosk.fleet.gestures"),
    }
    assert gets == {
        ("kiosk.fleet.video", "fleet_tracker"),
        ("kiosk.fleet.video", "fleet_hifi_tracker"),
        ("kiosk.fleet.tracks", "fleet_hifi_tracker"),
        ("kiosk.fleet.tracks", "fleet_gesture"),
        ("kiosk.fleet.tracks", "fleet_decision"),
        ("kiosk.fleet.hifi", "fleet_decision"),
        ("kiosk.fleet.audio", "fleet_decision"),
        ("kiosk.fleet.gestures", "fleet_decision"),
    }


def test_kiosk_spawn_edges(kiosk_graph):
    g = kiosk_graph
    spawns = {
        (_label(g, e.src), _label(g, e.dst))
        for e in g.edges
        if e.kind == "spawn"
    }
    assert {
        # through the launcher's stage table
        ("run_fleet", "fleet_digitizer"),
        ("run_fleet", "fleet_tracker"),
        ("run_fleet", "fleet_microphone"),
        ("run_fleet", "fleet_gesture"),
        # the hi-fi tracker is spawned on demand, through the spawn it is given
        ("fleet_tracker", "fleet_hifi_tracker"),
    } <= spawns


def test_kiosk_main_chain_and_placement_seed(kiosk_graph):
    chain = kiosk_graph.main_chain()
    assert chain[0] == "fleet_digitizer"
    assert chain[-1] == "fleet_decision"
    assert len(chain) == 4
    model = kiosk_graph.placement_model()
    assert [s.name for s in model.stages] == chain


def test_awaited_lookups_and_stage_tables_resolve(tmp_path):
    """The async fleet idiom: a channel found by an awaited lookup, and
    stages spawned through a trampoline from a module-level table."""
    source = tmp_path / "fleet.py"
    source.write_text(
        "CHAN = 'w.chan'\n"
        "async def producer(stm, spawn):\n"
        "    out = await (await stm.lookup(CHAN, wait=True)).attach_output()\n"
        "    await out.put(0, 'x')\n"
        "    spawn(helper, 1)\n"
        "    await out.detach()\n"
        "async def consumer(stm, spawn):\n"
        "    inp = await (await stm.lookup(CHAN, wait=True)).attach_input()\n"
        "    await inp.get(0)\n"
        "    await inp.consume(0)\n"
        "    await inp.detach()\n"
        "async def helper(stm, spawn):\n"
        "    pass\n"
        "def trampoline(stage):\n"
        "    pass\n"
        "TABLE = ((producer, 1), (consumer, 2))\n"
        "def launch(space):\n"
        "    return [space.spawn(trampoline, (stage,), on_space=on)\n"
        "            for stage, on in TABLE]\n"
    )
    g = extract_graph(load_sources([str(source)], root=tmp_path))
    assert set(g.channels) == {"w.chan"}
    assert {(_label(g, e.src), e.dst) for e in g.edges if e.kind == "put"} == {
        ("producer", "w.chan")
    }
    assert {(e.src, _label(g, e.dst)) for e in g.edges if e.kind == "get"} == {
        ("w.chan", "consumer")
    }
    spawns = {(_label(g, e.src), _label(g, e.dst))
              for e in g.edges if e.kind == "spawn"}
    assert spawns == {
        ("launch", "trampoline"),
        ("launch", "producer"),
        ("launch", "consumer"),
        ("producer", "helper"),
    }


def test_dot_export_renders_nodes_and_edges(kiosk_graph):
    dot = kiosk_graph.to_dot()
    assert dot.startswith("digraph stm {")
    assert '"kiosk.fleet.video" [shape=ellipse' in dot
    assert '-> "kiosk.fleet.video" [label="put"' in dot
    assert dot.rstrip().endswith("}")


def test_json_export_shape(kiosk_graph):
    doc = kiosk_graph.to_json()
    assert {"threads", "channels", "edges", "pipeline"} <= set(doc)
    kinds = {e["kind"] for e in doc["edges"]}
    assert kinds == {"put", "get", "spawn"}
    assert all(":" in e["at"] for e in doc["edges"])
