"""The seeded-violation corpus: every rule fires exactly where marked.

Each corpus file annotates its planted defects with ``# VIOLATION: STM###``
on the offending line; the tests derive the expected (rule, file, line)
set from those markers, so the corpus is self-describing and the assertion
is exact — no extra findings, none missing, none misplaced.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

from repro.analysis import run_static_passes
from repro.analysis.findings import RULES

CORPUS = Path(__file__).parent / "corpus"
_MARKER = re.compile(r"#\s*VIOLATION:\s*(STM\d+)")


def expected_violations(path: Path) -> set[tuple[str, int]]:
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        m = _MARKER.search(line)
        if m:
            out.add((m.group(1), lineno))
    return out


def findings_for(path: Path) -> set[tuple[str, int]]:
    findings = run_static_passes([str(path)], root=path.parent)
    return {(f.rule_id, f.line) for f in findings}


@pytest.mark.parametrize(
    "name", ["locks_bad.py", "protocol_bad.py", "with_attach.py"]
)
def test_rules_fire_exactly_on_marked_lines(name):
    path = CORPUS / name
    expected = expected_violations(path)
    assert expected, f"corpus file {name} has no markers"
    assert findings_for(path) == expected


def test_clean_corpus_is_silent():
    assert findings_for(CORPUS / "clean.py") == set()


def test_every_static_rule_has_a_corpus_case():
    """Acceptance: each STM1xx/STM2xx rule is demonstrated by the corpus.

    The STM5xx (channel-graph) markers in graph_*.py belong to the
    whole-program pass and are covered by test_stmgraph.py.
    """
    static_rules = {r for r in RULES if r.startswith(("STM1", "STM2"))}
    demonstrated = set()
    for path in CORPUS.glob("*.py"):
        demonstrated |= {rule for rule, _ in expected_violations(path)}
    assert {r for r in demonstrated if r.startswith(("STM1", "STM2"))} == (
        static_rules
    )


def test_source_tree_and_examples_are_clean():
    """Regression guard for the PR-2 true-positive fixes (the quickstart /
    cluster_gc_demo use-after-consume reorders and the bench attach/detach
    leaks): the shipped tree stays finding-free with an empty baseline."""
    repo = Path(__file__).resolve().parents[2]
    findings = run_static_passes(
        [str(repo / "src"), str(repo / "examples")], root=repo
    )
    assert findings == [], "\n".join(f.render() for f in findings)


FLEET_MODULES = ["procfleet.py", "aiofleet.py", "simfleet.py"]


def test_procfleet_worker_modules_are_protolint_clean():
    """The kiosk fleet's stages (``async def``s awaiting lookup -> attach
    -> get/consume -> detach through module-level channel-name constants)
    and its three drivers' adapters: STM201-205 must produce zero false
    positives on these patterns."""
    repo = Path(__file__).resolve().parents[2]
    findings = run_static_passes(
        [str(repo / "src" / "repro" / "kiosk" / name) for name in FLEET_MODULES],
        only=["protolint"],
        root=repo,
    )
    assert findings == [], "\n".join(f.render() for f in findings)


@pytest.mark.parametrize("conn", ["inp", "out"])
def test_fleet_stage_without_its_detach_is_stm205(tmp_path, conn):
    """The clean result above has teeth: the same tracker stage minus one
    detach is reported at that connection's attach line."""
    from repro.kiosk.procfleet import fleet_tracker

    source = inspect.getsource(fleet_tracker)
    detach = f"    await {conn}.detach()\n"
    assert detach in source
    stage = tmp_path / "stage.py"
    stage.write_text(source.replace(detach, ""))
    attach_line = next(
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if line.lstrip().startswith(f"{conn} = ") and ".attach_" in line
    )
    findings = run_static_passes([str(stage)], only=["protolint"], root=tmp_path)
    assert [(f.rule_id, f.line) for f in findings] == [("STM205", attach_line)]


def test_inline_suppression_waives_a_rule(tmp_path):
    bad = tmp_path / "waived.py"
    bad.write_text(
        "def f(channel):\n"
        "    out = channel.attach_output()  # stm-ok: STM205\n"
        "    out.put(0, b'x')\n"
    )
    assert run_static_passes([str(bad)], root=tmp_path) == []
    # the same file without the waiver does fire
    bad.write_text(
        "def f(channel):\n"
        "    out = channel.attach_output()\n"
        "    out.put(0, b'x')\n"
    )
    found = run_static_passes([str(bad)], root=tmp_path)
    assert [f.rule_id for f in found] == ["STM205"]
