"""The abstract interpreter (absint): corpus exactness, dominance over the
retired lexical walker's frozen corpus output, and the CLI subcommand.

Marker convention matches ``test_static_passes``: each seeded corpus
file annotates its planted defects with ``# VIOLATION: STM###`` and the
assertions are exact — no extra findings, none missing, none misplaced.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis.absint import check_absint, check_protocol
from repro.analysis.cli import main
from repro.analysis.source import filter_suppressed, load_sources

CORPUS = Path(__file__).parent / "corpus"
#: the legacy lexical walker's corpus output, frozen when it was deleted
LEGACY = json.loads(
    (Path(__file__).parent / "fixtures" / "protolint_legacy_golden.json").read_text()
)
_MARKER = re.compile(r"#\s*VIOLATION:\s*(STM\d+)")

ABSINT_CORPUS = [
    "absint_601.py",
    "absint_602.py",
    "absint_603.py",
    "absint_604.py",
    "absint_interproc.py",
    "absint_tryfinally.py",
]


def expected_violations(path: Path) -> set[tuple[str, int]]:
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        m = _MARKER.search(line)
        if m:
            out.add((m.group(1), lineno))
    return out


def absint_findings(path: Path) -> set[tuple[str, int]]:
    sources = load_sources([path], root=path.parent)
    return {(f.rule_id, f.line) for f in check_absint(sources)}


# ----------------------------------------------------------------------
# corpus exactness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ABSINT_CORPUS)
def test_absint_rules_fire_exactly_on_marked_lines(name):
    """STM601-604 (and the riding STM2xx defects) fire at the marked
    lines and nowhere else; the negative shapes in every file — monotone
    loop producer, above-horizon reads, ``block=False`` async probes,
    put-then-handoff — stay silent."""
    path = CORPUS / name
    assert absint_findings(path) == expected_violations(path)


def test_each_stm6_rule_has_a_corpus_case():
    demonstrated = set()
    for name in ABSINT_CORPUS:
        demonstrated |= {r for r, _ in expected_violations(CORPUS / name)}
    assert {"STM601", "STM602", "STM603", "STM604"} <= demonstrated


def test_path_sensitive_idioms_stay_silent():
    """The try/finally + guard + re-attach + alias + helper-cleanup file
    produces zero findings under the CFG engine (each shape was a legacy
    blind spot or false positive)."""
    assert absint_findings(CORPUS / "absint_tryfinally.py") == set()


def test_legacy_corpus_still_exact_under_cfg_engine():
    """The rerouted ``protolint`` pass (STM2xx-only view of absint)
    reproduces the original corpus exactly."""
    for name in ["protocol_bad.py", "with_attach.py"]:
        path = CORPUS / name
        sources = load_sources([path], root=CORPUS)
        got = {(f.rule_id, f.line) for f in check_protocol(sources)}
        expected = {
            (r, ln)
            for r, ln in expected_violations(path)
            if r.startswith("STM2")
        }
        assert got == expected, name
    assert check_protocol(load_sources([CORPUS / "clean.py"], root=CORPUS)) == []


# ----------------------------------------------------------------------
# differential: CFG engine dominates the legacy lexical walker
# ----------------------------------------------------------------------
def _cfg_findings(name: str) -> set[tuple[str, int, str]]:
    sources = load_sources([CORPUS / name], root=CORPUS)
    return {(name, f.line, f.rule_id) for f in check_protocol(sources)}


def test_cfg_engine_keeps_every_true_legacy_detection():
    """Every legacy STM2xx detection that was a real seeded violation (a
    marked line) is also found by the CFG engine: the rewrite loses
    nothing."""
    for name, line, rule in LEGACY["true_detections"]:
        assert (rule, line) in expected_violations(CORPUS / name)
        assert (name, line, rule) in _cfg_findings(name)


def test_cfg_engine_kills_legacy_false_positives():
    """The legacy walker false-positived on the conditional
    detach-and-re-attach idiom (it ordered the branch's detach before the
    rejoin put lexically); the CFG engine understands the path split."""
    assert LEGACY["false_positives"], "the frozen oracle lists its false positive"
    for name, line, rule in LEGACY["false_positives"]:
        assert (rule, line) not in expected_violations(CORPUS / name)
        assert (name, line, rule) not in _cfg_findings(name)
    assert _cfg_findings("absint_tryfinally.py") == set()


# ----------------------------------------------------------------------
# the CLI subcommand
# ----------------------------------------------------------------------
def test_cli_nonzero_on_seeded_file(capsys):
    assert main(["absint", str(CORPUS / "absint_601.py")]) == 1
    out = capsys.readouterr().out
    assert "STM601" in out


def test_cli_zero_on_negative_file():
    assert main(["absint", str(CORPUS / "absint_tryfinally.py")]) == 0


def test_cli_baseline_roundtrip(tmp_path):
    baseline = tmp_path / "stm-baseline.txt"
    target = str(CORPUS / "absint_603.py")
    assert main(["absint", target, "--baseline", str(baseline), "--write-baseline"]) == 0
    assert main(["absint", target, "--baseline", str(baseline)]) == 0
    assert main(["absint", target, "--baseline", str(tmp_path / "none.txt")]) == 1


def test_cli_json_format(capsys):
    assert main(["absint", str(CORPUS / "absint_602.py"), "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert {r["rule"] for r in rows} == {"STM602"}
    assert all(r["file"].endswith("absint_602.py") for r in rows)


def test_cli_sarif_format(capsys):
    assert main(["absint", str(CORPUS / "absint_604.py"), "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.analysis.absint"
    assert {r["ruleId"] for r in run["results"]} == {"STM604"}


def test_inline_waiver_silences_stm603(tmp_path):
    """An intentional infinite producer is waived with ``# stm-ok:
    STM603`` on the put line (the TUTORIAL recipe); the companion leaks
    are waived the same way, so the file goes fully quiet."""
    target = tmp_path / "intentional.py"
    target.write_text(
        'CHAN = "frames"\n'
        "\n"
        "def producer(runtime):\n"
        "    ch = runtime.create_channel(CHAN)\n"
        "    out = ch.attach_output()  # stm-ok: STM205\n"
        "    t = 0\n"
        "    while True:\n"
        '        out.put(t, b"frame")  # stm-ok: STM603\n'
        "        t = t + 1\n"
        "\n"
        "def consumer(runtime):\n"
        "    ch = runtime.lookup(CHAN)\n"
        "    inp = ch.attach_input()  # stm-ok: STM205\n"
        "    while True:\n"
        "        item = inp.get(-1)  # stm-ok: STM201\n"
        "        print(item.value)\n"
    )
    sources = load_sources([target], root=tmp_path)
    assert filter_suppressed(check_absint(sources), sources) == []
    assert main(["absint", str(target)]) == 0
