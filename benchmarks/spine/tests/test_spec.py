"""``BENCHMARK.json`` and ``spec.py`` say the same thing, within the limits."""

import json
import pathlib
import re

from spine import spec
from spine.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[3]
DOC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_the_file_is_what_spec_generates():
    whys = {name: cls.why for name, cls in WORKLOADS.items()}
    assert DOC == spec.benchmark_json(whys)


def test_keys_and_command():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert DOC["command"] == ["python3", "benchmarks/spine/run.py"]
    assert DOC["paths"] == ["benchmarks/spine"]
    assert 1 <= DOC["run_seconds"] <= 60


def test_workloads_match():
    assert [w["name"] for w in DOC["workloads"]] == list(spec.WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(spec.WORKLOAD_NAMES)
    for w in DOC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["why"] == WORKLOADS[w["name"]].why


def test_end_to_end_match():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in DOC["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END]
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert setup.unit == "s" and setup.better == "lower"
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_per_layer_match():
    assert [(m["name"], m["unit"], m["better"]) for m in DOC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER
    ]
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert all(set(m) == {"name", "unit", "better"} for m in DOC["per_layer"])


def test_names_and_units_within_limits():
    names = [m.name for m in (*spec.END_TO_END, *spec.PER_LAYER)]
    names += list(spec.WORKLOAD_NAMES)
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m.unit) for m in (*spec.END_TO_END, *spec.PER_LAYER))
    assert all(m.better in ("lower", "higher") for m in spec.PER_LAYER)


def test_every_layer_metric_says_what_it_should_move():
    end_to_end = {m.name for m in spec.END_TO_END}
    for metric in spec.PER_LAYER:
        assert metric.moves and metric.on
        if metric.moves != "-":
            assert {m.strip() for m in metric.moves.split(",")} <= end_to_end
