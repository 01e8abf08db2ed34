"""The command itself: every workload green in ``--smoke`` mode."""

import json
import pathlib
import subprocess
import sys

import pytest

from spine import spec

RUN = pathlib.Path(__file__).resolve().parents[1] / "run.py"


def _run(*args, timeout=300):
    proc = subprocess.run([sys.executable, str(RUN), *args], text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=timeout)
    return proc, proc.stdout.strip().splitlines()


def test_smoke_runs_all_five_workloads_green():
    proc, lines = _run("--smoke", "--seed", "11")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    text = "\n".join(lines)
    for name in spec.WORKLOAD_NAMES:
        assert f"== {name} [end_to_end] runs=1 correct=True" in text
    for metric in spec.END_TO_END:
        assert metric.name in text  # every metric printed by name, with its unit


@pytest.mark.parametrize("trace,expected", [("0", spec.END_TO_END),
                                            ("1", spec.PER_LAYER)])
def test_contract_line(trace, expected):
    proc, lines = _run("--workload", "local_cycle", "--seed", "12",
                       "--seconds", "2", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in expected}
    for metric in expected:
        assert result["metrics"][metric.name]["unit"] == metric.unit


_ORPHAN_CATCHER = """
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0  # orphans come to us
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)  # nobody left, running or zombie
sys.exit("the command left a process behind")
"""


def test_contract_run_leaves_no_process_behind():
    """remote_frames starts cluster children and a resource tracker."""
    proc = subprocess.run(
        [sys.executable, "-c", _ORPHAN_CATCHER, sys.executable, str(RUN),
         "--workload", "remote_frames", "--seed", "13", "--seconds", "1",
         "--trace", "0", "--smoke"],
        text=True, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_exits_non_zero_without_the_program(tmp_path):
    """In a directory holding only the benchmark, there is nothing to run."""
    import shutil

    spine = tmp_path / "benchmarks" / "spine"
    shutil.copytree(RUN.parent, spine, ignore=shutil.ignore_patterns(
        "_out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, str(spine / "run.py"), "--workload", "local_cycle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        text=True, capture_output=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
