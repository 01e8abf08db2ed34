"""What a fresh process and its spawned ``ProcCluster`` child have imported.

:func:`run` starts a fresh interpreter that runs :func:`main`, which imports
``repro.runtime.procs`` — what every address-space process runs — and
notes ``sys.modules``; then it starts a two-space cluster and has space 1
report the same from inside the child, together with how the child's
sanitizer and tracer are armed.  One JSON object goes to stdout:
``{"parent": [...], "child": {"modules": [...], "stmsan": ..., "stmobs": ...}}``.

This module imports only ``sys`` at the top, so neither side's list shows
what the probe itself needs.
"""

import sys

_CHANNEL = "probe.report"


def report() -> None:
    """Space 1's half: put this process's module list and arming on the
    report channel (a Stampede thread spawned on the child)."""
    loaded = sorted(sys.modules)
    from repro.analysis import sanitizer
    from repro.obs import events
    from repro.stm import STM

    out = STM.here().lookup(_CHANNEL, wait=True).attach_output()
    stmsan = ""
    if sanitizer.enabled():
        race = sys.modules.get("repro.analysis.racecheck")
        stmsan = "race" if race is not None and race.enabled() else "1"
    out.put(
        0,
        {"modules": loaded, "stmsan": stmsan, "stmobs": events.recorder is not None},
        refcount=1,
    )
    out.detach()


def main() -> None:
    import repro.runtime.procs

    parent = sorted(sys.modules)

    import json

    from repro.stm import STM

    with repro.runtime.procs.ProcCluster(n_spaces=2, gc_period=None) as cluster:
        me = cluster.space(0).adopt_current_thread(virtual_time=0)
        stm = STM(cluster.space(0))
        inp = stm.create_channel(_CHANNEL).attach_input()
        reporter = cluster.spawn(report, on_space=1)
        child = inp.get_consume(0).value
        reporter.join(timeout=30.0)
        inp.detach()
        me.exit()
    json.dump({"parent": parent, "child": child}, sys.stdout)


def python(*args: str, **env: str):
    """``python *args`` in a fresh interpreter at the repo root, ``src`` and
    the root on its path, ``STMSAN`` / ``STMOBS`` unset, then ``env``
    applied; the finished ``subprocess.CompletedProcess``."""
    import os
    import pathlib
    import subprocess

    repo = pathlib.Path(__file__).resolve().parents[2]
    child_env = {k: v for k, v in os.environ.items() if k not in ("STMSAN", "STMOBS")}
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), str(repo), child_env.get("PYTHONPATH", "")]
    )
    child_env.update(env)
    return subprocess.run(
        [sys.executable, *args],
        cwd=repo, env=child_env, capture_output=True, text=True, timeout=120,
    )


def run(**env: str) -> dict:
    """:func:`main` in a fresh interpreter (see :func:`python`); its report."""
    import json

    done = python("-c", "from tests.procs._import_probe import main; main()", **env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


if __name__ == "__main__":
    main()
