"""Nothing depends on what an import happens to pull in.

With the package ``__init__``s lazy, a module loads only when something
names it.  Two things used to ride on the eager imports and must not now:

* the message-tag registry — a child decodes every message it can receive
  with only ``repro.runtime.procs`` imported, so a message class defined
  in a lazily loaded module would be undecodable there;
* ``STMSAN`` / ``STMOBS`` — read at import by the sanitizer and the
  tracer, and handed to every spawned child in its spec, they must still
  arm the child.
"""

import json

import pytest

from tests.procs import _import_probe

_REGISTRY_SCRIPT = """
import importlib, json, pkgutil
import repro.runtime.procs
from repro.transport.serialization import message_types

def names():
    return {tag: f"{cls.__module__}.{cls.__qualname__}"
            for tag, cls in message_types().items()}

bare = names()
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)
print(json.dumps({"bare": bare, "everything": names()}))
"""


def test_runtime_alone_registers_every_message_tag():
    done = _import_probe.python("-c", _REGISTRY_SCRIPT)
    assert done.returncode == 0, done.stderr
    tags = json.loads(done.stdout)
    assert tags["bare"] == tags["everything"]
    assert len(tags["bare"]) >= 20


@pytest.mark.parametrize(
    ("env", "stmsan", "stmobs"),
    [
        ({"STMSAN": "1"}, "1", False),
        ({"STMSAN": "race"}, "race", False),
        ({"STMOBS": "1"}, "", True),
    ],
    ids=["STMSAN=1", "STMSAN=race", "STMOBS=1"],
)
def test_environment_arms_a_spawned_child(env, stmsan, stmobs):
    child = _import_probe.run(**env)["child"]
    assert (child["stmsan"], child["stmobs"]) == (stmsan, stmobs)
    if stmsan == "race":
        assert "repro.analysis.racecheck" in child["modules"]
