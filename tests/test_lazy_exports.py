"""The lazy package exports are complete.

Package ``__init__``s re-export through a PEP 562 ``__getattr__``
(:mod:`repro._lazy`), so a name is only looked up in its module when first
used.  A name listed in ``__all__`` but missing from the map, or mapped to
the wrong module, would fail only then; these tests use every one, in a
fresh interpreter where nothing has been imported yet.
"""

import json

import pytest

from tests.procs._import_probe import python as _python

_EXPORTS_SCRIPT = """
import importlib, json, pkgutil
import repro

packages = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]
report = {}
for name in packages:
    package = importlib.import_module(name)
    if not hasattr(package, "__all__"):
        continue
    star = {}
    exec(f"from {name} import *", star)
    listed = set(dir(package))
    report[name] = {
        "all": list(package.__all__),
        "unresolved": [n for n in package.__all__ if not hasattr(package, n)],
        "not_in_dir": [n for n in package.__all__ if n not in listed],
        "not_bound_by_star": [n for n in package.__all__ if n not in star],
    }
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def exports() -> dict:
    done = _python("-c", _EXPORTS_SCRIPT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


LAZY = (
    "repro",
    "repro.analysis",
    "repro.kiosk",
    "repro.obs",
    "repro.runtime",
    "repro.sim",
    "repro.stm",
)


def test_every_lazy_package_is_checked(exports):
    assert set(LAZY) <= set(exports)


@pytest.mark.parametrize("check", ["unresolved", "not_in_dir", "not_bound_by_star"])
def test_every_name_in_all_resolves(exports, check):
    assert {pkg: r[check] for pkg, r in exports.items() if r[check]} == {}


def test_a_submodule_still_resolves_as_an_attribute():
    done = _python("-c", "import repro.obs; print(repro.obs.events.__name__)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "repro.obs.events"


def test_an_unknown_name_raises_attribute_error():
    import repro.runtime

    with pytest.raises(AttributeError, match="no attribute 'NoSuchThing'"):
        repro.runtime.NoSuchThing  # noqa: B018


def test_the_package_quickstart_runs_cold():
    done = _python(
        "-c",
        "import doctest, repro; r = doctest.testmod(repro); "
        "assert r.attempted >= 1 and r.failed == 0, r",
    )
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize(
    "argv", [("-m", "repro.analysis", "--list-rules"), ("-m", "repro.obs", "--help")]
)
def test_the_package_clis_start(argv):
    done = _python(*argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
