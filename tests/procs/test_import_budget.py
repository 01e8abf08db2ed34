"""The import budget of an address-space process.

Every space of a :class:`~repro.runtime.procs.ProcCluster` is its own
process and pays its own start-up, so what ``import repro.runtime.procs``
loads is paid once per space per cluster.  The package ``__init__``s
re-export lazily and the runtime imports only the sanitizer hooks from
``repro.analysis``; these tests pin that, in a fresh interpreter (the
parent) and inside a spawned child (which re-imports from scratch under
the ``spawn`` start method).  Both run with ``STMSAN`` / ``STMOBS`` unset:
the budget is a plain space's.
"""

import pytest

from tests.procs import _import_probe

#: the only ``repro.analysis`` modules a plain space may load.
SANITIZER_HOOKS = {"repro.analysis", "repro.analysis.sanitizer"}
#: packages and modules a space never runs.
NEVER = (
    "repro.obs.promtext",
    "http.server",
    "asyncio",
    "repro.sim",
    "repro.kiosk",
    "repro.stm.aio",
    "repro.runtime.aio",
)
MAX_REPRO_MODULES = 40


@pytest.fixture(scope="module")
def plain() -> dict:
    return _import_probe.run()


def _over_budget(modules: list[str]) -> list[str]:
    """Every module of ``modules`` the budget forbids."""
    bad = [m for m in modules
           if m.startswith("repro.analysis") and m not in SANITIZER_HOOKS]
    bad += [m for m in modules
            if any(m == never or m.startswith(never + ".") for never in NEVER)]
    return sorted(bad)


def _repro(modules: list[str]) -> list[str]:
    return [m for m in modules if m == "repro" or m.startswith("repro.")]


class TestParent:
    def test_loads_nothing_a_space_does_not_run(self, plain):
        assert _over_budget(plain["parent"]) == []

    def test_loads_at_most_forty_repro_modules(self, plain):
        loaded = _repro(plain["parent"])
        assert len(loaded) <= MAX_REPRO_MODULES, loaded


class TestSpawnedChild:
    def test_loads_nothing_a_space_does_not_run(self, plain):
        assert _over_budget(plain["child"]["modules"]) == []

    def test_loads_at_most_forty_repro_modules(self, plain):
        loaded = _repro(plain["child"]["modules"])
        assert len(loaded) <= MAX_REPRO_MODULES, loaded

    def test_runs_dark_when_nothing_is_armed(self, plain):
        assert plain["child"]["stmsan"] == ""
        assert plain["child"]["stmobs"] is False
