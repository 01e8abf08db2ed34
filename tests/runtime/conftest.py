"""Watchdog and shared fixtures for the runtime driver tests.

These tests spawn real threads and asyncio loops that block on STM
waits; a missed wakeup should fail the one test, not wedge the suite.
pytest-timeout is not a dependency; see tests/_timeout_guard.py.
"""

from __future__ import annotations

import pytest

from repro.analysis import sanitizer
from repro.core import channel_state
from repro.obs import events as obs_events
from tests._timeout_guard import install_timeout_guard

TIMEOUT_S = 120

install_timeout_guard(globals(), TIMEOUT_S)


@pytest.fixture
def bare_op_path(monkeypatch):
    """The op path with nothing armed, whatever the environment arms: the
    sanitizer off for what the test creates (plain ``threading.Lock``
    channel locks, so no kernel guards and nothing fed to the race
    detector), no trace recorder and no reclaim hook.  For the tests that
    count the Python calls of an operation: ``STMOBS=1`` / ``STMSAN`` add
    their own calls to every op.  The primitive factories stay the
    defaults."""
    monkeypatch.setattr(sanitizer, "_enabled", False)
    monkeypatch.setattr(obs_events, "recorder", None)
    monkeypatch.setattr(channel_state, "_reclaim_hook", None)
