"""Suite-wide hygiene: no test may leak an adopted Stampede thread.

An adopted thread left bound to the pytest main OS thread bleeds into the
next test's `adopt_current_thread` (it would silently reuse a thread from a
dead cluster).  This autouse fixture unbinds leftovers and fails the suite
loudly in a way that names the offending test.  The suite's hypothesis
profiles are registered here too, before ``--hypothesis-profile`` loads one.
"""

import pytest
from hypothesis import settings

from repro.runtime.threads import current_thread

#: The kernel's differential oracle and property tests at 5 000 examples
#: (CI: ``pytest --hypothesis-profile kernel-deep tests/core/...``); tests
#: opt in through ``tests._hypothesis.examples``.  Plain runs keep each
#: test's own count.
settings.register_profile("kernel-deep", max_examples=5_000)


@pytest.fixture(autouse=True)
def no_leaked_adopted_threads(request):
    before = current_thread()
    if before is not None and before.alive:
        # Defensive: a previous test leaked; clean up so THIS test is sound.
        before.exit()
    yield
    after = current_thread()
    if after is not None and after.alive:
        after.exit()
        pytest.fail(
            f"{request.node.nodeid} leaked an adopted StampedeThread "
            f"({after.name!r}); call .exit() before the test returns"
        )
