"""Example counts that a deeper ``--hypothesis-profile`` can raise.

An explicit ``@settings(max_examples=N)`` wins over any loaded profile, so
a test that should run deeper under ``--hypothesis-profile kernel-deep``
(registered in ``tests/conftest.py``; CI's "kernel oracle, deep" step)
asks for ``examples(N)`` instead: N under the default profile, the
profile's count when that is larger.
"""

from hypothesis import settings


def examples(n: int) -> int:
    return max(n, settings.default.max_examples)
