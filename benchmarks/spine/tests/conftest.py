"""Make ``spine`` and ``repro`` importable for the spine's own tests.

These tests are run explicitly (``python -m pytest benchmarks/spine/tests``);
the repository's tier-1 ``testpaths`` stays ``tests``.
"""

import pathlib
import sys

_SPINE = pathlib.Path(__file__).resolve().parents[1]
for path in (_SPINE.parents[1] / "src", _SPINE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
