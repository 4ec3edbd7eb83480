"""Make the benchmark modules and the program importable in the tests."""

from __future__ import annotations

import os
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)

for path in (PERF, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
