"""Locations inside the checkout.

Importing this module puts the checkout's ``src`` directory first on
``sys.path``, so the benchmark always measures the source tree it sits
next to, never an installed copy of the package.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
REFS = HERE / "refs"
# Scratch space for CLI outputs, config files and span dumps.
OUT = ROOT / ".bench_out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
