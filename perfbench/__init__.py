"""perfbench: the benchmark every perf or simplicity claim is measured with.

Five closed-loop batch workloads, end-to-end metrics taken with tracing
off, and a separate traced run that attributes the time to this repo's
layers.  Self-contained: it imports only public ``repro.*`` functions and
measures every layer from outside.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

__all__ = [
    "ROOT",
    "PACKAGE_DIR",
    "OUT_DIR",
    "WARMUP_SCALE",
    "SMOKE_SCALE",
    "load_spec",
    "load_expected",
]

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parent
#: run documents, check-repeat reports and Chrome traces land here
OUT_DIR = PACKAGE_DIR / "out"

#: workload size relative to the benchmark size: the warm-up inside every
#: set-up, and the ``--smoke`` run
WARMUP_SCALE = 1 / 8
SMOKE_SCALE = 1 / 20

# nothing is pip-installed in a plain checkout: the benchmark makes the
# program importable itself, so no command needs PYTHONPATH
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: workload names, metric names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_expected() -> Dict[str, Any]:
    """``expected.json``: pinned digests and the ``mixed-fleet`` envelope."""
    return json.loads((PACKAGE_DIR / "expected.json").read_text())
