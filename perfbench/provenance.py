"""The provenance manifest stamped on every output document.

No number without provenance (ROADMAP aim 1): which commit, which host,
how many cores, which interpreter, and how loaded the machine was when
the run started.  What each *workload* actually ran under (sizes,
repeats, executor, shards, timeline mode, effective workers, timeline
cache traffic) is reported by its worker and sits next to its metrics.
"""

from __future__ import annotations

import os
import platform
import socket
import subprocess
import sys
from typing import Any, Dict, Optional

import numpy

from . import ROOT

__all__ = ["manifest"]


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(seed: int) -> Dict[str, Any]:
    # a benchmark checkout need not be a git repository; never look above it
    in_git = (ROOT / ".git").exists()
    status = _git("status", "--porcelain") if in_git else None
    return {
        "seed": seed,
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(status) if status is not None else None,
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
        "argv": sys.argv[1:],
    }
