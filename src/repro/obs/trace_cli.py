"""The ``repro-trace`` command: inspect a written Chrome trace.

::

    repro-trace summarize trace.json          # per-span-kind table from a file

It runs nothing: a traced run is ``repro-experiments scenario run NAME
--trace-out trace.json`` (any scenario; ``traced-replay`` is the library's
observability smoke run, docs/OBSERVABILITY.md), whose JSON loads directly
in Perfetto / chrome://tracing and is what ``summarize`` reads back.

Exit codes: **0** success, **2** usage errors (unknown subcommand, a
file that is not a readable Chrome trace).
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import List, Optional

from .export import summarize_trace_events

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Chrome-trace tooling for traced scenario runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    summarize = sub.add_parser(
        "summarize", help="summarize a previously written Chrome trace"
    )
    summarize.add_argument("trace", type=pathlib.Path, metavar="TRACE.JSON")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        summary = summarize_trace_events(json.loads(args.trace.read_text()))
    except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
        # a missing or unreadable file, not JSON, or JSON of the wrong shape
        parser.exit(2, f"error: {args.trace}: not a readable Chrome trace ({exc!r})\n")
    print(summary)
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
