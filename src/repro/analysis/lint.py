"""Driver for the repo-specific lint pass.

Usage::

    python -m repro.analysis.lint [paths...]      # default: src/repro
    python -m repro.analysis.lint --list-rules
    python -m repro.analysis.lint --json src/repro

Walks the given files/directories, runs every registered rule whose
scope matches each module, filters ``# noqa`` suppressions, and prints
sorted findings as ``path:line:col: REPxxx message``.  Exit status is 1
when any finding survives, 2 on usage/parse errors, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from .rules import RULES, Finding, ModuleUnderLint

__all__ = ["collect_files", "lint_file", "lint_paths", "main"]

_DEFAULT_PATHS = ("src/repro",)


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        files.append(os.path.join(dirpath, filename))
        elif os.path.isfile(path):
            files.append(path)
        else:
            raise FileNotFoundError(path)
    return sorted(dict.fromkeys(files))


def lint_file(path: str) -> List[Finding]:
    """Run all applicable rules over one file."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    findings: List[Finding] = []
    module = ModuleUnderLint(path, source)
    for rule in RULES:
        if not rule.applies_to(module.posix_path):
            continue
        for finding in rule.check(module):
            if module.suppressed(finding.rule, finding.line):
                continue
            findings.append(finding)
    return findings


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; findings sorted by location."""
    findings: List[Finding] = []
    for path in collect_files(paths):
        findings.extend(lint_file(path))
    return sorted(findings, key=Finding.sort_key)


def _print_rules() -> None:
    for rule in RULES:
        print(f"{rule.rule_id}  {rule.description}")
        if rule.scopes:
            print(f"        scope: {', '.join(rule.scopes)}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="repo-specific determinism/encapsulation lint pass",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(_DEFAULT_PATHS),
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON array instead of text",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rules()
        return 0

    try:
        findings = lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"error: no such file or directory: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"error: cannot parse {exc.filename}: {exc.msg}", file=sys.stderr)
        return 2

    if args.json:
        print(
            json.dumps(
                [
                    {
                        "rule": f.rule,
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "message": f.message,
                    }
                    for f in findings
                ],
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.format())
        checked = len(collect_files(args.paths))
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"{len(findings)} {noun} in {checked} files")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
