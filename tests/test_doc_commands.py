"""Every ``repro-experiments`` command the docs show must be accepted.

A command is a line of a fenced block (``\\`` continuations joined, a
trailing ``#`` comment dropped) or an inline code span that starts with
``repro-experiments``.  A figure / table command goes through
:func:`repro.experiments.cli.main` — its parser and its usage rules —
with the report's run stubbed out; a ``scenario`` command through
:func:`repro.scenarios.cli.build_scenario_parser`.  So a flag the
command no longer has cannot linger in the docs.  A bare mention and a
synopsis (``list|run``) are not commands.
"""

import pathlib
import re
import shlex

import pytest

from repro.experiments import cli
from repro.scenarios.cli import build_scenario_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "EXPERIMENTS.md", "CONTRIBUTING.md") + tuple(
    str(path.relative_to(ROOT)) for path in sorted((ROOT / "docs").glob("*.md"))
)


def commands(text):
    """The ``repro-experiments`` argument lists shown in ``text``."""
    found = []
    for block in re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.DOTALL):
        joined = re.sub(r"\\\n", " ", block)
        for line in joined.splitlines():
            line = line.strip().removeprefix("$ ")
            if line.startswith("repro-experiments "):
                found.append(shlex.split(line, comments=True)[1:])
    for span in re.findall(r"`(repro-experiments\s[^`]*)`", text):
        if "|" not in span:
            found.append(shlex.split(span)[1:])
    return found


def documented():
    return [
        pytest.param(argv, id=f"{doc}:{' '.join(argv)}")
        for doc in DOCS
        for argv in commands((ROOT / doc).read_text())
    ]


def test_the_docs_show_commands():
    assert {doc for doc in DOCS if commands((ROOT / doc).read_text())} >= {
        "README.md",
        "EXPERIMENTS.md",
        "docs/USAGE.md",
    }


@pytest.mark.parametrize("argv", documented())
def test_documented_command_is_accepted(argv, tmp_path, monkeypatch):
    if argv[0] == "scenario":
        build_scenario_parser().parse_args(argv[1:])
        return
    monkeypatch.chdir(tmp_path)  # where a documented --out directory lands
    monkeypatch.setattr(cli, "generate_report", lambda out, **kw: out / "REPORT.md")
    assert cli.main(argv) == 0
