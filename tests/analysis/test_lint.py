"""Tests for the repo-specific lint pass (repro.analysis.lint).

Fixture files live outside the package tree, so every rule applies to
them (scope rules only narrow inside ``repro/``); each fixture violates
exactly one rule and declares ``__all__`` so REP005 stays quiet.
"""

import re
import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import collect_files, lint_file, lint_paths, main
from repro.analysis.rules import RULES, ModuleUnderLint

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = str(REPO_ROOT / "src" / "repro")

FIXTURES = {
    "REP001": '''\
__all__ = []
import time

def stamp():
    return time.time()
''',
    "REP002": '''\
__all__ = []
import random

def pick():
    return random.random()
''',
    "REP003": '''\
__all__ = []

def poke(matrix):
    matrix._c[0, 0] = 99
''',
    "REP004": '''\
__all__ = []

def close_enough(x):
    return x == 0.25
''',
    "REP005": '''\
def helper():
    return 1
''',
    "REP009": '''\
__all__ = []

def fan_out(pool, simulation):
    return pool.submit(run_one, simulation)
''',
    "REP010": '''\
__all__ = []

def debug(state):
    print(state)
''',
}


def write_fixture(tmp_path: Path, name: str, source: str) -> str:
    path = tmp_path / name
    path.write_text(source)
    return str(path)


class TestRules:
    def test_each_fixture_trips_exactly_its_rule(self, tmp_path):
        for rule_id, source in FIXTURES.items():
            path = write_fixture(tmp_path, f"fixture_{rule_id.lower()}.py", source)
            findings = lint_file(path)
            assert {f.rule for f in findings} == {rule_id}, (
                f"{rule_id}: got {[f.format() for f in findings]}"
            )

    def test_every_registered_rule_has_a_fixture(self):
        assert sorted(FIXTURES) == sorted(rule.rule_id for rule in RULES)

    def test_findings_are_structured(self, tmp_path):
        path = write_fixture(tmp_path, "wallclock.py", FIXTURES["REP001"])
        finding = lint_file(path)[0]
        assert finding.rule == "REP001"
        assert finding.path == path
        assert finding.line == 5
        assert "time.time" in finding.message
        assert finding.format().startswith(f"{path}:5:")

    def test_numpy_global_rng_flagged(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "nprng.py",
            "__all__ = []\nimport numpy as np\n\n\ndef draw():\n"
            "    return np.random.rand(3)\n",
        )
        assert {f.rule for f in lint_file(path)} == {"REP002"}

    def test_seeded_rng_not_flagged(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "seeded.py",
            "__all__ = []\nimport random\nimport numpy as np\n\n\n"
            "def draw(seed):\n"
            "    rng = random.Random(seed)\n"
            "    gen = np.random.default_rng(seed)\n"
            "    return rng.random() + gen.random()\n",
        )
        assert lint_file(path) == []

    def test_owned_private_attribute_not_flagged(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "owned.py",
            "__all__ = []\n\n\nclass Box:\n"
            "    def __init__(self):\n"
            "        self._items = []\n\n"
            "    def copy(self):\n"
            "        out = Box()\n"
            "        out._items = list(self._items)\n"
            "        return out\n",
        )
        assert lint_file(path) == []

    def test_noqa_suppresses_specific_rule(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "suppressed.py",
            "__all__ = []\nimport time\n\n\ndef stamp():\n"
            "    return time.time()  # noqa: REP004,REP001\n",
        )
        assert lint_file(path) == []

    def test_noqa_other_rule_does_not_suppress(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "wrongnoqa.py",
            "__all__ = []\nimport time\n\n\ndef stamp():\n"
            "    return time.time()  # noqa: REP004\n",
        )
        assert {f.rule for f in lint_file(path)} == {"REP001"}

    def test_scoped_rules_skip_out_of_scope_package_files(self):
        """Scopes narrow inside the package only.  REP001 and REP002 have
        none, so a clock read or a module-level draw is one finding wherever
        it is (repro/obs/profiler.py is REP001's one suppressed site)."""
        for rule in RULES:
            assert rule.applies_to("tests/analysis/fixture.py")
            assert rule.applies_to("src/repro/experiments/cli.py") == (
                not rule.scopes
            )
        assert {r.rule_id for r in RULES if r.scopes} == {"REP010"}

    def test_rep010_scoped_to_sim_and_server(self):
        side_channel = next(r for r in RULES if r.rule_id == "REP010")
        assert side_channel.applies_to("src/repro/sim/processes.py")
        assert side_channel.applies_to("src/repro/server/engine.py")
        # the CLIs legitimately print
        assert not side_channel.applies_to("src/repro/obs/profiler.py")
        assert not side_channel.applies_to("src/repro/experiments/cli.py")
        assert side_channel.applies_to("tests/analysis/fixture.py")

    def test_rep010_flags_print_with_escape(self, tmp_path):
        """``# noqa`` is the escape (REP010 has no comment of its own)."""
        path = write_fixture(
            tmp_path,
            "allowed_print.py",
            "__all__ = []\n\n\ndef debug(state):\n"
            "    print(state)  # noqa: REP010\n"
            "    print(state)\n",
        )
        assert [(f.rule, f.line) for f in lint_file(path)] == [("REP010", 6)]

    def test_rep009_applies_to_the_whole_tree(self):
        pickling = next(r for r in RULES if r.rule_id == "REP009")
        assert pickling.applies_to("src/repro/sim/shard.py")
        assert pickling.applies_to("src/repro/sim/batch.py")
        assert pickling.applies_to("src/repro/experiments/sweeps.py")
        assert pickling.applies_to("tests/analysis/fixture.py")

    def test_rep009_configs_and_handles_may_cross(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "clean_boundary.py",
            "__all__ = []\n\n\ndef fan_out(pool, config, handle, jobs):\n"
            "    futures = [pool.submit(run_one, (config, handle))]\n"
            "    return futures, list(pool.map(run_one, jobs))\n",
        )
        findings = [f for f in lint_file(path) if f.rule == "REP009"]
        assert findings == []

    def test_rep009_catches_state_inside_containers(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "smuggled.py",
            "__all__ = []\nimport pickle\n\n\n"
            "def ship(self, pool, config):\n"
            "    pool.submit(run_one, (config, self.server))\n"
            "    return pickle.dumps(self.state)\n",
        )
        findings = [f for f in lint_file(path) if f.rule == "REP009"]
        assert len(findings) == 2
        assert "server" in findings[0].message
        assert "state" in findings[1].message

    def test_rep009_catches_stateful_class_names(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "classcross.py",
            "__all__ = []\n\n\ndef ship(pool, config):\n"
            "    return pool.submit(run_one, BroadcastSimulation(config))\n",
        )
        findings = [f for f in lint_file(path) if f.rule == "REP009"]
        assert len(findings) == 1
        assert "BroadcastSimulation" in findings[0].message

    def test_rep009_catches_the_live_timeline(self, tmp_path):
        """The server side of a run is singular too: a worker handed a
        copy of the live timeline would advance a divergent server."""
        path = write_fixture(
            tmp_path,
            "timelinecross.py",
            "__all__ = []\nimport pickle\n\n\n"
            "def ship(owner):\n"
            "    return pickle.dumps(LiveTimeline(owner.config, owner.layout))\n",
        )
        findings = [f for f in lint_file(path) if f.rule == "REP009"]
        assert len(findings) == 1
        assert "LiveTimeline" in findings[0].message


class TestDriver:
    def test_repo_source_is_clean(self):
        findings = lint_paths([REPO_SRC])
        assert findings == [], [f.format() for f in findings]

    def test_collect_files_deterministic(self):
        files = collect_files([REPO_SRC])
        assert files == sorted(files)
        assert all(f.endswith(".py") for f in files)

    def test_collect_files_skips_data_outside_scenarios(self, tmp_path):
        """...and inside: the pass reads Python only (scenario files are
        validated by loading them, tests/scenarios/test_library.py)."""
        (tmp_path / "notes.yaml").write_text("a: 1\n")
        (tmp_path / "scenarios").mkdir()
        (tmp_path / "scenarios" / "fleet.yaml").write_text("a: 1\n")
        (tmp_path / "mod.py").write_text("__all__ = []\n")
        files = collect_files([str(tmp_path)])
        assert files == [str(tmp_path / "mod.py")]

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = write_fixture(tmp_path, "clean.py", "__all__ = []\n")
        assert main([clean]) == 0
        dirty = write_fixture(tmp_path, "dirty.py", FIXTURES["REP004"])
        assert main([dirty]) == 1
        out = capsys.readouterr().out
        assert "REP004" in out
        assert main([str(tmp_path / "missing.py")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.rule_id in out

    def test_json_output(self, tmp_path, capsys):
        dirty = write_fixture(tmp_path, "dirty.py", FIXTURES["REP001"])
        assert main(["--json", dirty]) == 1
        out = capsys.readouterr().out
        assert '"rule": "REP001"' in out

    def test_module_invocation_on_repo(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", REPO_SRC],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout

    def test_docs_table_is_the_registry(self):
        """docs/ANALYSIS.md's rule table, row for row, is ``--list-rules``."""
        text = (REPO_ROOT / "docs" / "ANALYSIS.md").read_text()
        documented = [line for line in text.splitlines() if re.match(r"\| REP\d", line)]
        registered = [
            f"| {rule.rule_id} | {rule.description} | "
            f"{', '.join(f'`{scope}`' for scope in rule.scopes) or 'the whole tree'} |"
            for rule in sorted(RULES, key=lambda rule: rule.rule_id)
        ]
        assert documented == registered

    def test_every_marker_under_src_names_a_registered_rule(self):
        """``# noqa: REPnnn`` is the one suppression; there is no escape
        comment (``# rep: allow-...``) for a marker to go stale against."""
        rule_ids = {rule.rule_id for rule in RULES}
        for path in collect_files([REPO_SRC]):
            module = ModuleUnderLint(path, Path(path).read_text())
            assert "rep: allow-" not in module.source, path
            for line, codes in module.noqa.items():
                unknown = codes - rule_ids - {"*"}  # "*": a bare ``# noqa``
                assert not unknown, f"{path}:{line}: {unknown}"
