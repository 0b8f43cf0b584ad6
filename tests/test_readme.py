"""The README's code snippets must actually run.

Python fenced blocks are extracted from README.md and executed in order
(shared namespace), with the simulation sizes scaled down via a
namespace shim so documentation stays honest without slowing the suite.
"""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_exists_and_has_python_blocks():
    assert README.exists()
    assert len(python_blocks()) >= 2


def test_readme_python_blocks_execute(tmp_path, monkeypatch):
    blocks = python_blocks()
    namespace = {}
    for block in blocks:
        # scale documentation examples down for test wall-clock
        scaled = block.replace("num_client_transactions=200", "num_client_transactions=10")
        scaled = scaled.replace("transactions=1000", "transactions=5")
        scaled = scaled.replace('generate_report("results/"', f'generate_report("{tmp_path}"')
        exec(compile(scaled, str(README), "exec"), namespace)  # noqa: S102

    # artefacts from the generate_report block
    assert (tmp_path / "REPORT.md").exists()


def test_readme_mentions_every_example_script():
    text = README.read_text()
    examples_dir = pathlib.Path(__file__).resolve().parent.parent / "examples"
    for script in examples_dir.glob("*.py"):
        assert script.name in text, f"README does not mention {script.name}"


def architecture_tree(text):
    """The paths the README's ``src/repro/`` tree lists, relative to it.

    A line is ``<prefix>├── name`` (or ``└──``), four columns of prefix
    per level; a line may list several modules (``a.py, b.py``), and a
    name ending in ``/`` is a directory whose lines follow, one level in.
    """
    block = re.search(r"```\nsrc/repro/\n(.*?)```", text, flags=re.DOTALL).group(1)
    listed, parents = set(), []
    for line in block.splitlines():
        entry = re.match(r"([│ ]*)[├└]── ((?:[a-z_]+\.py, )*[a-z_]+(?:\.py|/))", line)
        if entry is None:
            continue  # a description's continuation line
        del parents[len(entry.group(1)) // 4 :]
        for name in entry.group(2).split(", "):
            listed.add("/".join(parents + [name.rstrip("/")]))
        if name.endswith("/"):
            parents.append(name[:-1])
    return listed


def test_readme_architecture_lists_real_modules():
    text = README.read_text()
    root = pathlib.Path(__file__).resolve().parent.parent
    src = root / "src" / "repro"
    examples = root / "examples"
    for mentioned in re.findall(r"([a-z_]+\.py)\b", text):
        hits = list(src.rglob(mentioned)) + list(examples.glob(mentioned))
        assert hits, f"README mentions {mentioned}, which does not exist"

    # and the other way: the tree names every module, where a listed
    # directory with no entries of its own (``rules/``) covers its files
    listed = architecture_tree(text)
    for path in listed:
        assert (src / path).exists(), f"README's tree lists {path}, which does not exist"
    leaves = {d for d in listed if not any(p.startswith(d + "/") for p in listed)}
    for module in src.rglob("*.py"):
        rel = module.relative_to(src).as_posix()
        if module.name == "__init__.py" or rel in listed:
            continue
        covered = any(rel.startswith(d + "/") for d in leaves)
        assert covered, f"README's architecture tree does not name {rel}"
