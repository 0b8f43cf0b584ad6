"""Every absolute ``repro.…`` cross-reference in a source docstring resolves.

A ``:mod:`` / ``:class:`` / ``:func:`` / ``:meth:`` / ``:attr:`` /
``:data:`` role naming ``repro.…`` must name a module that imports, or an
object reachable from one by attribute access.  An ``:attr:`` may also
name an instance attribute its class assigns as ``self.<name>``.
"""

import importlib
import inspect
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ROLE = re.compile(r":(mod|class|func|meth|attr|data):`~?(repro(?:\.\w+)+)`")


def references():
    for path in sorted(SRC.rglob("*.py")):
        for role, target in ROLE.findall(path.read_text()):
            yield path.relative_to(SRC.parent).as_posix(), role, target


def resolve(role, target):
    """The object ``target`` names, or raise ``LookupError``."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    else:
        raise LookupError(f"no module in {target}")
    if role == "mod" and cut != len(parts):
        raise LookupError(f"{target} is not a module")
    rest = parts[cut:]
    for i, name in enumerate(rest):
        if hasattr(obj, name):
            obj = getattr(obj, name)
            continue
        last = i == len(rest) - 1
        if last and role == "attr" and inspect.isclass(obj):
            source = inspect.getsource(obj)
            if re.search(rf"\bself\.{name}\s*(:[^=\n]*)?=", source):
                return obj
        raise LookupError(f"{target}: nothing named {name!r}")
    return obj


def test_every_repro_reference_resolves():
    refs = sorted(set(references()))
    assert len(refs) > 100
    broken = []
    for where, role, target in refs:
        try:
            resolve(role, target)
        except LookupError as exc:
            broken.append(f"{where}: :{role}:`{target}` ({exc})")
    assert not broken, "\n".join(broken)
