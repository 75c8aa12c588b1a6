"""Packaging declares what the code imports and takes its version from
``repro.__version__``; the planner's import graph stays free of heavyweight
libraries it does not use, and every exported name resolves."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def third_party_imports() -> dict[str, set[str]]:
    """Top-level modules imported anywhere under ``src/repro`` that are
    neither stdlib nor ``repro``, each with the files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(
                        str(path.relative_to(ROOT))
                    )
    return found


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = set()
    for req in deps:
        for sep in "<>=!~;[ ":
            req = req.split(sep)[0]
        names.add(req.strip().lower())
    return names


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    imported = third_party_imports()
    assert "numpy" in imported  # the walk sees real imports
    missing = {m: sorted(files) for m, files in imported.items()
               if m.lower() not in declared}
    assert not missing, f"imported but not in [project].dependencies: {missing}"


def test_one_module_replaces_files():
    """Atomic writes (temp file + ``os.replace``) have one home, so the
    on-disk caches share one set of disk rules."""
    callers = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                found = any(alias.name == "replace" for alias in node.names)
            else:
                found = (
                    isinstance(node, ast.Attribute)
                    and node.attr == "replace"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                )
            if found:
                callers.add(path.relative_to(SRC).as_posix())
    assert callers == {"repro/common/jsondir.py"}


#: dict methods that write their receiver.
_DICT_WRITERS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__"}


def test_one_lookup_writes_the_profile_store_memo():
    """Every artifact kind of ``ProfileStore`` is stored by ``_lookup``, so
    a bound or policy on the store's memory has one place to live.  A write
    is an item store or delete on a ``_memo`` attribute, a writing dict
    method called on one, or a rebinding outside ``__init__``."""
    path = SRC / "repro" / "session" / "profiles.py"

    def is_memo(node):
        return isinstance(node, ast.Attribute) and node.attr == "_memo"

    def writes(node, scope):
        if isinstance(node, ast.Subscript):
            return is_memo(node.value) and isinstance(node.ctx, (ast.Store, ast.Del))
        if isinstance(node, ast.Call):
            func = node.func
            return (
                isinstance(func, ast.Attribute)
                and func.attr in _DICT_WRITERS
                and is_memo(func.value)
            )
        return (
            is_memo(node)
            and isinstance(node.ctx, ast.Store)
            and not scope.endswith(".__init__")
        )

    writers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if writes(child, scope):
                writers.add(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), "")
    assert writers == {"ProfileStore._lookup"}


def test_planner_imports_leave_networkx_unloaded():
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    probe = (
        "import sys, repro.session, repro.service, repro.experiments.registry\n"
        "print('networkx' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    dynamic = meta["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}


def modules_with_all() -> list[str]:
    """Every ``repro`` module whose source assigns ``__all__`` at top level."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if any(
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for node in tree.body
        ):
            parts = path.relative_to(SRC).with_suffix("").parts
            found.append(".".join(parts).removesuffix(".__init__"))
    return found


@pytest.mark.parametrize("module", modules_with_all())
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names that do not resolve: {missing}"
