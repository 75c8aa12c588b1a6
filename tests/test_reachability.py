"""The reachability check's own guards, fast enough for every run.

``benchmarks/reachability.py`` runs every user path under a profile hook
(minutes); these tests check what it leans on: the allowlist names live
definitions with reasons, its core flags an unentered function, and every
span target perfbench patches still resolves (a deleted probe target would
otherwise surface only in ``perfbench/smoke.py``).
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = load(ROOT / "benchmarks" / "reachability.py", "_reachability")
spans = load(ROOT / "perfbench" / "spans.py", "_perfbench_spans")


def test_allowlist_names_live_definitions_with_reasons():
    allowed = reach.read_allowlist()
    assert allowed
    names = {name for _, name, _ in reach.definitions(reach.SRC)}
    stale = sorted(set(allowed) - names)
    assert not stale, f"allowlisted names with no definition: {stale}"
    unexplained = sorted(name for name, reason in allowed.items() if not reason)
    assert not unexplained, f"allowlisted names without a reason: {unexplained}"


def test_core_flags_an_unentered_function(tmp_path):
    package = tmp_path / "toypkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "def used():\n"
        "    return Box().twice(1)\n"
        "\n"
        "\n"
        "def unused():\n"
        "    return 0\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def twice(self, x):\n"
        "        return 2 * x\n"
        "\n"
        "    def stub(self):\n"
        '        """Only a docstring: stubs are never reported."""\n'
        "\n"
        "    @staticmethod\n"
        "    def idle():\n"
        "        return None\n"
    )
    toy = load(package / "mod.py", "toypkg_mod")
    seen: set = set()
    previous = sys.getprofile()
    sys.setprofile(reach.record(seen))
    try:
        toy.used()
    finally:
        sys.setprofile(previous)
    entered = reach.entered_keys(seen, tmp_path)
    defs = reach.definitions(tmp_path, package="toypkg")
    missing = dict(reach.unentered(defs, entered))
    assert missing == {"toypkg.mod:unused": 2, "toypkg.mod:Box.idle": 3}


@pytest.mark.parametrize(
    "target", sorted({t for _, targets, _ in spans.PROBES for t in targets})
)
def test_perfbench_probe_target_resolves(target):
    """Resolve a probe the way ``spans.Tracer._patch`` does."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        assert attr in vars(getattr(module, cls_name)), target
    else:
        assert callable(getattr(module, qualname)), target
