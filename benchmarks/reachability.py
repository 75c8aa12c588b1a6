"""Which functions under ``src/repro`` does no user path enter?

Runs every user path in a fresh interpreter: each ``examples/*.py``, an
uncached ``runner all --quick --jobs 1``, the four perfbench workloads at
full scale, and the linter over ``src``.  A ``sitecustomize.py`` on
``PYTHONPATH`` installs a ``sys.setprofile``/``threading.setprofile`` hook in
every process, child processes included, and each process writes the code
objects it entered to its own file.  The script then lists every function
or method under ``src/repro`` that no process entered, with its line count,
and exits 1 if one is missing from ``benchmarks/reachability_allow.txt``
(one ``module:qualname  reason`` line per kept definition) or if an
allowlisted one was entered.

Usage (from the repo root; stdlib only; about 6 minutes on a 2-CPU host)::

    python benchmarks/reachability.py [REPORT]
"""

from __future__ import annotations

import ast
import atexit
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).with_name("reachability_allow.txt")
WORKLOADS = ("whatif_warm", "cold_start", "serve_churn", "sweep_quick")
_SITECUSTOMIZE = """\
import importlib.util, os
_spec = importlib.util.spec_from_file_location("_reachability", {path!r})
_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_mod)
_mod.install(os.environ["REACHABILITY_OUT"])
"""


def record(seen: set) -> Callable:
    """A profile hook adding ``(file, first line)`` of each entered code."""
    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
    return hook


def entered_keys(seen: set, root: Path) -> set[str]:
    """``path:first line`` of each recorded code object under ``root``, in
    the form :func:`definitions` keys them."""
    paths = {f: os.path.realpath(f) for f, _ in seen}
    return {f"{paths[f]}:{n}" for f, n in seen
            if paths[f].startswith(os.path.realpath(root) + os.sep)}


def install(out_dir: str) -> None:
    """Trace this process; write what it entered under ``src`` at exit."""
    seen: set = set()
    hook = record(seen)
    sys.setprofile(hook)
    threading.setprofile(hook)

    def flush() -> None:
        sys.setprofile(None)
        keys = sorted(entered_keys(seen, SRC))
        Path(out_dir, f"{os.getpid()}.txt").write_text("\n".join(keys))
    atexit.register(flush)


def _is_stub(node: ast.FunctionDef) -> bool:
    """Only a docstring, ``pass``, ``...`` or ``raise NotImplementedError``."""
    return all(
        isinstance(s, ast.Pass)
        or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
        or (isinstance(s, ast.Raise) and "NotImplementedError" in ast.unparse(s))
        for s in node.body
    )


def definitions(root: Path, package: str = "repro") -> list[tuple]:
    """``(path:first line, module:qualname, lines)`` of every module-level
    function and class method under ``root / package``, stubs excluded."""
    found = []

    def visit(body, path, module, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, module, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_stub(node):
                    continue
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found.append((f"{path}:{first}", f"{module}:{prefix}{node.name}",
                              node.end_lineno - first + 1))

    for path in sorted((root / package).rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        visit(ast.parse(path.read_text()).body, os.path.realpath(path),
              module.removesuffix(".__init__"), "")
    return found


def unentered(defs: list[tuple], entered: set[str]) -> list[tuple[str, int]]:
    return [(name, lines) for key, name, lines in defs if key not in entered]


def read_allowlist(path: Path = ALLOWLIST) -> dict[str, str]:
    entries = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.strip().partition(" ")
            entries[name] = reason.strip()
    return entries


def user_paths(work: Path) -> list[list[str]]:
    py = sys.executable
    paths = [[py, str(p.relative_to(ROOT))]
             for p in sorted((ROOT / "examples").glob("*.py"))]
    paths.append([py, "-m", "repro.experiments.runner", "all", "--quick",
                  "--jobs", "1", "--out", str(work / "artifacts")])
    paths += [[py, "perfbench/run.py", "--workload", w, "--seed", "0",
               "--seconds", "3"] for w in WORKLOADS]
    paths.append([py, "-m", "repro.analysis.lint", "src"])
    return paths


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        work, traces = Path(tmp), Path(tmp, "traces")
        traces.mkdir()
        Path(tmp, "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(path=str(Path(__file__).resolve())))
        env = dict(os.environ, REACHABILITY_OUT=str(traces),
                   PYTHONPATH=os.pathsep.join(
                       [tmp, str(SRC), os.environ.get("PYTHONPATH", "")]))
        failed = 0
        for cmd in user_paths(work):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            label = " ".join(c for c in cmd[1:] if not c.startswith(tmp))
            print(f"# {time.perf_counter() - t0:7.1f} s  exit {proc.returncode}  "
                  f"{label}", file=sys.stderr)
            if proc.returncode != 0:
                failed += 1
                print(proc.stderr[-2000:], file=sys.stderr)
        entered = set()
        for trace in traces.iterdir():
            entered.update(trace.read_text().splitlines())

    allowed = read_allowlist()
    missing = unentered(definitions(SRC), entered)
    report = [f"{name}  {lines} lines{'' if name in allowed else '  NOT ALLOWLISTED'}"
              for name, lines in missing]
    stray = [name for name, _ in missing if name not in allowed]
    stale = sorted(set(allowed) - {name for name, _ in missing})
    report += [f"{name}  ENTERED, allowlisted" for name in stale]
    report.append(f"# {len(missing)} unentered definitions, "
                  f"{sum(n for _, n in missing)} lines; {len(stray)} not allowlisted; "
                  f"{len(stale)} allowlisted but entered; "
                  f"{time.perf_counter() - start:.0f} s wall")
    text = "\n".join(report) + "\n"
    if argv:
        Path(argv[0]).write_text(text)
    print(text, end="")
    return 1 if stray or stale or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
