"""Smoke test of the benchmark itself: every workload at tiny scale.

Run from the repository root, either directly or under pytest::

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

(The file is not named ``test_*.py`` on purpose: the repository's tier-1
``pytest`` run must not collect it.)  Checks, for each workload with
``--tiny``: the last stdout line follows the result schema and names exactly
the metrics ``BENCHMARK.json`` declares, ``failed == 0``, traced span
coverage >= 0.95, and a second seed yields a different request stream, also
without failures.  Also checks that the benchmark refuses to run, printing
no result, in a directory holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout + proc.stderr
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def stream_digest(proc) -> str:
    return re.search(r"stream_digest=(\w+)", proc.stdout).group(1)


def check_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for spec in declared:
        metric = metrics[spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert math.isfinite(metric["value"]), spec["name"]


def test_end_to_end_schema_and_seeds():
    for workload in WORKLOADS:
        first = run(workload, seed=1, trace=0)
        check_metrics(result_of(first), SPEC["end_to_end"])
        second = run(workload, seed=2, trace=0)
        result_of(second)
        assert stream_digest(first) != stream_digest(second), workload


def test_traced_layers_cover_the_timed_calls():
    for workload in WORKLOADS:
        result = result_of(run(workload, seed=1, trace=1))
        check_metrics(result, SPEC["per_layer"])
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95, workload


def test_refuses_to_run_without_the_program():
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], seed=1, trace=0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
