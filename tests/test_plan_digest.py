"""Tier-1 bit-identity check: the plan digest must equal its golden file.

``python -m benchmarks.plan_digest`` prints a version header and one line
per request of a fixed set.  ``benchmarks/plan_digest.golden`` holds that
output as committed; a refactor that claims no number moves must reproduce
it line by line.  The shape test checks the set itself: every request
appears once, each line carries its four digests, and the schedule and
perturbation runs move the iteration time, so a diff can see them; then
one profile line per (model, device type, repeats) carries its catalog,
cast-fit and stats digests, and the repeat count moves the first two.

The rule (CONTRIBUTING.md, "Bit-identity goldens"): a refactor never
regenerates the golden.  A change that moves numbers on purpose
regenerates it in the same commit and lists every moved line in
CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.plan_digest import (
    MODEL_KWARGS,
    PROFILE_REPEATS,
    REQUESTS,
    SCHEDULE_RUNS,
    main,
    version_line,
)

GOLDEN = Path(__file__).resolve().parent.parent / "benchmarks" / "plan_digest.golden"


@pytest.fixture(scope="module")
def digest_lines():
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main() == 0
    return out.getvalue().splitlines()


def _rows(lines):
    """Request identity -> the rest of its line."""
    return {tuple(line.split()[:4]): line for line in lines}


def test_digest_covers_the_fixed_set(digest_lines):
    header, *lines = digest_lines
    assert header == version_line()
    plan_lines = [line for line in lines if not line.startswith("profile ")]
    rows = {}
    for line in plan_lines:
        *request, plan, it, ranks, timeline = line.split()
        assert [f.split("=")[0] for f in (plan, it, ranks, timeline)] == [
            "plan", "iter", "ranks", "timeline",
        ]
        rows[tuple(request)] = dict(
            f.split("=") for f in (plan, it, ranks, timeline)
        )
    assert list(rows) == list(REQUESTS)
    for model, cluster, strategy, run in REQUESTS:
        if run in SCHEDULE_RUNS and run != "default":
            default = rows[model, cluster, strategy, "default"]["iter"]
            assert rows[model, cluster, strategy, run]["iter"] != default

    assert lines[: len(plan_lines)] == plan_lines
    profiles = {}
    for line in lines[len(plan_lines):]:
        _, model, device, repeats, *digests = line.split()
        assert [f.split("=")[0] for f in digests] == ["catalog", "cast", "stats"]
        profiles[model, device, repeats] = dict(f.split("=") for f in digests)
    devices = list(dict.fromkeys(device for _, device, _ in profiles))
    assert list(profiles) == [
        (model, device, f"r={r}")
        for model in MODEL_KWARGS
        for device in devices
        for r in PROFILE_REPEATS
    ]
    assert len(devices) == 3
    for (model, device, repeats), row in profiles.items():
        if repeats != "r=1":
            one = profiles[model, device, "r=1"]
            assert row["catalog"] != one["catalog"]
            assert row["cast"] != one["cast"]


def test_digest_matches_the_golden_file(digest_lines):
    golden_header, *golden = GOLDEN.read_text().splitlines()
    header, *lines = digest_lines
    assert header == golden_header, (
        f"the golden digest was computed under {golden_header[2:]!r}, this "
        f"run is {header[2:]!r}: float formatting and numpy reductions may "
        "differ across versions, so compare against a digest generated at "
        "the parent commit under this interpreter instead"
    )
    want, got = _rows(golden), _rows(lines)
    moved = [" ".join(r) for r in want if want[r] != got.get(r)]
    extra = [" ".join(r) for r in got if r not in want]
    assert not moved and not extra, (
        f"requests whose digest moved: {moved}; requests absent from the "
        f"golden file: {extra}"
    )
    assert lines == golden
