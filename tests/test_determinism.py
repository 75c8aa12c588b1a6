"""Cross-process determinism regression tests.

The artifact cache (and any cross-process cache keyed on graph
fingerprints) is only sound if fingerprints, ground-truth measurements and
sweep cache keys are invariant under ``PYTHONHASHSEED`` — i.e. never built
on Python's per-process-salted builtin ``hash``.  These tests launch
subprocesses with *different* hash seeds and assert bit-equal outputs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Probe script: emits every value that must survive the process boundary.
_PROBE = r"""
import json
from repro.core.simulator import GroundTruthSimulator
from repro.experiments.sweep import ScenarioGrid
from repro.hardware import make_cluster_a
from repro.models import mini_model_graph
from repro.session import PlanRequest, PlanSession

dag = mini_model_graph("mini_vggbn", batch_size=4)
fingerprint = dag.structure_fingerprint()

cluster = make_cluster_a(1, 1)
builder = lambda: mini_model_graph(
    "mini_bert", batch_size=2, width_scale=2, spatial_scale=2
)
ctx = PlanSession().prepare(
    PlanRequest(model=builder, cluster=cluster, profile_repeats=1)
)
replayer, backends = ctx.replayer, ctx.backends
sim = GroundTruthSimulator(cluster, replayer.dags, backends, seed=3).run(
    iterations=2
)

# A warm qsync plan (mixed fp16/fp32 at this size): the cost mapper fills
# its price memo in set order, which must never reach a result.
session = PlanSession()
request = PlanRequest(
    model="mini_bert",
    model_kwargs=dict(batch_size=8, width_scale=16, spatial_scale=8),
    cluster="cluster_a_2x8+2x8", strategy="qsync", profile_repeats=1,
)
session.plan(request)
warm = session.plan(request)

cells = ScenarioGrid(["table1", "table3", "fig8"]).cells()
print(json.dumps({
    "structure_fingerprint": fingerprint,
    "gt_iteration_time": sim.iteration_time.hex(),
    "gt_per_device_compute": {
        str(rank): t.hex() for rank, t in sorted(sim.per_device_compute.items())
    },
    "cache_keys": {c.cell_id: c.fingerprint() for c in cells},
    "warm_plan": json.dumps(warm.plan.to_dict(), sort_keys=True)
    + warm.simulation.iteration_time.hex(),
}))
"""


def _probe(hashseed: int) -> dict:
    env = os.environ.copy()
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fingerprints_measurements_and_cache_keys_survive_hash_seed():
    a = _probe(0)
    b = _probe(12345)
    assert a["structure_fingerprint"] == b["structure_fingerprint"]
    assert a["gt_iteration_time"] == b["gt_iteration_time"]  # bit-equal float
    assert a["gt_per_device_compute"] == b["gt_per_device_compute"]
    assert a["cache_keys"] == b["cache_keys"]
    assert len(a["cache_keys"]) == 3
    assert a["warm_plan"] == b["warm_plan"]


def test_allreduce_iterates_in_replica_zero_order(monkeypatch):
    """Gradient reduction must walk parameters in replica-0 insertion order
    (byte-stable traces), never salted set order."""
    from repro.parallel import collective

    class _Param:
        def __init__(self, tag):
            self.grad = np.full(1, float(tag))

    class _Model:
        def __init__(self, names, tags):
            self._params = [(n, _Param(tags[n])) for n in names]

        def named_parameters(self):
            return iter(self._params)

    order = ["w3", "w1", "w2", "w0"]
    tags = {name: i for i, name in enumerate(order)}
    # Replica 1 inserts its (identically named) parameters in *reverse*
    # order; the reduction must still walk replica-0 order.
    replicas = [_Model(order, tags), _Model(list(reversed(order)), tags)]

    reduced: list[str] = []
    real = collective.allreduce_average
    tag_to_name = {float(tag): name for name, tag in tags.items()}

    def _spy(arrays, weights=None):
        reduced.append(tag_to_name[float(arrays[0][0])])
        return real(arrays, weights)

    monkeypatch.setattr(collective, "allreduce_average", _spy)
    collective.allreduce_gradients(replicas)
    assert reduced == order  # replica-0 insertion order, exactly


def test_allreduce_mismatched_trees_still_rejected():
    from repro.parallel.collective import allreduce_gradients

    class _Param:
        def __init__(self):
            self.grad = np.ones(1)

    class _Model:
        def __init__(self, names):
            self._params = [(n, _Param()) for n in names]

        def named_parameters(self):
            return iter(self._params)

    import pytest

    with pytest.raises(ValueError):
        allreduce_gradients([_Model(["a"]), _Model(["b"])])


def test_simulator_rep_offsets_are_name_stable():
    """The ground-truth cast rep index derives from the op name via the
    seeded FNV mix — same name, same offset, in any process."""
    from repro.common.rng import derive_seed

    assert derive_seed(0, "conv1") % 97 == derive_seed(0, "conv1") % 97
    offsets = {derive_seed(0, f"op{i}") % 97 for i in range(200)}
    assert len(offsets) > 20  # still decorrelates ops
