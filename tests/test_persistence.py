"""Tests for profile/plan persistence (offline-replay workflow)."""

import json

import pytest

from repro.backend import LPBackend
from repro.common import Precision
from repro.common.jsondir import JsonDir
from repro.core.plan import PrecisionPlan
from repro.hardware import T4
from repro.models import mini_model_graph
from repro.profiling import profile_operator_costs
from repro.profiling.persistence import catalog_from_dict, catalog_to_dict


@pytest.fixture(scope="module")
def catalog():
    dag = mini_model_graph("mini_vgg", batch_size=16)
    return profile_operator_costs(dag, LPBackend(T4), repeats=1)


class TestCatalogPersistence:
    def test_dict_roundtrip_exact(self, catalog):
        restored = catalog_from_dict(catalog_to_dict(catalog))
        assert restored.device_name == catalog.device_name
        assert len(restored) == len(catalog)
        for (op, prec), cost in catalog._costs.items():
            r = restored.get(op, prec)
            assert r.forward == cost.forward
            assert r.backward == cost.backward
        for op in catalog._input_elems:
            assert restored.input_elems(op) == catalog.input_elems(op)

    def test_file_roundtrip(self, catalog, tmp_path):
        store = JsonDir(tmp_path, format=1, pattern="*.json")
        path = store.write(tmp_path / "t4.json", catalog_to_dict(catalog))
        restored = catalog_from_dict(store.read(path))
        op, prec = next(iter(catalog._costs))
        assert restored.get(op, prec).total == catalog.get(op, prec).total

    def test_restored_catalog_drives_replayer(self, catalog):
        """The offline workflow: a loaded catalog must be usable in place
        of a freshly profiled one."""
        from repro.core import CostMapper
        from repro.profiling import CastCostCalculator

        restored = catalog_from_dict(json.loads(json.dumps(catalog_to_dict(catalog))))
        dag = mini_model_graph("mini_vgg", batch_size=16)
        casts = CastCostCalculator(LPBackend(T4))
        fresh = CostMapper(dag.copy(), catalog, casts, device=T4)
        offline = CostMapper(dag.copy(), restored, casts, device=T4)
        assert offline.build_local_dfg("T4", 0).compute_time == pytest.approx(
            fresh.build_local_dfg("T4", 0).compute_time
        )


class TestPlanPersistence:
    def test_file_roundtrip(self, tmp_path):
        plan = PrecisionPlan(
            assignments={"T4": {"a": Precision.INT8, "b": Precision.FP16}}
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert PrecisionPlan.from_dict(json.loads(path.read_text())).assignments == (
            plan.assignments
        )

    def test_json_is_human_readable(self):
        plan = PrecisionPlan(assignments={"T4": {"conv": Precision.INT8}})
        text = json.dumps(plan.to_dict(), indent=1)
        assert '"conv": "int8"' in text
