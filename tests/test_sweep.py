"""Tests for the sweep engine: grid expansion, the content-addressed
artifact store, cache hit/miss behaviour, parallel/serial parity, and
failure isolation."""

import json
import os

import pytest

from repro.common.dtypes import Precision
from repro.common.stable_hash import (
    canonical_encode,
    stable_digest,
    stable_hash,
    stable_mod,
)
from repro.experiments import EXPERIMENTS, SCENARIOS, ExperimentResult
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.registry import ScenarioAxes
from repro.experiments.sweep import ScenarioGrid, SweepRunner

CHEAP = ["fig4", "table1"]


def _cheap_cells():
    return ScenarioGrid(CHEAP).cells()


class TestStableHash:
    def test_tuple_list_equivalence(self):
        assert stable_hash((1, "a", 2.5)) == stable_hash([1, "a", 2.5])

    def test_dict_order_independent(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_distinguishes_values_and_types(self):
        assert stable_hash("1") != stable_hash(1)
        assert stable_hash(0.0) != stable_hash(False)
        assert stable_hash([1, 2]) != stable_hash([2, 1])
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_enum_encoded_by_name(self):
        assert stable_hash(Precision.FP16) == stable_hash(Precision.FP16)
        assert stable_hash(Precision.FP16) != stable_hash(Precision.FP32)
        assert stable_hash(Precision.FP16) != stable_hash("FP16")

    def test_nested_structures(self):
        value = {"k": [(1, None), {"x": {True, 2}}], "e": Precision.INT8}
        assert stable_digest(value) == stable_digest(value)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_encode(object())

    def test_stable_mod(self):
        assert 0 <= stable_mod("conv1", 97) < 97
        with pytest.raises(ValueError):
            stable_mod("x", 0)

    def test_golden_values_pin_cross_process_stability(self):
        # Regression anchors: these must never change, or every persisted
        # artifact store silently invalidates.
        assert canonical_encode(None) == b"N"
        assert stable_digest("qsync") == stable_digest("qsync")
        assert stable_hash("qsync") == 0x52F06BD3B997B400

    def test_canonical_encode_golden_bytes_cover_every_branch(self):
        # One value through every encoder branch (numpy scalars ride the
        # ``numbers`` ABCs), pinned byte for byte: reordering the type
        # tests must not move a single fingerprint.
        import numpy as np

        value = {
            "none": None, "true": True, "false": False,
            "enum": Precision.FP16, "int": -7, "big": 2**70,
            "np_int": np.int64(5), "float": -0.0,
            "np_float": np.float32(1.5), "str": "h\u00e9llo",
            "bytes": b"\x00\xff", "bytearray": bytearray(b"ab"),
            "tuple": (1, "a"), "list": [2.5, None], "set": {3, "x"},
            "frozenset": frozenset({Precision.INT8}), "nested": {1: [()]},
        }
        golden = bytes.fromhex(
        "4d00000011530000000362696749000000163131383035393136323037313734"
        "31313330333432345300000003696e7449000000022d37530000000373657458"
        "000000024900000001335300000001785300000003737472530000000668c3a9"
        "6c6c6f5300000004656e756d450000000e507265636973696f6e2e4650313653"
        "000000046c6973744c000000024440040000000000004e53000000046e6f6e65"
        "4e5300000004747275655453000000056279746573420000000200ff53000000"
        "0566616c7365465300000005666c6f6174448000000000000000530000000574"
        "75706c654c0000000249000000013153000000016153000000066e6573746564"
        "4d000000014900000001314c000000014c0000000053000000066e705f696e74"
        "49000000013553000000086e705f666c6f6174443ff800000000000053000000"
        "0962797465617272617942000000026162530000000966726f7a656e73657458"
        "00000001450000000e507265636973696f6e2e494e5438"
        )
        assert canonical_encode(value) == golden


class TestResultJsonRoundTrip:
    def _result(self):
        return ExperimentResult(
            experiment_id="x",
            title="demo",
            headers=["a", "b"],
            rows=[["r1", 1.0], ["r2", 2.5]],
            paper=[["r1", 9.0]],
            notes="n",
            extras={"trace": [(1, 2.0)], "obj": object()},
        )

    def test_round_trip_preserves_tables(self):
        back = ExperimentResult.from_json_dict(self._result().to_json_dict())
        assert back.experiment_id == "x"
        assert back.rows == [["r1", 1.0], ["r2", 2.5]]
        assert back.paper == [["r1", 9.0]]
        assert back.notes == "n"

    def test_non_serializable_extras_become_markers(self):
        payload = self._result().to_json_dict()
        assert payload["extras"]["trace"] == [[1, 2.0]]
        assert "dropped" in payload["extras"]["obj"]
        json.dumps(payload)  # the whole payload must be JSON-clean

    def test_round_trip_is_stable(self):
        once = self._result().to_json_dict()
        twice = ExperimentResult.from_json_dict(once).to_json_dict()
        assert once == twice


class TestScenarioGrid:
    def test_every_experiment_has_axes(self):
        assert set(SCENARIOS) == set(EXPERIMENTS)

    def test_quick_grid_shape(self):
        cells = ScenarioGrid().cells()
        ids = [c.cell_id for c in cells]
        assert len(ids) == len(set(ids))  # unique cell ids
        assert "table2:VGG16BN:quick" in ids and "table2:BERT:quick" in ids
        by_exp = {c.experiment_id for c in cells}
        assert by_exp == set(EXPERIMENTS)

    def test_full_protocol_expands_table2_models(self):
        cells = ScenarioGrid(["table2"], protocols=("full",)).cells()
        assert len(cells) == 4
        assert all(c.protocol == "full" for c in cells)

    def test_filter_substring(self):
        cells = ScenarioGrid().cells(filter="table2:BERT")
        assert [c.cell_id for c in cells] == ["table2:BERT:quick"]

    def test_unknown_experiment_and_protocol_rejected(self):
        with pytest.raises(KeyError):
            ScenarioGrid(["table99"])
        with pytest.raises(ValueError):
            ScenarioGrid(["table1"], protocols=("fast",))

    def test_seeds_deterministic_and_distinct(self):
        a = ScenarioGrid().cells()
        b = ScenarioGrid().cells()
        assert [c.seed for c in a] == [c.seed for c in b]
        assert len({c.seed for c in a}) == len(a)
        # A different base seed moves every cell seed, but must NOT re-key
        # seed-blind experiments — their results cannot change, so their
        # cached artifacts must keep hitting.  Seed-*aware* experiments
        # (straggler consumes its cell seed for the perturbation draws)
        # must re-key, because their results do change.
        from repro.experiments.sweep import _experiment_accepts_seed

        c = ScenarioGrid(seed=1).cells()
        assert [x.seed for x in c] != [x.seed for x in a]
        for old, new in zip(a, c):
            if _experiment_accepts_seed(old.experiment_id):
                assert new.fingerprint() != old.fingerprint()
            else:
                assert new.fingerprint() == old.fingerprint()
        assert any(_experiment_accepts_seed(x.experiment_id) for x in a)
        assert not all(_experiment_accepts_seed(x.experiment_id) for x in a)

    def test_seed_forwarded_and_fingerprinted_for_seed_aware_experiments(
        self, monkeypatch
    ):
        captured = {}

        def _seeded(quick=True, seed=0):
            captured["seed"] = seed
            return ExperimentResult("seeded-exp", "t", ["h"], [[seed]])

        monkeypatch.setitem(EXPERIMENTS, "seeded-exp", _seeded)
        monkeypatch.setitem(SCENARIOS, "seeded-exp", ScenarioAxes(cluster="none"))
        cell0, = ScenarioGrid(["seeded-exp"]).cells()
        cell1, = ScenarioGrid(["seeded-exp"], seed=1).cells()
        assert cell0.run_kwargs()["seed"] == cell0.seed
        assert cell0.fingerprint() != cell1.fingerprint()  # seed re-keys
        cell0.execute()
        assert captured["seed"] == cell0.seed

    def test_full_scale_graph_models_fingerprintable(self):
        # fig7 depends on the full-scale ResNet50 graph builder, not a
        # mini-model registry name; its cell must still anchor on the graph.
        from repro.experiments.sweep import model_structure_fingerprint

        cell, = ScenarioGrid(["fig7"]).cells()
        assert "resnet50" in cell.models
        assert cell.fingerprint_inputs()["graphs"]["resnet50"] == \
            model_structure_fingerprint("resnet50")
        with pytest.raises(KeyError):
            model_structure_fingerprint("no_such_model")

    def test_table2_training_config_is_fingerprinted(self):
        cells = ScenarioGrid(["table2"]).cells()
        assert all(c.config for c in cells)  # MODELS tuples wired through

    def test_describe_degrades_non_json_kwargs_to_repr(self):
        import dataclasses

        cell = dataclasses.replace(
            _cheap_cells()[0], kwargs=(("precision", Precision.FP16),)
        )
        desc = cell.describe()
        json.dumps(desc)  # store.save must never crash on metadata
        assert "FP16" in str(desc["kwargs"])

    def test_all_scenario_models_resolve_to_graphs(self):
        # Every model a scenario declares must be buildable, so cache keys
        # always anchor on a real graph structure fingerprint.
        from repro.experiments.sweep import model_structure_fingerprint

        for axes in SCENARIOS.values():
            for protocol in ("quick", "full"):
                for variant in axes.variants(protocol):
                    for model in variant.models:
                        assert isinstance(
                            model_structure_fingerprint(model), int
                        )

    def test_fingerprint_depends_on_protocol_cluster_and_config(self):
        import dataclasses

        quick, = ScenarioGrid(["table3"]).cells()
        full, = ScenarioGrid(["table3"], protocols=("full",)).cells()
        assert quick.fingerprint() != full.fingerprint()
        moved = dataclasses.replace(quick, cluster="other-cluster")
        assert moved.fingerprint() != quick.fingerprint()
        # table3 declares its graph kwargs (GRAPH_KW) as scenario config;
        # changing a scale must re-key the cached artifact.
        assert quick.config  # the declaration is actually wired through
        rescaled = dataclasses.replace(quick, config=(("width_scale", 99),))
        assert rescaled.fingerprint() != quick.fingerprint()


class TestArtifactStore:
    def test_save_load_round_trip(self, tmp_path):
        cell = _cheap_cells()[0]
        store = ArtifactStore(tmp_path)
        assert store.load(cell) is None  # cold miss
        result = cell.execute()
        path = store.save(cell, result.to_json_dict())
        assert path.is_file() and path.parent.name == cell.experiment_id
        loaded = store.load(cell)
        assert loaded is not None
        assert loaded.rows == ExperimentResult.from_json_dict(
            result.to_json_dict()
        ).rows
        assert len(store) == 1

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cell = _cheap_cells()[0]
        store = ArtifactStore(tmp_path)
        path = store.save(cell, cell.execute().to_json_dict())
        # Truncated JSON, then valid JSON that is not an object.
        for text in ("{truncated", "[]", '"x"', "1", "null"):
            path.write_text(text)
            assert store.load(cell) is None, text
        path.write_bytes(b"\xff{")  # not UTF-8
        assert store.load(cell) is None

    def test_stale_format_is_a_miss(self, tmp_path):
        cell = _cheap_cells()[0]
        store = ArtifactStore(tmp_path)
        path = store.save(cell, cell.execute().to_json_dict())
        doc = json.loads(path.read_text())
        doc["format"] = -1
        path.write_text(json.dumps(doc))
        assert store.load(cell) is None

    def test_clear_removes_artifacts_and_interrupted_partials(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for cell in _cheap_cells():
            store.save(cell, cell.execute().to_json_dict())
        # Simulate a save() killed between tmp write and rename.
        orphan = store.path_for(_cheap_cells()[0]).with_suffix(".tmp.99999")
        orphan.write_text("{partial")
        assert store.clear() == 2
        assert len(store) == 0
        assert not orphan.exists()


class TestSweepRunner:
    def test_cache_hit_and_miss(self, tmp_path):
        cells = _cheap_cells()
        store = ArtifactStore(tmp_path)
        cold = SweepRunner(store=store).run(cells)
        assert [o.status for o in cold.outcomes] == ["computed"] * len(cells)
        warm = SweepRunner(store=store).run(cells)
        assert [o.status for o in warm.outcomes] == ["cached"] * len(cells)
        for a, b in zip(cold.outcomes, warm.outcomes):
            assert a.fingerprint == b.fingerprint
            assert a.result.rows == b.result.rows

    def test_failed_artifact_write_is_a_miss(self, tmp_path, monkeypatch):
        # A cache write that fails costs a recomputation, never the sweep,
        # and leaves no partial behind.
        cells = _cheap_cells()
        store = ArtifactStore(tmp_path)

        def _fail(*args):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", _fail)
            report = SweepRunner(store=store).run(cells)
        assert [o.status for o in report.outcomes] == ["computed"] * len(cells)
        assert all(o.artifact is None for o in report.outcomes)
        assert list(tmp_path.rglob("*.tmp.*")) == []
        again = SweepRunner(store=store).run(cells)
        assert [o.status for o in again.outcomes] == ["computed"] * len(cells)

    def test_no_store_neither_reads_nor_writes(self, tmp_path):
        cells = _cheap_cells()
        SweepRunner(store=ArtifactStore(tmp_path)).run(cells)
        files = sorted(tmp_path.rglob("*"))
        again = SweepRunner(store=None).run(cells)
        assert len(again.computed) == len(cells)  # warm store not read
        assert all(o.artifact is None for o in again.outcomes)
        assert sorted(tmp_path.rglob("*")) == files  # ... and nothing written

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        cells = _cheap_cells()
        serial_store = ArtifactStore(tmp_path / "serial")
        parallel_store = ArtifactStore(tmp_path / "parallel")
        serial = SweepRunner(store=serial_store, jobs=1).run(cells)
        parallel = SweepRunner(store=parallel_store, jobs=2).run(cells)
        assert len(parallel.computed) == len(serial.computed) == len(cells)
        serial_files = {
            p.relative_to(serial_store.root): p.read_bytes()
            for p in serial_store.entries()
        }
        parallel_files = {
            p.relative_to(parallel_store.root): p.read_bytes()
            for p in parallel_store.entries()
        }
        assert serial_files == parallel_files
        # The in-memory results agree too (same JSON round trip both ways).
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.result.rows == b.result.rows

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_isolation(self, tmp_path, monkeypatch, jobs):
        if jobs > 1:
            import multiprocessing

            if multiprocessing.get_start_method() != "fork":
                # Worker processes only inherit the monkeypatched registry
                # entry under fork; spawn/forkserver re-import a clean one.
                pytest.skip("needs fork start method to inherit fake experiment")

        def _boom(quick=True):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(EXPERIMENTS, "boom", _boom)
        monkeypatch.setitem(SCENARIOS, "boom", ScenarioAxes(cluster="none"))
        cells = ScenarioGrid(["boom", "fig4", "table1"]).cells()
        store = ArtifactStore(tmp_path)
        report = SweepRunner(store=store, jobs=jobs).run(cells)
        by_id = {o.cell_id: o for o in report.outcomes}
        assert by_id["boom:quick"].status == "failed"
        assert "kaboom" in by_id["boom:quick"].error
        assert by_id["fig4:quick"].status == "computed"
        assert by_id["table1:quick"].status == "computed"
        # Failed cells leave no artifact; healthy cells are cached.
        assert len(store) == 2
        rerun = SweepRunner(store=store, jobs=jobs).run(cells)
        assert len(rerun.cached) == 2 and len(rerun.failed) == 1

    def test_hard_worker_death_retried_serially(self, tmp_path, monkeypatch):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork start method to inherit fake experiment")

        def _die_in_worker(quick=True):
            import multiprocessing as mp
            import os

            if mp.parent_process() is not None:
                # Hard death: bypass exception isolation entirely, as an
                # OOM kill or segfault would.
                os._exit(1)
            return ExperimentResult("mortal", "t", ["h"], [["ok"]])

        monkeypatch.setitem(EXPERIMENTS, "mortal", _die_in_worker)
        monkeypatch.setitem(SCENARIOS, "mortal", ScenarioAxes(cluster="none"))
        cells = ScenarioGrid(["mortal", "fig4"]).cells()
        store = ArtifactStore(tmp_path)
        report = SweepRunner(store=store, jobs=2).run(cells)
        by_id = {o.cell_id: o for o in report.outcomes}
        # The pool worker died hard, but the serial parent retry recovered
        # the cell — and the outcome discloses the recovery.
        outcome = by_id["mortal:quick"]
        assert outcome.status == "computed"
        assert outcome.result.rows == [["ok"]]
        retry = outcome.result.extras["sweep_retry"]
        assert "worker crashed" in retry["first_error"]
        # The persisted artifact stays retry-free: serial and parallel
        # sweeps must write byte-identical payloads.
        payload = json.loads(outcome.artifact.read_text())
        assert "sweep_retry" not in payload["result"].get("extras", {})

    def test_hard_worker_death_double_failure_reports_both(
        self, tmp_path, monkeypatch
    ):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork start method to inherit fake experiment")

        def _die_everywhere(quick=True):
            import multiprocessing as mp
            import os

            if mp.parent_process() is not None:
                os._exit(1)
            raise RuntimeError("retry kaboom")

        monkeypatch.setitem(EXPERIMENTS, "doomed", _die_everywhere)
        monkeypatch.setitem(SCENARIOS, "doomed", ScenarioAxes(cluster="none"))
        cells = ScenarioGrid(["doomed", "fig4"]).cells()
        report = SweepRunner(store=ArtifactStore(tmp_path), jobs=2).run(cells)
        by_id = {o.cell_id: o for o in report.outcomes}
        outcome = by_id["doomed:quick"]
        assert outcome.status == "failed"
        assert "worker crashed" in outcome.error
        assert "serial retry also failed" in outcome.error
        assert "retry kaboom" in outcome.error

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestRunnerCLISweep:
    def test_list_prints_cells_and_fingerprints(self, capsys):
        from repro.experiments.runner import main

        assert main(["all", "--filter", "fig4", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4:quick" in out
        fingerprint = out.split()[1]
        assert len(fingerprint) == 32 and int(fingerprint, 16) >= 0

    def test_second_invocation_served_from_cache(self, tmp_path, capsys):
        from repro.experiments.runner import main

        args = ["table1", "--out", str(tmp_path / "store")]
        assert main(args) == 0
        assert "computed" in capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cached" in out and "1 cached" in out and "V100" in out

    def test_no_cache_flag_recomputes(self, tmp_path, capsys):
        from repro.experiments.runner import main

        args = ["table1", "--out", str(tmp_path / "store"), "--no-cache"]
        assert main(args) == 0
        assert main(args) == 0
        assert "1 computed" in capsys.readouterr().out
        assert not (tmp_path / "store").exists()  # nothing persisted

    def test_jobs_flag_parallel_run(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main([
            "all", "--filter", "fig", "--jobs", "2",
            "--out", str(tmp_path / "store"),
        ]) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out and "0 failed" in out

    def test_rejects_unknown_and_bad_flags(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["table99"])
        with pytest.raises(SystemExit):
            main(["table1", "--jobs", "0"])
        with pytest.raises(SystemExit):
            main(["table1", "--filter", "zzz-no-match"])
