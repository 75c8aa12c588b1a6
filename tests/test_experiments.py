"""Tests for the experiment harness layer (base utilities, registry,
protocol helpers, and the cheap experiments end-to-end)."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    format_table,
    get_experiment,
    protocol,
    run_experiment,
)
from repro.experiments.base import mean_std
from repro.experiments.protocol import (
    GRAPH_SCALE,
    collect_executable_stats,
    find_pressure_batch,
    prepare_methods,
    run_method_training,
)
from repro.hardware import T4, V100, Cluster, Worker, make_cluster_a
from repro.models import mini_model_graph
from repro.profiling import MemoryModel
from repro.train.data import make_image_classification

GBPS = 1024**3


class TestBase:
    def _result(self):
        return ExperimentResult(
            experiment_id="x",
            title="demo",
            headers=["a", "b"],
            rows=[["r1", 1.0], ["r2", 2.0]],
            paper=[["r1", 9.0]],
            notes="n",
        )

    def test_formatted_contains_sections(self):
        text = self._result().formatted()
        assert "demo" in text
        assert "paper reported" in text
        assert "notes: n" in text

    def test_column(self):
        assert self._result().column("b") == [1.0, 2.0]

    def test_row_by(self):
        assert self._result().row_by("a", "r2") == ["r2", 2.0]
        with pytest.raises(KeyError):
            self._result().row_by("a", "ghost")

    def test_format_table_aligns(self):
        text = format_table(["col"], [["x"], ["longer"]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # fixed width

    def test_format_table_empty_rows(self):
        text = format_table(["h1", "h2"], [])
        assert "h1" in text

    def test_mean_std_single(self):
        assert mean_std([0.5]) == "50.00%"

    def test_mean_std_multi(self):
        out = mean_std([0.5, 0.7])
        assert out.startswith("60.00±")
        assert out.endswith("%")


class TestSpearman:
    """fig8's in-repo Spearman rho against the scipy reference."""

    @pytest.mark.parametrize("a, b", [
        ([1, 2, 3, 4, 5], [5, 6, 7, 8, 7]),
        ([3.0, 1.0, 2.0, 5.0], [1.0, 2.0, 3.0, 4.0]),
        ([1, 1, 2, 2, 3, 7], [4, 4, 4, 1, 2, 3]),  # ties on both sides
        ([0, 3, 3, 3, 1], [2, 2, 1, 0, 0]),
    ])
    def test_matches_scipy(self, a, b):
        stats = pytest.importorskip("scipy.stats")
        from repro.experiments.fig8 import spearman

        assert spearman(a, b) == pytest.approx(
            stats.spearmanr(a, b).statistic, abs=1e-12
        )

    def test_perfect_and_constant(self):
        import math

        from repro.experiments.fig8 import spearman

        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
        assert math.isnan(spearman([1, 1, 1], [1, 2, 3]))


class TestRegistry:
    def test_all_artifacts_registered(self):
        # The paper's ten tables/figures plus the repo's own comm,
        # straggler, churn, and compress studies.
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "fig4", "fig6", "fig7", "fig8", "comm", "straggler", "churn",
            "compress",
        }

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("table9")

    def test_run_experiment_dispatches(self):
        result = run_experiment("table1", quick=True)
        assert result.experiment_id == "table1"
        assert result.rows


class TestProtocol:
    def test_find_pressure_batch_exceeds_target(self):
        mm = MemoryModel()
        batch = find_pressure_batch("mini_vggbn", T4.memory_bytes)
        dag = mini_model_graph("mini_vggbn", batch_size=batch,
                               **GRAPH_SCALE["mini_vggbn"])
        assert mm.estimate(dag).total > T4.memory_bytes

    def test_find_pressure_batch_not_far_past_target(self):
        """The ladder must land close to the boundary so INT8 still fits a
        partially-shared device (the ClusterB regime)."""
        mm = MemoryModel()
        batch = find_pressure_batch("mini_vggbn", T4.memory_bytes)
        prev = int(batch / 1.2 // 32 * 32)
        dag_prev = mini_model_graph("mini_vggbn", batch_size=max(prev, 32),
                                    **GRAPH_SCALE["mini_vggbn"])
        assert mm.estimate(dag_prev).total <= T4.memory_bytes * 1.3

    def test_collect_executable_stats_all_models(self):
        for name in ("mini_vggbn", "mini_bert"):
            stats = collect_executable_stats(name, iterations=2)
            assert len(stats) > 0
            assert all(s.samples == 2 for s in stats.values())

    def test_prepare_methods_structure(self):
        cluster = make_cluster_a(1, 1)
        batch = find_pressure_batch("mini_vggbn", T4.memory_bytes)
        methods = prepare_methods("mini_vggbn", cluster, batch,
                                  exec_batch_per_worker=8)
        assert set(methods) == {"ORACLE", "DBS", "UP", "QSync"}
        # ORACLE: no quantization anywhere; uniform batches.
        assert all(not p for p in methods["ORACLE"].plans.values())
        assert methods["ORACLE"].batch_sizes == [8, 8]
        # DBS: heterogeneous batches preserving the global batch.
        assert sum(methods["DBS"].batch_sizes) == 16
        assert methods["DBS"].batch_sizes[0] > methods["DBS"].batch_sizes[1]
        # UP: quantized (FP32 cannot fit by construction of the batch).
        assert methods["UP"].plans[1]
        # Plans only reference installable (weighted) module paths.
        from repro.models import make_mini_model
        from repro.tensor.qmodules import QuantizedOp

        model = make_mini_model("mini_vggbn")
        paths = set(QuantizedOp.adjustable_modules(model))
        for m in methods.values():
            for plan in m.plans.values():
                assert set(plan) <= paths

    def test_prepare_methods_throughputs_ordered(self):
        cluster = make_cluster_a(1, 1)
        batch = find_pressure_batch("mini_vggbn", T4.memory_bytes)
        methods = prepare_methods("mini_vggbn", cluster, batch,
                                  exec_batch_per_worker=8)
        assert methods["QSync"].throughput >= 0.98 * methods["UP"].throughput
        assert methods["UP"].throughput > methods["DBS"].throughput

    def test_ranks_are_identities(self, monkeypatch):
        """A cluster without rank 0 and with a gap in its ranks plans every
        method and trains each worker on its own batch."""
        cluster = Cluster(
            "gappy",
            (Worker(1, V100, 300 * GBPS), Worker(3, T4, 32 * GBPS)),
        )
        batch = find_pressure_batch("mini_vggbn", T4.memory_bytes)
        methods = prepare_methods("mini_vggbn", cluster, batch,
                                  exec_batch_per_worker=8)
        for method in methods.values():
            assert set(method.plans) == {1, 3}
        assert methods["UP"].plans[3] and not methods["UP"].plans[1]
        dbs = methods["DBS"]
        assert sum(dbs.batch_sizes) == 16
        assert dbs.batch_sizes[0] > dbs.batch_sizes[1]

        seen = []

        class Recording(protocol.DataParallelTrainer):
            def __init__(self, *args, workers, **kwargs):
                seen.extend(workers)
                super().__init__(*args, workers=workers, **kwargs)

        monkeypatch.setattr(protocol, "DataParallelTrainer", Recording)
        dataset = make_image_classification(n_train=48, n_test=16, seed=3)
        accuracy = run_method_training("mini_vggbn", dbs, cluster, dataset,
                                       epochs=1, seed=0)
        assert 0.0 <= accuracy <= 1.0
        assert [(w.rank, w.batch_size) for w in seen] == [
            (1, dbs.batch_sizes[0]), (3, dbs.batch_sizes[1]),
        ]


class TestCheapExperimentsEndToEnd:
    def test_table1_rows(self):
        result = run_experiment("table1", quick=True)
        assert len(result.rows) == 4
        assert result.row_by("GPU", "V100")[5] == "/"

    def test_fig4_shares_sum_to_100(self):
        result = run_experiment("fig4", quick=True)
        for row in result.rows:
            total = sum(float(c.rstrip("%")) for c in row[1:])
            assert total == pytest.approx(100.0, abs=0.2)

    def test_fig7_rows_cover_both_panels(self):
        result = run_experiment("fig7", quick=True)
        panels = {row[0] for row in result.rows}
        assert panels == {"fig7a", "fig7b"}


class TestRunnerCLI:
    def test_cli_runs_table1(self, capsys):
        from repro.experiments.runner import main

        # --no-cache: the test must exercise the computation, never replay a
        # stale artifact (and must not drop a .qsync-artifacts/ in the cwd).
        assert main(["table1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "V100" in out

    def test_cli_rejects_unknown(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["table99"])

    def test_cli_all_would_cover_registry(self):
        # Don't run 'all' (slow); check the id expansion logic via registry.
        assert len(EXPERIMENTS) == 14
