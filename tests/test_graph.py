"""Tests for repro.graph: operator taxonomy, Precision DAG, subgraphs."""

import random

import pytest

from repro.common import Precision
from repro.common.errors import GraphConsistencyError
from repro.graph import (
    OpCategory,
    OperatorSpec,
    OpKind,
    PrecisionDAG,
    group_blocks,
    structural_signature,
)
from repro.graph.ops import conv2d_flops, linear_flops
from repro.graph.subgraph import isomorphism_classes
from repro.common.stable_hash import stable_digest
from repro.models import MODEL_GRAPHS, mini_model_graph
from repro.models.trainable import MINI_MODELS


def chain_dag() -> PrecisionDAG:
    """input -> conv -> relu -> linear -> loss."""
    dag = PrecisionDAG()
    dag.add_op(OperatorSpec("input", OpKind.INPUT, (4, 3, 8, 8)))
    dag.add_op(
        OperatorSpec(
            "conv", OpKind.CONV2D, (4, 8, 8, 8), weight_shape=(8, 3, 3, 3),
            flops=conv2d_flops(4, 3, 8, 8, 8, 3, 3),
        ),
        inputs=["input"],
    )
    dag.add_op(OperatorSpec("relu", OpKind.RELU, (4, 8, 8, 8)), inputs=["conv"])
    dag.add_op(
        OperatorSpec(
            "fc", OpKind.LINEAR, (4, 10), weight_shape=(10, 512),
            flops=linear_flops(4, 512, 10),
        ),
        inputs=["relu"],
    )
    dag.add_op(OperatorSpec("loss", OpKind.LOSS, (1,)), inputs=["fc"])
    return dag


class TestOperatorSpec:
    def test_categories(self):
        assert OperatorSpec("c", OpKind.CONV2D, (1,)).category is OpCategory.ADJUSTABLE
        assert OperatorSpec("l", OpKind.LINEAR, (1,)).category is OpCategory.ADJUSTABLE
        assert OperatorSpec("r", OpKind.RELU, (1,)).category is OpCategory.DEPENDENT
        assert OperatorSpec("a", OpKind.ADD, (1,)).category is OpCategory.DEPENDENT
        assert OperatorSpec("m", OpKind.MATMUL, (1,)).category is OpCategory.FIXED
        assert OperatorSpec("x", OpKind.LOSS, (1,)).category is OpCategory.FIXED

    def test_weighted_ops_support_int8(self):
        spec = OperatorSpec("c", OpKind.CONV2D, (1, 8, 4, 4), weight_shape=(8, 3, 3, 3))
        assert Precision.INT8 in spec.supported_precisions()

    def test_softmax_pinned_fp32(self):
        spec = OperatorSpec("s", OpKind.SOFTMAX, (4, 16))
        assert spec.supported_precisions() == (Precision.FP32,)

    def test_dependent_ops_no_int8(self):
        spec = OperatorSpec("r", OpKind.RELU, (4, 16))
        assert Precision.INT8 not in spec.supported_precisions()
        assert Precision.FP16 in spec.supported_precisions()

    def test_backward_flops(self):
        conv = OperatorSpec("c", OpKind.CONV2D, (1,), weight_shape=(1, 1, 1, 1), flops=100)
        relu = OperatorSpec("r", OpKind.RELU, (1,), flops=100)
        assert conv.backward_flops() == 200
        assert relu.backward_flops() == 100

    def test_elem_counts(self):
        spec = OperatorSpec("c", OpKind.CONV2D, (2, 8, 4, 4), weight_shape=(8, 3, 3, 3))
        assert spec.output_elems == 2 * 8 * 4 * 4
        assert spec.weight_elems == 8 * 3 * 3 * 3
        assert spec.activation_bytes(Precision.FP16) == spec.output_elems * 2
        assert spec.weight_bytes(Precision.FP32) == spec.weight_elems * 4


class TestPrecisionDAG:
    def test_topo_order_respects_edges(self):
        dag = chain_dag()
        order = dag.topo_order()
        assert order.index("input") < order.index("conv") < order.index("fc")

    def test_duplicate_name_rejected(self):
        dag = chain_dag()
        with pytest.raises(GraphConsistencyError):
            dag.add_op(OperatorSpec("conv", OpKind.CONV2D, (1,)))

    def test_unknown_input_rejected(self):
        dag = PrecisionDAG()
        dag.add_op(OperatorSpec("input", OpKind.INPUT, (1,)))
        with pytest.raises(GraphConsistencyError):
            dag.add_op(OperatorSpec("x", OpKind.RELU, (1,)), inputs=["ghost"])

    def test_depth_longest_path(self):
        # Diamond: input -> a -> b -> add, input -> add (skip edge).
        dag = PrecisionDAG()
        dag.add_op(OperatorSpec("input", OpKind.INPUT, (1,)))
        dag.add_op(OperatorSpec("a", OpKind.RELU, (1,)), inputs=["input"])
        dag.add_op(OperatorSpec("b", OpKind.RELU, (1,)), inputs=["a"])
        dag.add_op(OperatorSpec("add", OpKind.ADD, (1,)), inputs=["b", "input"])
        assert dag.depth("add") == 3  # longest path, not shortest

    def test_precision_roundtrip(self):
        dag = chain_dag()
        dag.set_precision("conv", Precision.INT8)
        assert dag.precision("conv") is Precision.INT8
        dag.set_precision("conv", "fp16")
        assert dag.precision("conv") is Precision.FP16

    def test_plan_apply_snapshot(self):
        dag = chain_dag()
        plan = dag.precision_plan()
        assert all(p is Precision.FP32 for p in plan.values())
        dag.apply_plan({"conv": Precision.INT8, "fc": Precision.FP16})
        assert dag.precision("conv") is Precision.INT8
        assert dag.precision("relu") is Precision.FP32

    def test_adjustable_ops(self):
        dag = chain_dag()
        assert dag.adjustable_ops() == ["conv", "fc"]

    def test_copy_is_independent(self):
        dag = chain_dag()
        dup = dag.copy()
        dup.set_precision("conv", Precision.INT8)
        assert dag.precision("conv") is Precision.FP32

    def test_copy_keeps_depths_apart_after_growth(self):
        dag = chain_dag()
        depths = {n: dag.depth(n) for n in dag.nodes()}
        dup = dag.copy()
        assert {n: dup.depth(n) for n in dup.nodes()} == depths
        tail = dup.topo_order()[-1]
        dup.add_op(OperatorSpec("extra", OpKind.RELU, (1,)), inputs=[tail])
        assert dup.depth("extra") == depths[tail] + 1
        assert dup.max_depth() == max(depths.values()) + 1
        assert {n: dag.depth(n) for n in dag.nodes()} == depths
        assert dag.max_depth() == max(depths.values())
        assert "extra" not in dag

    def test_validate_detects_multiple_roots(self):
        dag = PrecisionDAG()
        dag.add_op(OperatorSpec("a", OpKind.INPUT, (1,)))
        dag.add_op(OperatorSpec("b", OpKind.INPUT, (1,)))
        dag.add_op(OperatorSpec("c", OpKind.ADD, (1,)), inputs=["a", "b"])
        with pytest.raises(GraphConsistencyError):
            dag.validate()

    def test_summary_contains_counts(self):
        text = chain_dag().summary()
        assert "2 adjustable" in text


def random_dag(seed: int) -> tuple[PrecisionDAG, list[tuple[str, list[str]]]]:
    """A random DAG plus the ``(name, inputs)`` calls that built it.

    Names are shuffled so insertion order differs from name order, some
    ops have no inputs (extra roots), and inputs may repeat a name.
    """
    rng = random.Random(seed)
    names = [f"op{i:02d}" for i in range(rng.randint(12, 30))]
    rng.shuffle(names)
    dag, calls = PrecisionDAG(), []
    for i, name in enumerate(names):
        inputs = []
        if i and rng.random() > 0.15:
            inputs = [rng.choice(names[:i]) for _ in range(rng.randint(1, 4))]
        dag.add_op(OperatorSpec(name, OpKind.RELU, (1,)), inputs=inputs)
        calls.append((name, inputs))
    return dag, calls


class TestOrderParityWithNetworkx:
    """Ops, predecessors, successors and the topological order must come
    out exactly as networkx orders them: structure fingerprints, and so
    profile and artifact keys, are built from these orders."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_dag_orders(self, seed):
        nx = pytest.importorskip("networkx")
        dag, calls = random_dag(seed)
        ref = nx.DiGraph()
        for name, inputs in calls:
            ref.add_node(name)
            ref.add_edges_from((src, name) for src in inputs)
        for got, want in ((dag, ref), (dag.copy(), ref.copy())):
            assert list(got.nodes()) == list(want.nodes)
            assert got.topo_order() == list(nx.topological_sort(want))
            for n in want.nodes:
                assert got.predecessors(n) == list(want.predecessors(n))
                assert got.successors(n) == list(want.successors(n))

    def test_repeated_input_is_one_edge(self):
        dag = PrecisionDAG()
        dag.add_op(OperatorSpec("a", OpKind.INPUT, (1,)))
        dag.add_op(OperatorSpec("b", OpKind.RELU, (1,)), inputs=["a"])
        dag.add_op(OperatorSpec("c", OpKind.ADD, (1,)), inputs=["b", "a", "b"])
        assert dag.predecessors("c") == ["b", "a"]
        assert dag.successors("a") == ["b", "c"]
        assert dag.copy().predecessors("c") == ["a", "b"]  # insertion order
        assert dag.topo_order() == ["a", "b", "c"]


#: ``structure_fingerprint()`` of each catalog graph and of its copy (the
#: per-rank DAGs are copies).  These values key the profile and artifact
#: stores, so any change to them must be deliberate.
GOLDEN_FINGERPRINTS = {
    "vgg16": (13259957133630476148, 13259957133630476148),
    "vgg16bn": (1017217658219349073, 1017217658219349073),
    "resnet50": (16403967156115037980, 4849187652308703690),
    "bert": (1500570273234788534, 18289626766870251011),
    "roberta": (16892041741057170324, 16616973709953252604),
    "mini_bert": (15848744393251754990, 3838951999930511147),
    "mini_vgg": (10164125914609766071, 10164125914609766071),
    "mini_resnet": (8313163642154358712, 1500305228502047164),
    "mini_vggbn": (14688010117160933013, 14688010117160933013),
    "mini_bert6": (9176623460951874630, 6328381347589164564),
    "mini_roberta": (6933643750206769979, 17103421359606065023),
}


@pytest.mark.parametrize("model", sorted(GOLDEN_FINGERPRINTS))
def test_golden_structure_fingerprints(model):
    if model in MODEL_GRAPHS:
        dag = MODEL_GRAPHS[model]()
    else:
        dag = mini_model_graph(model, batch_size=8, width_scale=16,
                               spatial_scale=8)
    fp = (dag.structure_fingerprint(), dag.copy().structure_fingerprint())
    assert fp == GOLDEN_FINGERPRINTS[model]


def test_golden_fingerprints_cover_every_catalog_graph():
    assert set(MODEL_GRAPHS) | set(MINI_MODELS) == set(GOLDEN_FINGERPRINTS)


def full_spec_digest(dag: PrecisionDAG) -> str:
    """Digest of every op's full :class:`OperatorSpec` (FLOPs as
    ``float.hex``, block label included) and its predecessors, in insertion
    order — what the structure fingerprints leave out."""
    return stable_digest([
        (n, s.kind.value, s.output_shape, s.weight_shape, s.flops.hex(),
         s.block, dag.predecessors(n))
        for n in dag.nodes()
        for s in (dag.spec(n),)
    ])


#: (model, builder kwargs) -> :func:`full_spec_digest`.  Each graph at its
#: defaults, at the sweep fingerprint's batch 16, and at the scales the
#: experiments price: fig7's ResNet50 batch, the Tables IV-VI
#: ``GRAPH_SCALE`` widths, Table III's mini_bert6 and the comm, compress,
#: churn and straggler sweeps' mini_bert (full and quick).
GOLDEN_SPEC_DIGESTS = {
    ("vgg16", ()): "7a04b45fc8f130c83ecbe2b0ab761854",
    ("vgg16", (("batch_size", 16),)): "e578044d50941e8fad9a6cd50e112b96",
    ("vgg16bn", ()): "64ef89774204fde8aa449e20bddd23ec",
    ("vgg16bn", (("batch_size", 16),)): "670d5d70206762848ccd24c26f619415",
    ("resnet50", ()): "f9cbc2aa684d1bb880aa12eb630ffa7d",
    ("resnet50", (("batch_size", 16),)): "523b277cbab885adb59b14e552496aec",
    ("resnet50", (("batch_size", 256),)): "2cff79c67190bb11356a92d565c06d20",
    ("bert", ()): "1b8419696b5a735fb52c37f1c1074cbd",
    ("bert", (("batch_size", 16),)): "241b451fe997ba46ad82b07a2a8006ff",
    ("roberta", ()): "daa26fe37e4302d1d021d6c0a4d4f11a",
    ("mini_vgg", ()): "b02eb9b6a231ea5a97bdb212fb097080",
    ("mini_vgg", (("batch_size", 16),)): "637e38b419c0ad1259db8556f5a5382f",
    ("mini_vgg", (("batch_size", 8), ("width_scale", 16), ("spatial_scale", 4))):
        "6a3d0f9a8d860e0d157b9e37eac27c5b",
    ("mini_vggbn", ()): "32499349d8df3e5162fdb51adbfe84c5",
    ("mini_vggbn", (("batch_size", 16),)): "b1baef394ecd3eab30b625b32b720760",
    ("mini_vggbn", (("batch_size", 8), ("width_scale", 16), ("spatial_scale", 4))):
        "59113291f5ad15a1d4b50623fef4b057",
    ("mini_resnet", ()): "207e9e6f39cf2675858b9424ea016618",
    ("mini_resnet", (("batch_size", 16),)): "ea20894e35ed2ca7c2350667c7e059bf",
    ("mini_resnet", (("batch_size", 8), ("width_scale", 24), ("spatial_scale", 4))):
        "b795467664123bf6d30cedff4ad22cfd",
    ("mini_bert", ()): "632239b22354fdd22908bb7540e372bf",
    ("mini_bert", (("batch_size", 16),)): "98caf4e8c718ec84c1d18f2c4651569f",
    ("mini_bert", (("batch_size", 8), ("width_scale", 24), ("spatial_scale", 8))):
        "e8a73caa733cf56a43dfd40caf923a38",
    ("mini_bert", (("batch_size", 8), ("width_scale", 16), ("spatial_scale", 8))):
        "f35b62762bda2ccd6a64676d9fddb3b2",
    ("mini_bert", (("batch_size", 8), ("width_scale", 8), ("spatial_scale", 4))):
        "a0e9337409ddb34022d3f423a913e5fa",
    ("mini_bert6", ()): "887a8bc9ba21a9382c6f9d915cedc4c9",
    ("mini_bert6", (("batch_size", 16),)): "c09223112fd3ec0d48db3838f12e25b6",
    ("mini_bert6", (("batch_size", 12), ("width_scale", 24), ("spatial_scale", 8))):
        "9e3b7d9f6df4d3b3144269a8c3ed8514",
    ("mini_roberta", ()): "94eb660eae69fd9075068c1433e38b07",
    ("mini_roberta", (("batch_size", 16),)): "b2595a34a404e20ee19734aa6b762c8c",
    ("mini_roberta", (("batch_size", 8), ("width_scale", 24), ("spatial_scale", 8))):
        "5ebd9fe3218d93c2d1bcf83d2500c4bf",
}


@pytest.mark.parametrize(
    "model,kwargs", sorted(GOLDEN_SPEC_DIGESTS), ids=lambda v: str(v)
)
def test_golden_full_spec_digests(model, kwargs):
    if model in MODEL_GRAPHS:
        dag = MODEL_GRAPHS[model](**dict(kwargs))
    else:
        dag = mini_model_graph(model, **dict(kwargs))
    assert full_spec_digest(dag) == GOLDEN_SPEC_DIGESTS[model, kwargs]


def test_golden_spec_digests_cover_every_model_graph():
    assert {model for model, _ in GOLDEN_SPEC_DIGESTS} == (
        set(MODEL_GRAPHS) | set(MINI_MODELS)
    )


class TestSubgraph:
    def test_group_blocks_singleton_for_unlabelled(self):
        dag = chain_dag()
        groups = group_blocks(dag)
        assert all(len(ops) == 1 for ops in groups.values())

    def test_isomorphic_blocks_share_signature(self):
        dag = PrecisionDAG()
        dag.add_op(OperatorSpec("input", OpKind.INPUT, (1, 4)))
        prev = "input"
        for i in range(3):
            blk = f"block{i}"
            dag.add_op(
                OperatorSpec(f"{blk}.fc", OpKind.LINEAR, (1, 4),
                             weight_shape=(4, 4), block=blk),
                inputs=[prev],
            )
            dag.add_op(
                OperatorSpec(f"{blk}.relu", OpKind.RELU, (1, 4), block=blk),
                inputs=[f"{blk}.fc"],
            )
            prev = f"{blk}.relu"
        groups = group_blocks(dag)
        sigs = {structural_signature(dag, ops) for lbl, ops in groups.items()
                if lbl.startswith("block")}
        assert len(sigs) == 1

    def test_different_shapes_different_signature(self):
        dag = PrecisionDAG()
        dag.add_op(OperatorSpec("input", OpKind.INPUT, (1, 4)))
        dag.add_op(
            OperatorSpec("b0.fc", OpKind.LINEAR, (1, 4), weight_shape=(4, 4), block="b0"),
            inputs=["input"],
        )
        dag.add_op(
            OperatorSpec("b1.fc", OpKind.LINEAR, (1, 8), weight_shape=(8, 4), block="b1"),
            inputs=["b0.fc"],
        )
        groups = group_blocks(dag)
        s0 = structural_signature(dag, groups["b0"])
        s1 = structural_signature(dag, groups["b1"])
        assert s0 != s1

    def test_isomorphism_classes_collapse(self):
        from repro.models import bert_graph

        dag = bert_graph(batch_size=2, seq_len=16)
        classes = isomorphism_classes(dag)
        labels = [lbls for lbls in classes.values() if len(lbls) > 1]
        # All 12 encoder blocks should land in one class.
        assert any(len(lbls) == 12 for lbls in labels)
