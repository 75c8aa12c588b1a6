"""Tests for the model catalog and trainable mini-models."""

import numpy as np
import pytest

from repro.common import new_rng
from repro.graph.ops import OpKind
from repro.models import (
    MiniConvNet,
    MiniResNet,
    MiniTransformer,
    bert_graph,
    make_mini_model,
    mini_model_graph,
    resnet50_graph,
    roberta_graph,
    vgg16_graph,
)
from repro.models.catalog import vgg16bn_graph
from repro.tensor import Tensor, functional as F
from repro.tensor.qmodules import QuantizedOp


class TestCatalogGraphs:
    def test_resnet50_conv_count(self):
        dag = resnet50_graph(batch_size=2)
        convs = [n for n in dag.adjustable_ops() if dag.spec(n).kind is OpKind.CONV2D]
        # 53 convs total = stem + 48 bottleneck convs + 4 downsample.
        assert len(convs) == 53

    def test_bert_linear_count_matches_paper(self):
        dag = bert_graph(batch_size=2, seq_len=16)
        linears = [n for n in dag.adjustable_ops() if dag.spec(n).kind is OpKind.LINEAR]
        assert len(linears) == 73  # 12 * 6 + 1 head, cited in Sec. II-B

    def test_vgg16_conv_count(self):
        dag = vgg16_graph(batch_size=2, image_size=32)
        convs = [n for n in dag.adjustable_ops() if dag.spec(n).kind is OpKind.CONV2D]
        assert len(convs) == 13

    def test_vgg16bn_has_batchnorm(self):
        dag = vgg16bn_graph(batch_size=2, image_size=32)
        bns = [n for n in dag.nodes() if dag.spec(n).kind is OpKind.BATCHNORM]
        assert len(bns) == 13

    def test_resnet50_flops_magnitude(self):
        # ~4.1 GFLOPs MACs*2 ≈ 8.2 GFLOP per image at 224².
        dag = resnet50_graph(batch_size=1)
        total = dag.total_flops()
        assert 6e9 < total < 12e9

    def test_vgg16_flops_magnitude(self):
        # ~15.5 GMACs -> ~31 GFLOP per image.
        dag = vgg16_graph(batch_size=1)
        assert 25e9 < dag.total_flops() < 40e9

    def test_resnet50_param_count(self):
        dag = resnet50_graph(batch_size=1)
        params = dag.total_weight_elems()
        assert 23e6 < params < 28e6  # ~25.6 M

    def test_bert_param_magnitude(self):
        dag = bert_graph(batch_size=1, seq_len=16)
        params = dag.total_weight_elems()
        assert 80e6 < params < 130e6  # ~110 M with embeddings

    def test_roberta_graph_valid(self):
        dag = roberta_graph(batch_size=2, seq_len=16)
        dag.validate()
        assert dag.max_depth() > 20

    def test_graphs_scale_with_batch(self):
        small = resnet50_graph(batch_size=1).total_flops()
        big = resnet50_graph(batch_size=4).total_flops()
        assert big == pytest.approx(4 * small, rel=1e-6)

    def test_residual_add_has_two_inputs(self):
        dag = resnet50_graph(batch_size=1)
        adds = [n for n in dag.nodes() if dag.spec(n).kind is OpKind.ADD]
        assert all(len(dag.predecessors(a)) == 2 for a in adds)


class TestMiniModels:
    def test_factory_names(self):
        for name in ("mini_vgg", "mini_vggbn", "mini_resnet", "mini_bert", "mini_roberta"):
            model = make_mini_model(name)
            assert model.num_parameters() > 0

    def test_factory_rejects_unknown(self):
        with pytest.raises(KeyError):
            make_mini_model("mini_gpt")

    def test_convnet_forward_shape(self):
        model = MiniConvNet(batch_norm=True)
        x = Tensor(new_rng(0).normal(size=(4, 3, 16, 16)))
        assert model(x).shape == (4, 10)

    def test_resnet_forward_shape(self):
        model = MiniResNet()
        x = Tensor(new_rng(0).normal(size=(4, 3, 16, 16)))
        assert model(x).shape == (4, 10)

    def test_transformer_forward_shape(self):
        model = MiniTransformer()
        tokens = new_rng(0).integers(0, 64, size=(4, 16))
        assert model(tokens).shape == (4, 4)

    def test_models_trainable_end_to_end(self):
        model = MiniConvNet(batch_norm=True, widths=(8, 8), seed=0)
        rng = new_rng(1)
        x = Tensor(rng.normal(size=(8, 3, 16, 16)))
        labels = rng.integers(0, 10, size=8)
        loss = F.cross_entropy(model(x), labels)
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert all(np.all(np.isfinite(g)) for g in grads)


class TestGraphModelMirror:
    """The graph mirror's adjustable node names must equal module paths, and
    at scale 1 its weight shapes must equal the modules' (this pins the MLP
    ratio the transformer block and its mirror share)."""

    @pytest.mark.parametrize(
        "name",
        ["mini_vgg", "mini_vggbn", "mini_resnet", "mini_bert", "mini_bert6",
         "mini_roberta"],
    )
    def test_adjustable_names_match_module_paths(self, name):
        model = make_mini_model(name)
        dag = mini_model_graph(name, batch_size=8)
        graph_adjustable = {
            n for n in dag.adjustable_ops() if dag.spec(n).has_weight
        }
        modules = QuantizedOp.adjustable_modules(model)
        assert graph_adjustable == set(modules)
        for path, mod in modules.items():
            assert dag.spec(path).weight_shape == mod.weight.shape, path
        if isinstance(model, MiniTransformer):
            assert dag.spec("embed").weight_shape == model.embed.table.shape

    def test_graph_plan_installs_on_model(self):
        from repro.common import Precision

        name = "mini_resnet"
        model = make_mini_model(name)
        dag = mini_model_graph(name, batch_size=8)
        plan = {
            op: Precision.FP16
            for op in dag.adjustable_ops()
            if dag.spec(op).has_weight
        }
        QuantizedOp.install_plan(model, plan)  # must not raise

    def test_mirror_depth_ordering(self):
        dag = mini_model_graph("mini_vggbn", batch_size=4)
        adjustable = [n for n in dag.adjustable_ops() if dag.spec(n).has_weight]
        depths = [dag.depth(n) for n in adjustable]
        assert depths == sorted(depths)  # plain chain: monotone depth
