"""Tests for the topology layer and the pluggable collective cost models."""

import pytest

from repro.common.units import GBPS
from repro.hardware import (
    CLUSTER_PRESETS,
    T4,
    V100,
    Cluster,
    LinkSpec,
    NodeSpec,
    Topology,
    Worker,
    get_cluster_preset,
    make_cloud_edge_cluster,
    make_cluster_a,
    make_cluster_a_multinode,
    make_cluster_b_multinode,
)
from repro.parallel.comm_model import (
    COLLECTIVE_MODELS,
    FlatRingModel,
    HierarchicalModel,
    TreeModel,
    resolve_collective_model,
)

N = 25 * 1024**2  # one DDP-default bucket


class TestLinkSpec:
    def test_transfer_time_is_alpha_beta(self):
        link = LinkSpec("l", 1e9, 1e-3, "inter")
        assert link.transfer_time(1e9) == pytest.approx(1.001)

    def test_invalid_links_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec("l", 0.0, 1e-3)
        with pytest.raises(ValueError):
            LinkSpec("l", 1e9, -1e-3)
        with pytest.raises(ValueError):
            LinkSpec("l", 1e9, 1e-3, tier="diagonal")


class TestTopology:
    def _two_nodes(self):
        intra = LinkSpec("nv", 300 * GBPS, 2e-6, "intra")
        up = LinkSpec("eth", 12.5 * GBPS, 30e-6, "inter")
        return Topology(nodes=(
            NodeSpec("a", (0, 1), intra, up),
            NodeSpec("b", (2, 3), intra, up),
        ))

    def test_node_lookup(self):
        topo = self._two_nodes()
        assert topo.n_nodes == 2 and topo.n_ranks == 4
        assert topo.node_of(2).name == "b"
        with pytest.raises(KeyError):
            topo.node_of(9)

    def test_must_partition_ranks(self):
        intra = LinkSpec("nv", 1e9, 0.0, "intra")
        # Non-contiguous rank sets are legal (the cluster constructor checks
        # the topology's set matches its workers')…
        gappy = Topology(nodes=(NodeSpec("a", (0, 2), intra, intra),))
        assert gappy.rank_set() == {0, 2}
        # …but a rank hosted twice is not a partition.
        with pytest.raises(ValueError):
            Topology(nodes=(
                NodeSpec("a", (0, 1), intra, intra),
                NodeSpec("b", (1, 2), intra, intra),
            ))
        with pytest.raises(ValueError):
            NodeSpec("empty", (), intra, intra)

    def test_flat_topology_mirrors_workers(self):
        c = make_cluster_a(2, 2)
        topo = c.topology
        assert topo.n_nodes == c.size
        assert all(node.size == 1 for node in topo.nodes)
        assert topo.min_uplink_bandwidth() == c.bottleneck_bandwidth
        assert topo.max_uplink_latency() == c.collective_latency

    def test_bottleneck_includes_intra_of_multirank_nodes(self):
        topo = self._two_nodes()
        assert topo.bottleneck_bandwidth() == 12.5 * GBPS
        assert topo.max_latency() == 30e-6

    def test_cluster_rejects_mismatched_topology(self):
        intra = LinkSpec("nv", 1e9, 1e-6, "intra")
        topo = Topology(nodes=(NodeSpec("a", (0, 1, 2), intra, intra),))
        with pytest.raises(ValueError):
            Cluster(
                name="bad",
                workers=(
                    Worker(rank=0, device=V100, link_bandwidth=1e9),
                    Worker(rank=1, device=T4, link_bandwidth=1e9),
                ),
                topology=topo,
            )


class TestCollectiveModels:
    def test_flat_model_delegates_to_cluster(self):
        c = make_cluster_a(2, 2)
        assert FlatRingModel().allreduce_time(c, N) == c.allreduce_time(N)

    def test_single_worker_free_for_all_models(self):
        c = Cluster(
            name="solo",
            workers=(Worker(rank=0, device=V100, link_bandwidth=1e9),),
        )
        for model_cls in COLLECTIVE_MODELS.values():
            assert model_cls().allreduce_time(c, N) == 0.0

    def test_hierarchical_degenerates_to_flat_on_flat_topology(self):
        """All-single-rank nodes: phase 2's inter-node ring over full
        buffers *is* the flat ring, so the two models agree exactly."""
        c = make_cluster_a(2, 2)
        assert HierarchicalModel().allreduce_time(c, N) == pytest.approx(
            c.allreduce_time(N)
        )

    def test_hierarchical_single_node_is_intra_ring(self):
        intra = LinkSpec("nv", 4e8, 1e-3, "intra")
        up = LinkSpec("eth", 1e8, 1e-2, "inter")
        topo = Topology(nodes=(NodeSpec("a", (0, 1, 2, 3), intra, up),))
        c = Cluster(
            name="one-node",
            workers=tuple(
                Worker(rank=r, device=V100, link_bandwidth=1e8) for r in range(4)
            ),
            topology=topo,
        )
        # Pure intra ring: 2 * (3/4 * N / 4e8 + 3 * 1e-3), uplink untouched.
        expected = 2 * (0.75 * N / 4e8 + 3e-3)
        assert HierarchicalModel().allreduce_time(c, N) == pytest.approx(expected)

    def test_hierarchical_beats_flat_on_multinode_presets(self):
        for make in (
            make_cluster_a_multinode,
            make_cluster_b_multinode,
            make_cloud_edge_cluster,
        ):
            c = make()
            flat = FlatRingModel().allreduce_time(c, N)
            hier = HierarchicalModel().allreduce_time(c, N)
            assert hier < flat, c.name

    def test_tree_scales_logarithmically(self):
        c = make_cluster_a_multinode()  # 32 ranks -> 2*5 rounds
        topo = c.topology
        expected = 10 * (topo.max_latency() + N / topo.bottleneck_bandwidth())
        assert TreeModel().allreduce_time(c, N) == pytest.approx(expected)

    def test_tree_wins_at_tiny_buffers_on_wan(self):
        """log2(K) latency steps beat 2(K-1) ring steps when alpha
        dominates — the classic small-message regime."""
        c = make_cloud_edge_cluster()
        tiny = 1024
        assert TreeModel().allreduce_time(c, tiny) < FlatRingModel().allreduce_time(
            c, tiny
        )

    def test_resolver(self):
        assert isinstance(resolve_collective_model(None), FlatRingModel)
        assert isinstance(resolve_collective_model("tree"), TreeModel)
        model = HierarchicalModel()
        assert resolve_collective_model(model) is model
        with pytest.raises(ValueError, match="CollectiveModel instance"):
            resolve_collective_model("butterfly")
        with pytest.raises(TypeError):
            resolve_collective_model(42)


class TestMultinodePresets:
    def test_cluster_a_multinode_shape(self):
        c = make_cluster_a_multinode()
        assert c.size == 32 and c.n_nodes == 4
        assert len(c.training_workers) == 16
        assert len(c.inference_workers) == 16
        sizes = {node.size for node in c.nodes}
        assert sizes == {8}
        # Flat ring prices the uplink, never the NVLink.
        assert c.bottleneck_bandwidth == c.nodes[0].uplink.bandwidth

    def test_cluster_b_multinode_caps_memory(self):
        c = make_cluster_b_multinode(memory_ratio=0.3)
        t4 = c.inference_workers[0].device
        assert t4.available_memory == int(t4.memory_bytes * 0.3)
        with pytest.raises(ValueError):
            make_cluster_b_multinode(memory_ratio=0.0)

    def test_cloud_edge_tiers(self):
        c = make_cloud_edge_cluster()
        assert c.n_nodes == 3
        assert c.nodes[0].intra_link.bandwidth > c.nodes[1].intra_link.bandwidth
        assert all(node.uplink.tier == "inter" for node in c.nodes)
        assert len(c.training_workers) == 4  # A100s hold FP32

    def test_preset_registry(self):
        for name in CLUSTER_PRESETS:
            c = get_cluster_preset(name)
            assert c.size >= 2
        with pytest.raises(KeyError):
            get_cluster_preset("cluster_z")


class TestReplayerIntegration:
    def _replayer(self, cluster, **kwargs):
        from repro.models import mini_model_graph
        from repro.session import PlanRequest, PlanSession

        builder = lambda: mini_model_graph(
            "mini_vgg", batch_size=8, width_scale=4, spatial_scale=2
        )
        return PlanSession().prepare(
            PlanRequest(model=builder, cluster=cluster, profile_repeats=1, **kwargs)
        ).replayer

    def test_default_replayer_matches_explicit_flat(self):
        """PR 3 parity: a Replayer without a model and one with the explicit
        flat ring produce bit-identical simulations."""
        c = make_cluster_a(1, 1)
        default = self._replayer(c).simulate()
        flat = self._replayer(c, collective_model="flat").simulate()
        assert default.iteration_time == flat.iteration_time
        assert default.comm_wait_time == flat.comm_wait_time

    def test_hierarchical_lowers_iteration_on_multinode(self):
        c = make_cluster_a_multinode(gpus_per_node=2)
        rep = self._replayer(c)
        flat_sim = rep.simulate()
        rep.collective_model = HierarchicalModel()
        hier_sim = rep.simulate()
        assert hier_sim.iteration_time < flat_sim.iteration_time
