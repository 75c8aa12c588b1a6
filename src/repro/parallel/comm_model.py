"""Pluggable collective cost models.

The Replayer's Eq. (6) recurrence needs one number per bucket: how long the
synchronous all-reduce of ``nbytes`` takes on the cluster.  Historically that
was hard-wired to a flat ring priced by the slowest NIC; this module makes
the algorithm a parameter:

* :class:`FlatRingModel` — the legacy model, kept as the **default**: a
  single ring over all K workers, bottlenecked by the slowest link
  (delegates to :meth:`Cluster.allreduce_time` so results stay bit-identical
  to the pre-topology code);
* :class:`HierarchicalModel` — intra-node reduce-scatter, inter-node ring
  over one rank per node, intra-node all-gather: the NCCL-style schedule
  that keeps the bulk of the traffic on NVLink/PCIe and sends only
  ``1/m``-sized shards across the slow network;
* :class:`TreeModel` — binomial reduce + broadcast trees: ``O(log K)``
  latency steps, full-buffer bandwidth per step (wins for small buffers on
  high-latency links);
* :class:`CompressedMultiHopModel` — the hierarchical schedule carrying
  QSGD-compressed gradients (DynamiQ-style): the wire moves
  :func:`~repro.quant.qsgd.compressed_nbytes` and each of the three phase
  boundaries pays one codec pass.  Uncompressed (level 0 / ``bits=None``)
  it prices **exactly** like :class:`HierarchicalModel` — the parity rung.

All models are pure functions of ``(cluster topology, nbytes[, bits])`` —
they plug into :func:`repro.engine.core.execute_global_dfg`, the
Replayer, and the DBS comm terms via ``collective_model=`` parameters, and
are selectable by name through :func:`resolve_collective_model`.
:meth:`CollectiveModel.allreduce_time_bits` is the compression-aware entry
point: ``bits=None`` (or >= 32) delegates to the plain
:meth:`~CollectiveModel.allreduce_time` with no intermediate arithmetic,
so uncompressed pricing stays bit-identical on every model.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Union

from repro.quant.qsgd import codec_seconds, compressed_nbytes

if TYPE_CHECKING:
    from repro.hardware.cluster import Cluster


class CollectiveModel(abc.ABC):
    """Cost model for one synchronous all-reduce over a cluster."""

    #: Registry/display name ("flat", "hierarchical", "tree").
    name: str = "abstract"

    @abc.abstractmethod
    def allreduce_time(self, cluster: "Cluster", nbytes: float) -> float:
        """Seconds to all-reduce one buffer of ``nbytes`` across all ranks."""

    def allreduce_time_bits(
        self, cluster: "Cluster", nbytes: int, bits: int | None = None
    ) -> float:
        """Compression-aware pricing of one all-reduce.

        ``bits=None`` or >= 32 returns :meth:`allreduce_time` *verbatim* —
        the level-0 parity contract (no float op may differ from the
        uncompressed path).  Below 32 the generic model moves the packed
        payload and pays one encode plus one decode pass; schedules that
        re-quantize per hop override this (see
        :class:`CompressedMultiHopModel`).
        """
        if bits is None or bits >= 32:
            return self.allreduce_time(cluster, nbytes)
        wire = compressed_nbytes(nbytes, bits)
        return self.allreduce_time(cluster, wire) + 2.0 * codec_seconds(
            nbytes, bits
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FlatRingModel(CollectiveModel):
    """Single ring over all workers, priced by the slowest link.

    This is the pre-topology model and the default everywhere; it delegates
    to :meth:`Cluster.allreduce_time` so the float operations — and
    therefore every downstream plan, fingerprint, and cached artifact — are
    bit-identical to the legacy code path.
    """

    name = "flat"

    def allreduce_time(self, cluster: "Cluster", nbytes: float) -> float:
        return cluster.allreduce_time(nbytes)


def _hierarchical_time(cluster: "Cluster", nbytes: float) -> float:
    """The three-phase hierarchical schedule's arithmetic, shared verbatim
    by :class:`HierarchicalModel` and :class:`CompressedMultiHopModel` so
    the two cannot drift by a single float operation (the compressed
    model's level-0 rung must price exactly like hierarchical)."""
    if cluster.size <= 1:
        return 0.0
    topo = cluster.topology
    nodes = topo.nodes
    p = len(nodes)

    intra_phase = 0.0
    for node in nodes:
        m = node.size
        if m <= 1:
            continue
        link = node.intra_link
        t = (m - 1) / m * nbytes / link.bandwidth + (m - 1) * link.latency
        intra_phase = max(intra_phase, t)
    total = 2.0 * intra_phase  # reduce-scatter + all-gather

    if p > 1:
        shard = nbytes / min(node.size for node in nodes)
        bw = topo.min_uplink_bandwidth()
        lat = topo.max_uplink_latency()
        total += 2.0 * (p - 1) / p * shard / bw + 2.0 * (p - 1) * lat
    return total


class HierarchicalModel(CollectiveModel):
    """Three-phase hierarchical all-reduce over the node grouping.

    1. **Intra-node reduce-scatter** — each node ring-reduce-scatters the
       buffer over its intra link, leaving each of its ``m`` ranks a reduced
       ``1/m`` shard: ``(m-1)/m * n / bw_intra + (m-1) * alpha_intra``.
       Nodes proceed concurrently; the phase ends when the slowest finishes.
    2. **Inter-node ring** — one rank per node all-reduces its shard with
       its peers over the uplinks: ``2 (p-1)/p * shard / bw_up + 2 (p-1) *
       alpha_up``, where ``shard = n / min(m)`` (unequal nodes are limited
       by the coarsest shardable fraction) and the ring is bottlenecked by
       the slowest uplink.
    3. **Intra-node all-gather** — the mirror of phase 1.

    Degenerate cases fall out naturally: one multi-rank node costs exactly a
    ring over its intra link; all-single-rank nodes cost exactly a flat ring
    over the uplinks.
    """

    name = "hierarchical"

    def allreduce_time(self, cluster: "Cluster", nbytes: float) -> float:
        return _hierarchical_time(cluster, nbytes)


class TreeModel(CollectiveModel):
    """Binomial reduce tree followed by a broadcast tree.

    ``2 ceil(log2 K)`` rounds, each moving the full buffer across the
    topology's bottleneck link: ``2 ceil(log2 K) * (alpha + n / bw)``.
    Latency scales logarithmically in K (vs. linearly for rings) at the cost
    of no bandwidth sharding — the classic small-buffer / high-latency
    trade.
    """

    name = "tree"

    def allreduce_time(self, cluster: "Cluster", nbytes: float) -> float:
        k = cluster.size
        if k <= 1:
            return 0.0
        topo = cluster.topology
        rounds = math.ceil(math.log2(k))
        step = topo.max_latency() + nbytes / topo.bottleneck_bandwidth()
        return 2.0 * rounds * step


class CompressedMultiHopModel(CollectiveModel):
    """Hierarchical all-reduce over QSGD-compressed gradients (DynamiQ).

    The three-phase hierarchical schedule with the buffer packed to
    ``bits`` per element on every hop: the wire moves
    :func:`~repro.quant.qsgd.compressed_nbytes` and each of the three
    phase boundaries (quantize before the intra reduce-scatter,
    re-quantize the reduced shards before the inter ring, re-quantize
    before the intra all-gather) pays one
    :func:`~repro.quant.qsgd.codec_seconds` pass over the uncompressed
    payload.  Uncompressed (``bits=None`` / >= 32) it reuses
    ``_hierarchical_time`` verbatim — bit-identical to
    :class:`HierarchicalModel`, the level-0 parity rung.
    """

    name = "compressed_multihop"

    #: Compressed hop boundaries of the three-phase schedule, each paying
    #: one re-quantization pass.
    HOPS = 3

    def allreduce_time(self, cluster: "Cluster", nbytes: float) -> float:
        return _hierarchical_time(cluster, nbytes)

    def allreduce_time_bits(
        self, cluster: "Cluster", nbytes: int, bits: int | None = None
    ) -> float:
        if bits is None or bits >= 32:
            return self.allreduce_time(cluster, nbytes)
        wire = compressed_nbytes(nbytes, bits)
        return _hierarchical_time(cluster, wire) + self.HOPS * codec_seconds(
            nbytes, bits
        )


#: Name -> model class, the selection vocabulary for CLIs/benchmarks/sweeps.
#: Append-only (RPR005): names feed request fingerprints and persisted
#: artifacts, so entries may be added at the end but never re-keyed.
COLLECTIVE_MODELS: dict[str, type[CollectiveModel]] = {
    FlatRingModel.name: FlatRingModel,
    HierarchicalModel.name: HierarchicalModel,
    TreeModel.name: TreeModel,
    CompressedMultiHopModel.name: CompressedMultiHopModel,
}


def resolve_collective_model(
    model: Union[CollectiveModel, str, None],
) -> CollectiveModel:
    """Normalize a model spec: ``None`` -> the flat-ring default, a name ->
    its registered class, an instance -> itself."""
    if model is None:
        return FlatRingModel()
    if isinstance(model, CollectiveModel):
        return model
    if isinstance(model, str):
        if model not in COLLECTIVE_MODELS:
            raise ValueError(
                f"unknown collective model {model!r}; available: "
                f"{sorted(COLLECTIVE_MODELS)}; a custom model must be "
                f"passed as a CollectiveModel instance, not a name"
            )
        return COLLECTIVE_MODELS[model]()
    raise TypeError(
        f"collective model must be None, a name, or a CollectiveModel, "
        f"got {type(model).__name__}"
    )
