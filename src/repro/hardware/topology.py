"""Interconnect topology: per-link alpha-beta costs and node grouping.

The paper's testbeds are *hierarchical*: training servers with 8 NVLinked
V100s each, inference servers with 8 PCIe T4s each, joined by a datacenter
network (Sec. VII).  A flat worker list cannot express that — every
collective gets priced by the single slowest NIC.  This module supplies the
missing vocabulary:

* :class:`LinkSpec` — one link class under the alpha-beta model
  (``time(n) = latency + n / bandwidth``), tagged with its tier
  (``intra`` = NVLink/PCIe inside a node, ``inter`` = Ethernet/RDMA/WAN
  between nodes);
* :class:`NodeSpec` — one physical server: the ranks it hosts, its intra-node
  link, and its uplink into the inter-node network;
* :class:`Topology` — a partition of the cluster's ranks into nodes, with
  the derived link-assignment queries the collective models
  (:mod:`repro.parallel.comm_model`) read.

A :class:`~repro.hardware.cluster.Cluster` built without an explicit
topology derives a *flat* one (every worker its own node, uplink = its NIC),
which reproduces the legacy single-bottleneck model exactly.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.common.units import GBPS

#: Link tiers (where the link sits in the hierarchy).
INTRA = "intra"
INTER = "inter"


@dataclasses.dataclass(frozen=True)
class LinkSpec:
    """One interconnect class under the alpha-beta cost model.

    Attributes
    ----------
    name:
        Human-readable class ("nvlink", "pcie4", "eth100g", ...).
    bandwidth:
        Sustained point-to-point bandwidth in bytes/s (1/beta).
    latency:
        Per-message latency in seconds (alpha): launch + serialization +
        network RTT share of one collective step over this link.
    tier:
        ``"intra"`` (inside a node) or ``"inter"`` (between nodes).
    """

    name: str
    bandwidth: float
    latency: float
    tier: str = INTRA

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(
                f"link {self.name!r}: bandwidth must be > 0, got {self.bandwidth}"
            )
        if self.latency < 0:
            raise ValueError(
                f"link {self.name!r}: latency must be >= 0, got {self.latency}"
            )
        if self.tier not in (INTRA, INTER):
            raise ValueError(
                f"link {self.name!r}: tier must be 'intra' or 'inter', got {self.tier!r}"
            )

    def transfer_time(self, nbytes: float) -> float:
        """alpha-beta cost of moving ``nbytes`` across this link once."""
        return self.latency + nbytes / self.bandwidth


# ---------------------------------------------------------------------------
# link presets (datasheet-order-of-magnitude; the models only need ratios)
# ---------------------------------------------------------------------------

#: V100 NVLink2 fabric (per-GPU aggregate).
NVLINK2 = LinkSpec("nvlink2", 300 * GBPS, 2e-6, INTRA)
#: A100 NVLink3/NVSwitch fabric.
NVLINK3 = LinkSpec("nvlink3", 600 * GBPS, 2e-6, INTRA)
#: PCIe gen3 x16 (T4 inference servers without NVLink).
PCIE3 = LinkSpec("pcie3", 16 * GBPS, 5e-6, INTRA)
#: PCIe gen4 x16 / the paper's 32 GB/s inference-server interconnect.
PCIE4 = LinkSpec("pcie4", 32 * GBPS, 5e-6, INTRA)
#: 100 Gb Ethernet NIC per node.
ETH100G = LinkSpec("eth100g", 12.5 * GBPS, 30e-6, INTER)
#: 200 Gb RDMA (RoCE/IB) NIC per node.
RDMA200G = LinkSpec("rdma200g", 25 * GBPS, 10e-6, INTER)
#: Cloud-edge WAN path (10 Gb with millisecond RTT).
WAN10G = LinkSpec("wan10g", 1.25 * GBPS, 2e-3, INTER)


@dataclasses.dataclass(frozen=True)
class NodeSpec:
    """One physical server: hosted ranks plus its link assignments."""

    name: str
    ranks: tuple[int, ...]
    intra_link: LinkSpec
    uplink: LinkSpec

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ValueError(f"node {self.name!r} hosts no ranks")
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError(f"node {self.name!r} lists duplicate ranks")

    @property
    def size(self) -> int:
        return len(self.ranks)


@dataclasses.dataclass(frozen=True)
class Topology:
    """Node-grouped view of a cluster's ranks with derived link assignments."""

    nodes: tuple[NodeSpec, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("topology needs at least one node")
        all_ranks = [r for node in self.nodes for r in node.ranks]
        # Nodes must partition a *set* of ranks — each rank hosted exactly
        # once.  Which ranks exist is the cluster's business (ranks may be
        # non-contiguous); the cluster constructor checks the sets match.
        if len(set(all_ranks)) != len(all_ranks) or any(r < 0 for r in all_ranks):
            raise ValueError(
                "topology nodes must partition the rank set (each rank "
                f"hosted exactly once, non-negative), got {sorted(all_ranks)}"
            )

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_ranks(self) -> int:
        return sum(node.size for node in self.nodes)

    def rank_set(self) -> frozenset:
        """All ranks hosted by this topology's nodes."""
        return frozenset(r for node in self.nodes for r in node.ranks)

    @functools.cached_property
    def _node_by_rank(self) -> dict[int, NodeSpec]:
        return {r: node for node in self.nodes for r in node.ranks}

    def node_of(self, rank: int) -> NodeSpec:
        """The node hosting ``rank``."""
        try:
            return self._node_by_rank[rank]
        except KeyError:
            raise KeyError(f"no node hosts rank {rank}") from None

    # ------------------------------------------------------------------
    # derived link queries (what the collective models read)
    # ------------------------------------------------------------------
    def min_uplink_bandwidth(self) -> float:
        """Slowest inter-node path (the inter-phase ring bottleneck)."""
        return min(node.uplink.bandwidth for node in self.nodes)

    def max_uplink_latency(self) -> float:
        return max(node.uplink.latency for node in self.nodes)

    def bottleneck_bandwidth(self) -> float:
        """Slowest link any rank-spanning collective must cross: uplinks when
        the topology has multiple nodes, plus the intra links of every
        multi-rank node."""
        bws = [node.intra_link.bandwidth for node in self.nodes if node.size > 1]
        if self.n_nodes > 1:
            bws.extend(node.uplink.bandwidth for node in self.nodes)
        if not bws:  # single node hosting a single rank: no link is crossed
            return self.nodes[0].uplink.bandwidth
        return min(bws)

    def max_latency(self) -> float:
        """Largest per-step latency along the same link set."""
        lats = [node.intra_link.latency for node in self.nodes if node.size > 1]
        if self.n_nodes > 1:
            lats.extend(node.uplink.latency for node in self.nodes)
        if not lats:
            return self.nodes[0].uplink.latency
        return max(lats)

    def describe(self) -> str:
        parts = [
            f"{node.name}({node.size}r,{node.intra_link.name}/{node.uplink.name})"
            for node in self.nodes
        ]
        return " + ".join(parts)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def flat(cls, workers, collective_latency: float) -> "Topology":
        """The legacy degenerate topology: every worker is its own node and
        its NIC (``Worker.link_bandwidth``) is both links.  Collective models
        over this topology see exactly the pre-topology cluster: bottleneck =
        slowest NIC, per-step latency = ``collective_latency``."""
        nodes = []
        for w in workers:
            nic = LinkSpec(
                f"nic{w.rank}", w.link_bandwidth, collective_latency, INTER
            )
            nodes.append(
                NodeSpec(name=f"n{w.rank}", ranks=(w.rank,), intra_link=nic, uplink=nic)
            )
        return cls(nodes=tuple(nodes))
