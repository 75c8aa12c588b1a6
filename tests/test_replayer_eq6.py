"""Hand-computed pins for the Eq. (6) synchronous-collective recurrence.

A 2-rank, 2-bucket global DFG small enough to evaluate by hand:

* rank 0: forward 1.0 s, backward [2.0, 1.0] s, optimizer 0.1 s;
  bucket 0 ready after backward idx 0 (t=3.0), bucket 1 after idx 1 (t=4.0).
* rank 1: forward 2.0 s, backward [1.5, 1.5] s, optimizer 0.2 s;
  bucket 0 ready at t=3.5, bucket 1 at t=5.0.
* buckets: 2 MB then 1 MB (identical on both ranks).

Every expected value below is derived in comments, pinning both the
recurrence itself and the flat-ring collective costs — so this module also
guards the PR 3 parity contract: the default (flat) model must keep
producing exactly these numbers, while the hierarchical model only changes
the per-bucket durations, never the recurrence.  The schedule-policy and
perturbation pins give every input of
:func:`~repro.engine.core.execute_global_dfg` an oracle of its own.
"""

import pytest

from repro.core.dfg import CommBucket, DFGNode, GlobalDFG, LocalDFG, NodeKind
from repro.engine import Perturbation
from repro.engine.core import execute_global_dfg
from repro.hardware import T4, V100, Cluster, LinkSpec, NodeSpec, Topology, Worker
from repro.parallel.comm_model import FlatRingModel, HierarchicalModel

BW = 1e8  # NIC bandwidth, bytes/s
ALPHA = 0.01  # collective step latency, s
B0 = 2_000_000  # bucket 0 bytes
B1 = 1_000_000  # bucket 1 bytes


def _cluster(topology=None):
    return Cluster(
        name="pair",
        workers=(
            Worker(rank=0, device=V100, link_bandwidth=BW),
            Worker(rank=1, device=T4, link_bandwidth=BW),
        ),
        collective_latency=ALPHA,
        topology=topology,
    )


def _local(rank, device, fwd, bwds, opt, buckets=True):
    dfg = LocalDFG(device, rank)
    dfg.add_forward(DFGNode("f", NodeKind.FORWARD, fwd))
    for i, d in enumerate(bwds):
        dfg.add_backward(DFGNode(f"b{i}", NodeKind.BACKWARD, d, op=f"w{i}"))
    if buckets:
        dfg.set_buckets(
            [CommBucket(0, B0, ("w0",)), CommBucket(1, B1, ("w1",))],
            {0: 0, 1: 1},
        )
    dfg.set_optimizer(opt)
    return dfg


def _gdfg(buckets=True):
    return GlobalDFG([
        _local(0, "V100", 1.0, [2.0, 1.0], 0.1, buckets),
        _local(1, "T4", 2.0, [1.5, 1.5], 0.2, buckets),
    ])


def _windows_approx(sim, expected):
    assert len(sim.comm_windows) == len(expected)
    for got, want in zip(sim.comm_windows, expected):
        assert got == pytest.approx(want)


class TestFlatRingRecurrence:
    """Expected timeline under the flat ring (k=2):

    ``allreduce(n) = 2*(k-1)/k * n/BW + 2*(k-1)*ALPHA = n/1e8 + 0.02``
    so bucket 0 lasts 0.04 s and bucket 1 lasts 0.03 s.

    comm0: start = max(ready0) = max(3.0, 3.5) = 3.5, end = 3.54
    comm1: start = max(max(4.0, 5.0), 3.54) = 5.0, end = 5.03
    rank0: max(compute 4.0, comm 5.03) + opt 0.1 = 5.13, wait 1.03
    rank1: max(compute 5.0, comm 5.03) + opt 0.2 = 5.23, wait 0.03
    iteration = 5.23
    """

    def test_bucket_ready_times(self):
        gdfg = _gdfg()
        assert gdfg.locals[0].bucket_ready_times() == {0: 3.0, 1: 4.0}
        assert gdfg.locals[1].bucket_ready_times() == {0: 3.5, 1: 5.0}

    def test_flat_allreduce_durations_by_hand(self):
        c = _cluster()
        assert c.allreduce_time(B0) == pytest.approx(0.04)
        assert c.allreduce_time(B1) == pytest.approx(0.03)

    def test_recurrence_values(self):
        sim = execute_global_dfg(_gdfg(), _cluster())
        assert sim.iteration_time == pytest.approx(5.23)
        assert sim.comm_wait_time[0] == pytest.approx(1.03)
        assert sim.comm_wait_time[1] == pytest.approx(0.03)
        _windows_approx(sim, [(3.5, 3.54), (5.0, 5.03)])

    def test_bucket_serialization(self):
        """Collectives are ordered: bucket 1 starts at
        ``max(readiness, comm0_end)``.  Both branches of the max, by hand:

        * bucket 0 halved to 1 MB: comm0 ends 3.5 + 0.03 = 3.53 < ready1
          (5.0) -> readiness gates; iteration stays 5.23.
        * bucket 0 grown to 200 MB: comm0 ends 3.5 + 2.02 = 5.52 > 5.0 ->
          serialization gates; comm1 ends 5.55, iteration = 5.55 + 0.2.
        """

        def with_bucket0(nbytes):
            gdfg = _gdfg()
            for ldfg in gdfg.locals:
                ldfg.set_buckets(
                    [CommBucket(0, nbytes, ("w0",)), CommBucket(1, B1, ("w1",))],
                    {0: 0, 1: 1},
                )
            return execute_global_dfg(gdfg, _cluster())

        assert with_bucket0(B1).iteration_time == pytest.approx(5.23)
        assert with_bucket0(200_000_000).iteration_time == pytest.approx(5.75)

    def test_default_model_is_flat_bit_identical(self):
        """PR 3 parity pin: no model, the explicit flat model, and the
        pre-topology formula agree bit-for-bit."""
        default = execute_global_dfg(_gdfg(), _cluster())
        explicit = execute_global_dfg(
            _gdfg(), _cluster(), collective_model=FlatRingModel()
        )
        by_name = execute_global_dfg(_gdfg(), _cluster(), collective_model="flat")
        assert default.iteration_time == explicit.iteration_time == by_name.iteration_time
        assert default.comm_wait_time == explicit.comm_wait_time == by_name.comm_wait_time


class TestHierarchicalRecurrence:
    """Both ranks share one node with a 4e8 B/s, 1 ms intra link:

    ``allreduce(n) = 2*[(m-1)/m * n/bw + (m-1)*lat] = n/4e8 + 0.002``
    so bucket 0 lasts 0.007 s and bucket 1 lasts 0.0045 s.

    comm0: start 3.5, end 3.507
    comm1: start max(5.0, 3.507) = 5.0, end 5.0045
    rank0 end = 5.0045 + 0.1, rank1 end = 5.0045 + 0.2 = 5.2045
    """

    def _topology(self):
        intra = LinkSpec("testlink", 4e8, 1e-3, "intra")
        up = LinkSpec("upl", BW, ALPHA, "inter")
        return Topology(
            nodes=(NodeSpec(name="n0", ranks=(0, 1), intra_link=intra, uplink=up),)
        )

    def test_hierarchical_durations_by_hand(self):
        c = _cluster(self._topology())
        model = HierarchicalModel()
        assert model.allreduce_time(c, B0) == pytest.approx(0.007)
        assert model.allreduce_time(c, B1) == pytest.approx(0.0045)

    def test_recurrence_values(self):
        sim = execute_global_dfg(
            _gdfg(), _cluster(self._topology()), collective_model="hierarchical"
        )
        assert sim.iteration_time == pytest.approx(5.2045)
        assert sim.comm_wait_time[0] == pytest.approx(1.0045)
        assert sim.comm_wait_time[1] == pytest.approx(0.0045)

    def test_flat_results_unchanged_by_topology(self):
        """Attaching a topology must not move the *flat* model's output —
        only an explicit hierarchical/tree selection reads the node
        grouping (the PR 3 default-parity invariant)."""
        plain = execute_global_dfg(_gdfg(), _cluster())
        with_topo = execute_global_dfg(_gdfg(), _cluster(self._topology()))
        assert plain.iteration_time == with_topo.iteration_time
        assert plain.comm_wait_time == with_topo.comm_wait_time


class TestSchedulePolicyAndPerturbationInputs:
    """The same pair under each input the recurrence takes besides the
    DFG, flat ring throughout (bucket 0 lasts 0.04 s, bucket 1 0.03 s)."""

    def test_blocking_sync_by_hand(self):
        """Every bucket is ready only when its rank's backward ends: rank 0
        at 1.0 + 2.0 + 1.0 = 4.0, rank 1 at 2.0 + 1.5 + 1.5 = 5.0.

        comm0: start max(4.0, 5.0) = 5.0, end 5.04
        comm1: start max(max(4.0, 5.0), 5.04) = 5.04, end 5.07
        rank0: max(4.0, 5.07) + 0.1 = 5.17, wait 1.07
        rank1: max(5.0, 5.07) + 0.2 = 5.27, wait 0.07
        """
        sim = execute_global_dfg(
            _gdfg(), _cluster(), schedule_policy="blocking_sync"
        )
        _windows_approx(sim, [(5.0, 5.04), (5.04, 5.07)])
        assert sim.iteration_time == pytest.approx(5.27)
        assert sim.comm_wait_time[0] == pytest.approx(1.07)
        assert sim.comm_wait_time[1] == pytest.approx(0.07)
        assert sim.per_device_compute == pytest.approx({0: 4.1, 1: 5.2})

    def test_one_straggler_by_hand(self):
        """Rank 0 at half speed: forward 2.0, backward [4.0, 2.0],
        optimizer 0.2, so its buckets are ready at 6.0 and 8.0 and its
        backward ends at 8.0; rank 1 is untouched (3.5, 5.0; ends 5.0).

        comm0: start max(6.0, 3.5) = 6.0, end 6.04
        comm1: start max(max(8.0, 5.0), 6.04) = 8.0, end 8.03
        rank0: max(8.0, 8.03) + 0.2 = 8.23, wait 0.03
        rank1: max(5.0, 8.03) + 0.2 = 8.23, wait 3.03
        """
        sim = execute_global_dfg(
            _gdfg(), _cluster(), perturbation=Perturbation(stragglers={0: 2.0})
        )
        _windows_approx(sim, [(6.0, 6.04), (8.0, 8.03)])
        assert sim.iteration_time == pytest.approx(8.23)
        assert sim.comm_wait_time[0] == pytest.approx(0.03)
        assert sim.comm_wait_time[1] == pytest.approx(3.03)
        assert sim.per_device_compute == pytest.approx({0: 8.2, 1: 5.2})

    def test_bandwidth_drift_by_hand(self):
        """Drift multiplies each bucket's collective by its seed-derived
        factor ``s_n`` in [1, 2) and leaves compute alone:

        comm0: start 3.5, end 3.5 + 0.04 * s0 (< 3.58, before ready1)
        comm1: start max(5.0, 3.5 + 0.04 * s0) = 5.0, end 5.0 + 0.03 * s1
        rank0: that end + 0.1, wait that end - 4.0
        rank1: that end + 0.2, wait that end - 5.0
        """
        pert = Perturbation(seed=3, bandwidth_drift=1.0)
        s0, s1 = pert.comm_scale(0), pert.comm_scale(1)
        assert 1.0 < s0 < 2.0 and 1.0 < s1 < 2.0 and s0 != s1
        sim = execute_global_dfg(_gdfg(), _cluster(), perturbation=pert)
        end = 5.0 + 0.03 * s1
        _windows_approx(sim, [(3.5, 3.5 + 0.04 * s0), (5.0, end)])
        assert sim.iteration_time == pytest.approx(end + 0.2)
        assert sim.comm_wait_time[0] == pytest.approx(end - 4.0)
        assert sim.comm_wait_time[1] == pytest.approx(end - 5.0)
        assert sim.per_device_compute == pytest.approx({0: 4.1, 1: 5.2})

    @pytest.mark.parametrize("policy", ["ddp_overlap", "blocking_sync"])
    def test_zero_buckets_by_hand(self, policy):
        """No collective at all: each rank ends at its own compute time,
        rank0 4.0 + 0.1 = 4.1 and rank1 5.0 + 0.2 = 5.2, under either
        policy; nobody waits."""
        sim = execute_global_dfg(
            _gdfg(buckets=False), _cluster(), schedule_policy=policy
        )
        assert sim.comm_windows == []
        assert sim.iteration_time == pytest.approx(5.2)
        assert sim.comm_wait_time == {0: 0.0, 1: 0.0}
        assert sim.per_device_compute == pytest.approx({0: 4.1, 1: 5.2})
