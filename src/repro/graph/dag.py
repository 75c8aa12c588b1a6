"""The Precision DAG.

"For each GPU, QSync maintains a precision DAG that keeps the training model
with operators' precision and its dependencies" (Sec. IV-B).  The graph is
stored here as insertion-ordered dicts (op -> spec, op -> precision) plus
per-op predecessor and successor lists, and sorted with an in-repo Kahn
sort.  Those orders feed :meth:`PrecisionDAG.structure_fingerprint`, so
they are a contract: ops in insertion order, predecessors in ``inputs``
order (a repeated input is one edge), successors in edge-insertion order,
and topological order generation by generation (:meth:`_kahn_order`).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.common.dtypes import Precision, parse_precision
from repro.common.errors import GraphConsistencyError
from repro.common.stable_hash import stable_hash
from repro.graph.ops import OperatorSpec


class PrecisionDAG:
    """A model's operator DAG with a precision per node.

    Nodes are operator names; each holds an :class:`OperatorSpec` and a
    :class:`Precision`.  The graph is validated to be a DAG with a unique
    root (the input node) on :meth:`validate`.

    Change tracking (incremental replay engine): every *effective* precision
    mutation bumps :attr:`version` and records the op in a dirty log, so
    consumers that retain derived state (Cost Mappers, the Replayer's DFG
    cache, memoized memory estimates) can ask :meth:`dirty_since` for exactly
    the ops that changed since they last looked.  Structural edits bump
    :attr:`structure_version` instead, which additionally invalidates the
    cached topological order.
    """

    def __init__(self) -> None:
        self._specs: dict[str, OperatorSpec] = {}
        self._prec: dict[str, Precision] = {}
        self._preds: dict[str, list[str]] = {}
        self._succs: dict[str, list[str]] = {}
        self._depth_cache: dict[str, int] | None = None
        self._version = 0
        self._structure_version = 0
        #: op -> version at which its precision last changed.
        self._dirty_log: dict[str, int] = {}
        self._topo_cache: list[str] | None = None
        self._topo_index_cache: dict[str, int] | None = None
        self._adjustable_cache: list[str] | None = None
        self._weighted_cache: list[str] | None = None
        self._sig_ops_cache: list[str] | None = None
        self._weight_elems_cache: int | None = None
        self._sig_cache: tuple[int, tuple[Precision, ...]] | None = None
        self._fingerprint_cache: tuple[int, int] | None = None

    def _invalidate_structure(self) -> None:
        self._depth_cache = None
        self._topo_cache = None
        self._topo_index_cache = None
        self._adjustable_cache = None
        self._weighted_cache = None
        self._sig_ops_cache = None
        self._weight_elems_cache = None
        self._sig_cache = None
        self._fingerprint_cache = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_op(self, spec: OperatorSpec, inputs: Iterable[str] = ()) -> str:
        """Insert an operator at FP32, wiring edges from its input ops."""
        name = spec.name
        if name in self._specs:
            raise GraphConsistencyError(f"duplicate operator name {name!r}")
        preds = list(dict.fromkeys(inputs))  # a repeated input is one edge
        for src in preds:
            if src not in self._specs:
                raise GraphConsistencyError(
                    f"operator {name!r} references unknown input {src!r}"
                )
        self._specs[name] = spec
        self._prec[name] = Precision.FP32
        self._preds[name] = preds
        self._succs[name] = []
        for src in preds:
            self._succs[src].append(name)
        self._version += 1
        self._structure_version += 1
        self._invalidate_structure()
        return spec.name

    def copy(self) -> "PrecisionDAG":
        out = PrecisionDAG()
        out._specs = dict(self._specs)
        out._prec = dict(self._prec)
        out._succs = {n: list(s) for n, s in self._succs.items()}
        # Predecessors are rebuilt source by source, so a copy lists them in
        # insertion order rather than ``inputs`` order.  Per-rank DAGs are
        # copies, and their fingerprints key the profile and artifact stores.
        out._preds = {n: [] for n in self._specs}
        for src, dsts in self._succs.items():
            for dst in dsts:
                out._preds[dst].append(src)
        # Depths are longest paths, whatever order the predecessors are
        # listed in, so the copy shares the table (it is only ever replaced,
        # never written into).
        out._depth_cache = self._depth_cache
        return out

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def spec(self, name: str) -> OperatorSpec:
        return self._specs[name]

    def precision(self, name: str) -> Precision:
        return self._prec[name]

    def set_precision(self, name: str, precision) -> None:
        prec = parse_precision(precision)
        if self._prec[name] is prec:
            return  # no-op writes must not dirty downstream caches
        self._prec[name] = prec
        self._version += 1
        self._dirty_log[name] = self._version
        self._sig_cache = None

    # ------------------------------------------------------------------
    # change tracking
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone counter bumped on every effective mutation."""
        return self._version

    @property
    def structure_version(self) -> int:
        """Monotone counter bumped on node/edge insertion only."""
        return self._structure_version

    def dirty_since(self, version: int) -> set[str]:
        """Ops whose precision changed strictly after ``version``."""
        if version >= self._version:
            return set()
        return {op for op, v in self._dirty_log.items() if v > version}

    def precision_signature(self) -> tuple[Precision, ...]:
        """Hashable fingerprint of the assigned precisions that determine
        derived artifacts, in topological order.

        Covers every non-dependent op (dependent ops *derive* their compute
        precision from inputs) plus every weighted op regardless of
        category (the memory model reads a weighted op's assigned precision
        for its low-precision weight copy).  Two DAGs with equal
        :meth:`structure_fingerprint` and equal signatures are therefore
        interchangeable for replay and memory estimation.  Cached per
        version.
        """
        if self._sig_cache is not None and self._sig_cache[0] == self._version:
            return self._sig_cache[1]
        if self._sig_ops_cache is None:
            self._sig_ops_cache = [
                n
                for n in self.topo_order()
                if not self.spec(n).is_dependent or self.spec(n).has_weight
            ]
        sig = tuple(self.precision(n) for n in self._sig_ops_cache)
        self._sig_cache = (self._version, sig)
        return sig

    def structure_fingerprint(self) -> int:
        """Hash identifying the graph's *structure* (op names, kinds,
        shapes, edges) independent of precision assignments.

        Cross-DAG caches (the Replayer's group-keyed DFG and signature-keyed
        memory caches) key on this instead of the per-instance
        :attr:`structure_version` counter, which says nothing about whether
        two different DAG objects are actually the same graph.  Computed
        with :func:`repro.common.stable_hash.stable_hash` — never builtin
        ``hash``, which is salted per process and would make every
        cross-process cache key (and the experiment artifact store built on
        it) non-reproducible.  Cached per structure version.
        """
        if (
            self._fingerprint_cache is not None
            and self._fingerprint_cache[0] == self._structure_version
        ):
            return self._fingerprint_cache[1]
        fp = stable_hash(
            tuple(
                (
                    n,
                    self.spec(n).kind.value,
                    self.spec(n).output_shape,
                    self.spec(n).weight_shape,
                    tuple(self._preds[n]),
                )
                for n in self.topo_order()
            )
        )
        self._fingerprint_cache = (self._structure_version, fp)
        return fp

    def nodes(self) -> Iterator[str]:
        return iter(self._specs)

    def predecessors(self, name: str) -> list[str]:
        return list(self._preds[name])

    def successors(self, name: str) -> list[str]:
        return list(self._succs[name])

    def _kahn_order(self) -> list[str]:
        """Kahn sort, generation by generation: the zero-in-degree ops in
        insertion order, then each successor once its in-degree reaches 0."""
        indegree = {n: len(p) for n, p in self._preds.items()}
        order = [n for n, d in indegree.items() if d == 0]
        for n in order:  # walks the list while it grows
            for succ in self._succs[n]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    order.append(succ)
        if len(order) != len(indegree):
            raise GraphConsistencyError("graph contains a cycle")
        return order

    def topo_order(self) -> list[str]:
        """Topological order, cached until the structure changes.

        The returned list is shared — treat it as read-only.
        """
        if self._topo_cache is None:
            self._topo_cache = self._kahn_order()
        return self._topo_cache

    def topo_index(self) -> dict[str, int]:
        """Name -> position in :meth:`topo_order` (cached, read-only)."""
        if self._topo_index_cache is None:
            self._topo_index_cache = {
                n: i for i, n in enumerate(self.topo_order())
            }
        return self._topo_index_cache

    def adjustable_ops(self) -> list[str]:
        """Names of ``O_adj`` operators, in topological order (cached,
        read-only)."""
        if self._adjustable_cache is None:
            self._adjustable_cache = [
                n for n in self.topo_order() if self.spec(n).is_adjustable
            ]
        return self._adjustable_cache

    def weighted_ops(self) -> list[str]:
        if self._weighted_cache is None:
            self._weighted_cache = [
                n for n in self.topo_order() if self.spec(n).has_weight
            ]
        return self._weighted_cache

    def precision_plan(self) -> dict[str, Precision]:
        """Snapshot of current per-op precisions."""
        return dict(self._prec)

    def apply_plan(self, plan: dict[str, Precision]) -> None:
        for name, prec in plan.items():
            self.set_precision(name, prec)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def root(self) -> str:
        """The unique zero-in-degree node (the model input)."""
        roots = [n for n, preds in self._preds.items() if not preds]
        if len(roots) != 1:
            raise GraphConsistencyError(f"expected 1 root, found {roots}")
        return roots[0]

    def depth(self, name: str) -> int:
        """Distance from the root (``d_o`` in Proposition 3).

        "The depth of an operator inside a model forward DAG is a measure of
        its distance from the root node" — computed as the longest path from
        the root so residual shortcuts don't shrink a deep op's depth.
        """
        if self._depth_cache is None:
            root = self.root()
            depths = {root: 0}
            for node in self.topo_order():
                if node == root:
                    continue
                depths[node] = 1 + max(depths[p] for p in self._preds[node])
            self._depth_cache = depths
        return self._depth_cache[name]

    def max_depth(self) -> int:
        """``d_L``: depth of the deepest operator."""
        self.depth(self.root())
        return max(self._depth_cache.values())

    def validate(self) -> None:
        """Raise :class:`GraphConsistencyError` on a cycle or a root count
        other than one.

        Nothing else needs checking: in an acyclic graph with a single
        zero-in-degree op, walking predecessors from any op ends at that
        root, so the graph is connected and has a sink, and a disconnected
        graph fails the root check with a second root.
        """
        self._kahn_order()
        self.root()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def total_flops(self) -> float:
        return float(sum(s.flops for s in self._specs.values()))

    def total_weight_elems(self) -> int:
        if self._weight_elems_cache is None:
            self._weight_elems_cache = int(
                sum(s.weight_elems for s in self._specs.values())
            )
        return self._weight_elems_cache

    def summary(self) -> str:
        """One-line description used in reports."""
        n_adj = len(self.adjustable_ops())
        return (
            f"PrecisionDAG({len(self)} ops, {n_adj} adjustable, "
            f"depth {self.max_depth()}, {self.total_flops()/1e9:.1f} GFLOPs/iter fwd)"
        )
