"""Declarative plan requests — the input shape of the :class:`PlanSession` API.

A :class:`PlanRequest` names everything one what-if query needs: the model
(a graph-catalog name, a mini-model name, a zero-arg builder, or a built
:class:`PrecisionDAG`), the cluster (a :data:`CLUSTER_PRESETS` name or a
:class:`Cluster`), the planner strategy, and the planning knobs (loss,
batch size, collective model, indicator name, allocator config, seed,
``profile_repeats``, explicit backends).

Requests are plain frozen dataclasses: building one performs no profiling
and touches no hardware model.  All the expensive work happens when a
:class:`~repro.session.session.PlanSession` resolves the request — and the
session reuses every profiling artifact it has already paid for.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping, Union

from repro.backend.lp_backend import LPBackend
from repro.core.allocator import AllocatorConfig
from repro.core.indicator import gamma_for_loss
from repro.engine.perturbation import Perturbation
from repro.engine.policy import SCHEDULE_POLICIES, SchedulePolicy
from repro.graph.dag import PrecisionDAG
from repro.hardware.cluster import CLUSTER_PRESETS, Cluster, get_cluster_preset
from repro.parallel.comm_model import COLLECTIVE_MODELS, CollectiveModel
from repro.profiling.stats import OperatorStats
from repro.quant.qsgd import CompressionConfig

#: Indicator names the allocator-backed strategies understand.  ``None``
#: (the default) means the strategy's own choice — QSync's variance
#: indicator.
INDICATOR_NAMES = ("variance", "hessian", "random")


def available_model_names() -> tuple[str, ...]:
    """Model names a string-valued :attr:`PlanRequest.model` may use:
    the full-size graph catalog plus the executable mini-model mirrors."""
    from repro.models import MODEL_GRAPHS
    from repro.models.trainable import MINI_MODELS

    return tuple(sorted(set(MODEL_GRAPHS) | set(MINI_MODELS)))


@dataclasses.dataclass(frozen=True)
class PlanRequest:
    """One declarative planning query.

    Parameters
    ----------
    model:
        Graph-catalog name (``"vgg16"``), mini-model name (``"mini_bert"``),
        zero-arg callable returning a fresh :class:`PrecisionDAG`, or a
        built DAG (copied per device type; never mutated).
    model_kwargs:
        Builder kwargs when ``model`` is a name (``batch_size``,
        ``width_scale``, ...).  Must be empty for callables and DAG
        instances, which take no kwargs.
    cluster:
        :data:`CLUSTER_PRESETS` name or a :class:`Cluster` instance.
    strategy:
        Planner registry name (``"qsync"``, ``"qsync+qsgd"``,
        ``"uniform"``, ``"dpro"``, ``"hessian"``, ``"random"``).  Validated at plan time so the error
        can list what is actually registered.
    loss:
        ``"ce"`` or ``"mse"`` — sets the gamma of Proposition 3.
    batch_size:
        Local batch for the gamma computation; defaults to the graph
        input's leading dimension.
    optimizer_slots:
        Memory-model optimizer state multiplier.
    collective_model:
        All-reduce cost model name/instance; ``None`` keeps the flat-ring
        default (bit-identical to the pre-topology replayer).
    schedule_policy:
        Execution schedule name/instance: the per-rank anchors Eq. (6)
        reads; ``None`` keeps the DDP-overlap default.
    perturbation:
        Optional :class:`repro.engine.Perturbation` — deterministic,
        seed-derived straggler/bandwidth-drift injection applied to every
        simulation of this request.
    indicator:
        Indicator override for the allocator strategies: a name from
        :data:`INDICATOR_NAMES`, or ``None`` for the strategy default.
    config:
        Allocator tunables (also carries §VIII ``amp_mode``).
    seed:
        Seeds the synthesized indicator statistics and the random-indicator
        draws.  Profiling noise is seeded by the backends, not by this.
    profile_repeats:
        Measurements averaged per (op, precision) catalog entry — the
        experiments use 2/3; the default is 3.
    backends:
        Optional per-rank :class:`LPBackend` overrides.  May be *partial*:
        missing ranks get default backends; a backend modelling a different
        device than its rank's worker, or unlike another same-type rank's,
        is a :class:`ValueError`.
    stats:
        Indicator statistics; synthesized from the graph when omitted.
    compression:
        Gradient-compression knobs (:class:`repro.quant.qsgd.
        CompressionConfig`) consumed by the compression-aware strategies
        (``qsync+qsgd``); ``None`` means their defaults.  Other strategies
        ignore it (gradients sync uncompressed there).

    There is deliberately no knob selecting how Eq. (6) is evaluated: one
    recurrence (:func:`repro.engine.core.execute_global_dfg`) takes
    ``schedule_policy`` and ``perturbation`` as inputs, and the compiled
    kernel, bit-identical to it, serves the allocator's batched what-ifs
    only when :func:`repro.engine.policy.eq6_fast_path` admits both.  Every field here feeds
    :func:`repro.service.fingerprint.request_token`, which derives the
    request's content key from these fields.
    """

    model: Union[str, Callable[[], PrecisionDAG], PrecisionDAG]
    model_kwargs: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    cluster: Union[str, Cluster] = "cluster_a_4+4"
    strategy: str = "qsync"
    loss: str = "ce"
    batch_size: int | None = None
    optimizer_slots: int = 1
    collective_model: Union[CollectiveModel, str, None] = None
    schedule_policy: Union[SchedulePolicy, str, None] = None
    perturbation: Perturbation | None = None
    indicator: str | None = None
    config: AllocatorConfig | None = None
    seed: int = 0
    profile_repeats: int = 3
    backends: Mapping[int, LPBackend] | None = None
    stats: Mapping[str, OperatorStats] | None = None
    compression: CompressionConfig | None = None

    def __post_init__(self) -> None:
        # Every cheap knob is validated here, at construction — before a
        # session pays for profiling — so a typo costs nothing.
        if self.profile_repeats < 1:
            raise ValueError(
                f"profile_repeats must be >= 1, got {self.profile_repeats}"
            )
        if self.model_kwargs and not isinstance(self.model, str):
            raise ValueError(
                "model_kwargs applies only to a named model; a builder or "
                f"DAG takes none, got {sorted(self.model_kwargs)}"
            )
        gamma_for_loss(self.loss, 1)  # raises ValueError on unknown losses
        if (
            isinstance(self.collective_model, str)
            and self.collective_model not in COLLECTIVE_MODELS
        ):
            raise ValueError(
                f"unknown collective model {self.collective_model!r}; "
                f"available: {sorted(COLLECTIVE_MODELS)}"
            )
        if isinstance(self.schedule_policy, str):
            if self.schedule_policy not in SCHEDULE_POLICIES:
                raise ValueError(
                    f"unknown schedule policy {self.schedule_policy!r}; "
                    f"available: {sorted(SCHEDULE_POLICIES)}"
                )
        elif not isinstance(self.schedule_policy, (SchedulePolicy, type(None))):
            raise ValueError(
                f"schedule_policy must be a name, a SchedulePolicy, or None, "
                f"got {type(self.schedule_policy).__name__}"
            )
        if self.perturbation is not None and not isinstance(
            self.perturbation, Perturbation
        ):
            raise ValueError(
                f"perturbation must be a repro.engine.Perturbation or None, "
                f"got {type(self.perturbation).__name__}"
            )
        if self.indicator is not None and self.indicator not in INDICATOR_NAMES:
            raise ValueError(
                f"unknown indicator {self.indicator!r}; available: "
                f"{', '.join(INDICATOR_NAMES)} (or None for the strategy default)"
            )
        if self.compression is not None and not isinstance(
            self.compression, CompressionConfig
        ):
            raise ValueError(
                f"compression must be a repro.quant.qsgd.CompressionConfig "
                f"or None, got {type(self.compression).__name__}"
            )
        if isinstance(self.cluster, str) and self.cluster not in CLUSTER_PRESETS:
            raise ValueError(
                f"unknown cluster preset {self.cluster!r}; available: "
                f"{sorted(CLUSTER_PRESETS)}"
            )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve_cluster(self) -> Cluster:
        if isinstance(self.cluster, Cluster):
            return self.cluster
        return get_cluster_preset(self.cluster)

    def model_cache_key(self) -> tuple | None:
        """Hashable identity of the model *recipe*, or ``None`` when the
        model is a callable/DAG (opaque — the session rebuilds those)."""
        if not isinstance(self.model, str):
            return None
        return (self.model, tuple(sorted(self.model_kwargs.items())))

    def build_template(self) -> PrecisionDAG:
        """Build (or pass through) the template DAG for this request."""
        if isinstance(self.model, PrecisionDAG):
            return self.model
        if callable(self.model):
            return self.model()
        from repro.models import MODEL_GRAPHS, mini_model_graph
        from repro.models.trainable import MINI_MODELS

        if self.model in MODEL_GRAPHS:
            return MODEL_GRAPHS[self.model](**dict(self.model_kwargs))
        if self.model in MINI_MODELS:
            return mini_model_graph(self.model, **dict(self.model_kwargs))
        raise ValueError(
            f"unknown model {self.model!r}; available: "
            f"{list(available_model_names())}"
        )

    def describe(self) -> str:
        model = self.model if isinstance(self.model, str) else (
            "<dag>" if isinstance(self.model, PrecisionDAG) else "<builder>"
        )
        cluster = (
            self.cluster if isinstance(self.cluster, str) else self.cluster.name
        )
        return f"PlanRequest({self.strategy} | {model} on {cluster})"
