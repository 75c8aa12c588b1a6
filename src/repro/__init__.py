"""repro — a from-scratch reproduction of QSync (IPDPS 2024).

QSync enables synchronous data-parallel DNN training across *hybrid* devices
(training GPUs + inference GPUs) by selecting a quantization-minimized
precision per operator on the inference GPUs: quantize just enough to fit the
memory/throughput envelope, recover everything else to higher precision to
protect final accuracy.

Package map (bottom-up):

=====================  =====================================================
``repro.common``       precision dtypes, units, RNG discipline, stable hash
``repro.quant``        stochastic-rounding fixed/float quantizers + theory
``repro.tensor``       numpy tape autodiff with precision-aware modules
``repro.graph``        operator taxonomy and the Precision DAG
``repro.hardware``     device specs (V100/T4/A10/A100), cluster presets,
                       node topologies
``repro.profiling``    roofline cost model, casting-cost models, memory
``repro.backend``      "LP-PyTorch": kernel templates, autotuner, MinMax,
                       dequantization fusion, security wrapper
``repro.core``         the paper's contribution — Predictor (Indicator +
                       Replayer/Cost-Mapper/Simulator) and Allocator
``repro.engine``       the Eq. (6) recurrence and its inputs: schedule
                       policies, straggler perturbations,
                       elastic-membership segments
``repro.session``      the front door: declarative ``PlanRequest``s,
                       profiling-reusing ``PlanSession``, pluggable planner
                       strategies (qsync/uniform/dpro/hessian/random)
``repro.service``      the serving tier: thread-safe coalescing
                       ``PlanService``, persistent on-disk profile store,
                       batched ``plan_many``
``repro.parallel``     synchronous hybrid mixed-precision data parallelism
``repro.train``        optimizers, synthetic datasets, metrics, evaluation
``repro.baselines``    UP, DBS, Hessian/Random indicators, Dpro replayer
``repro.experiments``  one harness per paper table/figure + sweep engine
=====================  =====================================================

Quickstart — a session amortizes profiling across what-if queries::

    from repro import PlanRequest, PlanSession
    from repro.hardware import make_cluster_a

    session = PlanSession()
    request = PlanRequest(model="vgg16", model_kwargs={"batch_size": 128},
                          cluster=make_cluster_a())
    outcome = session.plan(request)          # profiles once
    print(outcome.report.summary())

    table = session.compare(request)         # all strategies, zero re-profiling
    for name, o in table.items():
        print(name, f"{o.simulation.iteration_time * 1e3:.1f} ms")

Serving — many concurrent callers, persistence across restarts::

    from repro import PlanService

    service = PlanService(root="~/.cache/repro")   # warm-starts from disk
    outcome = service.plan(request)                # thread-safe, coalescing
"""

from repro.common import Precision

__version__ = "1.0.0"

__all__ = [
    "Precision",
    "Perturbation",
    "PlanOutcome",
    "PlanRequest",
    "PlanService",
    "PlanSession",
    "plan_many",
    "__version__",
]


def __getattr__(name: str):
    """Lazy session API exports (PEP 562), so ``import repro`` stays cheap
    for users who only need the substrate layers."""
    if name in ("PlanSession", "PlanRequest", "PlanOutcome", "Perturbation"):
        import repro.session as _session

        return getattr(_session, name)
    if name in ("PlanService", "plan_many"):
        import repro.service as _service

        return getattr(_service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
