"""Indicator statistics (workflow step 2, "Indicator Statistics").

Proposition 3 needs, per adjustable operator: activation/weight/gradient
norms, dimensionalities, fixed-point scaling factors and effective exponents.
Two collection paths:

* :func:`collect_model_stats` — instrument a *real* trainable model and run
  a few iterations, recording running means (the paper uses the running mean
  of the first 50 iterations, at half batch size, Sec. IV-A).
* :func:`synthesize_stats` — for the full-size catalog graphs (which this
  reproduction cannot execute), generate statistics from the documented
  empirical regularities of trained DNNs: unit-scale activations whose
  norms grow with sqrt(elements), gradient magnitudes decaying with depth.
  This substitution is recorded in CONTRIBUTING.md "Substitutions".
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

import numpy as np

from repro.common.rng import derive_seed, new_rng
from repro.graph.dag import PrecisionDAG
from repro.quant.fixed_point import FixedPointQuantizer
from repro.quant.variance import effective_exponent
from repro.tensor.modules import Module
from repro.tensor.tensor import Tensor


@dataclasses.dataclass
class OperatorStats:
    """Running-mean statistics of one adjustable operator.

    Naming follows Eq. (4)/(5): ``v`` the input activation, ``x`` the
    weight, ``grad_v`` the activation gradient.
    """

    act_norm_sq: float = 0.0  # ||v_hat||^2
    weight_norm_sq: float = 0.0  # ||x||^2
    grad_norm_sq: float = 0.0  # ||grad_v||^2
    act_dims: int = 0  # D_v
    weight_dims: int = 0  # D_x
    grad_dims: int = 0  # D_grad_v
    act_scale: float = 0.0  # q_v (8-bit fixed-point scale)
    weight_scale: float = 0.0  # q_x
    act_exp: float = 0.0  # e_v
    weight_exp: float = 0.0  # e_x
    grad_exp: float = 0.0  # e_grad_v
    _counts: dict = dataclasses.field(default_factory=dict, repr=False)

    @property
    def samples(self) -> int:
        """Observations folded in (max over fields — forward and backward
        statistics arrive through separate hooks)."""
        return max(self._counts.values(), default=0)

    def update(self, **kwargs: float) -> None:
        """Fold one observation into the per-field running means."""
        for key, value in kwargs.items():
            if key.endswith("dims"):
                setattr(self, key, int(value))
                continue
            n = self._counts.get(key, 0)
            prev = getattr(self, key)
            setattr(self, key, (prev * n + float(value)) / (n + 1))
            self._counts[key] = n + 1


class StatsRecorder:
    """Forward/backward instrumentation target installed on modules.

    The module layer calls :meth:`record_forward` with the raw activation
    and weight arrays and :meth:`record_backward` with the activation
    gradient; everything needed by Eq. (4)/(5) is derived here so the hot
    path stays a handful of vectorized reductions.
    """

    def __init__(self) -> None:
        self.stats: dict[str, OperatorStats] = defaultdict(OperatorStats)
        self._quantizer = FixedPointQuantizer(bits=8)
        self.enabled = True

    def record_forward(self, key: str, activation: np.ndarray, weight: np.ndarray) -> None:
        if not self.enabled:
            return
        q_act = float(self._quantizer.compute_qparams(activation)[0].max())
        q_w = float(self._quantizer.compute_qparams(weight)[0].max())
        self.stats[key].update(
            act_norm_sq=float(np.sum(activation**2)),
            weight_norm_sq=float(np.sum(weight**2)),
            act_dims=activation.size,
            weight_dims=weight.size,
            act_scale=q_act,
            weight_scale=q_w,
            act_exp=effective_exponent(activation),
            weight_exp=effective_exponent(weight),
        )

    def record_backward(self, key: str, grad: np.ndarray) -> None:
        if not self.enabled:
            return
        self.stats[key].update(
            grad_norm_sq=float(np.sum(grad**2)),
            grad_dims=grad.size,
            grad_exp=effective_exponent(grad),
        )

    def snapshot(self) -> dict[str, OperatorStats]:
        return dict(self.stats)


def _probe(x: Tensor, recorder: StatsRecorder, key: str, weight: Tensor) -> Tensor:
    """Identity op that records forward stats now, backward stats later.

    Built with ``requires_grad=True`` unconditionally so the activation
    gradient reaches the probe even for the first layer (whose raw input is
    a constant) — the paper's Eq. (5) needs ``grad v`` for every adjustable
    operator.
    """
    recorder.record_forward(key, x.data, weight.data)

    def backward(g):
        recorder.record_backward(key, g)
        return (g,)

    return Tensor(
        x.data,
        requires_grad=True,
        parents=(x,),
        backward_fn=backward,
        op=f"stats_probe:{key}",
    )


def install_recorder(model: Module, recorder: StatsRecorder) -> list[str]:
    """Wrap every adjustable module's forward with a stats probe.

    Returns the instrumented module paths.  Monkey-patches bound ``forward``
    methods — acceptable for a profiling tool that owns the model instance.
    """
    from repro.tensor.qmodules import QuantizedOp

    instrumented = []
    for path, mod in QuantizedOp.adjustable_modules(model).items():
        original_forward = mod.forward

        def wrapped(x, _orig=original_forward, _mod=mod, _path=path):
            x = _probe(x, recorder, _path, _mod.weight)
            return _orig(x)

        mod.forward = wrapped
        instrumented.append(path)
    return instrumented


def collect_model_stats(
    model: Module,
    data_iter,
    loss_fn,
    iterations: int = 50,
) -> dict[str, OperatorStats]:
    """Run ``iterations`` forward/backward passes recording statistics.

    ``data_iter`` yields ``(inputs, labels)``; ``loss_fn(model, inputs,
    labels)`` returns a scalar Tensor.  No optimizer step is taken — the
    paper profiles statistics on (half-batch) replay of early training.
    """
    recorder = StatsRecorder()
    install_recorder(model, recorder)
    for it, (inputs, labels) in enumerate(data_iter):
        if it >= iterations:
            break
        model.zero_grad()
        loss = loss_fn(model, inputs, labels)
        loss.backward()
    return recorder.snapshot()


# ---------------------------------------------------------------------------
# synthesized statistics for non-executable (full-size) graphs
# ---------------------------------------------------------------------------


def synthesize_stats(dag: PrecisionDAG, seed: int = 0) -> dict[str, OperatorStats]:
    """Plausible statistics for every adjustable op of a catalog graph.

    Model: activations are ~unit-RMS (BN/LN-normalized nets), so
    ``||v||^2 ~ D_v``; weights follow He/Glorot scales; activation-gradient
    RMS decays geometrically with depth below the loss (deeper ops see
    larger gradients).  A lognormal per-op factor (deterministic in ``seed``)
    breaks ties so rankings are non-trivial.
    """
    stats: dict[str, OperatorStats] = {}
    d_max = dag.max_depth()
    for name in dag.adjustable_ops():
        spec = dag.spec(name)
        if not spec.has_weight:
            continue
        rng = new_rng(derive_seed(seed, "synth", name))
        depth = dag.depth(name)
        d_v = int(np.sum([dag.spec(p).output_elems for p in dag.predecessors(name)]))
        d_v = max(d_v, 1)
        d_x = spec.weight_elems
        d_g = spec.output_elems
        jitter = float(rng.lognormal(mean=0.0, sigma=0.25))
        act_rms = 1.0 * jitter
        fan_in = max(d_x // max(spec.weight_shape[0], 1), 1)
        weight_rms = float(np.sqrt(2.0 / fan_in))
        # Gradient RMS grows toward the loss: ops near the output see the
        # loss gradient nearly undamped.
        grad_rms = 1e-3 * (0.9 ** (d_max - depth)) * jitter
        s = OperatorStats(
            act_norm_sq=act_rms**2 * d_v,
            weight_norm_sq=weight_rms**2 * d_x,
            grad_norm_sq=grad_rms**2 * d_g,
            act_dims=d_v,
            weight_dims=d_x,
            grad_dims=d_g,
            # INT8 scale ~ range/255 with range ~ 8 RMS.
            act_scale=8.0 * act_rms / 255.0,
            weight_scale=8.0 * weight_rms / 255.0,
            act_exp=float(np.floor(np.log2(max(4.0 * act_rms, 1e-12)))),
            weight_exp=float(np.floor(np.log2(max(4.0 * weight_rms, 1e-12)))),
            grad_exp=float(np.floor(np.log2(max(4.0 * grad_rms, 1e-12)))),
        )
        stats[name] = s
    return stats
