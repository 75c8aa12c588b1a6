"""The Hessian (HAWQ-v3-style) sensitivity baseline [8].

"HESS computes the block-wise Hessian for each layer and calculates the top
eigenvalue, which is then divided by the parameter size and times the
introduced error of the quantization" (Sec. VII-A1).

Top eigenvalues come from power iteration with finite-difference
Hessian-vector products on the *weights* of each adjustable module:
``H v ≈ (∇L(w + εv) − ∇L(w)) / ε`` — the standard matrix-free scheme.  The
paper's critique — that this sees only the weight-loss curvature, not the
forward/backward kernel variance — is exactly what makes it lose to QSync's
indicator on ClusterB, and it emerges here for the same structural reason.
"""

from __future__ import annotations

import numpy as np

from repro.common.dtypes import Precision
from repro.common.rng import new_rng
from repro.profiling.stats import OperatorStats
from repro.quant.variance import fixed_point_variance
from repro.tensor.modules import Module
from repro.tensor.qmodules import QuantizedOp

#: Finite-difference step of the Hessian-vector products.
FD_EPS = 1e-3


def _model_grads(model: Module, loss_fn) -> dict[str, np.ndarray]:
    model.zero_grad()
    loss = loss_fn(model)
    loss.backward()
    return {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in model.named_parameters()
    }


def hessian_top_eigenvalues(
    model: Module,
    loss_fn,
    power_iters: int = 8,
    seed: int = 0,
) -> dict[str, float]:
    """Per-adjustable-module top Hessian eigenvalue (block-diagonal approx).

    Parameters
    ----------
    model:
        Executable model positioned at the weights to analyze.
    loss_fn:
        ``model -> scalar Tensor`` closure over a fixed data batch (the
        Hessian is of that batch's loss).
    power_iters:
        Power-iteration steps (HAWQ uses a handful; the eigenvalue gap of
        DNN blocks makes this converge fast).
    """
    rng = new_rng(seed)
    adjustable = QuantizedOp.adjustable_modules(model)
    base_grads = _model_grads(model, loss_fn)

    eigenvalues: dict[str, float] = {}
    for path, mod in adjustable.items():
        weight = mod.weight
        key = next(
            name for name, p in model.named_parameters() if p is weight
        )
        v = rng.normal(size=weight.data.shape)
        v /= np.linalg.norm(v) + 1e-30
        eig = 0.0
        original = weight.data.copy()
        for _ in range(power_iters):
            weight.data = original + FD_EPS * v
            grads_plus = _model_grads(model, loss_fn)
            weight.data = original
            hv = (grads_plus[key] - base_grads[key]) / FD_EPS
            eig = float(np.sum(v * hv))
            norm = np.linalg.norm(hv)
            if norm < 1e-30:
                break
            v = hv / norm
        weight.data = original
        eigenvalues[path] = abs(eig)
    model.zero_grad()
    return eigenvalues


def structural_eigenvalues(dag, stats: dict[str, OperatorStats]) -> dict[str, float]:
    """Gauss–Newton curvature proxy for graph-scale (non-executable) models.

    Power iteration needs real gradients, which the full-size catalog
    graphs don't have.  For a linear map the Gauss–Newton weight-block
    Hessian is ``x^T H_out x``, so its top eigenvalue scales with the
    squared input-activation norm — the same "weight-loss curvature only"
    view the paper critiques.  Deterministic in the profiled statistics,
    so plans (and parity tests) are reproducible without an executable
    twin.
    """
    return {
        op: float(stats[op].act_norm_sq)
        for op in dag.adjustable_ops()
        if op in stats
    }


class HessianIndicator:
    """HAWQ-style sensitivity conforming to :class:`IndicatorProtocol`.

    ``omega(op, INT8) = top_eig(op) / n_params(op) * E[||Q(w) - w||^2]``;
    the floating-point indicator is the fixed-point one halved per precision
    step, exactly the comparison protocol of Sec. VII-A1.
    """

    def __init__(
        self,
        eigenvalues: dict[str, float],
        stats: dict[str, OperatorStats],
    ) -> None:
        self.eigenvalues = eigenvalues
        self.stats = stats

    def omega(self, op: str, precision: Precision) -> float:
        if precision is Precision.FP32:
            return 0.0
        if op not in self.eigenvalues:
            raise KeyError(f"no Hessian eigenvalue for {op!r}")
        s = self.stats[op]
        quant_err = fixed_point_variance(s.weight_scale, s.weight_dims)
        base = self.eigenvalues[op] / max(s.weight_dims, 1) * quant_err
        if precision is Precision.INT8:
            return base
        # FP16: halved from the fixed-point base (the paper's protocol).
        return base / 2.0
