"""Ablation: stochastic rounding vs flooring (paper §VIII, "Quantization by
Floor").

The paper's intriguing observation: replacing stochastic quantization with
simple flooring can also restore training quality.  This bench trains the
same INT8-worker configuration under both rounding modes and checks (a)
floor training still converges, and (b) stochastic rounding's *gradient*
remains unbiased while floor's is measurably biased — the theory gap that
makes SR the default.
"""

import numpy as np

from repro.common import Precision, new_rng
from repro.models import make_mini_model
from repro.parallel import DataParallelTrainer, WorkerConfig
from repro.quant import FixedPointQuantizer
from repro.tensor.qmodules import QuantizedOp
from repro.train import SGD, make_image_classification


def _train(rounding: str, epochs: int = 3) -> float:
    ds = make_image_classification(n_train=512, n_test=128, seed=0)
    model = make_mini_model("mini_vggbn")
    plan = QuantizedOp.uniform_plan(model, Precision.INT8)
    workers = [
        WorkerConfig(rank=0, batch_size=16, plan={}),
        WorkerConfig(rank=1, batch_size=16, plan=plan, rounding=rounding),
    ]
    trainer = DataParallelTrainer(
        model_factory=lambda s: make_mini_model("mini_vggbn", seed=s),
        workers=workers,
        optimizer_factory=lambda m: SGD(m, lr=0.05, momentum=0.9),
        seed=0,
    )
    return trainer.train(ds, epochs=epochs).final_accuracy


def test_floor_rounding_still_trains(once):
    accs = once(lambda: {r: _train(r) for r in ("stochastic", "floor")})
    # Both converge above chance — the paper's §VIII observation.
    assert accs["stochastic"] > 0.14
    assert accs["floor"] > 0.14


def test_floor_is_biased_stochastic_is_not():
    rng_data = new_rng(0)
    x = rng_data.normal(size=4096)
    sr = FixedPointQuantizer(bits=4, rounding="stochastic")
    fl = FixedPointQuantizer(bits=4, rounding="floor")
    trials = 200
    sr_mean = np.mean(
        [sr.fake_quantize(x, new_rng(1000 + t)) for t in range(trials)], axis=0
    )
    fl_out = fl.fake_quantize(x, new_rng(0))
    scale = sr.compute_qparams(x)[0].item()
    sr_bias = float(np.mean(sr_mean - x))
    fl_bias = float(np.mean(fl_out - x))
    # SR bias vanishes; floor bias is on the order of half a grid step.
    assert abs(sr_bias) < 0.05 * scale
    assert abs(fl_bias) > 0.25 * scale
