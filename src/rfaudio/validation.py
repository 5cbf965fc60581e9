"""Float64 gradient validation: every autodiff op plus the full flow loss.

The op suite runs one curated central-difference check per primitive with
small random float64 tensors, weighting each op's output by a fixed random
tensor so the verified gradients are non-trivial. The model suite rebuilds
a tiny flow transformer in float64 and checks the end-to-end training loss
against central differences over every parameter, conditioning adapters and
transcript encoder included.

Budgets: the op checks target max relative error < 1e-5, the full-model
check < 1e-4, and the whole suite is sized to finish in well under a
minute.
"""

from __future__ import annotations

import time

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, gradcheck
from .conditioning import FrameFeatures
from .model import FlowModel, ModelConfig, collate_bundles

OP_TOLERANCE = 1e-5
MODEL_TOLERANCE = 1e-4


def _t(rng: np.random.Generator, *shape, scale: float = 1.0, offset: float = 0.0) -> Tensor:
    return Tensor(offset + scale * rng.standard_normal(shape), requires_grad=True)


def _const(rng: np.random.Generator, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=False)


def op_gradcheck_cases(seed: int = 0):
    """(name, scalar function, live inputs) for every differentiable op."""
    rng = np.random.default_rng(seed)
    cases = []

    def case(name, f, inputs):
        cases.append((name, f, inputs))

    w_a = _const(rng, 3, 4)
    case("add", lambda xs: ad.tsum(ad.mul(ad.add(xs[0], xs[1]), w_a)),
         [_t(rng, 3, 4), _t(rng, 4)])
    case("mul", lambda xs: ad.tsum(ad.mul(ad.mul(xs[0], xs[1]), w_a)),
         [_t(rng, 3, 4), _t(rng, 3, 1)])
    w_mm = _const(rng, 3, 2)
    case("matmul", lambda xs: ad.tsum(ad.mul(ad.matmul(xs[0], xs[1]), w_mm)),
         [_t(rng, 3, 4), _t(rng, 4, 2)])
    w_rs = _const(rng, 4, 3)
    case("reshape", lambda xs: ad.tsum(ad.mul(ad.reshape(xs[0], (4, 3)), w_rs)),
         [_t(rng, 2, 6)])
    w_tr = _const(rng, 3, 2, 2)
    case("transpose", lambda xs: ad.tsum(ad.mul(ad.transpose(xs[0], (1, 0, 2)), w_tr)),
         [_t(rng, 2, 3, 2)])
    w_cat = _const(rng, 2, 7)
    case("concatenate",
         lambda xs: ad.tsum(ad.mul(ad.concatenate(list(xs), axis=1), w_cat)),
         [_t(rng, 2, 3), _t(rng, 2, 1), _t(rng, 2, 3)])
    w_stk = _const(rng, 3, 2, 2)
    case("stack", lambda xs: ad.tsum(ad.mul(ad.stack(list(xs), axis=0), w_stk)),
         [_t(rng, 2, 2), _t(rng, 2, 2), _t(rng, 2, 2)])
    w_sum = _const(rng, 1, 4)
    case("tsum", lambda xs: ad.tsum(ad.mul(ad.tsum(xs[0], axis=0, keepdims=True), w_sum)),
         [_t(rng, 3, 4)])
    case("tmean", lambda xs: ad.tmean(ad.mul(xs[0], w_a)), [_t(rng, 3, 4)])
    w_ln = _const(rng, 2, 3, 6)
    case("layer_norm",
         lambda xs: ad.tsum(ad.mul(ad.layer_norm(xs[0], xs[1], xs[2]), w_ln)),
         [_t(rng, 2, 3, 6), _t(rng, 6, offset=1.0, scale=0.1), _t(rng, 6, scale=0.1)])
    case("gelu", lambda xs: ad.tsum(ad.mul(ad.gelu(xs[0]), w_a)), [_t(rng, 3, 4)])
    idx = rng.integers(0, 7, size=5)
    w_emb = _const(rng, 5, 4)
    case("embedding", lambda xs: ad.tsum(ad.mul(ad.embedding(xs[0], idx), w_emb)),
         [_t(rng, 7, 4)])
    w_dw = _const(rng, 2, 9, 3)
    case("depthwise_conv1d",
         lambda xs: ad.tsum(ad.mul(ad.depthwise_conv1d(xs[0], xs[1]), w_dw)),
         [_t(rng, 2, 9, 3), _t(rng, 5, 3)])
    mask = np.zeros((2, 2, 4, 4))
    mask[:, :, :, -1] = -1e9
    w_at = _const(rng, 2, 2, 4, 3)
    case("scaled_dot_product_attention",
         lambda xs: ad.tsum(ad.mul(
             ad.scaled_dot_product_attention(xs[0], xs[1], xs[2], mask=mask), w_at)),
         [_t(rng, 2, 2, 4, 3), _t(rng, 2, 2, 4, 3), _t(rng, 2, 2, 4, 3)])
    w_mb = _const(rng, 2, 3, 2)
    case("matmul_bias", lambda xs: ad.tsum(ad.mul(ad.matmul(xs[0], xs[1], xs[2]), w_mb)),
         [_t(rng, 2, 3, 4), _t(rng, 4, 2), _t(rng, 2)])
    key_mask = np.zeros((2, 1, 1, 4))
    key_mask[0, ..., -1] = -1e9
    w_ah = _const(rng, 2, 3, 4)
    case("scaled_dot_product_attention_heads",
         lambda xs: ad.tsum(ad.mul(ad.scaled_dot_product_attention(
             xs[0], xs[1], xs[2], mask=key_mask, heads=2), w_ah)),
         [_t(rng, 2, 3, 6), _t(rng, 2, 4, 6), _t(rng, 2, 4, 4)])
    return cases


def check_ops(seed: int = 0) -> dict[str, float]:
    """Run every op case; returns op name -> max relative gradient error."""
    return {name: gradcheck(f, inputs) for name, f, inputs in op_gradcheck_cases(seed)}


def check_flow_model(seed: int = 0) -> float:
    """Central-difference check of the full training loss at tiny dims.

    Builds a float64 model (one block, width 4) with a one-word toy
    vocabulary, assembles a fully populated conditioning bundle through the
    live adapters and transcript encoder, and differentiates the squared
    velocity error with respect to every parameter in the store.
    """
    config = ModelConfig(
        d_lat=2, d_mel=2, d_sync=1, d_mm=3, d_trans=3, d_high=4,
        width=4, depth=1, heads=2, mlp_ratio=2, time_basis=4,
    )
    model = FlowModel(config, seed=seed, toy_vocab=["dog"], dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    frames = 3
    x_t = Tensor(rng.standard_normal((1, frames, config.d_lat)))
    mel = FrameFeatures(rng.standard_normal((frames, config.d_mel)))
    target = Tensor(rng.standard_normal((1, frames, config.d_lat)))
    params = [p.tensor for p in model.params]

    def loss(_inputs):
        bundle = model.conditioner.assemble(
            frames, instruction="dog", transcript="dog", mel=mel
        )
        high_tokens, high_valid, low = collate_bundles([bundle], dtype=model.dtype)
        out = model._forward(x_t, np.array([0.4]), high_tokens, high_valid, low)
        diff = out - target
        return ad.tmean(diff * diff)

    return gradcheck(loss, params)


def run_validation(seed: int = 0) -> dict:
    """Full gradient report: per-op errors, model error, pass verdict."""
    start = time.perf_counter()
    ops = check_ops(seed)
    flow_err = check_flow_model(seed)
    elapsed = time.perf_counter() - start
    passed = max(ops.values()) < OP_TOLERANCE and flow_err < MODEL_TOLERANCE
    return {
        "ops": {name: float(err) for name, err in sorted(ops.items())},
        "ops_max": float(max(ops.values())),
        "flow_loss": float(flow_err),
        "tolerances": {"ops": OP_TOLERANCE, "flow_loss": MODEL_TOLERANCE},
        "passed": bool(passed),
        "runtime_s": round(elapsed, 3),
    }
