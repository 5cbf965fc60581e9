"""Velocity network: a small transformer over latent frames.

Input tokens are per-frame concatenations of the noisy latent with the
frame-conditioning stream fused with a time embedding.  Each block runs
self-attention over frames, cross-attention against the variable-length
context stream (skipped when the context is empty), and an MLP, all as
pre-layernorm residual sublayers.  The final projection back to latent
width is zero-initialized so an untrained model predicts zero velocity.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concatenate,
    gelu,
    layer_norm,
    matmul,
    mul,
    reshape,
    scaled_dot_product_attention,
    stack,
)
from .conditioning import Conditioner, ToyTokenProvider
from .optim import ParamStore, fan_in_normal, ones, zeros

#: additive attention-score penalty for padded context keys
MASK_PENALTY = -1e9


@dataclass(frozen=True)
class ModelConfig:
    """Shapes of the velocity network and its conditioning streams.

    The desk-scale defaults (4 blocks, width 64, 4 heads) are what every
    experiment and test runs. The production shape, far outside desk
    budgets, is ``ModelConfig(d_mm=2048, d_trans=512, d_high=2048,
    width=2048, depth=36, heads=32)`` with the other fields at their
    defaults.
    """

    d_lat: int = 100
    d_mel: int = 100
    d_sync: int = 8
    d_mm: int = 16
    d_trans: int = 16
    d_high: int = 32
    width: int = 64
    depth: int = 4
    heads: int = 4
    mlp_ratio: int = 4
    time_basis: int = 64

    def __post_init__(self) -> None:
        for name in (
            "d_lat", "d_mel", "d_sync", "d_mm", "d_trans", "d_high",
            "width", "depth", "heads", "mlp_ratio", "time_basis",
        ):
            if type(value := getattr(self, name)) is not int:  # bool included
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.width % self.heads:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")
        if self.time_basis % 2:
            raise ValueError("time_basis must be even")

    @property
    def d_low(self) -> int:
        return self.d_sync + self.d_mel


def time_features(t, dim: int) -> np.ndarray:
    """Sinusoidal features ``[sin(t*w_i)..., cos(t*w_i)...]``.

    The ``dim // 2`` angular rates run geometrically from 1 to 1e4.  At
    ``t = 0`` the sin half is all zeros and the cos half all ones.  A
    scalar ``t`` gives ``[dim]``; an array of times gives ``[..., dim]``.
    """
    if dim < 2 or dim % 2:
        raise ValueError(f"time feature dim must be even and >= 2, got {dim}")
    rates = np.geomspace(1.0, 1e4, dim // 2)
    phase = np.multiply.outer(np.asarray(t, dtype=np.float64), rates)
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=-1)


class TimeEmbedding:
    """Sinusoidal time features refined by a learned 2-layer MLP."""

    def __init__(self, store: ParamStore, basis_dim: int, d_out: int) -> None:
        self.basis_dim = int(basis_dim)
        self.w1 = store.declare("time.w1", (basis_dim, basis_dim), fan_in_normal)
        self.b1 = store.declare("time.b1", (basis_dim,), zeros)
        self.w2 = store.declare("time.w2", (basis_dim, d_out), fan_in_normal)
        self.b2 = store.declare("time.b2", (d_out,), zeros)

    def embed_batch(self, ts) -> Tensor:
        """Embed a vector of times into ``[len(ts), d_out]``."""
        feats = time_features(np.atleast_1d(ts), self.basis_dim)
        feats = Tensor(feats.astype(self.w1.data.dtype))
        h = gelu(matmul(feats, self.w1, self.b1))
        return matmul(h, self.w2, self.b2)


#: guards every model's ``forward_count``, so forwards on several threads all count
_FORWARD_COUNT_LOCK = threading.Lock()


class FlowModel:
    """The velocity network plus its conditioning front end.

    All trainable parameters (transformer, time MLP, transcript encoder,
    adapters, and the optional toy token table) live in one named store
    so the optimizer and checkpoints see a single flat list. They are drawn
    from ``seed``, or taken from the checkpoint records in ``loaded``.
    """

    def __init__(
        self,
        config: ModelConfig,
        seed: int = 0,
        toy_vocab=None,
        dtype=np.float32,
        loaded: ParamStore | None = None,
    ) -> None:
        self.config = config
        self.dtype = dtype
        self.params = store = ParamStore(seed, dtype, loaded)
        self.step = 0
        self.forward_count = 0
        self.toy_vocab = list(toy_vocab) if toy_vocab is not None else None

        mm_provider = None
        if self.toy_vocab is not None:
            mm_provider = ToyTokenProvider(self.toy_vocab, config.d_mm, store)
        self.conditioner = Conditioner(
            store, d_high=config.d_high, d_mm=config.d_mm, d_trans=config.d_trans,
            d_sync=config.d_sync, d_mel=config.d_mel, mm_provider=mm_provider,
        )
        self.time_embed = TimeEmbedding(store, config.time_basis, config.d_low)

        W, H, hidden = config.width, config.d_high, config.mlp_ratio * config.width
        self.in_w = store.declare("dit.in.w", (config.d_lat + config.d_low, W), fan_in_normal)
        self.in_b = store.declare("dit.in.b", (W,), zeros)
        self.blocks = []
        for i in range(config.depth):
            name = f"dit.block{i}"
            blk = {}
            for ln in ("ln1", "ln2", "ln3"):
                blk[f"{ln}_g"] = store.declare(f"{name}.{ln}.g", (W,), ones)
                blk[f"{ln}_b"] = store.declare(f"{name}.{ln}.b", (W,), zeros)
            for proj in ("q", "k", "v", "o", "cq", "co", "ck", "cv"):
                d_in = H if proj in ("ck", "cv") else W
                blk[f"{proj}_w"] = store.declare(f"{name}.{proj}.w", (d_in, W), fan_in_normal)
                blk[f"{proj}_b"] = store.declare(f"{name}.{proj}.b", (W,), zeros)
            blk["mlp_w1"] = store.declare(f"{name}.mlp.w1", (W, hidden), fan_in_normal)
            blk["mlp_b1"] = store.declare(f"{name}.mlp.b1", (hidden,), zeros)
            blk["mlp_w2"] = store.declare(f"{name}.mlp.w2", (hidden, W), fan_in_normal)
            blk["mlp_b2"] = store.declare(f"{name}.mlp.b2", (W,), zeros)
            self.blocks.append(blk)
        self.final_g = store.declare("dit.final_ln.g", (W,), ones)
        self.final_b = store.declare("dit.final_ln.b", (W,), zeros)
        self.out_w = store.declare("dit.out.w", (W, config.d_lat), zeros)
        self.out_b = store.declare("dit.out.b", (config.d_lat,), zeros)

    # -- forward ----------------------------------------------------------

    def _forward(
        self,
        x_t: Tensor,
        t_vec,
        high_tokens: Tensor | None,
        high_valid: np.ndarray | None,
        low: Tensor,
    ) -> Tensor:
        """Batched core: ``[B, T, d_lat]`` plus conditioning to ``[B, T, d_lat]``.

        Rejects a latent, frame-stream or context width that does not
        match the config with ``ValueError``.
        """
        cfg = self.config
        B, T, d = x_t.data.shape
        if d != cfg.d_lat:
            raise ValueError(f"latent width {d} does not match model d_lat {cfg.d_lat}")
        if low.data.shape[-1] != cfg.d_low:
            raise ValueError(
                f"frame stream width {low.data.shape[-1]} does not match d_low {cfg.d_low}"
            )
        if high_tokens is not None and high_tokens.data.shape[-1] != cfg.d_high:
            raise ValueError(
                f"context width {high_tokens.data.shape[-1]} does not match "
                f"d_high {cfg.d_high}"
            )
        with _FORWARD_COUNT_LOCK:
            self.forward_count += 1

        te = reshape(self.time_embed.embed_batch(t_vec), (B, 1, cfg.d_low))
        tokens = concatenate([x_t, add(low, te)], axis=-1)
        x = matmul(tokens, self.in_w, self.in_b)

        mask = indicator = None
        if high_tokens is not None and not high_valid.all():
            mask = np.where(high_valid[:, None, None, :], 0.0, MASK_PENALTY).astype(x.data.dtype)
            # items with an empty context get no cross-attention output at all
            per_item = high_valid.any(axis=1)
            if not per_item.all():
                indicator = Tensor(per_item.astype(x.data.dtype).reshape(B, 1, 1))

        for blk in self.blocks:
            h = layer_norm(x, blk["ln1_g"], blk["ln1_b"])
            q = matmul(h, blk["q_w"], blk["q_b"])
            k = matmul(h, blk["k_w"], blk["k_b"])
            v = matmul(h, blk["v_w"], blk["v_b"])
            att = scaled_dot_product_attention(q, k, v, heads=cfg.heads)
            x = add(x, matmul(att, blk["o_w"], blk["o_b"]))

            if high_tokens is not None:
                h = layer_norm(x, blk["ln2_g"], blk["ln2_b"])
                q = matmul(h, blk["cq_w"], blk["cq_b"])
                ck = matmul(high_tokens, blk["ck_w"], blk["ck_b"])
                cv = matmul(high_tokens, blk["cv_w"], blk["cv_b"])
                att = scaled_dot_product_attention(q, ck, cv, mask=mask, heads=cfg.heads)
                out = matmul(att, blk["co_w"], blk["co_b"])
                if indicator is not None:
                    out = mul(out, indicator)
                x = add(x, out)

            h = layer_norm(x, blk["ln3_g"], blk["ln3_b"])
            h = gelu(matmul(h, blk["mlp_w1"], blk["mlp_b1"]))
            h = matmul(h, blk["mlp_w2"], blk["mlp_b2"])
            x = add(x, h)

        h = layer_norm(x, self.final_g, self.final_b)
        return matmul(h, self.out_w, self.out_b)


def collate_bundles(bundles, dtype=np.float32):
    """Batch bundles: stacked frame streams, padded context, validity.

    Context sequences are zero-padded to the longest length; ``high_valid``
    marks each item's first ``length`` positions, so padding is the only
    thing cross-attention masks.  Gradients still flow into each item's
    real tokens.  Returns ``(high_tokens, high_valid, low)`` where the
    first two are None when every context is empty.
    """
    Ts = {b.low.frame_count for b in bundles}
    if len(Ts) != 1:
        raise ValueError(f"bundles must share one frame count, got {sorted(Ts)}")
    widths = {b.low.width for b in bundles}
    if len(widths) != 1:
        raise ValueError(f"bundles must share one frame width, got {sorted(widths)}")
    low = Tensor(np.stack([b.low.frames for b in bundles]).astype(dtype))

    l_max = max(b.high.length for b in bundles)
    if l_max == 0:
        return None, None, low
    d_high = {b.high.width for b in bundles}
    if len(d_high) != 1:
        raise ValueError(f"context widths differ: {sorted(d_high)}")
    (dh,) = d_high
    padded = []
    valid = np.zeros((len(bundles), l_max), dtype=bool)
    for i, b in enumerate(bundles):
        tok = b.high.tokens
        L = b.high.length
        if L < l_max:
            pad = Tensor(np.zeros((l_max - L, dh), dtype=tok.data.dtype))
            tok = concatenate([tok, pad], axis=0) if L else pad
        padded.append(tok)
        valid[i, :L] = True
    return stack(padded, axis=0), valid, low
