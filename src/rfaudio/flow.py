"""Rectified-flow objective, training loop, guided ODE sampler, codec.

Latents follow the straight-line path x_t = (1-t) x0 + t x1 with x1 a
standard normal draw; the network regresses the constant velocity
x1 - x0.  Sampling integrates dx/dt = v backwards from t = 1 to 0 with
an Euler or midpoint rule, optionally combining conditional and
unconditional predictions with classifier-free guidance.  The latent
codec is an exactly invertible per-channel normalization of log-mel
frames, standing in for a learned autoencoder so every round trip stays
auditable.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, no_grad, tmean
from .conditioning import (
    CONDITION_DROPOUT_P,
    ConditioningBundle,
    condition_dropout,
    null_bundle,
)
from .model import FlowModel, ModelConfig, collate_bundles
from .optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_LR,
    ADAM_WEIGHT_DECAY,
    adamw_step,
    load_checkpoint,
    save_checkpoint,
)
from .spectral import MelConfig, MelSpectrogram

logger = logging.getLogger("rfaudio.flow")

#: reference sampler defaults
SAMPLER_STEPS = 100
GUIDANCE_SCALE = 6.0


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or the updated weights stop being finite."""

    def __init__(self, step: int, what: str) -> None:
        super().__init__(f"{what} at step {step}")
        self.step = step


class CodecError(RuntimeError):
    """Raised when the latent codec is used before its stats are fitted."""


def as_latent(x) -> np.ndarray:
    """Validate a latent sequence: finite 2-D [T, D] with T >= 1."""
    arr = np.asarray(x)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"latent must be [T >= 1, D], got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("latent contains non-finite values")
    return arr


# ---------------------------------------------------------------------------
# path algebra
# ---------------------------------------------------------------------------


def interpolate(x0, x1, t: float) -> np.ndarray:
    """Straight-line point (1-t) x0 + t x1; callers check finiteness (:func:`as_latent`)."""
    a, b = np.asarray(x0), np.asarray(x1)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if t == 0.0:
        return a.copy()
    if t == 1.0:
        return b.copy()
    return (1.0 - t) * a + t * b


def target_velocity(x0, x1) -> np.ndarray:
    """The constant velocity x1 - x0 of the straight-line path."""
    a, b = np.asarray(x0), np.asarray(x1)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return b - a


def cfg_velocity(v_cond, v_uncond, scale: float) -> np.ndarray:
    """Guided velocity v_uncond + scale * (v_cond - v_uncond).

    scale 1 returns the conditional field exactly and scale 0 the
    unconditional one, bypassing the arithmetic.
    """
    c, u = np.asarray(v_cond), np.asarray(v_uncond)
    if c.shape != u.shape:
        raise ValueError(f"shape mismatch: {c.shape} vs {u.shape}")
    if scale == 1.0:
        return c.copy()
    if scale == 0.0:
        return u.copy()
    return u + scale * (c - u)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def rf_loss(
    batch,
    model: FlowModel,
    rng: np.random.Generator,
    dropout_p: float = CONDITION_DROPOUT_P,
) -> Tensor:
    """Mean squared error between predicted and target velocity.

    Per item: t ~ Uniform(0,1), x1 ~ N(0,I), the conditioning possibly
    dropped to null, one batched forward at x_t.  Returns the scalar
    loss tensor (call ``.backward()`` on it to populate gradients).
    """
    if not batch:
        raise ValueError("empty batch")
    items = []
    for x0, bundle in batch:
        arr = as_latent(x0)
        if bundle.low.frame_count != arr.shape[0]:
            raise ValueError(
                f"frame stream has {bundle.low.frame_count} frames, "
                f"latent has {arr.shape[0]}"
            )
        items.append((arr, condition_dropout(bundle, dropout_p, rng)))

    ts, xts, targets = [], [], []
    for arr, _ in items:
        t = float(rng.uniform())
        x1 = rng.standard_normal(arr.shape)
        x0f = arr.astype(np.float64)
        ts.append(t)
        xts.append(interpolate(x0f, x1, t))
        targets.append(target_velocity(x0f, x1))

    dtype = model.dtype
    high, valid, low = collate_bundles([b for _, b in items], dtype=dtype)
    x_t = Tensor(np.stack(xts).astype(dtype))
    target = Tensor(np.stack(targets).astype(dtype))
    out = model._forward(x_t, np.array(ts), high, valid, low)
    diff = out - target
    return tmean(diff * diff)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and batching settings for :func:`train`."""

    lr: float = ADAM_LR
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    weight_decay: float = ADAM_WEIGHT_DECAY
    eps: float = ADAM_EPS
    batch_size: int = 8
    dropout_p: float = CONDITION_DROPOUT_P
    log_every: int = 200

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.lr < 0:
            raise ValueError("lr must be non-negative")


class TrainResult(NamedTuple):
    model: FlowModel
    losses: list


def _batch_iter(dataset, batch_size: int):
    """Group dataset items into fixed-size batches, restarting on exhaustion."""
    it = iter(dataset)
    fresh = True
    while True:
        batch = []
        while len(batch) < batch_size:
            try:
                batch.append(next(it))
                fresh = False
            except StopIteration:
                if fresh:
                    raise ValueError(
                        "dataset yielded no items (exhausted or empty); "
                        "provide a re-iterable or infinite dataset"
                    ) from None
                it = iter(dataset)
                fresh = True
        yield batch


def train(
    model: FlowModel,
    dataset,
    steps: int,
    opt: TrainConfig | None = None,
    seed: int = 0,
) -> TrainResult:
    """Optimize ``model`` for ``steps`` AdamW updates over ``dataset``.

    ``dataset`` is an iterable of (x0, bundle) pairs; it is re-iterated
    when exhausted.  Deterministic given the seed and the dataset order.
    A non-finite loss, or an update that leaves a weight non-finite, halts
    immediately with the failing step index.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    opt = opt if opt is not None else TrainConfig()
    rng = np.random.default_rng(seed)
    batches = _batch_iter(dataset, opt.batch_size)
    losses: list[float] = []
    # pack before the first tape, so its allocations reuse the freed per-parameter arrays
    model.params.packed()
    for k in range(steps):
        batch = next(batches)
        model.params.zero_grads()
        loss = rf_loss(batch, model, rng, opt.dropout_p)
        value = float(loss.data)
        if not np.isfinite(value):
            raise TrainingDiverged(k, f"non-finite loss {value}")
        loss.backward()
        model.step += 1
        adamw_step(
            model.params,
            model.step,
            lr=opt.lr,
            beta1=opt.beta1,
            beta2=opt.beta2,
            weight_decay=opt.weight_decay,
            eps=opt.eps,
        )
        if not model.params.all_finite():
            raise TrainingDiverged(k, "non-finite weights after the update")
        losses.append(value)
        if opt.log_every and (k + 1) % opt.log_every == 0:
            recent = np.mean(losses[-opt.log_every :])
            logger.info("step %d: loss %.6f (mean of last %d)", k + 1, recent, opt.log_every)
    return TrainResult(model, losses)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    """ODE solver settings; defaults follow the reference recipe."""

    steps: int = SAMPLER_STEPS
    guidance_scale: float = GUIDANCE_SCALE
    solver: str = "euler"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.guidance_scale < 0:
            raise ValueError("guidance_scale must be non-negative")
        if self.solver not in ("euler", "midpoint"):
            raise ValueError(f"unknown solver {self.solver!r}")


def sample(
    model,
    bundle: ConditioningBundle,
    shape,
    cfg: SamplerConfig | None = None,
) -> np.ndarray:
    """Integrate the learned field from noise at t = 1 down to t = 0.

    A one-item :func:`sample_batch`: the state is kept in float64
    throughout; with guidance scale 1 each step costs exactly one forward
    pass, otherwise the conditional and null-bundle predictions are
    combined.  Deterministic given the seed.  Returns [T, D].
    """
    return sample_batch(model, [bundle], shape, cfg)[0]


def _forward_batch(model, x: np.ndarray, t: float, collated) -> np.ndarray:
    # x stays float64; the network promotes it against its own parameter dtype.
    high, valid, low = collated
    ts = np.full(x.shape[0], t)
    with no_grad():
        out = model._forward(Tensor(x), ts, high, valid, low)
    return np.asarray(out.data, dtype=np.float64)


def _guided_velocity_batch(model, x, t, collated, null_collated, scale) -> np.ndarray:
    v_cond = _forward_batch(model, x, t, collated)
    if null_collated is None:
        return v_cond
    v_uncond = _forward_batch(model, x, t, null_collated)
    return cfg_velocity(v_cond, v_uncond, scale)


def sample_batch(
    model,
    bundles,
    shape,
    cfg: SamplerConfig | None = None,
) -> np.ndarray:
    """Integrate one independent latent per bundle, batched per solver step.

    The noise is one [B, T, D] draw from the sampler seed, so a batch is
    deterministic under its seed and a one-item batch is :func:`sample`.
    Returns [B, T, D].
    """
    cfg = cfg if cfg is not None else SamplerConfig()
    bundles = list(bundles)
    if not bundles:
        raise ValueError("sample_batch needs at least one bundle")
    T, D = int(shape[0]), int(shape[1])
    if T < 1 or D < 1:
        raise ValueError(f"invalid latent shape {(T, D)}")
    for bundle in bundles:
        if bundle.low.frame_count != T:
            raise ValueError(
                f"frame stream has {bundle.low.frame_count} frames, requested {T}"
            )
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((len(bundles), T, D))
    collated = collate_bundles(bundles, dtype=model.dtype)
    null_collated = None
    if cfg.guidance_scale != 1.0:
        null_collated = collate_bundles(
            [null_bundle(b) for b in bundles], dtype=model.dtype
        )
    dt = 1.0 / cfg.steps
    for k in range(cfg.steps):
        t = 1.0 - k / cfg.steps
        if cfg.solver == "euler":
            v = _guided_velocity_batch(model, x, t, collated, null_collated, cfg.guidance_scale)
            x = x - dt * v
        else:
            v1 = _guided_velocity_batch(model, x, t, collated, null_collated, cfg.guidance_scale)
            xm = x - 0.5 * dt * v1
            v2 = _guided_velocity_batch(
                model, xm, t - 0.5 * dt, collated, null_collated, cfg.guidance_scale
            )
            x = x - dt * v2
    return x


# ---------------------------------------------------------------------------
# latent codec
# ---------------------------------------------------------------------------


class LatentCodec:
    """Identity codec: per-channel normalization of log-mel frames.

    ``encode`` maps float32 mel frames to float64 latents
    ``(m - mean) / std`` with stats fitted on a corpus; ``decode``
    inverts in float64 and rounds once back to float32, which recovers
    the original frames bit-exactly for the value range log-mels occupy.
    """

    def __init__(self, config: MelConfig) -> None:
        self.config = config
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self.mean is not None

    def fit(self, mels) -> "LatentCodec":
        """Fit per-channel mean/std over all frames of all corpus items."""
        frames = []
        for m in mels:
            arr = m.frames if isinstance(m, MelSpectrogram) else np.asarray(m)
            if arr.ndim != 2 or arr.shape[1] != self.config.n_mels:
                raise ValueError(f"expected [T, {self.config.n_mels}] frames")
            frames.append(arr.astype(np.float64))
        if not frames:
            raise ValueError("cannot fit codec stats on an empty corpus")
        stacked = np.concatenate(frames, axis=0)
        self.mean = stacked.mean(axis=0)
        self.std = np.maximum(stacked.std(axis=0), 1e-12)
        return self

    def encode(self, mel) -> np.ndarray:
        if not self.fitted:
            raise CodecError("codec stats not fitted; call fit() or load them")
        if isinstance(mel, MelSpectrogram):
            if mel.config != self.config:
                raise ValueError("mel configuration does not match the codec")
            arr = mel.frames
        else:
            arr = np.asarray(mel)
            if arr.ndim != 2 or arr.shape[1] != self.config.n_mels:
                raise ValueError(f"expected [T, {self.config.n_mels}] frames")
        return (arr.astype(np.float64) - self.mean) / self.std

    def decode(self, latent) -> MelSpectrogram:
        if not self.fitted:
            raise CodecError("codec stats not fitted; call fit() or load them")
        arr = as_latent(latent)
        if arr.shape[1] != self.config.n_mels:
            raise ValueError(f"latent width {arr.shape[1]} != n_mels {self.config.n_mels}")
        frames = (arr.astype(np.float64) * self.std + self.mean).astype(np.float32)
        log_floor = np.float32(np.log(np.float64(self.config.log_floor)))
        return MelSpectrogram(self.config, np.maximum(frames, log_floor))

    def to_dict(self) -> dict:
        if not self.fitted:
            raise CodecError("codec stats not fitted")
        return {
            "mel": asdict(self.config),
            "mean": [float(v) for v in self.mean],
            "std": [float(v) for v in self.std],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LatentCodec":
        codec = cls(MelConfig(**d["mel"]))
        codec.mean = np.array(d["mean"], dtype=np.float64)
        codec.std = np.array(d["std"], dtype=np.float64)
        if codec.mean.shape != (codec.config.n_mels,) or codec.std.shape != (
            codec.config.n_mels,
        ):
            raise ValueError("codec stats do not match the mel channel count")
        return codec


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def save_model(path, model: FlowModel, codec: LatentCodec | None = None, seed=None) -> None:
    """Write the parameter checkpoint plus a JSON sidecar.

    The sidecar records the model config, the toy vocabulary when one is
    bundled, the codec normalization stats, and the training seed, so
    :func:`load_model` can rebuild the exact model.
    """
    save_checkpoint(path, model.params, model.step)
    meta = {
        "config": asdict(model.config),
        "toy_vocab": model.toy_vocab,
        "seed": seed,
        "step": model.step,
        "stats": codec.to_dict() if codec is not None and codec.fitted else None,
    }
    _sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True))


def load_model(path):
    """Rebuild (model, codec, meta) from a checkpoint and its sidecar.

    Custom replay providers are not serialized; re-attach them on the
    returned model's conditioner if the original used any.
    """
    store, step = load_checkpoint(path)
    meta, config, codec = _read_sidecar(path)
    model = FlowModel(config, seed=meta.get("seed") or 0, toy_vocab=meta.get("toy_vocab"))
    loaded = set(store.names())
    expected = set(model.params.names())
    if loaded != expected:
        missing = sorted(expected - loaded)
        extra = sorted(loaded - expected)
        raise ValueError(
            f"checkpoint does not match the model: missing {missing}, extra {extra}"
        )
    for p in model.params:
        q = store[p.name]
        if q.data.shape != p.data.shape:
            raise ValueError(
                f"parameter {p.name!r} has shape {q.data.shape}, expected {p.data.shape}"
            )
        p.data[...] = q.data
        p.m[...] = q.m
        p.v[...] = q.v
    model.step = step
    return model, codec, meta


def _read_sidecar(path):
    """(meta, ModelConfig, codec or None) from a checkpoint's JSON sidecar.

    A sidecar that is not an object, or whose ``config``, ``seed``,
    ``toy_vocab`` or ``stats`` is missing or malformed, raises ``ValueError``
    naming the sidecar.
    """
    sidecar = _sidecar_path(path)
    meta = json.loads(sidecar.read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: the sidecar must be a JSON object")
    config, vocab, seed, stats = (meta.get(k) for k in ("config", "toy_vocab", "seed", "stats"))
    if not isinstance(config, dict) or not all(type(v) is int for v in config.values()):
        raise ValueError(f"{sidecar}: 'config' must be an object of integer model fields")
    if vocab is not None and not (
        isinstance(vocab, list) and all(isinstance(w, str) for w in vocab)
    ):
        raise ValueError(f"{sidecar}: 'toy_vocab' must be null or a list of strings")
    if seed is not None and type(seed) is not int:
        raise ValueError(f"{sidecar}: 'seed' must be null or an integer")
    if stats is not None and not isinstance(stats, dict):
        raise ValueError(f"{sidecar}: 'stats' must be null or an object")
    try:
        return meta, ModelConfig(**config), LatentCodec.from_dict(stats) if stats else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{sidecar}: malformed sidecar: {exc!r}") from exc
