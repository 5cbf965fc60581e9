"""Training items: the toy mode distribution and forged editing corpora.

Both datasets yield ``(x0, bundle)`` pairs for :func:`rfaudio.flow.train`
and re-derive their RNG from a fixed seed on every epoch, so a training
stream is reproducible bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audio import read_wav
from .conditioning import FrameFeatures, mask_prompt
from .config import DataError, RunConfig
from .dataforge import MANIFEST_NAME, load_manifest
from .flow import LatentCodec
from .model import FlowModel
from .spectral import mel_spectrogram

TOY_MODE_COUNT = 8
TOY_MODE_RADIUS = 4.0
TOY_MODE_SIGMA = 0.1


# ---------------------------------------------------------------------------
# Toy conditional dataset: 8 Gaussians on a radius-4 circle, one class word
# ---------------------------------------------------------------------------


def toy_mode_centers() -> np.ndarray:
    """[8, 2] mode centers evenly spaced on the radius-4 circle."""
    angles = 2.0 * np.pi * np.arange(TOY_MODE_COUNT) / TOY_MODE_COUNT
    return TOY_MODE_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def toy_vocabulary() -> list[str]:
    return [f"mode{k}" for k in range(TOY_MODE_COUNT)]


def build_toy_model(config: RunConfig) -> FlowModel:
    """Flow model over 2-D latents whose high stream is one class token."""
    if config.model.d_lat != 2:
        raise DataError(
            "the toy distribution is 2-D; set --model.d_lat 2 (and --model.d_mel 2)"
        )
    return FlowModel(config.model, seed=config.seed, toy_vocab=toy_vocabulary())


class ToyModesDataset:
    """Yields (x0, bundle): a point from one Gaussian mode plus its label token."""

    def __init__(self, model: FlowModel, seed: int = 0, items_per_epoch: int = 2048):
        self.model = model
        self.seed = int(seed)
        self.items_per_epoch = int(items_per_epoch)
        self.centers = toy_mode_centers()

    def __iter__(self):
        rng = np.random.default_rng([self.seed, 0x70F])
        for _ in range(self.items_per_epoch):
            k = int(rng.integers(TOY_MODE_COUNT))
            point = self.centers[k] + TOY_MODE_SIGMA * rng.standard_normal(2)
            bundle = self.model.conditioner.assemble(1, instruction=f"mode{k}")
            yield point[None, :], bundle


# ---------------------------------------------------------------------------
# Forged editing corpora
# ---------------------------------------------------------------------------


class ManifestDataset:
    """Editing corpus stream: target latents conditioned on masked source mel.

    Each item trains the model to produce the edited (target) mel from the
    instruction plus the source mel as the low-level prompt, with a fresh
    contiguous mask drawn per epoch. All clips must share one frame count
    because batches stack the latent grid.
    """

    def __init__(self, model: FlowModel, entries, seed: int = 0):
        self.model = model
        self.entries = entries
        self.seed = int(seed)

    def __iter__(self):
        rng = np.random.default_rng([self.seed, 0xDA7A])
        for latents, source_mel, instruction in self.entries:
            prompt = FrameFeatures(source_mel.frames)
            masked, _ = mask_prompt(prompt, rng)
            bundle = self.model.conditioner.assemble(
                latents.shape[0],
                instruction=instruction,
                transcript=instruction,
                mel=masked,
            )
            yield latents, bundle


def corpus_items(root: Path, min_items: int) -> list[dict]:
    """The manifest items of a forged corpus under ``root``."""
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise DataError(f"no {MANIFEST_NAME} under {root}")
    try:
        items = load_manifest(manifest_path)["items"]
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if len(items) < min_items:
        raise DataError(f"manifest {manifest_path} lists fewer than {min_items} items")
    return items


def manifest_training(config: RunConfig, root: Path):
    """(model, dataset, codec) for training on the forged corpus under ``root``.

    Every source and target clip is analysed up front: the codec is fitted
    on the target mels, and the dataset holds each pair's target latents
    with its source mel and instruction.
    """
    if config.model.d_lat != config.mel.n_mels or config.model.d_mel != config.mel.n_mels:
        raise DataError(
            f"mel-latent training needs model.d_lat == model.d_mel == mel.n_mels "
            f"({config.mel.n_mels}); got d_lat={config.model.d_lat} "
            f"d_mel={config.model.d_mel}"
        )
    items = corpus_items(root, min_items=1)
    try:
        source_mels = [mel_spectrogram(read_wav(root / item["source_path"]), config.mel)
                       for item in items]
        target_mels = [mel_spectrogram(read_wav(root / item["target_path"]), config.mel)
                       for item in items]
    except (ValueError, OSError) as exc:
        raise DataError(f"failed to load corpus audio: {exc}") from exc

    frame_counts = {m.n_frames for m in target_mels} | {m.n_frames for m in source_mels}
    if len(frame_counts) != 1:
        raise DataError(
            f"clips must share one mel frame count for batching, got {sorted(frame_counts)}"
        )

    codec = LatentCodec(config.mel)
    codec.fit(target_mels)
    vocab = sorted({word for item in items for word in item["instruction"].split()})
    model = FlowModel(config.model, seed=config.seed, toy_vocab=vocab)
    entries = [
        (codec.encode(tgt), src, item["instruction"])
        for item, src, tgt in zip(items, source_mels, target_mels)
    ]
    dataset = ManifestDataset(model, entries, seed=config.seed)
    return model, dataset, codec
