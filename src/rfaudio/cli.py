"""Batch entry points: forge datasets, train, sample, edit, evaluate, gradcheck.

Every command reads an optional JSON config (``--config run.json``) plus
``--dotted.key value`` overrides, echoes the fully resolved configuration in
its outputs, and is deterministic under fixed seeds and inputs. Errors exit
nonzero with a single-line JSON object on stderr: exit 2 for configuration
problems, 3 for missing or malformed data, 4 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .audio import read_wav, write_wav
from .conditioning import FrameFeatures, mask_prompt
from .config import ConfigError, DataError, RunConfig, load_run_config, to_dict
from .dataforge import (
    FULL_SCALE_ITEMS_PER_TASK,
    FolderLibrary,
    SyntheticLibrary,
    forge_corpus,
    load_manifest,
)
from .evalkit import embed_stats, energy_distance, frechet_distance, mel_summary_embedding
from .flow import LatentCodec, TrainingDiverged, load_model, sample, save_model, train
from .model import FlowModel
from .spectral import MelSpectrogram, griffin_lim, lsd, mel_spectrogram
from .validation import run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

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
    """Yields (x0, bundle): a point from one Gaussian mode plus its label token.

    Each epoch re-derives its RNG from the fixed seed, so iteration order is
    deterministic and the training stream is reproducible bit-for-bit.
    """

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


def _corpus_mels(root: Path, config: RunConfig, min_items: int):
    """(items, source mels, target mels) of a forged corpus under ``root``."""
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise DataError(f"no manifest.json under {root}")
    try:
        items = load_manifest(manifest_path)["items"]
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if len(items) < min_items:
        raise DataError(f"manifest {manifest_path} lists fewer than {min_items} items")
    try:
        source_mels = [mel_spectrogram(read_wav(root / item["source_path"]), config.mel)
                       for item in items]
        target_mels = [mel_spectrogram(read_wav(root / item["target_path"]), config.mel)
                       for item in items]
    except (ValueError, OSError) as exc:
        raise DataError(f"failed to load corpus audio: {exc}") from exc
    return items, source_mels, target_mels


def _build_manifest_training(config: RunConfig, root: Path):
    if config.model.d_lat != config.mel.n_mels or config.model.d_mel != config.mel.n_mels:
        raise DataError(
            f"mel-latent training needs model.d_lat == model.d_mel == mel.n_mels "
            f"({config.mel.n_mels}); got d_lat={config.model.d_lat} "
            f"d_mel={config.model.d_mel}"
        )
    items, source_mels, target_mels = _corpus_mels(root, config, min_items=1)

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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _emit(report: dict, out_path: str | None = None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n")
    print(text)


def _cmd_forge(args, config: RunConfig) -> int:
    base_items = (
        FULL_SCALE_ITEMS_PER_TASK if args.preset == "full-scale"
        else config.forge.items_per_task
    )
    items = int(round(base_items * args.scale))
    forge_config = replace(config.forge, items_per_task=items, seed=config.seed)
    if args.library is not None:
        library = FolderLibrary(args.library)
    else:
        library = SyntheticLibrary(
            sample_rate=config.session_rate,
            clip_seconds=min(1.0, forge_config.duration_s / 2.0),
            background_seconds=forge_config.duration_s,
            seed=config.seed,
        )
    root = Path(args.root) if args.root else Path(config.paths.data_root) / "forged"
    summary = forge_corpus(library, root, forge_config, echo=to_dict(config))
    _emit({
        "manifest": str(summary.manifest_path),
        "counts": summary.counts,
        "config": to_dict(config),
        "seeds": {"seed": config.seed},
    })
    return EXIT_OK


def _cmd_train(args, config: RunConfig) -> int:
    if args.data == "toy":
        model = build_toy_model(config)
        dataset = ToyModesDataset(model, seed=config.seed)
        codec = None
    else:
        model, dataset, codec = _build_manifest_training(config, Path(args.data))

    result = train(model, dataset, args.steps, opt=config.train, seed=config.seed)

    out = Path(args.out) if args.out else Path(config.paths.output_dir) / "model.ckpt"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, result.model, codec=codec, seed=config.seed)
    csv_path = Path(args.loss_csv) if args.loss_csv else Path(str(out) + ".loss.csv")
    lines = ["step,loss"] + [f"{i + 1},{value!r}" for i, value in enumerate(result.losses)]
    csv_path.write_text("\n".join(lines) + "\n")
    _emit({
        "checkpoint": str(out),
        "loss_csv": str(csv_path),
        "steps": args.steps,
        "final_loss": result.losses[-1] if result.losses else None,
        "config": to_dict(config),
        "seeds": {"seed": config.seed},
    })
    return EXIT_OK


def _load_checkpoint(path_str: str):
    path = Path(path_str)
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    try:
        return load_model(path)
    except ValueError as exc:
        raise DataError(f"cannot load checkpoint {path}: {exc}") from exc


def _render(args, config: RunConfig, model: FlowModel, codec: LatentCodec, frames: int,
            **prompt):
    """Sample ``frames`` latent frames for the instruction, vocode them, write ``args.out``."""
    transcript = args.instruction if args.transcript is None else args.transcript
    bundle = model.conditioner.assemble(
        frames, instruction=args.instruction, transcript=transcript, **prompt
    )
    latents = sample(model, bundle, (frames, model.config.d_lat), config.sampler)
    wav = griffin_lim(codec.decode(latents), iterations=args.gl_iters)
    write_wav(wav, args.out)
    return wav


def _cmd_sample(args, config: RunConfig) -> int:
    model, codec, _meta = _load_checkpoint(args.checkpoint)
    if codec is None:
        raise DataError(
            "checkpoint has no codec; train on an audio corpus to sample waveforms"
        )
    if args.frames is not None:
        frames = args.frames
    else:
        n_samples = int(round(args.seconds * codec.config.sample_rate))
        frames = codec.config.frame_count(n_samples)
    wav = _render(args, config, model, codec, frames)
    _emit({
        "wav": str(args.out),
        "frames": frames,
        "duration_s": wav.duration_s,
        "instruction": args.instruction,
        "config": to_dict(config),
        "seeds": {"seed": config.seed, "sampler": config.sampler.seed},
    })
    return EXIT_OK


def _cmd_edit(args, config: RunConfig) -> int:
    model, codec, _meta = _load_checkpoint(args.checkpoint)
    if codec is None:
        raise DataError("checkpoint has no codec; editing operates on audio corpora")
    try:
        source = read_wav(args.source)
        source_mel = mel_spectrogram(source, codec.config)
    except (ValueError, OSError) as exc:
        raise DataError(f"cannot analyze source audio: {exc}") from exc
    frames = source_mel.n_frames
    wav = _render(args, config, model, codec, frames, mel=FrameFeatures(source_mel.frames))
    _emit({
        "wav": str(args.out),
        "source_frames": frames,
        "output_frames": mel_spectrogram(wav, codec.config).n_frames,
        "instruction": args.instruction,
        "config": to_dict(config),
        "seeds": {"seed": config.seed, "sampler": config.sampler.seed},
    })
    return EXIT_OK


def _folder_mels(folder: Path, config: RunConfig) -> dict[str, MelSpectrogram]:
    if not folder.is_dir():
        raise DataError(f"not a directory: {folder}")
    wavs = sorted(p for p in folder.iterdir() if p.suffix == ".wav")
    if len(wavs) < 2:
        raise DataError(f"need at least 2 wav files in {folder}, found {len(wavs)}")
    try:
        return {p.name: mel_spectrogram(read_wav(p), config.mel) for p in wavs}
    except (ValueError, OSError) as exc:
        raise DataError(f"failed to analyze {folder}: {exc}") from exc


def _metric_report(mels_a, mels_b, pairs) -> dict:
    if len(mels_a) < 2 or len(mels_b) < 2:
        raise DataError("need at least 2 clips per side for distribution metrics")
    emb_a = np.stack([mel_summary_embedding(m) for m in mels_a])
    emb_b = np.stack([mel_summary_embedding(m) for m in mels_b])
    stats_a = embed_stats(emb_a, embedder=np.asarray)
    stats_b = embed_stats(emb_b, embedder=np.asarray)
    lsd_values = []
    for a, b in pairs:
        if a.frames.shape != b.frames.shape:
            raise DataError(
                f"paired clips must share mel shape, got {a.frames.shape} vs {b.frames.shape}"
            )
        lsd_values.append(lsd(a, b))
    return {
        "lsd": float(np.mean(lsd_values)) if lsd_values else None,
        "fad-proxy": frechet_distance(stats_a, stats_b),
        "energy-distance": energy_distance(emb_a, emb_b),
    }


def _cmd_eval(args, config: RunConfig) -> int:
    if args.manifest is not None:
        _items, mels_a, mels_b = _corpus_mels(Path(args.manifest), config, min_items=2)
        pairs = list(zip(mels_a, mels_b))
    else:
        if args.dir_a is None or args.dir_b is None:
            raise ConfigError("eval needs either --manifest or both --dir-a and --dir-b")
        by_name_a = _folder_mels(Path(args.dir_a), config)
        by_name_b = _folder_mels(Path(args.dir_b), config)
        common = sorted(set(by_name_a) & set(by_name_b))
        mels_a = list(by_name_a.values())
        mels_b = list(by_name_b.values())
        pairs = [(by_name_a[name], by_name_b[name]) for name in common]

    report = {
        "metrics": _metric_report(mels_a, mels_b, pairs),
        "counts": {"a": len(mels_a), "b": len(mels_b), "pairs": len(pairs)},
        "config": to_dict(config),
        "seeds": {"seed": config.seed},
    }
    _emit(report, args.out)
    return EXIT_OK


def _cmd_gradcheck(args, config: RunConfig) -> int:
    report = run_validation(config.seed)
    report["config"] = to_dict(config)
    _emit(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argparse that raises ConfigError instead of calling sys.exit."""

    def error(self, message):
        raise ConfigError(message)


def _checked(kind, accept, what: str):
    """An argparse ``type=`` that parses ``kind`` and rejects values failing ``accept``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


# comparisons with NaN are false, so these also refuse nan
_SCALE = _checked(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_SECONDS = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")


def _parse_override_tokens(tokens: list[str]) -> list[tuple[str, str]]:
    """Leftover ``--dotted.key value`` tokens -> (key, value) pairs."""
    pairs = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument {token!r}; overrides are --key value")
        key = token[2:]
        if "=" in key:
            key, _, value = key.partition("=")
        else:
            if i + 1 >= len(tokens):
                raise ConfigError(f"override --{key} is missing a value")
            i += 1
            value = tokens[i]
        if not key:
            raise ConfigError(f"malformed override {token!r}")
        pairs.append((key, value))
        i += 1
    return pairs


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON run-config file")

    parser = _Parser(prog="rfaudio", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forge", parents=[common], help="generate an editing corpus")
    p.add_argument("--root", default=None, help="output dataset root")
    p.add_argument("--preset", choices=("desk", "full-scale"), default="desk")
    p.add_argument("--scale", type=_SCALE, default=1.0,
                   help="multiplier on the preset's items per task")
    p.add_argument("--library", default=None,
                   help="clip library root (default: bundled synthetic clips)")

    p = sub.add_parser("train", parents=[common], help="train a flow model")
    p.add_argument("--data", required=True,
                   help="'toy' or a forged dataset root containing manifest.json")
    p.add_argument("--out", default=None, help="checkpoint path")
    p.add_argument("--steps", type=_COUNT, default=100)
    p.add_argument("--loss-csv", default=None, help="loss trace path (step,loss)")

    p = sub.add_parser("sample", parents=[common], help="sample audio from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output WAV path")
    p.add_argument("--instruction", default="")
    p.add_argument("--transcript", default=None,
                   help="transcript text (default: the instruction)")
    p.add_argument("--seconds", type=_SECONDS, default=2.0)
    p.add_argument("--frames", type=_COUNT, default=None,
                   help="latent frame count (overrides --seconds)")
    p.add_argument("--gl-iters", type=_COUNT, default=60)

    p = sub.add_parser("edit", parents=[common], help="instruction-edit a recording")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--source", required=True, help="input WAV path")
    p.add_argument("--instruction", required=True)
    p.add_argument("--transcript", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--gl-iters", type=_COUNT, default=60)

    p = sub.add_parser("eval", parents=[common], help="fidelity metrics report")
    p.add_argument("--manifest", default=None, help="forged dataset root")
    p.add_argument("--dir-a", default=None, help="first WAV folder")
    p.add_argument("--dir-b", default=None, help="second WAV folder")
    p.add_argument("--out", default=None, help="write the JSON report here too")

    p = sub.add_parser("gradcheck", parents=[common], help="gradient validation suites")
    p.add_argument("--out", default=None, help="write the JSON report here too")

    return parser


_DISPATCH = {
    "forge": _cmd_forge,
    "train": _cmd_train,
    "sample": _cmd_sample,
    "edit": _cmd_edit,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def _fail(kind: str, exc: Exception, code: int) -> int:
    message = " ".join(str(exc).split())
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        overrides = _parse_override_tokens(extras)
        config = load_run_config(args.config, overrides)
        # non-finite results surface as typed errors, so stderr stays one JSON line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _DISPATCH[args.command](args, config)
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except DataError as exc:
        return _fail("data", exc, EXIT_DATA)
    except OSError as exc:
        return _fail("data", exc, EXIT_DATA)
    except (TrainingDiverged, FloatingPointError) as exc:
        return _fail("numerical", exc, EXIT_NUMERIC)
    except ValueError as exc:
        return _fail("data", exc, EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())
