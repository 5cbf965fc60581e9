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
from .conditioning import FrameFeatures
from .config import ConfigError, DataError, RunConfig, load_run_config, to_dict
from .data import ToyModesDataset, build_toy_model, corpus_items, manifest_training
from .dataforge import FolderLibrary, ForgeConfig, SyntheticLibrary, forge_corpus
from .evalkit import embed_stats, energy_distance, frechet_distance, mel_summary_embedding
from .flow import LatentCodec, TrainingDiverged, load_model, sample, save_model, train
from .model import FlowModel
from .spectral import griffin_lim, lsd, mel_spectrogram
from .validation import run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _writable(path) -> Path:
    """``path`` as a Path, with its parent directory created if missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _emit(report: dict, out_path: str | None = None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        _writable(out_path).write_text(text + "\n")
    print(text)


def _cmd_forge(args, config: RunConfig) -> int:
    if config.forge.seed not in (ForgeConfig.seed, config.seed):
        raise ConfigError(
            f"forge.seed {config.forge.seed} differs from the top-level seed "
            f"{config.seed}; set the forge's seed with --seed"
        )
    # the top-level seed drives the forge; the echo records the config that ran
    config = replace(config, forge=replace(config.forge, seed=config.seed))
    if args.library is not None:
        library = FolderLibrary(args.library, config.session_rate)
    else:
        library = SyntheticLibrary(
            sample_rate=config.session_rate,
            clip_seconds=min(1.0, config.forge.duration_s / 2.0),
            background_seconds=config.forge.duration_s,
            seed=config.seed,
        )
    root = Path(args.root) if args.root else Path(config.paths.data_root) / "forged"
    summary = forge_corpus(library, root, config.forge, echo=to_dict(config))
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
        model, dataset, codec = manifest_training(config, Path(args.data))

    result = train(model, dataset, args.steps, opt=config.train, seed=config.seed)

    out = _writable(args.out or Path(config.paths.output_dir) / "model.ckpt")
    csv_path = _writable(args.loss_csv or str(out) + ".loss.csv")
    save_model(out, result.model, codec=codec, seed=config.seed)
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


def _load_checkpoint(path_str: str) -> tuple[FlowModel, LatentCodec]:
    path = Path(path_str)
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    try:
        model, codec, _meta = load_model(path)
    except ValueError as exc:
        raise DataError(f"cannot load checkpoint {path}: {exc}") from exc
    if codec is None:
        raise DataError(f"checkpoint {path} has no codec; train on an audio corpus to make audio")
    return model, codec


def _checkpoint_config(config: RunConfig, model: FlowModel, codec: LatentCodec) -> RunConfig:
    """``config`` with the model, mel and session rate the checkpoint decides, for the echo."""
    return replace(config, model=model.config, mel=codec.config,
                   session_rate=codec.config.sample_rate)


def _render(args, config: RunConfig, model: FlowModel, codec: LatentCodec, frames: int,
            **prompt):
    """Sample ``frames`` latent frames for the instruction, vocode them, write ``args.out``."""
    transcript = args.instruction if args.transcript is None else args.transcript
    bundle = model.conditioner.assemble(
        frames, instruction=args.instruction, transcript=transcript, **prompt
    )
    latents = sample(model, bundle, (frames, model.config.d_lat), config.sampler)
    wav = griffin_lim(codec.decode(latents), iterations=args.gl_iters)
    write_wav(wav, _writable(args.out))
    return wav


def _cmd_sample(args, config: RunConfig) -> int:
    model, codec = _load_checkpoint(args.checkpoint)
    if args.frames is not None:
        frames = args.frames
    else:
        mel = codec.config
        n_samples = int(round(args.seconds * mel.sample_rate))
        if n_samples < mel.n_fft:
            raise ConfigError(
                f"--seconds {args.seconds} is shorter than one frame of the checkpoint's "
                f"codec: at least {mel.n_fft / mel.sample_rate:g} s ({mel.n_fft} samples "
                f"at {mel.sample_rate} Hz)"
            )
        frames = mel.frame_count(n_samples)
    wav = _render(args, config, model, codec, frames)
    _emit({
        "wav": str(args.out),
        "frames": frames,
        "duration_s": wav.duration_s,
        "instruction": args.instruction,
        "config": to_dict(_checkpoint_config(config, model, codec)),
        "seeds": {"seed": config.seed, "sampler": config.sampler.seed},
    })
    return EXIT_OK


def _cmd_edit(args, config: RunConfig) -> int:
    model, codec = _load_checkpoint(args.checkpoint)
    try:
        source = read_wav(args.source, session_rate=codec.config.sample_rate)
        source_mel = mel_spectrogram(source, codec.config)
    except (ValueError, OSError) as exc:
        raise DataError(f"cannot analyze source audio: {exc}") from exc
    frames = source_mel.n_frames
    wav = _render(args, config, model, codec, frames, mel=FrameFeatures(source_mel.frames))
    _emit({
        "wav": str(args.out),
        "source_frames": frames,
        "output_frames": codec.config.frame_count(len(wav)),
        "instruction": args.instruction,
        "config": to_dict(_checkpoint_config(config, model, codec)),
        "seeds": {"seed": config.seed, "sampler": config.sampler.seed},
    })
    return EXIT_OK


def _folder_wavs(folder: Path) -> dict[str, Path]:
    """The ``.wav`` files of ``folder`` by name; at least two are required."""
    if not folder.is_dir():
        raise DataError(f"not a directory: {folder}")
    wavs = {p.name: p for p in folder.iterdir() if p.suffix == ".wav"}
    if len(wavs) < 2:
        raise DataError(f"need at least 2 wav files in {folder}, found {len(wavs)}")
    return wavs


def _metric_report(path_pairs, config: RunConfig) -> tuple[dict, dict]:
    """(metrics, counts) over ``(path_a, path_b)`` pairs, streamed.

    Either path of a pair may be None: that clip has no partner on the other
    side and adds only its embedding. Each clip is read and analysed when its
    pair comes up and dropped after it, keeping one summary embedding per
    clip and one ``lsd`` per complete pair, so memory does not grow with the
    clip count beyond those rows.
    """
    emb_a, emb_b, lsd_values = [], [], []
    for path_a, path_b in path_pairs:
        try:
            mel_a = None if path_a is None else mel_spectrogram(read_wav(path_a), config.mel)
            mel_b = None if path_b is None else mel_spectrogram(read_wav(path_b), config.mel)
        except (ValueError, OSError) as exc:
            raise DataError(f"failed to analyze eval audio: {exc}") from exc
        if mel_a is not None:
            emb_a.append(mel_summary_embedding(mel_a))
        if mel_b is not None:
            emb_b.append(mel_summary_embedding(mel_b))
        if mel_a is not None and mel_b is not None:
            if mel_a.frames.shape != mel_b.frames.shape:
                raise DataError(
                    f"paired clips must share mel shape, got {mel_a.frames.shape} vs "
                    f"{mel_b.frames.shape}"
                )
            lsd_values.append(lsd(mel_a, mel_b))
    emb_a, emb_b = np.stack(emb_a), np.stack(emb_b)
    metrics = {
        "lsd": float(np.mean(lsd_values)) if lsd_values else None,
        "fad-proxy": frechet_distance(embed_stats(emb_a, embedder=np.asarray),
                                      embed_stats(emb_b, embedder=np.asarray)),
        "energy-distance": energy_distance(emb_a, emb_b),
    }
    return metrics, {"a": len(emb_a), "b": len(emb_b), "pairs": len(lsd_values)}


def _cmd_eval(args, config: RunConfig) -> int:
    if args.manifest is not None:
        if args.dir_a is not None or args.dir_b is not None:
            raise ConfigError("eval takes either --manifest or --dir-a/--dir-b, not both")
        root = Path(args.manifest)
        path_pairs = (
            (root / item["source_path"], root / item["target_path"])
            for item in corpus_items(root, min_items=2)
        )
    else:
        if args.dir_a is None or args.dir_b is None:
            raise ConfigError("eval needs either --manifest or both --dir-a and --dir-b")
        wavs_a = _folder_wavs(Path(args.dir_a))
        wavs_b = _folder_wavs(Path(args.dir_b))
        # in name order, each side's clips keep their order and pairs match by name
        path_pairs = ((wavs_a.get(name), wavs_b.get(name))
                      for name in sorted(wavs_a.keys() | wavs_b.keys()))

    metrics, counts = _metric_report(path_pairs, config)
    report = {
        "metrics": metrics,
        "counts": counts,
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


def _fail(kind: str, exc: Exception | str, code: int) -> int:
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
    except MemoryError as exc:
        return _fail("memory", str(exc) or "out of memory", EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())
