"""Conditional generation on the eight-Gaussians benchmark.

Trains the desk-scale flow transformer on a 2-D mixture (eight modes on a
radius-4 circle, sigma 0.1) with the class label as the only high-stream
token, then samples each class at one or more guidance scales and measures
mode adherence and distributional fidelity.

Alongside the trained model the script integrates the *exact* velocity
field of the mixture (closed form) under the same guidance rule, which
shows how much of any distribution gap is intrinsic to guidance rather
than a training artifact: guidance deliberately sharpens each mode, so
even the exact field scores far above the two-draw noise floor at high
scales.

Example:

    python scripts/toy_modes_experiment.py --guidance 6.0 1.0 --json out.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rfaudio.data import TOY_MODE_SIGMA, ToyModesDataset, toy_mode_centers, toy_vocabulary
from rfaudio.evalkit import energy_distance
from rfaudio.flow import SamplerConfig, TrainConfig, cfg_velocity, sample_batch, train
from rfaudio.model import FlowModel, ModelConfig

STAGES = ((2500, 1e-3), (1500, 3e-4), (600, 1e-4), (400, 3e-5))


class UnitScaleModes:
    """Standardize the toy latents to unit per-component RMS for training."""

    def __init__(self, inner, scale: float):
        self.inner = inner
        self.scale = scale

    def __iter__(self):
        for x0, bundle in self.inner:
            yield x0 / self.scale, bundle


def exact_field_samples(centers, sigma, guidance, per_class, steps, seed_base):
    """Euler-integrate the closed-form mixture velocity field with guidance."""
    out = []
    for k in range(centers.shape[0]):
        rng = np.random.default_rng(seed_base + k)
        x = rng.standard_normal((per_class, centers.shape[1]))
        for j in range(steps):
            t = 1.0 - j / steps
            s2 = (1.0 - t) ** 2 * sigma**2 + t**2
            coef = (t - (1.0 - t) * sigma**2) / s2
            diffs = x[:, None, :] - (1.0 - t) * centers[None, :, :]
            v_modes = coef * diffs - centers[None, :, :]
            logw = -np.sum(diffs**2, axis=2) / (2.0 * s2)
            logw -= logw.max(axis=1, keepdims=True)
            w = np.exp(logw)
            w /= w.sum(axis=1, keepdims=True)
            v_uncond = np.einsum("nm,nmd->nd", w, v_modes)
            x = x - cfg_velocity(v_modes[:, k, :], v_uncond, guidance) / steps
        out.append(x)
    return np.concatenate(out)


def evaluate(points, labels, centers, sigma, true_set):
    distance = np.linalg.norm(points - centers[labels], axis=1)
    nearest = np.argmin(
        np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2), axis=1
    )
    return {
        "within_3_sigma": float(np.mean(distance <= 3.0 * sigma)),
        "nearest_is_instructed": float(np.mean(nearest == labels)),
        "median_distance_sigma": float(np.median(distance) / sigma),
        "energy_distance": energy_distance(points, true_set),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-class", type=int, default=250,
                        help="samples per mode (default 250 -> 2000 total)")
    parser.add_argument("--sampler-steps", type=int, default=100)
    parser.add_argument("--guidance", type=float, nargs="+", default=[6.0, 1.0],
                        help="guidance scales to sample at")
    parser.add_argument("--seed", type=int, default=0, help="model init seed")
    parser.add_argument("--quick", action="store_true",
                        help="divide every training stage by 10 for a smoke run")
    parser.add_argument("--json", default=None, help="write the result table here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    centers = toy_mode_centers()
    sigma = TOY_MODE_SIGMA
    scale = float(np.sqrt(np.mean(centers**2) + sigma**2))

    config = ModelConfig(
        d_lat=2, d_mel=2, d_sync=1, d_mm=16, d_trans=16, d_high=64,
        width=64, depth=4, heads=4, mlp_ratio=4, time_basis=64,
    )
    model = FlowModel(config, seed=args.seed, toy_vocab=toy_vocabulary())

    stages = [(max(steps // 10, 1), lr) for steps, lr in STAGES] if args.quick else STAGES
    t0 = time.perf_counter()
    losses = []
    for i, (steps, lr) in enumerate(stages):
        dataset = UnitScaleModes(ToyModesDataset(model, seed=0), scale)
        result = train(model, dataset, steps, opt=TrainConfig(lr=lr, batch_size=8), seed=i)
        losses.extend(result.losses)
        print(f"stage {i}: {steps} steps at lr {lr:g}, "
              f"mean loss {np.mean(result.losses):.4f}")
    train_s = time.perf_counter() - t0
    print(f"trained {len(losses)} steps in {train_s:.0f}s; "
          f"loss {np.mean(losses[:200]):.3f} -> {np.mean(losses[-200:]):.4f}")

    def draw_true(seed):
        rng = np.random.default_rng(seed)
        return np.concatenate([
            centers[k] + sigma * rng.standard_normal((args.per_class, 2))
            for k in range(centers.shape[0])
        ])

    true_a, true_b = draw_true(51), draw_true(52)
    labels = np.repeat(np.arange(centers.shape[0]), args.per_class)
    results = {
        "config": {
            "per_class": args.per_class,
            "sampler_steps": args.sampler_steps,
            "stages": [list(s) for s in stages],
            "seed": args.seed,
            "latent_scale": scale,
        },
        "self_energy_distance": energy_distance(true_a, true_b),
        "runs": [],
    }
    print(f"two-draw energy-distance floor: {results['self_energy_distance']:.3g}")

    for j, guidance in enumerate(args.guidance):
        t1 = time.perf_counter()
        chunks = []
        for k in range(centers.shape[0]):
            bundle = model.conditioner.assemble(1, instruction=f"mode{k}")
            latents = sample_batch(
                model, [bundle] * args.per_class, (1, 2),
                SamplerConfig(steps=args.sampler_steps, guidance_scale=guidance,
                              seed=1000 * (j + 1) + k),
            )
            chunks.append(latents[:, 0, :] * scale)
        generated = np.concatenate(chunks)
        row = evaluate(generated, labels, centers, sigma, true_a)
        oracle = exact_field_samples(centers, sigma, guidance, args.per_class,
                                     args.sampler_steps, seed_base=9000)
        row["exact_field_energy_distance"] = energy_distance(oracle, true_a)
        row["guidance"] = guidance
        row["sample_s"] = round(time.perf_counter() - t1, 1)
        results["runs"].append(row)
        print(
            f"guidance {guidance:g}: within 3 sigma {row['within_3_sigma']:.1%}, "
            f"nearest-mode {row['nearest_is_instructed']:.1%}, "
            f"median distance {row['median_distance_sigma']:.2f} sigma, "
            f"energy distance {row['energy_distance']:.3g} "
            f"(exact field at this scale: {row['exact_field_energy_distance']:.3g})"
        )

    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
