"""The three benchmark workloads: fixtures, timed operations and output checks.

Each workload function takes a :class:`Run` and a sizes dict, builds its
fixture through :meth:`Run.setup` (timed), then runs its timed
operations in a closed loop (one caller, the next call starts when the last
returns) until the run's time budget is spent. Every operation's output is
checked; an exception or a failed check counts as a failed operation.

A workload returns three dicts: the end-to-end metrics every workload emits
(``throughput_per_s``, ``latency_s``), the same measurements under their
per-workload names (``train_steps_per_s``, ``edit_latency_s``, ...), and
the raw per-call values they were taken from.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import time
import tracemalloc
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import tracing
from rfaudio import audio, cli, dataforge, flow, spectral
from rfaudio.config import RunConfig
from rfaudio.model import FlowModel, ModelConfig

_clock = time.perf_counter

DEFAULT_SEED = 0
#: rounds every run makes, however long they take
MIN_ROUNDS = 2

#: the acceptance-test-04 toy model
TOY_MODEL = dict(
    d_lat=2, d_mel=2, d_sync=1, d_mm=16, d_trans=16, d_high=64,
    width=64, depth=4, heads=4, mlp_ratio=4, time_basis=64,
)
TOY_MODES = 8
#: late-window mean loss must be below this share of the early-window mean
LOSS_DROP = 0.75
#: consecutive training steps per timed stretch (see NOTES.md, "Steadiness")
STEP_BLOCK = 10
#: scale of the seeded output projection, so an edit depends on the network
OUT_W_SCALE = 0.02
#: relative tolerance for eval metrics against the recorded reference
EVAL_RTOL = 1e-9

SIZES = {
    "toy_train_sample": {
        "train_steps": 100, "batch_size": 8, "lr": 1e-3,
        "sample_batch": 250, "sample_steps": 5, "guidance": 6.0, "sample_calls": 6,
    },
    "edit_10s": {
        "clip_s": 10.0, "codec_clips": 3, "sampler_steps": 4, "gl_iters": 60,
    },
    "corpus_forge_eval": {
        "items_per_task": 10, "duration_s": 10.0,
    },
}

#: sizes for the benchmark self-test: the same code paths in a few seconds
TINY_SIZES = {
    "toy_train_sample": {
        "train_steps": 100, "batch_size": 8, "lr": 1e-3,
        "sample_batch": 8, "sample_steps": 4, "guidance": 6.0, "sample_calls": 2,
    },
    "edit_10s": {
        "clip_s": 1.0, "codec_clips": 2, "sampler_steps": 1, "gl_iters": 2,
    },
    "corpus_forge_eval": {
        "items_per_task": 1, "duration_s": 2.0,
    },
}


class CheckFailed(Exception):
    """An operation returned output that fails the workload's check."""


class SetupFinished(Exception):
    """Raised where the timed region would begin, in a set-up-only run."""


class _RunFailed(Exception):
    """Ends the run's loop after a failed operation; the failure is already counted."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def median(values) -> float:
    return float(np.median(values)) if len(values) else math.nan


def best_rate(rates) -> float:
    """The run's fastest unit of work, as a rate (see NOTES.md, "Steadiness")."""
    return max(rates) if rates else math.nan


def best_latency(latencies) -> float:
    """The run's fastest unit of work, in seconds (see NOTES.md, "Steadiness")."""
    return min(latencies) if latencies else math.nan


class StampedItems:
    """Iterable wrapper that stamps the clock each time an item is asked for.

    ``flow.train`` pulls ``batch_size`` items at the start of every step, so
    every ``batch_size``-th stamp is where a step began.
    """

    def __init__(self, items) -> None:
        self.items = items
        self.stamps: list[float] = []

    def __iter__(self):
        it = iter(self.items)
        while True:
            self.stamps.append(_clock())
            try:
                item = next(it)
            except StopIteration:
                self.stamps.pop()
                return
            yield item

    def step_seconds(self, batch_size: int, end: float) -> np.ndarray:
        """Duration of each step, the last one ending at ``end``."""
        starts = self.stamps[::batch_size]
        return np.diff(np.array(starts + [end]))


class Run:
    """One workload run: fixture timing, the timed loop and failure accounting."""

    def __init__(self, seed: int, seconds: float, workdir: Path, tracer=None,
                 reference: dict | None = None, setup_only: bool = False) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.workdir = workdir
        self.tracer = tracer
        self.reference = reference or {}
        self.attempted = 0
        self.failed = 0
        self.setup_only = setup_only
        self.build_s = math.nan
        self._exit = contextlib.ExitStack()
        self._t0 = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._exit.close()
        return False

    def setup(self, build):
        """Build the workload's fixture, timed."""
        start = _clock()
        fixture = build()
        self.build_s = _clock() - start
        return fixture

    def start(self) -> None:
        """Begin the timed region; a traced run installs its spans here."""
        if self.setup_only:
            raise SetupFinished
        if self.tracer is not None:
            self._exit.enter_context(tracing.instrument(self.tracer))
        self._t0 = _clock()

    def elapsed(self) -> float:
        return _clock() - self._t0

    def call(self, span: str | None, fn, *args):
        """Time one call into the program, inside a span when traced.

        ``span`` is None for entry points whose rebinding opens the span.
        """
        traced = self.tracer is not None and span is not None
        with self.tracer.span(span) if traced else contextlib.nullcontext():
            start = _clock()
            out = fn(*args)
            return _clock() - start, out

    def attempt(self, op, *args):
        """Run one operation, counting it; a failure ends the run's loop."""
        self.attempted += 1
        try:
            return op(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise _RunFailed from None

    def repeat(self, round_fn) -> None:
        """Closed loop: call ``round_fn(k)`` while another round fits in the run.

        After MIN_ROUNDS, a round starts only if a round of the median length
        so far would end within ``seconds``, so a run lasts about ``seconds``
        whatever the round length.
        """
        lengths: list[float] = []
        try:
            while len(lengths) < MIN_ROUNDS or self.elapsed() + median(lengths) <= self.seconds:
                start = _clock()
                round_fn(len(lengths))
                lengths.append(_clock() - start)
        except _RunFailed:
            pass


def cli_call(run: Run, command: str, argv: list[str]) -> tuple[float, dict]:
    """One in-process ``rfaudio <command>``; returns (seconds, JSON report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        seconds, code = run.call(f"cli.{command}", cli.main, [command, *argv])
    check(code == cli.EXIT_OK, f"rfaudio {command} exited with code {code}")
    return seconds, json.loads(buf.getvalue())


# ---------------------------------------------------------------------------
# toy_train_sample
# ---------------------------------------------------------------------------


def toy_train_sample(run: Run, sizes: dict):
    config = replace(RunConfig(seed=run.seed), model=ModelConfig(**TOY_MODEL))
    steps, batch = sizes["train_steps"], sizes["sample_batch"]
    opt = flow.TrainConfig(lr=sizes["lr"], batch_size=sizes["batch_size"])

    def build():
        model = cli.build_toy_model(config)
        return model, cli.ToyModesDataset(model, seed=run.seed)

    run.setup(build)
    run.start()
    rates, latencies, trained = [], [], []

    def train_op():
        model, dataset = build()
        stamped = StampedItems(dataset)
        _, result = run.call(None, flow.train, model, stamped, steps, opt, run.seed)
        end = _clock()
        losses = np.asarray(result.losses)
        check(losses.shape == (steps,) and np.all(np.isfinite(losses)), "non-finite loss")
        window = max(steps // 5, 1)
        early, late = losses[:window].mean(), losses[-window:].mean()
        check(late < LOSS_DROP * early, f"loss did not fall: early {early:.4f}, late {late:.4f}")
        if trained:
            check(np.array_equal(losses, trained[0][1]), "loss trace differs under one seed")
        else:
            trained.append((model, losses))
        check(len(stamped.stamps) == steps * opt.batch_size, "train pulled an unexpected item count")
        step_s = stamped.step_seconds(opt.batch_size, end)
        blocks = step_s[: len(step_s) // STEP_BLOCK * STEP_BLOCK].reshape(-1, STEP_BLOCK)
        rates.extend(STEP_BLOCK / blocks.sum(axis=1))

    def sample_op(k):
        model = trained[0][0]
        bundle = model.conditioner.assemble(1, instruction=f"mode{k % TOY_MODES}")
        cfg = flow.SamplerConfig(
            steps=sizes["sample_steps"], guidance_scale=sizes["guidance"],
            seed=run.seed * 1000 + k,
        )
        seconds, latents = run.call(None, flow.sample_batch, model, [bundle] * batch, (1, 2), cfg)
        check(latents.shape == (batch, 1, 2), f"sampled shape {latents.shape}")
        check(bool(np.all(np.isfinite(latents))), "non-finite sampled latents")
        latencies.append(seconds)

    def round_fn(k):
        run.attempt(train_op)
        for j in range(sizes["sample_calls"]):
            run.attempt(sample_op, k * sizes["sample_calls"] + j)

    run.repeat(round_fn)
    rate, latency = best_rate(rates), best_latency(latencies)
    return (
        {"throughput_per_s": rate, "latency_s": latency},
        {"train_steps_per_s": rate, "sample_items_per_s": batch / latency},
        {"train_stretch_steps_per_s": rates, "sample_call_s": latencies},
    )


# ---------------------------------------------------------------------------
# edit_10s
# ---------------------------------------------------------------------------


def edit_10s(run: Run, sizes: dict):
    config = RunConfig(seed=run.seed)
    clip_s = sizes["clip_s"]
    ckpt, source = run.workdir / "edit.ckpt", run.workdir / "source.wav"

    def build():
        library = dataforge.SyntheticLibrary(
            sample_rate=config.session_rate, clip_seconds=min(1.0, clip_s / 2),
            background_seconds=clip_s, seed=run.seed,
        )
        scene_config = dataforge.ForgeConfig(duration_s=clip_s)
        triplets = []
        for i in range(sizes["codec_clips"]):
            scene = dataforge.draw_scene(
                np.random.default_rng([run.seed, 0xED17, i]), library, scene_config
            )
            triplets.append(dataforge.make_triplet("remove", scene, library, 0))
        codec = flow.LatentCodec(config.mel).fit(
            [spectral.mel_spectrogram(t.target_audio, config.mel) for t in triplets]
        )
        vocab = sorted({word for t in triplets for word in t.instruction.split()})
        model = FlowModel(config.model, seed=run.seed, toy_vocab=vocab)
        rng = np.random.default_rng([run.seed, 0x0D7])
        model.out_w.data[...] = OUT_W_SCALE * rng.standard_normal(model.out_w.data.shape)
        flow.save_model(ckpt, model, codec=codec, seed=run.seed)
        audio.write_wav(triplets[0].source_audio, source)
        frames = spectral.mel_spectrogram(triplets[0].source_audio, config.mel).n_frames
        return triplets[0].instruction, frames

    instruction, frames = run.setup(build)
    run.start()
    latencies, digests = [], []

    def edit_op(k):
        out = run.workdir / f"edited-{k}.wav"
        seconds, report = cli_call(run, "edit", [
            "--checkpoint", str(ckpt), "--source", str(source),
            "--instruction", instruction, "--out", str(out),
            "--gl-iters", str(sizes["gl_iters"]),
            "--sampler.steps", str(sizes["sampler_steps"]),
            "--sampler.seed", str(run.seed),
        ])
        check(report["source_frames"] == report["output_frames"] == frames,
              f"edit frames {report['source_frames']} -> {report['output_frames']}, "
              f"source has {frames}")
        wav = audio.read_wav(out)
        check(bool(np.all(np.isfinite(wav.samples))), "non-finite edited audio")
        check(spectral.mel_spectrogram(wav, config.mel).n_frames == frames,
              "re-analysed edit has a different frame count")
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        out.unlink()
        check(digests[-1] == digests[0], "edited WAV bytes differ under one seed")
        latencies.append(seconds)

    run.repeat(lambda k: run.attempt(edit_op, k))
    latency = best_latency(latencies)
    return (
        {"throughput_per_s": clip_s / latency, "latency_s": latency},
        {"edit_latency_s": latency},
        {"edit_call_s": latencies},
    )


# ---------------------------------------------------------------------------
# corpus_forge_eval
# ---------------------------------------------------------------------------


def corpus_digest(root: Path) -> str:
    """sha256 over every file of a forged corpus, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def forge_argv(root: Path, sizes: dict, seed: int) -> list[str]:
    """Arguments of the ``rfaudio forge`` call that builds the corpus."""
    return [
        "--root", str(root), "--forge.items_per_task", str(sizes["items_per_task"]),
        "--forge.duration_s", str(sizes["duration_s"]), "--seed", str(seed),
    ]


def reference_for(run: Run, sizes: dict) -> dict | None:
    """The recorded corpus/eval reference for this seed and size, if any."""
    for entry in run.reference.get("corpus_forge_eval", ()):
        if entry["seed"] == run.seed and entry["sizes"] == sizes:
            return entry
    return None


def corpus_forge_eval(run: Run, sizes: dict):
    items = sizes["items_per_task"]
    reference = reference_for(run, sizes)
    run.setup(lambda: None)
    run.start()
    rates, latencies, clips, firsts = [], [], [], {}

    def forge_op(root, k):
        measure_memory = run.tracer is not None and k == 0
        if measure_memory:
            tracemalloc.start()
        try:
            seconds, report = cli_call(run, "forge", forge_argv(root, sizes, run.seed))
            if measure_memory:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                run.tracer.samples["traced_peak_mb"].append(peak)
        finally:
            if measure_memory:
                tracemalloc.stop()
        generated = sum(task["generated"] for task in report["counts"].values())
        check(generated == items * len(dataforge.TASKS), f"generated {generated} triplets")
        digest = corpus_digest(root)
        check(digest == firsts.setdefault("digest", digest), "corpus bytes differ under one seed")
        if reference is not None:
            check(digest == reference["corpus_sha256"], "corpus differs from the reference digest")
        rates.append(generated / seconds)

    def eval_op(root):
        seconds, report = cli_call(run, "eval", ["--manifest", str(root)])
        metrics = report["metrics"]
        check(all(math.isfinite(v) for v in metrics.values()), f"non-finite eval {metrics}")
        check(metrics == firsts.setdefault("eval", metrics), "eval metrics differ under one seed")
        if reference is not None:
            for name, want in reference["eval"].items():
                check(math.isclose(metrics[name], want, rel_tol=EVAL_RTOL),
                      f"eval {name} {metrics[name]!r} differs from the reference {want!r}")
        latencies.append(seconds)
        clips.append(report["counts"]["a"] + report["counts"]["b"])

    def round_fn(k):
        root = run.workdir / f"corpus-{k}"
        try:
            run.attempt(forge_op, root, k)
            run.attempt(eval_op, root)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    run.repeat(round_fn)
    rate, latency = best_rate(rates), best_latency(latencies)
    return (
        {"throughput_per_s": rate, "latency_s": latency},
        {"forge_items_per_s": rate, "eval_clips_per_s": median(clips) / latency},
        {"forge_items_per_s": rates, "eval_call_s": latencies},
    )


WORKLOADS = {
    "toy_train_sample": toy_train_sample,
    "edit_10s": edit_10s,
    "corpus_forge_eval": corpus_forge_eval,
}

#: units of the per-workload names returned next to the end-to-end metrics
NAMED_UNITS = {
    "train_steps_per_s": "1/s",
    "sample_items_per_s": "1/s",
    "edit_latency_s": "s",
    "forge_items_per_s": "1/s",
    "eval_clips_per_s": "1/s",
}
