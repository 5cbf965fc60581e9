"""Span tracing installed from outside rfaudio by rebinding its entry points.

Nothing in ``src/`` knows about this module. :func:`instrument` swaps public
functions and methods for timing wrappers in the namespaces that call them
(for example ``rfaudio.flow.adamw_step``, the global that ``flow.train``
looks up on every step) and restores the originals on exit. Spans carry a name, start,
end and parent index; all spans of one run share the tracer's run id. They
stay in memory until :meth:`Tracer.write` dumps them when the run ends.

:func:`layer_metrics` reduces the spans and counters to the per-layer
metrics that ``BENCHMARK.json`` lists under ``per_layer``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_clock = time.perf_counter

#: spans around timed calls; every span belongs to the innermost one it runs in
PHASES = frozenset({
    "flow.train", "flow.sample_batch", "flow.sample", "cli.edit", "cli.forge", "cli.eval",
})
SAMPLING_PHASES = frozenset({"flow.sample_batch", "flow.sample"})

#: percentiles tried, highest first, for the "p_hi" tail metrics
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: samples that must lie beyond a reported tail percentile
_TAIL_MIN_BEYOND = 10


class Tracer:
    """In-memory span recorder plus named counters and per-call samples."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self._marks: dict[str, tuple[float, float]] = {}

    @property
    def active(self) -> bool:
        """True inside any span, i.e. while a timed operation runs."""
        return bool(self._stack)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def mark(self, key: str) -> None:
        """Start a run of back-to-back steps (see :meth:`step`)."""
        self._marks[key] = (_clock(), self.counters["ops"])

    def step(self, key: str, name: str) -> None:
        """Record one step span from the previous mark to now, then re-mark.

        Steps are bounded by events the program exposes (the end of each
        optimizer update, the end of each guided velocity), so a step covers
        everything the loop did between two such events.
        """
        start, ops = self._marks[key]
        end = _clock()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])
        self.samples[f"ops.{name}"].append(self.counters["ops"] - ops)
        self._marks[key] = (end, self.counters["ops"])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "spans": len(self.spans),
                                 "fields": ["run_id", "name", "start", "end", "parent"]}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([self.run_id, name, start, end, parent]) + "\n")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _timed(tracer: Tracer, name: str, fn, before=None, after=None):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        index = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _time_backward(tracer: Tracer, name: str, tensor) -> None:
    if tensor._backward is not None:
        tensor._backward = _timed(tracer, name, tensor._backward)


def _op(tracer: Tracer, name: str, fn):
    """Forward span around a tape op, plus a span around its backward closure."""

    def after(args, kwargs, out):
        _time_backward(tracer, f"{name}.bwd", out)

    return _timed(tracer, f"{name}.fwd", fn, after=after)


def _attention(tracer: Tracer, fn):
    """Attention is composed of several tape ops: time every closure they own."""

    def after(args, kwargs, out):
        inputs = {id(t) for t in args[:3]}
        work, seen = [out], set()
        while work:
            node = work.pop()
            if id(node) in inputs or id(node) in seen:
                continue
            seen.add(id(node))
            _time_backward(tracer, "autodiff.attention.bwd", node)
            work.extend(node._parents)

    return _timed(tracer, "autodiff.attention.fwd", fn, after=after)


def _patches(tracer: Tracer, rf) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced entry point."""
    flow, cli, model, autodiff = rf.flow, rf.cli, rf.model, rf.autodiff
    dataforge, spectral = rf.dataforge, rf.spectral
    c, s = tracer.counters, tracer.samples

    def make(name, data, parents, backward, _orig=autodiff._make):
        if tracer.active:
            c["ops"] += 1
            c["ops_f64"] += data.dtype == np.float64
        return _orig(name, data, parents, backward)

    def sampling(name, fn):
        state = {}

        def before(args, kwargs):
            state["nfe"] = args[0].forward_count
            tracer.mark("sample")

        def after(args, kwargs, out):
            s["nfe_per_call"].append(args[0].forward_count - state["nfe"])

        return _timed(tracer, name, fn, before=before, after=after)

    def train_before(args, kwargs):
        tracer.mark("train")

    def adamw_after(args, kwargs, out):
        params = args[0]
        if "optim.scalars" not in s:
            s["optim.param_arrays"].append(len(params))
            s["optim.scalars"].append(params.n_scalars())
        tracer.step("train", "flow.train_step")

    def cfg_after(args, kwargs, out):
        tracer.step("sample", "flow.sample_step")

    def forward_before(args, kwargs):
        s["_forward_ops"].append(c["ops"])

    def forward_after(args, kwargs, out):
        s["ops_per_forward"].append(c["ops"] - s["_forward_ops"].pop())

    def resolve_before(args, kwargs):
        s["resolve_ids"].append(args[1])

    def forge_before(args, kwargs):
        c["built"] = c["written"] = 0

    def built(args, kwargs, out):
        c["built"] += 1
        c["max_unwritten"] = max(c["max_unwritten"], c["built"] - c["written"])

    def written(args, kwargs, out):
        c["written"] += 1

    def filtered(args, kwargs, out):
        c["filter_in"] += len(args[0])
        c["filter_kept"] += len(out.kept)

    def wav_bytes(args, kwargs, out):
        s["wav_bytes"].append(os.path.getsize(args[1]))

    read_wav = _timed(tracer, "audio.read_wav", cli.read_wav)
    cli_write = _timed(tracer, "audio.write_wav", cli.write_wav, after=wav_bytes)
    forge_write = _timed(tracer, "audio.write_wav", dataforge.write_wav, after=wav_bytes)
    embedding = _timed(tracer, "evalkit.embedding", cli.mel_summary_embedding)
    return [
        # flow
        (flow, "train", _timed(tracer, "flow.train", flow.train, before=train_before)),
        (flow, "rf_loss", _timed(tracer, "flow.rf_loss", flow.rf_loss)),
        (flow, "sample_batch", sampling("flow.sample_batch", flow.sample_batch)),
        (cli, "sample", sampling("flow.sample", cli.sample)),
        (flow, "cfg_velocity", _timed(tracer, "flow.cfg_velocity", flow.cfg_velocity,
                                      after=cfg_after)),
        (cli, "load_model", _timed(tracer, "flow.load_model", cli.load_model)),
        (flow.LatentCodec, "decode",
         _timed(tracer, "flow.codec_decode", flow.LatentCodec.decode)),
        # optim
        (flow, "adamw_step", _timed(tracer, "optim.adamw", flow.adamw_step, after=adamw_after)),
        # autodiff
        (autodiff, "_make", make),
        (autodiff.Tensor, "backward",
         _timed(tracer, "autodiff.backward", autodiff.Tensor.backward)),
        (model, "matmul", _op(tracer, "autodiff.matmul", model.matmul)),
        (model, "layer_norm", _op(tracer, "autodiff.layer_norm", model.layer_norm)),
        (model, "gelu", _op(tracer, "autodiff.gelu", model.gelu)),
        (model, "scaled_dot_product_attention",
         _attention(tracer, model.scaled_dot_product_attention)),
        # conditioning
        (rf.conditioning.Conditioner, "assemble",
         _timed(tracer, "conditioning.assemble", rf.conditioning.Conditioner.assemble)),
        # model
        (model.FlowModel, "_forward",
         _timed(tracer, "model.forward", model.FlowModel._forward,
                before=forward_before, after=forward_after)),
        (model.TimeEmbedding, "embed_batch",
         _timed(tracer, "model.time_embed", model.TimeEmbedding.embed_batch)),
        (flow, "collate_bundles", _timed(tracer, "model.collate", flow.collate_bundles)),
        # spectral
        (cli, "griffin_lim", _timed(tracer, "spectral.griffin_lim", cli.griffin_lim)),
        (spectral, "istft", _timed(tracer, "spectral.istft", spectral.istft)),
        (cli, "mel_spectrogram", _timed(tracer, "spectral.mel", cli.mel_spectrogram)),
        (cli, "lsd", _timed(tracer, "spectral.lsd", cli.lsd)),
        # audio
        (dataforge, "time_stretch", _timed(tracer, "audio.time_stretch", dataforge.time_stretch)),
        (dataforge, "pitch_shift", _timed(tracer, "audio.pitch_shift", dataforge.pitch_shift)),
        (dataforge, "mix_at_snr", _timed(tracer, "audio.mix_at_snr", dataforge.mix_at_snr)),
        (dataforge, "vad_activity_ratio",
         _timed(tracer, "audio.vad", dataforge.vad_activity_ratio)),
        (dataforge, "write_wav", forge_write),
        (cli, "write_wav", cli_write),
        (cli, "read_wav", read_wav),
        # dataforge
        (cli, "forge_corpus",
         _timed(tracer, "dataforge.forge_corpus", cli.forge_corpus, before=forge_before)),
        (dataforge.SyntheticLibrary, "resolve",
         _timed(tracer, "dataforge.resolve", dataforge.SyntheticLibrary.resolve,
                before=resolve_before)),
        (dataforge, "compose_soundscape",
         _timed(tracer, "dataforge.compose", dataforge.compose_soundscape)),
        (dataforge, "make_triplet",
         _timed(tracer, "dataforge.make_triplet", dataforge.make_triplet, after=built)),
        (dataforge, "filter_pipeline",
         _timed(tracer, "dataforge.filter", dataforge.filter_pipeline, after=filtered)),
        (dataforge, "write_triplet_audio",
         _timed(tracer, "dataforge.write_audio", dataforge.write_triplet_audio, after=written)),
        (dataforge, "write_manifest",
         _timed(tracer, "dataforge.manifest", dataforge.write_manifest)),
        # evalkit
        (cli, "mel_summary_embedding", embedding),
        (rf.evalkit, "mel_summary_embedding", embedding),
        (cli, "embed_stats", _timed(tracer, "evalkit.embed_stats", cli.embed_stats)),
        (cli, "frechet_distance", _timed(tracer, "evalkit.frechet", cli.frechet_distance)),
        (cli, "energy_distance",
         _timed(tracer, "evalkit.energy_distance", cli.energy_distance)),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Install every traced entry point for the duration of the block."""
    import rfaudio.cli  # imports every module the patches touch

    patches = _patches(tracer, rfaudio)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------


def _self_times(spans: list[list]) -> list[float]:
    """Duration minus the union of the intervals covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(index, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def _phases(spans: list[list]) -> list[str | None]:
    """The innermost phase span each span runs in; None outside timed calls."""
    out: list[str | None] = []
    for name, _start, _end, parent in spans:
        out.append(name if name in PHASES else (out[parent] if parent >= 0 else None))
    return out


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in _TAIL_LADDER:
        if len(values) * (1.0 - pct / 100.0) >= _TAIL_MIN_BEYOND:
            return float(np.percentile(values, pct)), pct
    return (max(values), 100.0) if values else (0.0, 0.0)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit). Layers a workload never enters read 0.

    Only spans inside a phase (a timed call) count, so fixture preparation
    between calls does not leak in.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    selfs: dict[str, list[float]] = defaultdict(list)
    sampling: dict[str, list[float]] = defaultdict(list)
    training: dict[str, list[float]] = defaultdict(list)
    spans = tracer.spans
    for span, self_time, phase in zip(spans, _self_times(spans), _phases(spans)):
        if phase is None:
            continue
        ms = 1e3 * (span[2] - span[1])
        durations[span[0]].append(ms)
        selfs[span[0]].append(1e3 * self_time)
        if phase in SAMPLING_PHASES:
            sampling[span[0]].append(ms)
        elif phase == "flow.train":
            training[span[0]].append(ms)
    c, s = tracer.counters, tracer.samples

    def med(name):
        return _median(durations[name])

    def count(name):
        return len(durations[name])

    def per(total: float, unit_count: int) -> float:
        return total / unit_count if unit_count else 0.0

    forwards = count("model.forward")
    backwards = count("autodiff.backward")
    train_steps = count("flow.train_step")
    generated = count("dataforge.make_triplet")
    griffin = count("spectral.griffin_lim")
    m: dict[str, tuple[float, str]] = {}

    step_ms = durations["flow.train_step"]
    step_hi, step_rank = _tail(step_ms)
    m["flow.train_step_ms"] = (_median(step_ms), "ms")
    m["flow.train_step_ms.p_hi"] = (step_hi, "ms")
    m["flow.train_step_ms.p_hi_rank"] = (step_rank, "%")
    m["flow.train_step_ms.count"] = (len(step_ms), "count")
    m["flow.rf_loss_ms"] = (med("flow.rf_loss"), "ms")
    m["flow.sample_step_ms"] = (med("flow.sample_step"), "ms")
    m["flow.load_model_ms"] = (med("flow.load_model"), "ms")
    m["flow.codec_decode_ms"] = (med("flow.codec_decode"), "ms")

    m["autodiff.backward_ms"] = (_median(selfs["autodiff.backward"]), "ms")
    for op in ("matmul", "attention", "layer_norm", "gelu"):
        m[f"autodiff.{op}.fwd_ms"] = (per(sum(durations[f"autodiff.{op}.fwd"]), forwards), "ms")
        m[f"autodiff.{op}.bwd_ms"] = (per(sum(durations[f"autodiff.{op}.bwd"]), backwards), "ms")
    m["autodiff.matmul.calls"] = (per(count("autodiff.matmul.fwd"), forwards), "count")
    m["autodiff.ops_per_step"] = (_median(s["ops.flow.train_step"]), "count")
    m["autodiff.ops_per_forward"] = (_median(s["ops_per_forward"]), "count")

    m["optim.adamw_ms"] = (med("optim.adamw"), "ms")
    m["optim.param_arrays"] = (_median(s["optim.param_arrays"]), "count")
    m["optim.scalars"] = (_median(s["optim.scalars"]), "count")

    assembles = count("conditioning.assemble")
    top_calls = count("cli.edit") + count("cli.forge") + count("cli.eval")
    m["conditioning.assemble_ms"] = (med("conditioning.assemble"), "ms")
    m["conditioning.assemble_calls"] = (per(assembles, train_steps or top_calls), "count")

    m["model.forward_ms"] = (_median(sampling["model.forward"]), "ms")
    m["model.nfe_per_call"] = (_median(s["nfe_per_call"]), "count")
    m["model.time_embed_ms"] = (_median(sampling["model.time_embed"]), "ms")
    m["model.collate_ms"] = (_median(training["model.collate"]), "ms")
    m["model.float64_op_share"] = (per(c["ops_f64"], int(c["ops"])), "ratio")

    m["spectral.griffin_lim_ms"] = (med("spectral.griffin_lim"), "ms")
    m["spectral.istft_calls"] = (per(count("spectral.istft"), griffin), "count")
    m["spectral.mel_ms"] = (med("spectral.mel"), "ms")
    m["spectral.lsd_ms"] = (med("spectral.lsd"), "ms")

    for name in ("time_stretch", "pitch_shift", "mix_at_snr", "vad", "write_wav", "read_wav"):
        m[f"audio.{name}_ms"] = (med(f"audio.{name}"), "ms")
    m["audio.bytes_written"] = (_median(s["wav_bytes"]), "B")

    ids = s["resolve_ids"]
    m["dataforge.resolve_ms"] = (med("dataforge.resolve"), "ms")
    m["dataforge.resolve_calls"] = (per(len(ids), generated), "count")
    m["dataforge.resolve_distinct_ratio"] = (per(len(set(ids)), len(ids)), "ratio")
    m["dataforge.compose_ms"] = (med("dataforge.compose"), "ms")
    triplet_ms = durations["dataforge.make_triplet"]
    triplet_hi, triplet_rank = _tail(triplet_ms)
    m["dataforge.make_triplet_ms"] = (_median(triplet_ms), "ms")
    m["dataforge.make_triplet_ms.p_hi"] = (triplet_hi, "ms")
    m["dataforge.make_triplet_ms.p_hi_rank"] = (triplet_rank, "%")
    m["dataforge.make_triplet_ms.count"] = (len(triplet_ms), "count")
    m["dataforge.filter_ms"] = (med("dataforge.filter"), "ms")
    m["dataforge.kept_ratio"] = (per(c["filter_kept"], int(c["filter_in"])), "ratio")
    m["dataforge.write_audio_ms"] = (med("dataforge.write_audio"), "ms")
    m["dataforge.manifest_ms"] = (med("dataforge.manifest"), "ms")
    m["dataforge.max_unwritten_triplets"] = (c["max_unwritten"], "count")
    m["dataforge.traced_peak_mb"] = (_median(s["traced_peak_mb"]), "MB")

    m["evalkit.embedding_ms"] = (med("evalkit.embedding"), "ms")
    m["evalkit.embed_stats_ms"] = (med("evalkit.embed_stats"), "ms")
    m["evalkit.frechet_ms"] = (med("evalkit.frechet"), "ms")
    m["evalkit.energy_distance_ms"] = (med("evalkit.energy_distance"), "ms")

    for command in ("edit", "forge", "eval"):
        m[f"cli.{command}_self_ms"] = (_median(selfs[f"cli.{command}"]), "ms")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
