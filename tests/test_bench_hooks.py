"""The benchmark's tracing hooks still reach the entry points they rebind.

``benchmarks/tracing.py`` swaps rfaudio functions for timing wrappers by
name and reads their arguments and results. A change that renames or
reshapes one of them would otherwise show only as a broken ``--trace 1``
run or as a per-layer metric that quietly reads zero. The module is loaded
from its file and left as it is.
"""

import importlib.util
import json
from pathlib import Path

import rfaudio.flow as flow
from rfaudio.cli import EXIT_OK, main
from rfaudio.data import ToyModesDataset, toy_vocabulary
from rfaudio.model import FlowModel, ModelConfig

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("rfaudio_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_forge_filter_hooks_count_every_screened_triplet(tmp_path, capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer("hooks")
    with tracing.instrument(tracer):
        rc = main(["forge", "--root", str(tmp_path / "corpus"),
                   "--forge.items_per_task", "1", "--forge.duration_s", "2"])
    report = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    generated = sum(c["generated"] for c in report["counts"].values())
    kept = sum(c["kept"] for c in report["counts"].values())
    assert generated == 3
    assert tracer.counters["filter_in"] == generated
    assert tracer.counters["filter_kept"] == kept

    # every screen measures voice activity through the traced global
    names = [span[0] for span in tracer.spans]
    vad_parents = [names[span[3]] for span in tracer.spans if span[0] == "audio.vad"]
    assert vad_parents == ["dataforge.filter"] * generated


def test_forge_spans_nest_and_count_once_per_triplet(tmp_path, capsys):
    """Every traced DSP and composition entry point runs once per triplet, on the
    calling thread: no span escapes its parent's interval."""
    tracing = _load_tracing()
    tracer = tracing.Tracer("nesting")
    with tracing.instrument(tracer):
        rc = main(["forge", "--root", str(tmp_path / "corpus"),
                   "--forge.items_per_task", "2", "--forge.duration_s", "2"])
    capsys.readouterr()
    assert rc == EXIT_OK

    spans = tracer.spans
    for name, start, end, parent in spans:
        assert end is not None and start <= end, name
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, (name, spans[parent][0])

    names = [span[0] for span in spans]
    generated = names.count("dataforge.make_triplet")
    assert generated == 6
    for name in ("audio.time_stretch", "audio.pitch_shift", "audio.mix_at_snr",
                 "dataforge.compose"):
        assert names.count(name) == generated, name


def test_train_and_sample_hooks_read_the_model():
    """The optimizer hook sizes the store it is handed; the sampling hook counts
    two network evaluations per guided step."""
    tracing = _load_tracing()
    tracer = tracing.Tracer("train-sample")
    config = ModelConfig(d_lat=2, d_mel=2, d_sync=1, d_mm=4, d_trans=4, d_high=8,
                         width=8, depth=1, heads=2, mlp_ratio=2, time_basis=4)
    model = FlowModel(config, seed=0, toy_vocab=toy_vocabulary())
    steps = 2
    with tracing.instrument(tracer):
        flow.train(model, ToyModesDataset(model, items_per_epoch=4), steps,
                   flow.TrainConfig(batch_size=2, log_every=0))
        bundles = [model.conditioner.assemble(1, instruction="mode0")]
        flow.sample_batch(model, bundles, (1, 2),
                          flow.SamplerConfig(steps=steps, guidance_scale=3.0))
    samples = tracer.samples
    assert samples["optim.param_arrays"] == [len(model.params)]
    assert samples["optim.scalars"] == [model.params.n_scalars()]
    assert samples["nfe_per_call"] == [2 * steps]
    names = [span[0] for span in tracer.spans]
    assert names.count("flow.train_step") == steps


def test_eval_times_one_mel_analysis_per_clip(tmp_path, capsys):
    """Eval analyses each clip through the traced ``mel_spectrogram``, so
    ``spectral.mel_ms`` times every clip rather than reading zero."""
    root = tmp_path / "corpus"
    assert main(["forge", "--root", str(root),
                 "--forge.items_per_task", "1", "--forge.duration_s", "2"]) == EXIT_OK
    clips = 2 * sum(c["kept"] for c in json.loads(capsys.readouterr().out)["counts"].values())
    tracing = _load_tracing()
    tracer = tracing.Tracer("eval")
    with tracing.instrument(tracer):
        rc = main(["eval", "--manifest", str(root)])
    capsys.readouterr()
    assert rc == EXIT_OK
    names = [span[0] for span in tracer.spans]
    assert clips >= 4
    assert names.count("spectral.mel") == names.count("audio.read_wav") == clips
