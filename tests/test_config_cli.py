"""Run-config loading/overrides and the batch command-line entry points."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rfaudio
from rfaudio import audio
from rfaudio.audio import AudioBuffer, read_wav, write_wav
from rfaudio.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from rfaudio.config import ConfigError, RunConfig, from_dict, load_run_config, to_dict
from rfaudio.data import ToyModesDataset, build_toy_model, toy_mode_centers, toy_vocabulary
from rfaudio.dataforge import MANIFEST_VERSION, ForgeConfig, SyntheticLibrary, forge_corpus
from rfaudio.evalkit import embed_stats, energy_distance, frechet_distance, mel_summary_embedding
from rfaudio.spectral import lsd, mel_spectrogram

TINY_CFG = {
    "session_rate": 8000,
    "mel": {"sample_rate": 8000, "n_fft": 256, "hop": 64, "n_mels": 12},
    "forge": {"items_per_task": 2, "duration_s": 1.0},
    "model": {
        "d_lat": 12, "d_mel": 12, "d_sync": 1, "d_mm": 4, "d_trans": 4,
        "d_high": 8, "width": 8, "depth": 1, "heads": 2, "mlp_ratio": 2,
        "time_basis": 4,
    },
    "sampler": {"steps": 4},
    "train": {"batch_size": 4},
    "seed": 5,
}

TOY_MODEL_OVERRIDES = [
    "--model.d_lat", "2", "--model.d_mel", "2", "--model.d_sync", "1",
    "--model.d_mm", "4", "--model.d_trans", "4", "--model.d_high", "8",
    "--model.width", "8", "--model.depth", "1", "--model.heads", "2",
    "--model.mlp_ratio", "2", "--model.time_basis", "4",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared config file plus a forged corpus and a briefly trained model."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(TINY_CFG))
    data_root = root / "data"
    assert main(["forge", "--config", str(cfg_path), "--root", str(data_root)]) == EXIT_OK
    ckpt = root / "edit.ckpt"
    assert main([
        "train", "--config", str(cfg_path), "--data", str(data_root),
        "--out", str(ckpt), "--steps", "2",
    ]) == EXIT_OK
    return {"root": root, "cfg": str(cfg_path), "data": data_root, "ckpt": str(ckpt)}


# ---------------------------------------------------------------------------
# RunConfig defaults and (de)serialization
# ---------------------------------------------------------------------------


class TestRunConfigDefaults:
    def test_reference_operating_point(self):
        cfg = RunConfig()
        assert cfg.session_rate == 44100
        assert cfg.mel.sample_rate == 44100
        assert cfg.mel.n_fft == 1024
        assert cfg.mel.hop == 256
        assert cfg.mel.n_mels == 100
        assert cfg.train.lr == 5e-5
        assert cfg.train.beta1 == 0.9
        assert cfg.train.beta2 == 0.999
        assert cfg.train.weight_decay == 1e-3
        assert cfg.sampler.steps == 100
        assert cfg.sampler.guidance_scale == 6.0
        assert cfg.seed == 0

    def test_rate_coupling_enforced(self):
        with pytest.raises(ConfigError, match="session_rate"):
            RunConfig(session_rate=22050)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(seed=-1)

    def test_round_trip(self):
        cfg = RunConfig()
        again = from_dict(to_dict(cfg))
        assert again == cfg

    def test_round_trip_preserves_tuples(self):
        cfg = RunConfig()
        payload = to_dict(cfg)
        assert payload["forge"]["tasks"] == ["add", "remove", "extract"]
        assert from_dict(payload).forge.tasks == ("add", "remove", "extract")


class TestLoadRunConfig:
    def test_defaults_when_no_file(self):
        assert load_run_config() == RunConfig()

    def test_file_merge(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 9, "sampler": {"steps": 7}}))
        cfg = load_run_config(path)
        assert cfg.seed == 9
        assert cfg.sampler.steps == 7
        assert cfg.train.lr == 5e-5

    def test_rate_change_rederives_f_max(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "session_rate": 8000,
            "mel": {"sample_rate": 8000, "n_fft": 256, "hop": 64, "n_mels": 12},
        }))
        cfg = load_run_config(path)
        assert cfg.mel.f_max == 4000.0

    def test_unknown_file_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"sampler": {"step_count": 7}}))
        with pytest.raises(ConfigError, match="step_count"):
            load_run_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(path)

    def test_overrides_after_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"sampler": {"steps": 7}}))
        cfg = load_run_config(path, [("sampler.steps", "13"), ("seed", "2")])
        assert cfg.sampler.steps == 13
        assert cfg.seed == 2


class TestOverrides:
    def test_dotted_path(self):
        assert load_run_config(None, [("sampler.steps", "9")]).sampler.steps == 9

    def test_int_accepts_integral_float(self):
        steps = load_run_config(None, [("sampler.steps", "2.0")]).sampler.steps
        assert steps == 2 and isinstance(steps, int)

    def test_int_rejects_fraction(self):
        with pytest.raises(ConfigError, match="integer"):
            load_run_config(None, [("sampler.steps", "2.5")])

    def test_int_rejects_bool(self):
        with pytest.raises(ConfigError, match="integer"):
            load_run_config(None, [("sampler.steps", "true")])

    def test_float_accepts_int(self):
        value = load_run_config(None, [("sampler.guidance_scale", "3")]).sampler.guidance_scale
        assert value == 3.0 and isinstance(value, float)

    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "1e400", "1" + "0" * 400],
                             ids=["nan", "inf", "overflow", "huge_int"])
    def test_float_rejects_non_finite(self, raw):
        with pytest.raises(ConfigError, match="finite number"):
            load_run_config(None, [("train.lr", raw)])

    def test_bare_string_passthrough(self):
        cfg = load_run_config(None, [("sampler.solver", "midpoint")])
        assert cfg.sampler.solver == "midpoint"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_run_config(None, [("sampler.zzz", "1")])

    def test_unknown_root(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_run_config(None, [("zzz", "1")])

    def test_number_becomes_string(self):
        assert load_run_config(None, [("paths.output_dir", "2026")]).paths.output_dir == "2026"

    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize("raw", ['{"a": 1}', "[1, 2]", "true", "null"])
    def test_string_field_rejects_non_text(self, tmp_path, source, raw):
        if source == "file":
            path = tmp_path / "run.json"
            path.write_text(f'{{"paths": {{"data_root": {raw}}}}}')
            args = (path, [])
        else:
            args = (None, [("paths.data_root", raw)])
        with pytest.raises(ConfigError, match="'paths.data_root' expects a string"):
            load_run_config(*args)


# ---------------------------------------------------------------------------
# Toy distribution helpers
# ---------------------------------------------------------------------------


class TestToyHelpers:
    def test_centers_on_radius_four_circle(self):
        centers = toy_mode_centers()
        assert centers.shape == (8, 2)
        np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 4.0, rtol=1e-12)

    def test_vocabulary_single_words(self):
        vocab = toy_vocabulary()
        assert len(vocab) == 8
        assert all(" " not in word for word in vocab)

    def test_dataset_epochs_identical(self):
        cfg = load_run_config(None, [(k[2:], v) for k, v in
                                     zip(TOY_MODEL_OVERRIDES[::2], TOY_MODEL_OVERRIDES[1::2])])
        model = build_toy_model(cfg)
        ds = ToyModesDataset(model, seed=3, items_per_epoch=5)
        first = [x.copy() for x, _ in ds]
        second = [x.copy() for x, _ in ds]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        assert all(x.shape == (1, 2) for x in first)

    def test_points_near_modes(self):
        cfg = load_run_config(None, [(k[2:], v) for k, v in
                                     zip(TOY_MODEL_OVERRIDES[::2], TOY_MODEL_OVERRIDES[1::2])])
        model = build_toy_model(cfg)
        ds = ToyModesDataset(model, seed=0, items_per_epoch=64)
        centers = toy_mode_centers()
        for x, _bundle in ds:
            nearest = np.min(np.linalg.norm(centers - x[0], axis=1))
            assert nearest < 0.5


class TestTrainingStreamsPinned:
    """The training streams, compared exactly against values recorded before
    the datasets moved from ``rfaudio.cli`` to ``rfaudio.data``."""

    def test_toy_items(self, monkeypatch):
        cfg = load_run_config(None, [(k[2:], v) for k, v in
                                     zip(TOY_MODEL_OVERRIDES[::2], TOY_MODEL_OVERRIDES[1::2])])
        model = build_toy_model(cfg)
        assemble, instructions = model.conditioner.assemble, []

        def recording(*args, **kwargs):
            instructions.append(kwargs["instruction"])
            return assemble(*args, **kwargs)

        monkeypatch.setattr(model.conditioner, "assemble", recording)
        points = [x.tolist() for (x, _), _ in zip(ToyModesDataset(model, seed=0), range(4))]
        assert list(zip(points, instructions)) == [
            ([[2.881767086017967, 2.7473562590708482]], "mode1"),
            ([[2.8396343614950657, -2.9819293466714414]], "mode7"),
            ([[2.980783556942091, -2.819398433935593]], "mode7"),
            ([[2.7589626042622624, 2.846327494093377]], "mode1"),
        ]

    def test_corpus_training(self, workspace, tmp_path, capsys, monkeypatch):
        mask, spans = rfaudio.data.mask_prompt, []

        def recording(*args, **kwargs):
            masked, span = mask(*args, **kwargs)
            spans.append((span.start, span.end))
            return masked, span

        monkeypatch.setattr(rfaudio.data, "mask_prompt", recording)
        csv = tmp_path / "loss.csv"
        assert main(["train", "--config", workspace["cfg"], "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "m.ckpt"), "--steps", "3",
                     "--loss-csv", str(csv)]) == EXIT_OK
        capsys.readouterr()
        assert csv.read_text() == (
            "step,loss\n1,2.1369211673736572\n2,1.8141487836837769\n3,1.833022117614746\n"
        )
        # one epoch is the corpus's 5 pairs; each epoch redraws the same spans
        assert spans == [(31, 102), (29, 82), (19, 94), (3, 86), (44, 95)] * 2 + [
            (31, 102), (29, 82)]


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


class TestForgeCommand:
    def test_outputs_and_echo(self, workspace, capsys):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        assert manifest["version"] == 1
        assert manifest["config"]["seed"] == 5
        assert manifest["config"]["mel"]["sample_rate"] == 8000
        assert len(manifest["items"]) > 0
        for item in manifest["items"]:
            assert (workspace["data"] / item["source_path"]).is_file()
            assert (workspace["data"] / item["target_path"]).is_file()

    def test_deterministic_across_runs(self, workspace, tmp_path, capsys):
        roots = [tmp_path / "r1", tmp_path / "r2"]
        for root in roots:
            assert main(["forge", "--config", workspace["cfg"],
                         "--root", str(root)]) == EXIT_OK
        capsys.readouterr()
        m1 = (roots[0] / "manifest.json").read_bytes()
        m2 = (roots[1] / "manifest.json").read_bytes()
        assert m1 == m2
        wavs1 = sorted((roots[0] / "audio").iterdir())
        wavs2 = sorted((roots[1] / "audio").iterdir())
        assert [p.name for p in wavs1] == [p.name for p in wavs2]
        for a, b in zip(wavs1, wavs2):
            assert a.read_bytes() == b.read_bytes()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["forge", "--config", str(tmp_path / "nope.json")])
        capsys.readouterr()
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("flag", [["--scale", "1"], ["--preset", "desk"]],
                             ids=["scale", "preset"])
    def test_removed_size_flags_exit_before_work(self, flag, tmp_path, capsys):
        """``forge.items_per_task`` alone sets the corpus size."""
        root = tmp_path / "corpus"
        rc = main(["forge", "--root", str(root), *flag])
        err = json.loads(capsys.readouterr().err.strip())
        assert rc == EXIT_CONFIG
        assert "unknown config key" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_echo_records_the_settings_that_ran(self, workspace, tmp_path, capsys):
        root = tmp_path / "echo"
        assert main(["forge", "--config", workspace["cfg"], "--root", str(root),
                     "--seed", "3", "--forge.items_per_task", "2"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        manifest = json.loads((root / "manifest.json").read_text())
        assert all(c["generated"] == 2 for c in out["counts"].values())
        for echo in (out["config"], manifest["config"]):
            assert echo["seed"] == echo["forge"]["seed"] == 3
            assert echo["forge"]["items_per_task"] == 2
        assert all(item["id"].split("-")[1] == "3" for item in manifest["items"])

    @pytest.mark.parametrize("flags", [["--forge.seed", "7"],
                                       ["--seed", "3", "--forge.seed", "7"]],
                             ids=["forge-seed-alone", "seeds-disagree"])
    def test_forge_seed_other_than_top_level_exits_2(self, flags, workspace, tmp_path, capsys):
        """``forge.seed`` never picks the corpus, so a value the forge would ignore is refused."""
        root = tmp_path / "corpus"
        rc = main(["forge", "--config", workspace["cfg"], "--root", str(root), *flags])
        err = json.loads(capsys.readouterr().err.strip())
        assert rc == EXIT_CONFIG
        assert err["error"] == "config" and "--seed" in err["message"]
        assert not root.exists()

    def test_forge_seed_matching_top_level_forges(self, workspace, tmp_path, capsys):
        manifests = []
        for flags in (["--seed", "7"], ["--seed", "7", "--forge.seed", "7"]):
            root = tmp_path / str(len(manifests))
            assert main(["forge", "--config", workspace["cfg"], "--root", str(root),
                         *flags]) == EXIT_OK
            manifests.append((root / "manifest.json").read_bytes())
        capsys.readouterr()
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["config"]["forge"]["seed"] == 7

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("duration", [1e308, 1e300, 2e14])
    def test_duration_beyond_the_sample_count_exits_2(self, source, duration, tmp_path,
                                                      capsys):
        """A scene too long for one float64 array (2**60 samples or more) is refused
        naming the key, before any work."""
        root = tmp_path / "corpus"
        if source == "flag":
            flags = ["--forge.duration_s", repr(duration)]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"forge": {"duration_s": duration}}))
            flags = ["--config", str(cfg)]
        rc = main(["forge", "--root", str(root), "--forge.items_per_task", "1", *flags])
        err = capsys.readouterr().err.strip()
        assert rc == EXIT_CONFIG
        assert "\n" not in err
        payload = json.loads(err)
        assert payload["error"] == "config" and "forge.duration_s" in payload["message"]
        assert not root.exists()

    def test_unknown_wav_format_rejected_before_work(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        rc = main(["forge", "--root", str(root), "--forge.wav_format", "pcm24"])
        err = json.loads(capsys.readouterr().err.strip())
        assert rc == EXIT_CONFIG
        assert err["error"] == "config" and "pcm24" in err["message"]
        assert not root.exists()

    def test_library_at_another_rate_forges_at_session_rate(self, tmp_path, capsys):
        """An 8 kHz folder library forges a corpus that ``eval`` reads at the session rate."""
        library = SyntheticLibrary(sample_rate=8000, clip_seconds=0.5, background_seconds=2.0,
                                   seed=1)
        clip_ids = library.background_ids() + [
            clip for label in library.labels() for clip in library.clip_ids(label)
        ]
        for clip_id in clip_ids:
            path = tmp_path / "library" / f"{clip_id}.wav"
            path.parent.mkdir(parents=True, exist_ok=True)
            write_wav(library.resolve(clip_id), path)
        root = tmp_path / "corpus"
        rate = ["--session_rate", "16000", "--mel.sample_rate", "16000",
                "--forge.items_per_task", "1", "--forge.duration_s", "1.0"]
        assert main(["forge", "--root", str(root), "--library", str(tmp_path / "library"),
                     *rate]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["session_rate"] == 16000
        items = json.loads((root / "manifest.json").read_text())["items"]
        assert len(items) >= 2
        for item in items:
            assert read_wav(root / item["source_path"]).sample_rate == 16000
        assert main(["eval", "--manifest", str(root), *rate]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["counts"]["pairs"] == len(items)

    def test_top_level_seed_changes_data(self, workspace, tmp_path, capsys):
        root = tmp_path / "seeded"
        assert main(["forge", "--config", workspace["cfg"], "--root", str(root),
                     "--seed", "6"]) == EXIT_OK
        capsys.readouterr()
        other = json.loads((root / "manifest.json").read_text())
        base = json.loads((workspace["data"] / "manifest.json").read_text())
        assert other["items"] != base["items"]


class TestTrainCommand:
    def test_loss_csv_format(self, workspace):
        csv_path = Path(workspace["ckpt"] + ".loss.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 3
        for i, line in enumerate(lines[1:], start=1):
            step, loss = line.split(",")
            assert int(step) == i
            assert np.isfinite(float(loss))

    def test_checkpoint_deterministic(self, workspace, tmp_path, capsys):
        outs = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
        for out in outs:
            assert main(["train", "--config", workspace["cfg"],
                         "--data", str(workspace["data"]),
                         "--out", str(out), "--steps", "2"]) == EXIT_OK
        capsys.readouterr()
        assert outs[0].read_bytes() == outs[1].read_bytes()
        csv_a = Path(str(outs[0]) + ".loss.csv").read_bytes()
        csv_b = Path(str(outs[1]) + ".loss.csv").read_bytes()
        assert csv_a == csv_b

    def test_toy_smoke(self, tmp_path, capsys):
        out = tmp_path / "toy.ckpt"
        rc = main(["train", "--data", "toy", "--out", str(out), "--steps", "2",
                   *TOY_MODEL_OVERRIDES])
        report = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert out.is_file()
        assert np.isfinite(report["final_loss"])

    def test_toy_needs_2d_model(self, tmp_path, capsys):
        rc = main(["train", "--data", "toy", "--out", str(tmp_path / "x.ckpt"),
                   "--steps", "1"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"] == "data"

    def test_non_finite_checkpoint_refused(self, tmp_path, capsys):
        out = tmp_path / "toy.ckpt"
        out.write_bytes(b"old checkpoint")
        rc = main(["train", "--data", "toy", "--out", str(out), "--steps", "1",
                   "--train.lr", "1e39", *TOY_MODEL_OVERRIDES])
        err = json.loads(capsys.readouterr().err.strip())
        assert rc == EXIT_NUMERIC
        assert err["error"] == "numerical" and "at step 0" in err["message"]
        assert out.read_bytes() == b"old checkpoint"
        assert not Path(str(out) + ".json").exists()
        assert not Path(str(out) + ".loss.csv").exists()

    def test_overflow_stderr_is_one_json_line(self, tmp_path):
        """In a fresh interpreter, where no test harness captures numpy's
        overflow warnings, stderr holds only the JSON error."""
        src = str(Path(rfaudio.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rfaudio.cli", "train", "--data", "toy",
             "--out", str(tmp_path / "toy.ckpt"), "--steps", "1",
             "--train.lr", "1e39", *TOY_MODEL_OVERRIDES],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_NUMERIC
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "numerical"

    def test_bad_steps(self, workspace, capsys):
        rc = main(["train", "--config", workspace["cfg"], "--data", "toy",
                   "--steps", "0"])
        capsys.readouterr()
        assert rc == EXIT_CONFIG


class TestSampleCommand:
    def test_wav_out(self, workspace, tmp_path, capsys):
        out = tmp_path / "gen.wav"
        rc = main(["sample", "--config", workspace["cfg"],
                   "--checkpoint", workspace["ckpt"], "--out", str(out),
                   "--instruction", "add a sine tone to the recording.",
                   "--seconds", "0.5"])
        report = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        buf = read_wav(out)
        assert buf.sample_rate == 8000
        # requested 0.5 s -> frame grid quantizes near it
        assert abs(buf.duration_s - 0.5) < 0.05
        assert report["frames"] == 59

    def test_deterministic(self, workspace, tmp_path, capsys):
        outs = [tmp_path / "a.wav", tmp_path / "b.wav"]
        for out in outs:
            assert main(["sample", "--config", workspace["cfg"],
                         "--checkpoint", workspace["ckpt"], "--out", str(out),
                         "--instruction", "hello", "--seconds", "0.3"]) == EXIT_OK
        capsys.readouterr()
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_explicit_frames(self, workspace, tmp_path, capsys):
        out = tmp_path / "f.wav"
        rc = main(["sample", "--config", workspace["cfg"],
                   "--checkpoint", workspace["ckpt"], "--out", str(out),
                   "--frames", "10", "--gl-iters", "5"])
        report = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert report["frames"] == 10
        buf = read_wav(out)
        cfg = json.loads(Path(workspace["cfg"]).read_text())["mel"]
        assert len(buf.samples) == cfg["n_fft"] + 9 * cfg["hop"]

    def test_seconds_below_one_frame_exits_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "x.wav"
        rc = main(["sample", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
                   "--out", str(out), "--seconds", "0.001"])
        err = json.loads(capsys.readouterr().err)
        assert rc == EXIT_CONFIG and err["error"] == "config"
        # the codec's frame is n_fft = 256 samples at 8 kHz
        assert "--seconds" in err["message"] and "0.032 s" in err["message"]
        assert not out.exists()

    def test_missing_checkpoint(self, tmp_path, capsys):
        rc = main(["sample", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--out", str(tmp_path / "x.wav")])
        err = capsys.readouterr().err.strip()
        assert rc == EXIT_DATA
        assert "\n" not in err
        assert json.loads(err)["error"] == "data"

    @pytest.mark.parametrize(
        "field", ["magic", "header", "name_len", "name", "ndim", "shape", "payload"]
    )
    def test_truncated_checkpoint(self, workspace, tmp_path, capsys, field):
        blob = Path(workspace["ckpt"]).read_bytes()
        name_len = int.from_bytes(blob[24:28], "little")
        ndim_at = 28 + name_len
        cut = {
            "magic": 4, "header": 12, "name_len": 26, "name": 28 + name_len // 2,
            "ndim": ndim_at + 2, "shape": ndim_at + 6, "payload": len(blob) - 10,
        }[field]
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes(blob[:cut])
        Path(str(ckpt) + ".json").write_bytes(Path(workspace["ckpt"] + ".json").read_bytes())
        rc = main(["sample", "--config", workspace["cfg"], "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "x.wav"), "--frames", "4"])
        err = capsys.readouterr().err.strip()
        assert rc == EXIT_DATA
        assert json.loads(err)["error"] == "data"


    @pytest.mark.parametrize("corrupt", [
        lambda meta: [1, 2],
        lambda meta: {"nope": 1},
        lambda meta: {**meta, "config": {"bogus": 1}},
        lambda meta: {**meta, "config": {**meta["config"], "width": "64"}},
        lambda meta: {**meta, "toy_vocab": 5},
        lambda meta: {**meta, "toy_vocab": [1]},
        lambda meta: {**meta, "stats": [1]},
        lambda meta: {**meta, "stats": {**meta["stats"], "mel": {"bogus": 1}}},
        lambda meta: {**meta, "stats": {**meta["stats"], "mean": [[1]]}},
        lambda meta: {**meta, "config": {**meta["config"], "width": 2**40}},
        lambda meta: {**meta, "config": {**meta["config"], "depth": 2**31}},
        lambda meta: {**meta, "stats": {**meta["stats"],
                                        "mean": [float("nan")] + meta["stats"]["mean"][1:]}},
        lambda meta: {**meta, "stats": {**meta["stats"], "std": [0.0] * len(meta["stats"]["std"])}},
        lambda meta: {**meta, "seed": -5},
        *(lambda meta, hop=hop: {**meta, "stats": {**meta["stats"],
                                                   "mel": {**meta["stats"]["mel"], "hop": hop}}}
          for hop in (1.5, True, float("nan"))),
    ], ids=["list_root", "no_config", "unknown_key", "string_width", "vocab_int",
            "vocab_of_ints", "stats_list", "stats_bad_mel", "stats_bad_mean",
            "huge_width", "huge_depth", "stats_nan_mean", "stats_zero_std", "negative_seed",
            "stats_float_hop", "stats_bool_hop", "stats_nan_hop"])
    def test_malformed_sidecar(self, workspace, tmp_path, capsys, corrupt):
        ckpt = tmp_path / "m.ckpt"
        ckpt.write_bytes(Path(workspace["ckpt"]).read_bytes())
        meta = json.loads(Path(workspace["ckpt"] + ".json").read_text())
        sidecar = Path(str(ckpt) + ".json")
        sidecar.write_text(json.dumps(corrupt(meta)))
        rc = main(["sample", "--config", workspace["cfg"], "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "x.wav"), "--frames", "4"])
        err = json.loads(capsys.readouterr().err.strip())
        assert rc == EXIT_DATA
        assert err["error"] == "data" and str(sidecar) in err["message"]

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("field", [
        "d_lat", "d_mel", "d_sync", "d_mm", "d_trans", "d_high", "mlp_ratio", "time_basis",
        "toy_vocab",
    ])
    def test_sidecar_size_field_off_by_one(self, workspace, tmp_path, capsys, field, delta):
        """Every sidecar field that sets a parameter shape, one off, is refused
        naming the sidecar. ``toy_vocab`` gains or loses a word. ``heads`` only
        splits the width, so it sets no shape and is left out. An odd
        ``time_basis`` and a zero ``d_sync`` are refused by ``ModelConfig`` before
        the layout is consulted."""

        def corrupt(meta):
            if field == "toy_vocab":
                vocab = meta["toy_vocab"]
                return {**meta, "toy_vocab": vocab + ["zzz-extra"] if delta > 0 else vocab[:-1]}
            return {**meta, "config": {**meta["config"], field: meta["config"][field] + delta}}

        self.test_malformed_sidecar(workspace, tmp_path, capsys, corrupt)


class TestEditCommand:
    def test_preserves_frame_count(self, workspace, tmp_path, capsys):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        source = workspace["data"] / manifest["items"][0]["source_path"]
        out = tmp_path / "edited.wav"
        rc = main(["edit", "--config", workspace["cfg"],
                   "--checkpoint", workspace["ckpt"], "--source", str(source),
                   "--instruction", manifest["items"][0]["instruction"],
                   "--out", str(out), "--gl-iters", "8"])
        report = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert report["output_frames"] == report["source_frames"]
        cfg = load_run_config(workspace["cfg"])
        src_mel = mel_spectrogram(read_wav(source), cfg.mel)
        out_mel = mel_spectrogram(read_wav(out), cfg.mel)
        assert out_mel.n_frames == src_mel.n_frames

    def test_deterministic(self, workspace, tmp_path, capsys):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        source = workspace["data"] / manifest["items"][0]["source_path"]
        outs = [tmp_path / "a.wav", tmp_path / "b.wav"]
        for out in outs:
            assert main(["edit", "--config", workspace["cfg"],
                         "--checkpoint", workspace["ckpt"], "--source", str(source),
                         "--instruction", "remove the low hum from the recording.",
                         "--out", str(out), "--gl-iters", "5"]) == EXIT_OK
        capsys.readouterr()
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_missing_source(self, workspace, tmp_path, capsys):
        rc = main(["edit", "--config", workspace["cfg"],
                   "--checkpoint", workspace["ckpt"],
                   "--source", str(tmp_path / "nope.wav"),
                   "--instruction", "x", "--out", str(tmp_path / "y.wav")])
        capsys.readouterr()
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("rate", [22050, 48000])
    def test_source_at_another_rate(self, workspace, tmp_path, capsys, rate):
        """A source at another rate than the codec's is resampled on load."""
        t = np.arange(rate) / rate
        source = tmp_path / f"tone-{rate}.wav"
        write_wav(AudioBuffer(0.3 * np.sin(2 * np.pi * 440.0 * t), rate), source)
        rc = main(["edit", "--config", workspace["cfg"],
                   "--checkpoint", workspace["ckpt"], "--source", str(source),
                   "--instruction", "remove the tone", "--out", str(tmp_path / "out.wav"),
                   "--gl-iters", "2"])
        report = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        mel = load_run_config(workspace["cfg"]).mel
        assert report["source_frames"] == report["output_frames"] == mel.frame_count(mel.sample_rate)

    def test_source_at_codec_rate_not_resampled(self, workspace, tmp_path, capsys, monkeypatch):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        source = workspace["data"] / manifest["items"][0]["source_path"]

        def refuse(*args):
            raise AssertionError("a source at the codec rate was resampled")

        monkeypatch.setattr(rfaudio.audio, "resample", refuse)
        rc = main(["edit", "--config", workspace["cfg"],
                   "--checkpoint", workspace["ckpt"], "--source", str(source),
                   "--instruction", "x", "--out", str(tmp_path / "out.wav"), "--gl-iters", "2"])
        capsys.readouterr()
        assert rc == EXIT_OK


@pytest.mark.parametrize("command", ["sample", "edit"])
def test_echo_is_the_checkpoint_config(workspace, tmp_path, capsys, command):
    """The report echoes the model, mel and rate the checkpoint decided, not the run's."""
    manifest = json.loads((workspace["data"] / "manifest.json").read_text())
    source = workspace["data"] / manifest["items"][0]["source_path"]
    extra = ["--frames", "4"] if command == "sample" else ["--source", str(source)]
    wavs, reports = [], []
    for flags in (["--config", workspace["cfg"]], ["--model.d_lat", "3", "--mel.n_mels", "20"]):
        out = tmp_path / f"{len(wavs)}.wav"
        assert main([command, "--checkpoint", workspace["ckpt"], "--out", str(out),
                     "--instruction", "add a sine tone", "--gl-iters", "2",
                     "--sampler.steps", "2", *extra, *flags]) == EXIT_OK
        reports.append(json.loads(capsys.readouterr().out))
        wavs.append(out.read_bytes())
    want = to_dict(load_run_config(workspace["cfg"]))
    for report in reports:
        for key in ("model", "mel", "session_rate"):
            assert report["config"][key] == want[key], key
        assert report["config"]["sampler"]["steps"] == 2
    assert wavs[0] == wavs[1]


@pytest.mark.parametrize("command", ["sample", "edit"])
def test_checkpoint_without_codec_exits_3(workspace, tmp_path, capsys, command):
    """A ``train --data toy`` checkpoint has no codec, so it cannot make audio."""
    ckpt = tmp_path / "toy.ckpt"
    assert main(["train", "--data", "toy", "--out", str(ckpt), "--steps", "1",
                 *TOY_MODEL_OVERRIDES]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out.wav"
    argv = [command, "--checkpoint", str(ckpt), "--out", str(out), "--instruction", "x"]
    if command == "edit":
        item = json.loads((workspace["data"] / "manifest.json").read_text())["items"][0]
        argv += ["--source", str(workspace["data"] / item["source_path"])]
    rc = main(argv)
    err = capsys.readouterr().err.strip()
    assert rc == EXIT_DATA
    assert "\n" not in err
    payload = json.loads(err)
    assert payload["error"] == "data" and "no codec" in payload["message"]
    assert not out.exists()


@pytest.fixture(scope="module")
def eval_folders(workspace):
    """Two WAV folders cut from the workspace corpus that share only some names.

    The names sort out of numeric order (``clip10`` before ``clip2``), and a
    shared name holds a different clip on each side.
    """
    wavs = sorted((workspace["data"] / "audio").iterdir())
    dir_a, dir_b = workspace["root"] / "eval-a", workspace["root"] / "eval-b"
    dir_a.mkdir()
    dir_b.mkdir()
    for i in range(1, len(wavs) + 1):
        if i % 3:
            shutil.copy(wavs[i - 1], dir_a / f"clip{i}.wav")
        if i % 2 == 0:
            shutil.copy(wavs[i % len(wavs)], dir_b / f"clip{i}.wav")
    return dir_a, dir_b


def whole_corpus_metrics(paths_a, paths_b, pairs, mel_config) -> dict:
    """Eval's metrics computed with every clip's mel held at once."""
    mels = {p: mel_spectrogram(read_wav(p), mel_config) for p in {*paths_a, *paths_b}}
    emb_a = np.stack([mel_summary_embedding(mels[p]) for p in paths_a])
    emb_b = np.stack([mel_summary_embedding(mels[p]) for p in paths_b])
    return {
        "lsd": float(np.mean([lsd(mels[a], mels[b]) for a, b in pairs])),
        "fad-proxy": frechet_distance(embed_stats(emb_a, embedder=np.asarray),
                                      embed_stats(emb_b, embedder=np.asarray)),
        "energy-distance": energy_distance(emb_a, emb_b),
    }


class TestEvalCommand:
    #: eval's metrics on the workspace corpus and on ``eval_folders``, recorded
    #: before eval streamed its clips
    RECORDED = {
        "manifest": ({"energy-distance": 9.608127578070444, "fad-proxy": 469.1117507745872,
                      "lsd": 32.5481329680007}, {"a": 5, "b": 5, "pairs": 5}),
        "folders": ({"energy-distance": 1.7358182863364553, "fad-proxy": 167.2244642016437,
                     "lsd": 21.922909343812325}, {"a": 7, "b": 5, "pairs": 4}),
    }

    @pytest.mark.parametrize("mode", ["manifest", "folders"])
    def test_report_matches_whole_corpus_computation(self, workspace, eval_folders, capsys,
                                                     mode):
        """Streaming changes no byte of the report, whichever way the clips are named."""
        config = load_run_config(workspace["cfg"])
        if mode == "manifest":
            root = workspace["data"]
            items = json.loads((root / "manifest.json").read_text())["items"]
            paths_a = [root / item["source_path"] for item in items]
            paths_b = [root / item["target_path"] for item in items]
            pairs = list(zip(paths_a, paths_b))
            argv = ["--manifest", str(root)]
        else:
            dir_a, dir_b = eval_folders
            paths_a, paths_b = (sorted(d.iterdir()) for d in eval_folders)
            common = sorted({p.name for p in paths_a} & {p.name for p in paths_b})
            pairs = [(dir_a / name, dir_b / name) for name in common]
            argv = ["--dir-a", str(dir_a), "--dir-b", str(dir_b)]
        assert main(["eval", "--config", workspace["cfg"], *argv]) == EXIT_OK
        out = capsys.readouterr().out
        metrics, counts = self.RECORDED[mode]
        want = {
            "metrics": whole_corpus_metrics(paths_a, paths_b, pairs, config.mel),
            "counts": counts,
            "config": to_dict(config),
            "seeds": {"seed": config.seed},
        }
        assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"
        for name, value in metrics.items():
            assert want["metrics"][name] == pytest.approx(value, rel=1e-9), name

    @pytest.mark.parametrize("mode", ["manifest", "folders"])
    def test_report_independent_of_lane_count(self, workspace, eval_folders, monkeypatch,
                                              capsys, mode):
        """Running the pairs one per lane changes no byte of the report, with more
        lanes than this host may have cores and lane threads switching often."""
        argv = {"manifest": ["--manifest", str(workspace["data"])],
                "folders": ["--dir-a", str(eval_folders[0]), "--dir-b", str(eval_folders[1])]}
        outs = []
        interval = sys.getswitchinterval()
        for lanes in (1, 3):
            monkeypatch.setattr(audio, "_LANES", lanes)
            sys.setswitchinterval(1e-6)
            try:
                assert main(["eval", "--config", workspace["cfg"], *argv[mode]]) == EXIT_OK
            finally:
                sys.setswitchinterval(interval)
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("fault", ["truncated", "short"])
    def test_first_failing_pair_is_reported_at_any_lane_count(self, workspace, tmp_path,
                                                              monkeypatch, capsys, fault):
        """The second pair fails (a truncated target, or a target shorter than its
        source) and so does the third (truncated). At 3 lanes the failures meet in
        one group; the second pair's error is the one reported, as at 1 lane."""
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["data"], corpus)
        items = json.loads((corpus / "manifest.json").read_text())["items"]
        second, third = (corpus / item["target_path"] for item in items[1:3])
        for keep, path in ((2, second), (3, third)):  # two cuts, two distinct messages
            blob = path.read_bytes()
            path.write_bytes(blob[: len(blob) // keep])
        if fault == "short":
            clip = read_wav(corpus / items[1]["source_path"])
            write_wav(AudioBuffer(clip.samples[: len(clip) // 2], clip.sample_rate), second)
            want = "paired clips must share mel shape"
        else:
            with pytest.raises(ValueError) as error:
                read_wav(second)
            want = f"failed to analyze eval audio: {error.value}"
        errors = []
        for lanes in (1, 3):
            monkeypatch.setattr(audio, "_LANES", lanes)
            rc = main(["eval", "--config", workspace["cfg"], "--manifest", str(corpus)])
            err = capsys.readouterr().err
            assert rc == EXIT_DATA
            assert err.count("\n") == 1
            errors.append(err)
        assert errors[0] == errors[1]
        payload = json.loads(errors[0])
        assert payload["error"] == "data" and payload["message"].startswith(want)

    def test_memory_does_not_grow_with_corpus(self, tmp_path, capsys):
        """Three times the pairs, about the same peak: eval holds one pair at a time."""
        library = SyntheticLibrary(sample_rate=44100, clip_seconds=1.0,
                                   background_seconds=4.0, seed=0)
        peaks = {}
        for items in (2, 6):
            root = tmp_path / str(items)
            forge_corpus(library, root, ForgeConfig(items_per_task=items, duration_s=4.0, seed=5))
            tracemalloc.start()
            try:
                assert main(["eval", "--manifest", str(root)]) == EXIT_OK
                peaks[items] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[6] <= 1.25 * peaks[2], {k: f"{v / 2**20:.1f} MB" for k, v in peaks.items()}

    def test_folder_vs_itself_is_zero(self, workspace, capsys):
        audio_dir = str(workspace["data"] / "audio")
        rc = main(["eval", "--config", workspace["cfg"],
                   "--dir-a", audio_dir, "--dir-b", audio_dir])
        report = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert report["metrics"]["lsd"] == 0.0
        assert report["metrics"]["fad-proxy"] == 0.0
        assert report["metrics"]["energy-distance"] == 0.0

    def test_manifest_report(self, workspace, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--config", workspace["cfg"],
                   "--manifest", str(workspace["data"]),
                   "--out", str(report_path)])
        stdout_report = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        file_report = json.loads(report_path.read_text())
        assert file_report == stdout_report
        metrics = file_report["metrics"]
        assert metrics["lsd"] > 0.0
        assert metrics["fad-proxy"] >= 0.0
        assert metrics["energy-distance"] >= 0.0
        assert file_report["config"]["mel"]["n_mels"] == 12
        assert file_report["counts"]["pairs"] == file_report["counts"]["a"]

    def test_requires_inputs(self, capsys):
        rc = main(["eval"])
        err = capsys.readouterr().err.strip()
        assert rc == EXIT_CONFIG
        assert json.loads(err)["error"] == "config"

    def test_manifest_and_folders_exit_2(self, workspace, tmp_path, capsys):
        rc = main(["eval", "--config", workspace["cfg"], "--manifest", str(workspace["data"]),
                   "--dir-a", str(tmp_path / "ghost-a"), "--dir-b", str(tmp_path / "ghost-b")])
        err = json.loads(capsys.readouterr().err)
        assert rc == EXIT_CONFIG and err["error"] == "config"
        assert "--manifest" in err["message"]

    def test_missing_folder(self, workspace, tmp_path, capsys):
        rc = main(["eval", "--config", workspace["cfg"],
                   "--dir-a", str(tmp_path / "ghost"),
                   "--dir-b", str(workspace["data"] / "audio")])
        capsys.readouterr()
        assert rc == EXIT_DATA


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("items", [
    [{"id": "a"}, {"id": "b"}],
    [1, 2],
    [{"id": str(i), "source_path": 5, "target_path": "t.wav", "instruction": "add"}
     for i in range(2)],
], ids=["missing_keys", "not_objects", "int_source_path"])
def test_malformed_manifest_items(workspace, tmp_path, capsys, command, items):
    (tmp_path / "manifest.json").write_text(
        json.dumps({"version": MANIFEST_VERSION, "items": items})
    )
    argv = {
        "train": ["--data", str(tmp_path), "--out", str(tmp_path / "x.ckpt"), "--steps", "1"],
        "eval": ["--manifest", str(tmp_path)],
    }[command]
    rc = main([command, "--config", workspace["cfg"], *argv])
    err = json.loads(capsys.readouterr().err.strip())
    assert rc == EXIT_DATA
    assert err["error"] == "data"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("where", ["parent", "absolute"])
def test_manifest_path_outside_corpus(workspace, tmp_path, capsys, command, where):
    """A manifest item whose audio lies outside the corpus root is refused, even
    when the file it names exists and would read cleanly."""
    items = json.loads((workspace["data"] / "manifest.json").read_text())["items"][:2]
    outside = tmp_path / "outside" / "x.wav"
    outside.parent.mkdir()
    shutil.copy(workspace["data"] / items[1]["source_path"], outside)
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace["data"] / "audio", corpus / "audio")
    items[1]["source_path"] = {"parent": "../outside/x.wav", "absolute": str(outside)}[where]
    (corpus / "manifest.json").write_text(
        json.dumps({"version": MANIFEST_VERSION, "items": items})
    )
    argv = {
        "train": ["--data", str(corpus), "--out", str(tmp_path / "x.ckpt"), "--steps", "1"],
        "eval": ["--manifest", str(corpus)],
    }[command]
    rc = main([command, "--config", workspace["cfg"], *argv])
    err = json.loads(capsys.readouterr().err.strip())
    assert rc == EXIT_DATA
    assert err["error"] == "data"
    assert items[1]["id"] in err["message"] and "source_path" in err["message"]
    assert not (tmp_path / "x.ckpt").exists()


def _capped_run(args, cap_bytes=1200 * 2**20):
    """Run ``python -m rfaudio.cli`` in a fresh interpreter under an address-space cap."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    src = str(Path(rfaudio.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # OpenBLAS reserves buffers per thread at import; keep that small on many-core hosts
    env["OPENBLAS_NUM_THREADS"] = "1"
    return subprocess.run([sys.executable, "-m", "rfaudio.cli", *args], capture_output=True,
                          text=True, env=env, timeout=240, preexec_fn=cap)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps on Linux")
@pytest.mark.parametrize("command", ["sample", "train"])
def test_out_of_memory_is_one_json_line(workspace, tmp_path, command):
    """Work too large for the memory cap exits 3 with one JSON line, not a traceback."""
    argv = {
        # the untaped attention's [1, 2, 128, 899997] float64 score block: 1.72 GiB
        "sample": ["--checkpoint", workspace["ckpt"], "--instruction", "x",
                   "--seconds", "7200", "--out", str(tmp_path / "g.wav")],
        # the taped [4000, 2, 122, 122] float32 attention probabilities: 454 MiB
        "train": ["--data", str(workspace["data"]), "--steps", "1",
                  "--train.batch_size", "4000", "--out", str(tmp_path / "m.ckpt")],
    }[command]
    proc = _capped_run([command, "--config", workspace["cfg"], *argv])
    assert proc.returncode == EXIT_DATA, proc.stderr[-2000:]
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr[-2000:]
    assert json.loads(lines[0])["error"] == "memory"
    assert not (tmp_path / "g.wav").exists() and not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "sample", "edit", "eval"])
def test_output_directory_created(workspace, tmp_path, capsys, command):
    """An output under a missing directory is written there, not refused after the work."""
    out = tmp_path / "new" / "dir" / "out"
    source = workspace["data"] / json.loads(
        (workspace["data"] / "manifest.json").read_text())["items"][0]["source_path"]
    argv = {
        "train": ["--data", str(workspace["data"]), "--steps", "1",
                  "--out", str(tmp_path / "m.ckpt"), "--loss-csv", str(out)],
        "sample": ["--checkpoint", workspace["ckpt"], "--frames", "4", "--gl-iters", "2",
                   "--out", str(out)],
        "edit": ["--checkpoint", workspace["ckpt"], "--source", str(source),
                 "--instruction", "x", "--gl-iters", "2", "--out", str(out)],
        "eval": ["--manifest", str(workspace["data"]), "--out", str(out)],
    }[command]
    assert main([command, "--config", workspace["cfg"], *argv]) == EXIT_OK
    capsys.readouterr()
    assert out.is_file() and out.stat().st_size > 0


COLD_START_SCRIPT = """
import contextlib, io, json, sys
import numpy as np
from rfaudio import cli
from rfaudio.autodiff import Tensor, gelu

cfg, root = sys.argv[1:3]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["forge", "--config", cfg, "--root", root]) == 0
    assert cli.main(["eval", "--config", cfg, "--manifest", root]) == 0
before = sorted(name for name in sys.modules if name.startswith("scipy"))
gelu(Tensor(np.zeros(2)))
print(json.dumps({"before": before, "after": "scipy.special" in sys.modules}))
"""


def test_forge_and_eval_never_load_scipy(workspace, tmp_path):
    """A fresh interpreter imports ``rfaudio.cli``, forges and evaluates on numpy
    alone; scipy arrives with the first gelu."""
    src = str(Path(rfaudio.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_SCRIPT, workspace["cfg"], str(tmp_path / "corpus")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["before"] == []
    assert loaded["after"] is True


class TestGradcheckCommand:
    def test_passes(self, capsys):
        rc = main(["gradcheck"])
        report = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert report["passed"] is True
        assert report["ops_max"] < report["tolerances"]["ops"]
        assert report["flow_loss"] < report["tolerances"]["flow_loss"]
        assert "config" in report


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        rc = main(["frobnicate"])
        err = capsys.readouterr().err.strip()
        assert rc == EXIT_CONFIG
        assert json.loads(err)["error"] == "config"

    def test_unknown_override_key(self, capsys):
        rc = main(["train", "--data", "toy", "--steps", "1", "--zzz.k", "1"])
        capsys.readouterr()
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("override", [["--seed.x", "1"], ["--sampler", "5"]])
    def test_override_shape_mismatch(self, override, capsys):
        rc = main(["train", "--data", "toy", "--steps", "1", *override])
        err = json.loads(capsys.readouterr().err.strip())
        assert rc == EXIT_CONFIG
        assert err["error"] == "config"

    def test_override_missing_value(self, capsys):
        rc = main(["train", "--data", "toy", "--steps", "1", "--sampler.steps"])
        err = capsys.readouterr().err.strip()
        assert rc == EXIT_CONFIG
        assert "missing a value" in json.loads(err)["message"]

    def test_equals_syntax(self, tmp_path, capsys):
        out = tmp_path / "toy.ckpt"
        rc = main(["train", "--data", "toy", "--out", str(out), "--steps", "1",
                   "--model.d_lat=2", "--model.d_mel=2", "--model.d_sync=1",
                   "--model.d_mm=4", "--model.d_trans=4", "--model.d_high=8",
                   "--model.width=8", "--model.depth=1", "--model.heads=2",
                   "--model.mlp_ratio=2", "--model.time_basis=4"])
        capsys.readouterr()
        assert rc == EXIT_OK

    @pytest.mark.parametrize("command,key,value", [
        ("train", "train.dropout_p", "1.5"),
        ("train", "train.dropout_p", "-0.1"),
        ("train", "train.beta1", "1.0"),
        ("train", "train.beta2", "-0.5"),
        ("train", "train.eps", "-1"),
        ("train", "train.eps", "0"),
        ("train", "train.weight_decay", "-0.001"),
        ("train", "train.log_every", "-1"),
        ("sample", "sampler.seed", "-1"),
    ])
    def test_out_of_range_config_exits_2(self, command, key, value, tmp_path, capsys):
        """Refused as a config error naming the key, before any work."""
        inputs = {"train": ["--data", "toy", "--steps", "1", *TOY_MODEL_OVERRIDES],
                  "sample": ["--checkpoint", str(tmp_path / "missing.ckpt")]}
        out = tmp_path / "out"
        rc = main([command, "--out", str(out), *inputs[command], f"--{key}", value])
        err = json.loads(capsys.readouterr().err.strip())
        assert rc == EXIT_CONFIG
        assert err["error"] == "config"
        assert key.split(".")[1] in err["message"]
        assert not out.exists()

    def test_positional_junk(self, capsys):
        rc = main(["train", "--data", "toy", "--steps", "1", "junk"])
        capsys.readouterr()
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "toy", "--steps", "0"],
        ["sample", "--seconds", "inf"],
        ["sample", "--seconds", "nan"],
        ["sample", "--seconds", "-1"],
        ["sample", "--seconds", "0"],
        ["sample", "--frames", "0"],
        ["sample", "--gl-iters", "0"],
        ["edit", "--source", "missing.wav", "--instruction", "a", "--gl-iters", "0"],
    ], ids=lambda argv: "_".join(arg.removeprefix("--") for arg in argv))
    def test_bad_numeric_flag_exits_before_work(self, argv, tmp_path, capsys, monkeypatch):
        """Refused at parse time, even with a missing checkpoint, writing nothing."""
        monkeypatch.chdir(tmp_path)
        paths = {
            "train": ["--out", "model.ckpt"],
            "sample": ["--checkpoint", "missing.ckpt", "--out", "out.wav"],
            "edit": ["--checkpoint", "missing.ckpt", "--out", "out.wav"],
        }[argv[0]]
        rc = main([*argv, *paths])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.count("\n") == 1 and json.loads(err)["error"] == "config"
        assert list(tmp_path.iterdir()) == []

    def test_stderr_is_single_line_json(self, capsys):
        main(["eval"])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n")
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
