"""Tests for the edit-triplet forge: specs, composition, filtering, manifests."""

import gc
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from rfaudio.audio import AudioBuffer, read_wav, vad_activity_ratio
from rfaudio import audio, dataforge
from rfaudio.dataforge import (
    DESK_ITEMS_PER_TASK,
    PITCH_RANGE,
    SNR_RANGE,
    STRETCH_RANGE,
    TASKS,
    EditTriplet,
    EventSpec,
    FolderLibrary,
    ForgeConfig,
    SceneSpec,
    SyntheticLibrary,
    compose_soundscape,
    draw_event,
    draw_scene,
    filter_pipeline,
    forge_corpus,
    instruction_for,
    load_manifest,
    make_triplet,
    manifest_item,
    trimmed_stem,
    write_manifest,
    write_triplet_audio,
    _pink_noise,
)
from rfaudio.audio import write_wav
from rfaudio.cli import EXIT_DATA, main

RATE = 8000
LIB = SyntheticLibrary(sample_rate=RATE, clip_seconds=0.5, background_seconds=2.0, seed=3)


def event(clip_id="sine tone/v0", label="sine tone", onset=0.25, snr=1.0,
          pitch=0.0, stretch=1.0, seed=0):
    return EventSpec(clip_id=clip_id, label=label, onset_s=onset, snr_db=snr,
                     pitch_semitones=pitch, stretch=stretch, seed=seed)


def scene(events, seed=0, duration=2.0, background_id="background/v0"):
    return SceneSpec(background_id=background_id, events=tuple(events),
                     duration_s=duration, seed=seed)


class StubLibrary:
    """Dict-backed library for silent/mismatched-rate error paths."""

    def __init__(self, mapping):
        self.mapping = mapping

    def resolve(self, clip_id):
        return self.mapping[clip_id]

    def background_ids(self):
        return sorted(k for k in self.mapping if k.startswith("background/"))

    def labels(self):
        return sorted({k.split("/")[0] for k in self.mapping
                       if not k.startswith("background/")})

    def clip_ids(self, label):
        return sorted(k for k in self.mapping if k.startswith(label + "/"))

    def clip_duration_s(self, clip_id):
        return self.mapping[clip_id].duration_s


def sine_clip(duration_s=0.5, rate=RATE, amp=0.25, freq=440.0):
    t = np.arange(int(duration_s * rate)) / rate
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), rate)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


class TestEventSpec:
    def test_valid_construction(self):
        ev = event(snr=3.0, pitch=-3.0, stretch=0.8)
        assert ev.snr_db == 3.0 and ev.stretch == 0.8

    @pytest.mark.parametrize("kwargs", [
        {"snr": -0.01}, {"snr": 3.01},
        {"pitch": -3.01}, {"pitch": 3.01},
        {"stretch": 0.79}, {"stretch": 1.21},
        {"onset": -0.1},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            event(**kwargs)

    def test_empty_ids_rejected(self):
        with pytest.raises(ValueError):
            event(clip_id="")
        with pytest.raises(ValueError):
            event(label="")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            event(seed=-1)

    def test_draws_stay_in_range(self):
        rng = np.random.default_rng(123)
        for _ in range(10_000):
            ev = draw_event(rng, LIB, 2.0)
            assert SNR_RANGE[0] <= ev.snr_db <= SNR_RANGE[1]
            assert PITCH_RANGE[0] <= ev.pitch_semitones <= PITCH_RANGE[1]
            assert STRETCH_RANGE[0] <= ev.stretch <= STRETCH_RANGE[1]
            assert ev.onset_s >= 0.0
            assert ev.onset_s + LIB.clip_duration_s(ev.clip_id) * ev.stretch <= 2.0 + 1e-9


class TestSceneSpec:
    def test_events_coerced_to_tuple(self):
        sc = SceneSpec(background_id="background/v0", events=[event()], duration_s=2.0)
        assert isinstance(sc.events, tuple)

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            SceneSpec(background_id="background/v0", duration_s=0.0)

    def test_non_event_rejected(self):
        with pytest.raises(TypeError):
            SceneSpec(background_id="background/v0", events=("nope",), duration_s=2.0)


class TestEditTriplet:
    def test_instruction_must_contain_label(self):
        with pytest.raises(ValueError, match="verbatim"):
            EditTriplet(id="x", task="add", instruction="Add a dog bark.",
                        event=event(), seed=0)

    def test_bad_task(self):
        with pytest.raises(ValueError):
            EditTriplet(id="x", task="mute", instruction="sine tone",
                        event=event(), seed=0)


# ---------------------------------------------------------------------------
# Libraries
# ---------------------------------------------------------------------------


class TestSyntheticLibrary:
    def test_catalogue_shape(self):
        labels = LIB.labels()
        assert labels == sorted(labels)
        assert len(labels) >= 4
        assert "background" not in labels
        for label in labels:
            assert LIB.clip_ids(label) == [f"{label}/v{k}" for k in range(3)]
        assert LIB.background_ids() == ["background/v0", "background/v1", "background/v2"]

    def test_resolve_deterministic(self):
        for cid in ("noise burst/v1", "background/v2", "click train/v0"):
            a = LIB.resolve(cid)
            b = LIB.resolve(cid)
            assert np.array_equal(a.samples, b.samples)
            assert a.sample_rate == RATE

    def test_clip_length_and_level(self):
        for label in LIB.labels():
            for cid in LIB.clip_ids(label):
                clip = LIB.resolve(cid)
                assert len(clip) == int(0.5 * RATE)
                peak = np.max(np.abs(clip.samples))
                assert 0.0 < peak <= 0.35

    def test_event_clips_are_vad_active(self):
        for label in LIB.labels():
            clip = LIB.resolve(f"{label}/v0")
            assert vad_activity_ratio(clip) >= 0.4, label

    def test_background_cached_read_only(self):
        lib = SyntheticLibrary(sample_rate=RATE, clip_seconds=0.5, background_seconds=2.0, seed=3)
        first = lib.resolve("background/v1")
        again = lib.resolve("background/v1")
        assert np.array_equal(first.samples, again.samples)
        with pytest.raises(ValueError, match="read-only"):
            again.samples[0] = 1.0
        assert np.array_equal(first.samples, LIB.resolve("background/v1").samples)

    @pytest.mark.parametrize("change", [
        {"seed": 4}, {"sample_rate": 16000}, {"background_seconds": 3.0},
    ], ids=["seed", "rate", "duration"])
    def test_background_cache_not_shared(self, change):
        """After another library warmed its cache, a library differing in one setting
        still hands out the background its own settings make."""
        settings = dict(sample_rate=RATE, clip_seconds=0.5, background_seconds=2.0, seed=3)
        SyntheticLibrary(**settings).resolve("background/v0")
        other = SyntheticLibrary(**{**settings, **change})
        n = int(round(other.background_seconds * other.sample_rate))
        want = 0.1 * _pink_noise(np.random.default_rng([other.seed, 0x6267, 0]), n)
        assert np.array_equal(other.resolve("background/v0").samples, want)

    def test_dropped_library_frees_its_cache_at_once(self):
        """No reference cycle: the last reference going frees the library and its
        cached backgrounds, without waiting for the cyclic collector."""
        lib = SyntheticLibrary(sample_rate=RATE, clip_seconds=0.5, background_seconds=2.0)
        lib.resolve("background/v0")
        lib.resolve("warble/v1")
        dropped = weakref.ref(lib)
        gc.disable()
        try:
            del lib
            assert dropped() is None
        finally:
            gc.enable()

    def test_backgrounds_nonsilent_and_long(self):
        bg = LIB.resolve("background/v0")
        assert len(bg) == int(2.0 * RATE)
        assert np.max(np.abs(bg.samples)) > 1e-3

    def test_unknown_ids(self):
        with pytest.raises(KeyError):
            LIB.resolve("dog bark/v0")
        with pytest.raises(KeyError):
            LIB.resolve("sine tone/v9")
        with pytest.raises(KeyError):
            LIB.resolve("sine tone")
        with pytest.raises(KeyError):
            LIB.clip_ids("dog bark")

    def test_duration_helper(self):
        assert LIB.clip_duration_s("sine tone/v0") == 0.5
        assert LIB.clip_duration_s("background/v0") == 2.0


class TestFolderLibrary:
    @pytest.fixture()
    def folder_root(self, tmp_path):
        for label in ("sine tone", "warble"):
            d = tmp_path / label
            d.mkdir()
            for k in range(2):
                write_wav(LIB.resolve(f"{label}/v{k}"), d / f"v{k}.wav")
        bg_dir = tmp_path / "background"
        bg_dir.mkdir()
        write_wav(LIB.resolve("background/v0"), bg_dir / "v0.wav")
        return tmp_path

    def test_scan_and_resolve(self, folder_root):
        lib = FolderLibrary(folder_root)
        assert lib.labels() == ["sine tone", "warble"]
        assert lib.clip_ids("sine tone") == ["sine tone/v0", "sine tone/v1"]
        assert lib.background_ids() == ["background/v0"]
        got = lib.resolve("sine tone/v1")
        want = LIB.resolve("sine tone/v1").samples.astype(np.float32).astype(np.float64)
        assert np.array_equal(got.samples, want)
        assert got.sample_rate == RATE
        assert lib.clip_duration_s("warble/v0") == pytest.approx(0.5)

    def test_duration_from_header_alone(self, folder_root, monkeypatch):
        lib = FolderLibrary(folder_root)
        want = {c: lib.resolve(c).duration_s for c in ("warble/v0", "background/v0")}

        def no_decode(path, session_rate=None):
            raise AssertionError(f"decoded {path}")

        monkeypatch.setattr(dataforge, "read_wav", no_decode)
        assert {c: lib.clip_duration_s(c) for c in want} == want
        with pytest.raises(KeyError):
            lib.clip_duration_s("warble/v7")

    def test_unknown_clip(self, folder_root):
        lib = FolderLibrary(folder_root)
        with pytest.raises(KeyError):
            lib.resolve("sine tone/v7")
        with pytest.raises(KeyError):
            lib.clip_ids("dog bark")

    def test_empty_root_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FolderLibrary(tmp_path)
        with pytest.raises(ValueError):
            FolderLibrary(tmp_path / "missing")


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


class TestComposeSoundscape:
    def test_single_event_sum_identity(self):
        sc = scene([event()])
        out = compose_soundscape(sc, LIB)
        assert len(out.mixture) == int(2.0 * RATE)
        assert np.array_equal(
            out.mixture.samples, out.background.samples + out.stems[0].samples
        )

    def test_untransformed_stem_window(self):
        sc = scene([event(onset=0.25, pitch=0.0, stretch=1.0)])
        out = compose_soundscape(sc, LIB)
        stem = out.stems[0].samples
        onset = int(0.25 * RATE)
        n_clip = int(0.5 * RATE)
        assert np.all(stem[:onset] == 0.0)
        assert np.all(stem[onset + n_clip:] == 0.0)
        assert np.any(stem[onset:onset + n_clip] != 0.0)

    def test_background_is_the_library_array(self):
        """The scene reads the library's read-only background; nothing copies it."""
        out = compose_soundscape(scene([event()]), LIB)
        bed = LIB.resolve("background/v0").samples
        assert np.shares_memory(out.background.samples, bed)
        assert not out.background.samples.flags.writeable

    def test_zero_events(self):
        out = compose_soundscape(scene([]), LIB)
        assert out.stems == ()
        assert np.array_equal(out.mixture.samples, out.background.samples)

    def test_two_event_order_identity(self):
        sc = scene([event(onset=0.1), event(clip_id="warble/v0", label="warble", onset=1.2)])
        out = compose_soundscape(sc, LIB)
        rebuilt = (out.background.samples + out.stems[0].samples) + out.stems[1].samples
        assert np.array_equal(out.mixture.samples, rebuilt)

    def test_deterministic(self):
        sc = scene([event(pitch=1.5, stretch=1.1, seed=5)], seed=9)
        a = compose_soundscape(sc, LIB)
        b = compose_soundscape(sc, LIB)
        assert np.array_equal(a.mixture.samples, b.mixture.samples)
        assert np.array_equal(a.stems[0].samples, b.stems[0].samples)

    def test_overrun_rejected(self):
        with pytest.raises(ValueError, match="overruns"):
            compose_soundscape(scene([event(onset=1.8)]), LIB)

    def test_stretch_changes_extent(self):
        sc = scene([event(onset=0.0, stretch=1.2)])
        out = compose_soundscape(sc, LIB)
        nz = np.flatnonzero(out.stems[0].samples)
        assert nz[-1] + 1 <= int(round(0.5 * RATE * 1.2))
        assert nz[-1] + 1 > int(0.5 * RATE)

    def test_silent_background_rejected(self):
        lib = StubLibrary({
            "background/b0": AudioBuffer(np.zeros(2 * RATE), RATE),
            "sine tone/v0": sine_clip(),
        })
        sc = scene([event()], background_id="background/b0")
        with pytest.raises(ValueError, match="silent"):
            compose_soundscape(sc, lib)

    def test_rate_mismatch_rejected(self):
        lib = StubLibrary({
            "background/b0": AudioBuffer(0.1 * np.ones(2 * RATE), RATE),
            "sine tone/v0": sine_clip(rate=4000),
        })
        sc = scene([event()], background_id="background/b0")
        with pytest.raises(ValueError, match="rate"):
            compose_soundscape(sc, lib)

    def test_short_background_rejected(self):
        sc = scene([event()], duration=3.0)
        with pytest.raises(ValueError, match="shorter"):
            compose_soundscape(sc, LIB)


# ---------------------------------------------------------------------------
# Triplets
# ---------------------------------------------------------------------------


class TestMakeTriplet:
    @pytest.fixture()
    def two_event_scene(self):
        return scene(
            [event(onset=0.1, seed=4),
             event(clip_id="warble/v1", label="warble", onset=1.2, seed=5)],
            seed=21,
        )

    def test_task_algebra_is_sample_exact(self, two_event_scene):
        t_add = make_triplet("add", two_event_scene, LIB, event_index=1)
        t_rem = make_triplet("remove", two_event_scene, LIB, event_index=1)
        t_ext = make_triplet("extract", two_event_scene, LIB, event_index=1)

        assert np.array_equal(t_add.target_audio.samples, t_rem.source_audio.samples)
        assert np.array_equal(t_add.source_audio.samples, t_rem.target_audio.samples)
        assert np.array_equal(t_ext.source_audio.samples, t_rem.source_audio.samples)
        assert np.array_equal(t_ext.target_audio.samples, t_add.event_stem.samples)
        assert np.array_equal(
            t_add.source_audio.samples + t_add.event_stem.samples,
            t_add.target_audio.samples,
        )

    def test_one_event_minus_is_the_background(self):
        t_add = make_triplet("add", scene([event()]), LIB)
        assert np.shares_memory(t_add.source_audio.samples, LIB.resolve("background/v0").samples)
        assert np.array_equal(
            t_add.target_audio.samples,
            LIB.resolve("background/v0").samples + t_add.event_stem.samples,
        )

    def test_last_event_full_matches_composed_mixture(self, two_event_scene):
        composed = compose_soundscape(two_event_scene, LIB)
        t_add = make_triplet("add", two_event_scene, LIB, event_index=1)
        assert np.array_equal(t_add.target_audio.samples, composed.mixture.samples)

    def test_metadata(self, two_event_scene):
        t = make_triplet("extract", two_event_scene, LIB, event_index=1)
        assert t.task == "extract"
        assert t.event.label == "warble"
        assert "warble" in t.instruction
        assert t.seed == 21
        assert t.id == "extract-s21-e1"
        assert len(t.source_audio) == len(t.target_audio) == int(2.0 * RATE)

    def test_instruction_deterministic(self, two_event_scene):
        a = make_triplet("add", two_event_scene, LIB, event_index=0)
        b = make_triplet("add", two_event_scene, LIB, event_index=0)
        assert a.instruction == b.instruction
        assert np.array_equal(a.source_audio.samples, b.source_audio.samples)

    def test_explicit_id(self, two_event_scene):
        t = make_triplet("add", two_event_scene, LIB, event_index=0, triplet_id="add-000")
        assert t.id == "add-000"

    def test_no_events_rejected(self):
        with pytest.raises(ValueError, match="no events"):
            make_triplet("add", scene([]), LIB)

    def test_bad_event_index(self):
        with pytest.raises(ValueError, match="out of range"):
            make_triplet("add", scene([event()]), LIB, event_index=1)

    def test_bad_task(self):
        with pytest.raises(ValueError):
            make_triplet("mute", scene([event()]), LIB)


class TestInstructionTemplates:
    def test_all_templates_mention_label(self):
        rng = np.random.default_rng(0)
        for task in TASKS:
            seen = set()
            for _ in range(200):
                text = instruction_for(task, "sine tone", rng)
                assert "sine tone" in text
                seen.add(text)
            assert len(seen) == 5

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            instruction_for("mute", "sine tone", np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------


def triplet_with_stem(stem: AudioBuffer, tid="t0") -> EditTriplet:
    return EditTriplet(id=tid, task="add", instruction="Add a sine tone.",
                       event=event(), seed=0, event_stem=stem)


def placed_stem(active: AudioBuffer, timeline_s=2.0, onset_s=0.5) -> AudioBuffer:
    out = np.zeros(int(timeline_s * RATE))
    start = int(onset_s * RATE)
    out[start:start + len(active)] = active.samples
    return AudioBuffer(out, RATE)


class TestFiltering:
    def test_trimmed_stem(self):
        stem = placed_stem(sine_clip(0.2))
        trimmed = trimmed_stem(stem)
        assert len(trimmed) <= int(0.2 * RATE)
        assert trimmed.samples[0] != 0.0
        assert trimmed_stem(AudioBuffer(np.zeros(100), RATE)) is None

    def test_vad_uses_trimmed_extent(self):
        # 0.2 s of tone on a 2 s timeline: the padded ratio would be ~0.1,
        # the trimmed ratio ~1.0. The screen must judge the trimmed stem.
        stem = placed_stem(sine_clip(0.2))
        assert vad_activity_ratio(stem) < 0.3
        report = filter_pipeline([triplet_with_stem(stem)], 0.3)
        assert len(report.kept) == 1 and report.rejected == {"vad": 0}

    def test_vad_rejects_silent_and_quiet(self):
        silent = triplet_with_stem(AudioBuffer(np.zeros(2 * RATE), RATE), "silent")
        quiet = triplet_with_stem(placed_stem(sine_clip(0.3, amp=1e-4)), "quiet")
        report = filter_pipeline([silent, quiet], 0.3)
        assert report.kept == [] and report.rejected == {"vad": 2}

    def test_zero_threshold_keeps_all_zero_stem(self):
        silent = triplet_with_stem(AudioBuffer(np.zeros(2 * RATE), RATE))
        assert filter_pipeline([silent], 0.0).kept == [silent]

    def test_vad_requires_stem(self):
        with pytest.raises(ValueError, match="stem"):
            filter_pipeline([triplet_with_stem(None)])

    def test_pipeline_counts_first_failing_stage(self):
        first = triplet_with_stem(placed_stem(sine_clip(0.3)), "first")
        silent = triplet_with_stem(AudioBuffer(np.zeros(2 * RATE), RATE), "silent")
        last = triplet_with_stem(placed_stem(sine_clip(0.4)), "last")
        report = filter_pipeline([first, silent, last])
        assert [t.id for t in report.kept] == ["first", "last"]
        assert report.rejected == {"vad": 1}


# ---------------------------------------------------------------------------
# Writing and manifests
# ---------------------------------------------------------------------------


class TestManifest:
    @pytest.fixture()
    def written(self, tmp_path):
        triplets = []
        for i, task in enumerate(("add", "remove")):
            sc = scene([event(seed=i)], seed=100 + i)
            t = make_triplet(task, sc, LIB, triplet_id=f"{task}-{i:03d}")
            triplets.append(write_triplet_audio(t, tmp_path))
        path = write_manifest(triplets, tmp_path)
        return tmp_path, triplets, path

    def test_audio_files_and_paths(self, written):
        root, triplets, _ = written
        for t in triplets:
            assert t.source_path == f"audio/{t.id}_src.wav"
            src = read_wav(root / t.source_path)
            tgt = read_wav(root / t.target_path)
            want_src = t.source_audio.samples.astype(np.float32).astype(np.float64)
            want_tgt = t.target_audio.samples.astype(np.float32).astype(np.float64)
            assert np.array_equal(src.samples, want_src)
            assert np.array_equal(tgt.samples, want_tgt)

    def test_round_trip_fields(self, written):
        root, triplets, path = written
        payload = load_manifest(path)
        assert payload["version"] == 1
        ids = [item["id"] for item in payload["items"]]
        assert ids == sorted(ids)
        by_id = {item["id"]: item for item in payload["items"]}
        for t in triplets:
            item = by_id[t.id]
            assert item == manifest_item(t)
            assert item["event"]["onset_s"] == t.event.onset_s
            assert item["event"]["stretch"] == t.event.stretch
            assert item["seed"] == t.seed
            assert item["provenance"] == "synthesis"

    def test_duplicate_ids_rejected(self, written):
        root, triplets, _ = written
        with pytest.raises(ValueError, match="duplicate"):
            write_manifest([triplets[0], triplets[0]], root)

    def test_unwritten_triplet_rejected(self, tmp_path):
        t = make_triplet("add", scene([event()]), LIB)
        with pytest.raises(ValueError, match="unset"):
            write_manifest([t], tmp_path)

    @pytest.mark.parametrize("bad", ["../outside/x.wav", "/abs/x.wav", "audio/../../x.wav"])
    @pytest.mark.parametrize("key", ["source_path", "target_path"])
    def test_paths_outside_the_corpus_rejected(self, written, key, bad):
        root, _, path = written
        payload = json.loads(path.read_text())
        payload["items"][1][key] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"item 1 .*{key}.*not a path inside"):
            load_manifest(path)

    def test_bad_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"version": 2, "items": []}))
        with pytest.raises(ValueError, match="version"):
            load_manifest(path)
        path.write_text(json.dumps({"version": 1, "items": "nope"}))
        with pytest.raises(ValueError, match="item list"):
            load_manifest(path)


# ---------------------------------------------------------------------------
# End-to-end forge
# ---------------------------------------------------------------------------

TINY = ForgeConfig(items_per_task=3, duration_s=2.0, seed=11)


class TestForgeConfig:
    def test_desk_default(self):
        assert ForgeConfig().items_per_task == DESK_ITEMS_PER_TASK == 150

    @pytest.mark.parametrize("kwargs", [
        {"items_per_task": -1},
        {"tasks": ("mute",)},
        {"tasks": ()},
        {"duration_s": 0.0},
        {"events_per_scene": 0},
        {"vad_threshold": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ForgeConfig(**kwargs)


class TestForgeCorpus:
    def test_end_to_end(self, tmp_path):
        summary = forge_corpus(LIB, tmp_path, TINY)
        assert summary.manifest_path == tmp_path / "manifest.json"
        payload = load_manifest(summary.manifest_path)
        for task in TASKS:
            c = summary.counts[task]
            assert c["generated"] == 3
            assert c["kept"] + sum(c["rejected"].values()) == 3
        assert len(payload["items"]) == sum(summary.counts[t]["kept"] for t in TASKS)
        for item in payload["items"]:
            assert item["event"]["label"] in item["instruction"]
            src = read_wav(tmp_path / item["source_path"])
            tgt = read_wav(tmp_path / item["target_path"])
            assert len(src) == len(tgt) == int(2.0 * RATE)

    def test_add_difference_is_confined_to_event_window(self, tmp_path):
        forge_corpus(LIB, tmp_path, TINY)
        payload = load_manifest(tmp_path / "manifest.json")
        add_items = [i for i in payload["items"] if i["task"] == "add"]
        assert add_items
        item = add_items[0]
        src = read_wav(tmp_path / item["source_path"]).samples
        tgt = read_wav(tmp_path / item["target_path"]).samples
        diff = tgt - src
        onset = int(round(item["event"]["onset_s"] * RATE))
        assert np.all(diff[:onset] == 0.0)
        assert np.any(diff[onset:] != 0.0)

    def test_bit_identical_across_runs(self, tmp_path):
        root_a = tmp_path / "a"
        root_b = tmp_path / "b"
        forge_corpus(LIB, root_a, TINY)
        forge_corpus(LIB, root_b, TINY)
        text_a = (root_a / "manifest.json").read_text()
        text_b = (root_b / "manifest.json").read_text()
        assert text_a == text_b
        item = load_manifest(root_a / "manifest.json")["items"][0]
        bytes_a = (root_a / item["source_path"]).read_bytes()
        bytes_b = (root_b / item["source_path"]).read_bytes()
        assert bytes_a == bytes_b

    def test_bytes_independent_of_lane_count(self, tmp_path, monkeypatch):
        """The vocoder and resampler lanes change no byte of a seed-0 corpus."""
        lib = SyntheticLibrary(background_seconds=2.0)
        cfg = ForgeConfig(items_per_task=2, duration_s=2.0)
        corpora = []
        for lanes in (1, 2):
            monkeypatch.setattr(audio, "_LANES", lanes)
            root = tmp_path / f"lanes{lanes}"
            forge_corpus(lib, root, cfg)
            corpora.append({p.relative_to(root): p.read_bytes()
                            for p in sorted(root.rglob("*")) if p.is_file()})
        assert len(corpora[0]) == 1 + 2 * sum(
            1 for _ in load_manifest(tmp_path / "lanes1" / "manifest.json")["items"])
        assert corpora[0] == corpora[1]

    def test_seed_changes_output(self, tmp_path):
        forge_corpus(LIB, tmp_path / "a", TINY)
        forge_corpus(LIB, tmp_path / "b", ForgeConfig(items_per_task=3, duration_s=2.0, seed=12))
        assert (tmp_path / "a/manifest.json").read_text() != (tmp_path / "b/manifest.json").read_text()

    def test_multi_event_scenes(self, tmp_path):
        cfg = ForgeConfig(items_per_task=1, duration_s=2.0, seed=2,
                          events_per_scene=2, tasks=("remove",))
        summary = forge_corpus(LIB, tmp_path, cfg)
        assert summary.counts["remove"]["generated"] == 1

    def test_everything_rejected_writes_empty_manifest(self, tmp_path):
        class GappyLibrary(SyntheticLibrary):
            """Every event clip is silent in its middle half."""

            def resolve(self, clip_id):
                clip = super().resolve(clip_id)
                if not clip_id.startswith("background/"):
                    clip.samples[len(clip) // 4 : 3 * len(clip) // 4] = 0.0
                return clip

        gappy = GappyLibrary(sample_rate=RATE, clip_seconds=1.0, background_seconds=2.0, seed=3)
        summary = forge_corpus(gappy, tmp_path, replace(TINY, vad_threshold=1.0))
        assert load_manifest(summary.manifest_path)["items"] == []
        assert not list(tmp_path.rglob("*.wav"))
        for task in TASKS:
            assert summary.counts[task] == {
                "generated": 3, "kept": 0, "rejected": {"vad": 3},
            }

    def test_failed_run_leaves_no_manifest(self, tmp_path, capsys):
        """The manifest commits a corpus: a run that fails part-way removes the old one."""
        forge_corpus(LIB, tmp_path, TINY)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["audio", "manifest.json"]

        class FailsOnSecondTriplet(SyntheticLibrary):
            backgrounds = 0

            def resolve(self, clip_id):
                if clip_id.startswith("background/"):
                    self.backgrounds += 1
                    if self.backgrounds == 2:
                        raise OSError("clip store went away")
                return super().resolve(clip_id)

        failing = FailsOnSecondTriplet(sample_rate=RATE, clip_seconds=0.5,
                                       background_seconds=2.0, seed=3)
        with pytest.raises(OSError):
            forge_corpus(failing, tmp_path, TINY)
        assert not (tmp_path / "manifest.json").exists()
        assert main(["eval", "--manifest", str(tmp_path)]) == EXIT_DATA
        capsys.readouterr()

    def test_memory_does_not_grow_with_corpus(self, tmp_path):
        """Three times the triplets, about the same peak: audio is written as it is made."""
        library = SyntheticLibrary(sample_rate=44100, clip_seconds=1.0,
                                   background_seconds=4.0, seed=0)
        peaks = {}
        for items in (2, 6):
            tracemalloc.start()
            try:
                forge_corpus(library, tmp_path / str(items),
                             ForgeConfig(items_per_task=items, duration_s=4.0, seed=5))
                peaks[items] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6] <= 1.25 * peaks[2], {k: f"{v / 2**20:.1f} MB" for k, v in peaks.items()}

    def test_draw_scene_uses_library_backgrounds(self):
        rng = np.random.default_rng(0)
        sc = draw_scene(rng, LIB, TINY)
        assert sc.background_id in LIB.background_ids()
        assert len(sc.events) == 1
