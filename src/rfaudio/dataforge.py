"""Programmatic construction of instruction-guided audio-editing triplets.

The forge builds editing examples from first principles: a background bed,
one or more labeled foreground events placed at known onsets, and the three
task views (add, remove, extract) derived from the same composition. Because
every mixture is assembled as ``background + stem_0 + stem_1 + ...`` with a
fixed summation order, the task algebra holds sample-exactly in memory:
``add.target == remove.source``, ``add.source == remove.target``, and the
extract target is the placed stem itself. It holds in memory only: a
mixture can exceed [-1, 1], and ``write_wav`` clips such samples on disk.

Scene randomness is fully parameterized: an :class:`EventSpec` records the
clip, onset, SNR, pitch shift, and stretch factor, so re-composing a scene
from its spec is bit-reproducible. Corpus generation derives one RNG per
item from ``(master seed, task index, item index)``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .audio import (
    WAV_FORMATS,
    AudioBuffer,
    mix_at_snr,
    pitch_shift,
    read_wav,
    time_stretch,
    vad_activity_ratio,
    wav_duration_s,
    write_wav,
)
from .binfile import write_atomically

log = logging.getLogger(__name__)

TASKS = ("add", "remove", "extract")

SNR_RANGE = (0.0, 3.0)
PITCH_RANGE = (-3.0, 3.0)
STRETCH_RANGE = (0.8, 1.2)

DEFAULT_SCENE_SECONDS = 10.0
DESK_ITEMS_PER_TASK = 150
VAD_KEEP_THRESHOLD = 0.3

BACKGROUND_LABEL = "background"
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
SYNTHETIC_VARIANTS = 3


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventSpec:
    """One foreground event: which clip, where, and how it is transformed.

    Transform order during composition is stretch, then pitch, then SNR
    mixing, and ``snr_db`` is measured against the background over the
    placed extent of the transformed clip.
    """

    clip_id: str
    label: str
    onset_s: float
    snr_db: float
    pitch_semitones: float
    stretch: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.clip_id:
            raise ValueError("clip_id must be a non-empty string")
        if not self.label:
            raise ValueError("label must be a non-empty string")
        if self.onset_s < 0:
            raise ValueError(f"onset_s must be >= 0, got {self.onset_s}")
        if not (SNR_RANGE[0] <= self.snr_db <= SNR_RANGE[1]):
            raise ValueError(f"snr_db must lie in {SNR_RANGE}, got {self.snr_db}")
        if not (PITCH_RANGE[0] <= self.pitch_semitones <= PITCH_RANGE[1]):
            raise ValueError(
                f"pitch_semitones must lie in {PITCH_RANGE}, got {self.pitch_semitones}"
            )
        if not (STRETCH_RANGE[0] <= self.stretch <= STRETCH_RANGE[1]):
            raise ValueError(f"stretch must lie in {STRETCH_RANGE}, got {self.stretch}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SceneSpec:
    """A background bed plus a tuple of events, deterministic given ``seed``."""

    background_id: str
    events: tuple[EventSpec, ...] = ()
    duration_s: float = DEFAULT_SCENE_SECONDS
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.background_id:
            raise ValueError("background_id must be a non-empty string")
        object.__setattr__(self, "events", tuple(self.events))
        for ev in self.events:
            if not isinstance(ev, EventSpec):
                raise TypeError(f"events must be EventSpec instances, got {type(ev)}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass
class EditTriplet:
    """One editing example: an instruction plus source/target audio.

    ``event_stem`` carries the placed foreground stem for downstream
    filtering; it is not part of the written manifest.
    """

    id: str
    task: str
    instruction: str
    event: EventSpec
    seed: int
    source_audio: AudioBuffer | None = None
    target_audio: AudioBuffer | None = None
    event_stem: AudioBuffer | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("triplet id must be a non-empty string")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.event.label not in self.instruction:
            raise ValueError(
                f"instruction must contain the event label verbatim: "
                f"{self.event.label!r} not in {self.instruction!r}"
            )
        self.seed = int(self.seed)


# ---------------------------------------------------------------------------
# Clip libraries
# ---------------------------------------------------------------------------


class SyntheticLibrary:
    """Deterministic bank of labeled synthetic clips plus noise backgrounds.

    Every event label has ``SYNTHETIC_VARIANTS`` clips (``"<label>/v<k>"``)
    built from closed-form primitives: tones, chirps, band-passed noise
    bursts, click trains, and frequency-modulated warbles. Clips regenerate bit-identically
    on every :meth:`resolve` call, so the library needs no storage. The
    ``SYNTHETIC_VARIANTS`` noise backgrounds cost far more to make than a
    clip and every scene needs one, so each is made once per library and
    handed out as a read-only array.
    """

    def __init__(
        self,
        sample_rate: int = 44100,
        clip_seconds: float = 1.0,
        background_seconds: float = DEFAULT_SCENE_SECONDS,
        seed: int = 0,
    ) -> None:
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if clip_seconds <= 0 or background_seconds <= 0:
            raise ValueError("clip durations must be positive")
        self.sample_rate = int(sample_rate)
        self.clip_seconds = float(clip_seconds)
        self.background_seconds = float(background_seconds)
        self.seed = int(seed)
        self._backgrounds: dict[int, np.ndarray] = {}

    # -- catalogue ----------------------------------------------------------

    def labels(self) -> list[str]:
        return sorted(self._GENERATORS)

    def clip_ids(self, label: str) -> list[str]:
        if label == BACKGROUND_LABEL:
            return self.background_ids()
        if label not in self._GENERATORS:
            raise KeyError(f"unknown label {label!r}")
        return [f"{label}/v{k}" for k in range(SYNTHETIC_VARIANTS)]

    def background_ids(self) -> list[str]:
        return [f"{BACKGROUND_LABEL}/v{k}" for k in range(SYNTHETIC_VARIANTS)]

    def clip_duration_s(self, clip_id: str) -> float:
        label, _ = self._parse(clip_id)
        return self.background_seconds if label == BACKGROUND_LABEL else self.clip_seconds

    # -- synthesis ----------------------------------------------------------

    def resolve(self, clip_id: str) -> AudioBuffer:
        label, variant = self._parse(clip_id)
        if label == BACKGROUND_LABEL:
            samples = self._backgrounds.get(variant)
            if samples is None:
                n = int(round(self.background_seconds * self.sample_rate))
                rng = np.random.default_rng([self.seed, 0x6267, variant])
                samples = 0.1 * _pink_noise(rng, n)
                samples.setflags(write=False)
                self._backgrounds[variant] = samples
            return AudioBuffer(samples, self.sample_rate)
        n = int(round(self.clip_seconds * self.sample_rate))
        t = np.arange(n, dtype=np.float64) / self.sample_rate
        label_index = self.labels().index(label)
        rng = np.random.default_rng([self.seed, label_index, variant])
        samples = self._GENERATORS[label](self, t, variant, rng)
        return AudioBuffer(samples, self.sample_rate)

    def _parse(self, clip_id: str) -> tuple[str, int]:
        label, sep, tail = clip_id.partition("/")
        if not sep or not tail.startswith("v"):
            raise KeyError(f"malformed clip id {clip_id!r}; expected '<label>/v<k>'")
        if label != BACKGROUND_LABEL and label not in self._GENERATORS:
            raise KeyError(f"unknown label {label!r}")
        try:
            variant = int(tail[1:])
        except ValueError:
            raise KeyError(f"malformed clip id {clip_id!r}") from None
        if not (0 <= variant < SYNTHETIC_VARIANTS):
            raise KeyError(f"variant {variant} out of range for {label!r}")
        return label, variant

    # Each generator keeps a comfortable margin above the -40 dBFS VAD
    # threshold over most of the clip, so the default corpus retains well.

    def _sine_tone(self, t, variant, rng):
        f = 440.0 * 2.0 ** (variant * 4.0 / 12.0)
        return 0.25 * np.sin(2.0 * np.pi * f * t) * _edge_fade(t.size, self.sample_rate)

    def _low_hum(self, t, variant, rng):
        f = 55.0 * 2.0 ** (variant * 3.0 / 12.0)
        x = np.sin(2.0 * np.pi * f * t) + 0.3 * np.sin(2.0 * np.pi * 2.0 * f * t)
        return 0.25 * x / np.max(np.abs(x)) * _edge_fade(t.size, self.sample_rate)

    def _rising_chirp(self, t, variant, rng):
        f0 = 200.0 * (variant + 1)
        d = t[-1] + 1.0 / self.sample_rate
        phase = 2.0 * np.pi * (f0 * t + (7.0 * f0) * t**2 / (2.0 * d))
        return 0.25 * np.sin(phase) * _edge_fade(t.size, self.sample_rate)

    def _falling_chirp(self, t, variant, rng):
        return self._rising_chirp(t, variant, rng)[::-1].copy()

    def _noise_burst(self, t, variant, rng):
        lo = 500.0 * 2.0**variant
        hi = 3.0 * lo
        x = rng.standard_normal(t.size)
        spec = np.fft.rfft(x)
        freqs = np.fft.rfftfreq(t.size, d=1.0 / self.sample_rate)
        spec[(freqs < lo) | (freqs > hi)] = 0.0
        x = np.fft.irfft(spec, n=t.size)
        x = x / np.max(np.abs(x)) * _plateau_envelope(t.size)
        return 0.25 * x

    def _click_train(self, t, variant, rng):
        period = int(round(self.sample_rate * (0.030 + 0.010 * variant)))
        click_len = max(int(round(self.sample_rate * 0.010)), 1)
        kernel = np.exp(-np.arange(click_len) / (0.002 * self.sample_rate))
        out = np.zeros(t.size)
        sign = 1.0
        for start in range(0, t.size, max(period, 1)):
            stop = min(start + click_len, t.size)
            out[start:stop] += sign * kernel[: stop - start]
            sign = -sign
        return 0.3 * out

    def _warble(self, t, variant, rng):
        beta = 2.0 + 2.0 * variant
        phase = 2.0 * np.pi * 660.0 * t + beta * np.sin(2.0 * np.pi * 5.0 * t)
        return 0.25 * np.sin(phase) * _edge_fade(t.size, self.sample_rate)

    # Label -> generator as plain functions on the class. A per-instance table
    # of bound methods would make every library a reference cycle, so it and
    # its background cache would outlive the forge until a full gc pass.
    _GENERATORS = {
        "sine tone": _sine_tone,
        "low hum": _low_hum,
        "rising chirp": _rising_chirp,
        "falling chirp": _falling_chirp,
        "noise burst": _noise_burst,
        "click train": _click_train,
        "warble": _warble,
    }


class FolderLibrary:
    """Clip library rooted at ``root/<label>/<clip>.wav``.

    The directory name is the label; files under ``background/`` serve as
    scene beds and are excluded from :meth:`labels`. Clip ids are
    ``"<label>/<filename-without-extension>"``. Clips resolve at
    ``sample_rate``: a file at another rate is resampled on load.
    """

    def __init__(self, root, sample_rate: int) -> None:
        self.root = Path(root)
        self.sample_rate = int(sample_rate)
        if not self.root.is_dir():
            raise ValueError(f"library root {self.root} is not a directory")
        self._clips: dict[str, list[str]] = {}
        for label_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            wavs = sorted(p.name for p in label_dir.iterdir() if p.suffix == ".wav")
            if wavs:
                self._clips[label_dir.name] = [f"{label_dir.name}/{Path(w).stem}" for w in wavs]
        if not self._clips:
            raise ValueError(f"library root {self.root} contains no '<label>/<clip>.wav' files")

    def labels(self) -> list[str]:
        return sorted(l for l in self._clips if l != BACKGROUND_LABEL)

    def clip_ids(self, label: str) -> list[str]:
        if label not in self._clips:
            raise KeyError(f"unknown label {label!r}")
        return list(self._clips[label])

    def background_ids(self) -> list[str]:
        return list(self._clips.get(BACKGROUND_LABEL, []))

    def clip_duration_s(self, clip_id: str) -> float:
        return wav_duration_s(self._path(clip_id))

    def resolve(self, clip_id: str) -> AudioBuffer:
        return read_wav(self._path(clip_id), session_rate=self.sample_rate)

    def _path(self, clip_id: str) -> Path:
        label, _, stem = clip_id.partition("/")
        if label not in self._clips or clip_id not in self._clips[label]:
            raise KeyError(f"unknown clip id {clip_id!r}")
        return self.root / label / f"{stem}.wav"


# ---------------------------------------------------------------------------
# Scene composition
# ---------------------------------------------------------------------------


class SoundscapeResult(NamedTuple):
    stems: tuple[AudioBuffer, ...]
    background: AudioBuffer

    @property
    def mixture(self) -> AudioBuffer:
        """``background + stem_0 + stem_1 + ...``, summed in event order on each read."""
        mixture = self.background.samples
        for stem in self.stems:
            mixture = mixture + stem.samples
        return AudioBuffer(mixture, self.background.sample_rate)


def compose_soundscape(scene: SceneSpec, library) -> SoundscapeResult:
    """Realize a scene: transformed events placed over the background bed.

    Each event clip is stretched, then pitch-shifted, then scaled to its
    target SNR against the background and placed at its onset. The mixture
    is ``background + stem_0 + stem_1 + ...`` accumulated in event order, so
    re-summing the returned parts in that order reproduces it bit-exactly;
    it is summed only when read. The background is the library's own array
    (read-only for a :class:`SyntheticLibrary`), cut to the scene length.
    """
    background = library.resolve(scene.background_id)
    rate = background.sample_rate
    n = int(round(scene.duration_s * rate))
    if len(background) < n:
        raise ValueError(
            f"background {scene.background_id!r} is shorter than the scene: "
            f"{len(background)} < {n} samples"
        )
    background = AudioBuffer._finite(background.samples[:n], rate)

    stems: list[AudioBuffer] = []
    for ev in scene.events:
        clip = library.resolve(ev.clip_id)
        if clip.sample_rate != rate:
            raise ValueError(
                f"clip {ev.clip_id!r} rate {clip.sample_rate} != background rate {rate}"
            )
        if ev.stretch != 1.0:
            clip = time_stretch(clip, ev.stretch)
        if ev.pitch_semitones != 0.0:
            clip = pitch_shift(clip, ev.pitch_semitones)
        onset = int(round(ev.onset_s * rate))
        if onset + len(clip) > n:
            raise ValueError(
                f"event {ev.label!r} overruns the scene: onset {ev.onset_s:.3f}s + "
                f"{len(clip)} samples exceeds {scene.duration_s:.3f}s"
            )
        placed = mix_at_snr(clip, background, ev.snr_db, ev.onset_s)
        stems.append(placed.foreground_stem)
    return SoundscapeResult(tuple(stems), background)


# ---------------------------------------------------------------------------
# Triplet construction
# ---------------------------------------------------------------------------

_TEMPLATES: dict[str, tuple[str, ...]] = {
    "add": (
        "Add a {label} to the recording.",
        "Please add a {label} into the scene.",
        "Insert a {label} over the background.",
        "Layer a {label} on top of this clip.",
        "Mix a {label} into the audio.",
    ),
    "remove": (
        "Remove the {label} from the recording.",
        "Please take the {label} out of the scene.",
        "Delete the {label} from this clip.",
        "Get rid of the {label} in the audio.",
        "Erase the {label} from the mix.",
    ),
    "extract": (
        "Extract the {label} from the recording.",
        "Isolate the {label} from the scene.",
        "Pull the {label} out of this clip.",
        "Keep only the {label} from the audio.",
        "Separate the {label} from the mix.",
    ),
}


def instruction_for(task: str, label: str, rng: np.random.Generator) -> str:
    """Draw one of the task's seeded instruction templates for ``label``."""
    if task not in _TEMPLATES:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    bank = _TEMPLATES[task]
    return bank[int(rng.integers(len(bank)))].format(label=label)


def make_triplet(
    task: str,
    scene: SceneSpec,
    library,
    event_index: int = 0,
    triplet_id: str | None = None,
) -> EditTriplet:
    """Build one editing triplet around ``scene.events[event_index]``.

    All three tasks share one canonical pair of renders: ``minus`` is the
    scene without the chosen event (background plus the other stems in
    composition order) and ``full`` is ``minus + stem``. Calling this for
    each task on the same scene therefore yields sample-exact algebra, e.g.
    the add target equals the remove source bitwise.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    if not scene.events:
        raise ValueError("scene has no events to edit")
    if not (0 <= event_index < len(scene.events)):
        raise ValueError(
            f"event_index {event_index} out of range for {len(scene.events)} events"
        )

    composed = compose_soundscape(scene, library)
    rate = composed.background.sample_rate
    minus = composed.background.samples  # only read: each sum below makes a new array
    for j, stem in enumerate(composed.stems):
        if j != event_index:
            minus = minus + stem.samples
    stem = composed.stems[event_index]
    full = minus + stem.samples

    event = scene.events[event_index]
    rng = np.random.default_rng([scene.seed, event_index, TASKS.index(task)])
    instruction = instruction_for(task, event.label, rng)
    if triplet_id is None:
        triplet_id = f"{task}-s{scene.seed}-e{event_index}"

    minus_buf = AudioBuffer(minus, rate)
    full_buf = AudioBuffer(full, rate)
    if task == "add":
        source, target = minus_buf, full_buf
    elif task == "remove":
        source, target = full_buf, minus_buf
    else:
        source, target = full_buf, stem
    return EditTriplet(
        id=triplet_id,
        task=task,
        instruction=instruction,
        event=event,
        seed=scene.seed,
        source_audio=source,
        target_audio=target,
        event_stem=stem,
    )


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

class FilterReport(NamedTuple):
    kept: list[EditTriplet]
    rejected: dict[str, int]


def trimmed_stem(stem: AudioBuffer) -> AudioBuffer | None:
    """The stem cut to its non-zero extent, or None for an all-zero stem.

    Stems live on the full scene timeline; judging voice activity on the
    padded array would dilute the ratio by the scene length, so activity is
    measured over the event's own span.
    """
    nonzero = np.flatnonzero(stem.samples)
    if nonzero.size == 0:
        return None
    return AudioBuffer._finite(
        stem.samples[nonzero[0] : nonzero[-1] + 1].copy(), stem.sample_rate
    )


def filter_pipeline(
    candidates: Iterable[EditTriplet], vad_threshold: float = VAD_KEEP_THRESHOLD
) -> FilterReport:
    """Keep the triplets whose trimmed event stem is voice-active enough.

    A triplet is kept when the voice-activity ratio of its trimmed event
    stem is at least ``vad_threshold``; an all-zero stem has ratio 0.0.
    Returns the kept triplets in their original order and the rejection
    count under ``"vad"``. Each rejection is logged; the kept/rejected
    summary is the caller's.
    """
    kept: list[EditTriplet] = []
    rejected = 0
    for triplet in candidates:
        if triplet.event_stem is None:
            raise ValueError(f"triplet {triplet.id!r} carries no event stem to screen")
        trimmed = trimmed_stem(triplet.event_stem)
        ratio = 0.0 if trimmed is None else vad_activity_ratio(trimmed)
        if ratio >= vad_threshold:
            kept.append(triplet)
        else:
            rejected += 1
            log.info("filter: rejected %s, voice-activity ratio %.3f", triplet.id, ratio)
    return FilterReport(kept, {"vad": rejected})


# ---------------------------------------------------------------------------
# Writing: audio files and the manifest
# ---------------------------------------------------------------------------


def write_triplet_audio(triplet: EditTriplet, root, wav_format: str = "float32") -> dict:
    """Write source/target WAVs under ``root/audio``; return the manifest item."""
    if triplet.source_audio is None or triplet.target_audio is None:
        raise ValueError(f"triplet {triplet.id!r} has no audio to write")
    root = Path(root)
    (root / "audio").mkdir(parents=True, exist_ok=True)
    source_rel = f"audio/{triplet.id}_src.wav"
    target_rel = f"audio/{triplet.id}_tgt.wav"
    write_wav(triplet.source_audio, root / source_rel, format=wav_format)
    write_wav(triplet.target_audio, root / target_rel, format=wav_format)
    return {
        "id": triplet.id,
        "task": triplet.task,
        "instruction": triplet.instruction,
        "source_path": source_rel,
        "target_path": target_rel,
        "event": {
            "label": triplet.event.label,
            "onset_s": float(triplet.event.onset_s),
            "snr_db": float(triplet.event.snr_db),
            "pitch_semitones": float(triplet.event.pitch_semitones),
            "stretch": float(triplet.event.stretch),
        },
        "seed": int(triplet.seed),
        "provenance": "synthesis",
    }


def write_manifest(items: Sequence[dict], root, config: dict | None = None) -> Path:
    """Serialize manifest items (ordered by id) to ``root/manifest.json``.

    ``items`` are what :func:`write_triplet_audio` returns. ``config``
    optionally embeds the fully resolved run configuration so the dataset
    records how it was produced. The file is written under a temporary name
    in ``root`` and renamed into place, so a reader sees either no manifest
    or a complete one.
    """
    ids = [item["id"] for item in items]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate triplet ids: {dupes}")
    payload = {"version": MANIFEST_VERSION, "items": sorted(items, key=lambda item: item["id"])}
    if config is not None:
        payload["config"] = config
    path = Path(root) / MANIFEST_NAME
    write_atomically(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()])
    return path


def load_manifest(path) -> dict:
    """Read and check a manifest; every audio path must stay inside the corpus root.

    An absolute ``source_path``/``target_path``, or one that climbs out
    through ``..``, is refused with a ``ValueError`` naming the item.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version in {path}")
    if not isinstance(payload.get("items"), list):
        raise ValueError(f"manifest {path} has no item list")
    for index, item in enumerate(payload["items"]):
        if not isinstance(item, dict) or not all(
            isinstance(item.get(key), str)
            for key in ("id", "source_path", "target_path", "instruction")
        ):
            raise ValueError(
                f"manifest {path} item {index} needs string id, source_path, "
                f"target_path and instruction"
            )
        for key in ("source_path", "target_path"):
            rel = PurePosixPath(item[key])
            if rel.is_absolute() or ".." in rel.parts:
                raise ValueError(
                    f"manifest {path} item {index} ({item['id']!r}): {key} "
                    f"{item[key]!r} is not a path inside the corpus"
                )
    return payload


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForgeConfig:
    """Corpus-generation knobs. ``items_per_task`` alone sets the corpus size."""

    items_per_task: int = DESK_ITEMS_PER_TASK
    tasks: tuple[str, ...] = TASKS
    duration_s: float = DEFAULT_SCENE_SECONDS
    events_per_scene: int = 1
    seed: int = 0
    vad_threshold: float = VAD_KEEP_THRESHOLD
    wav_format: str = "float32"

    def __post_init__(self) -> None:
        if self.items_per_task < 0:
            raise ValueError("items_per_task must be >= 0")
        object.__setattr__(self, "tasks", tuple(self.tasks))
        for task in self.tasks:
            if task not in TASKS:
                raise ValueError(f"unknown task {task!r}; expected a subset of {TASKS}")
        if not self.tasks:
            raise ValueError("tasks must be non-empty")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.events_per_scene < 1:
            raise ValueError("events_per_scene must be >= 1")
        if not (0.0 <= self.vad_threshold <= 1.0):
            raise ValueError("vad_threshold must lie in [0, 1]")
        if self.wav_format not in WAV_FORMATS:
            raise ValueError(
                f"unknown wav_format {self.wav_format!r}; expected one of {WAV_FORMATS}"
            )


def draw_event(rng: np.random.Generator, library, scene_duration_s: float) -> EventSpec:
    """Sample one event uniformly over the library and parameter ranges.

    The onset is drawn so the stretched clip fits inside the scene; a clip
    too long to fit at maximum stretch raises instead of clamping.
    """
    labels = library.labels()
    if not labels:
        raise ValueError("library has no event labels")
    label = labels[int(rng.integers(len(labels)))]
    clip_ids = library.clip_ids(label)
    clip_id = clip_ids[int(rng.integers(len(clip_ids)))]
    stretch = float(rng.uniform(*STRETCH_RANGE))
    pitch = float(rng.uniform(*PITCH_RANGE))
    snr = float(rng.uniform(*SNR_RANGE))
    stretched_s = library.clip_duration_s(clip_id) * stretch
    latest = scene_duration_s - stretched_s
    if latest < 0:
        raise ValueError(
            f"clip {clip_id!r} cannot fit a {scene_duration_s:.3f}s scene at stretch "
            f"{stretch:.3f}"
        )
    onset = float(rng.uniform(0.0, latest))
    return EventSpec(
        clip_id=clip_id,
        label=label,
        onset_s=onset,
        snr_db=snr,
        pitch_semitones=pitch,
        stretch=stretch,
        seed=int(rng.integers(2**63)),
    )


def draw_scene(rng: np.random.Generator, library, config: ForgeConfig) -> SceneSpec:
    backgrounds = library.background_ids()
    if not backgrounds:
        raise ValueError("library has no backgrounds")
    background_id = backgrounds[int(rng.integers(len(backgrounds)))]
    events = tuple(
        draw_event(rng, library, config.duration_s) for _ in range(config.events_per_scene)
    )
    return SceneSpec(
        background_id=background_id,
        events=events,
        duration_s=config.duration_s,
        seed=int(rng.integers(2**63)),
    )


class ForgeSummary(NamedTuple):
    manifest_path: Path
    counts: dict


def forge_corpus(
    library, root, config: ForgeConfig | None = None, echo: dict | None = None
) -> ForgeSummary:
    """Generate, filter, and write a full editing corpus under ``root``.

    One scene is drawn per (task, item index) from an RNG seeded by
    ``(config.seed, task index, item index)``, so runs with equal configs
    and libraries are bit-identical and runs with different seeds diverge.
    Items are mutually independent: :func:`_forge_item` makes one and
    returns its manifest item, or None when the screen rejects it. Only
    those items outlive an iteration; each triplet and its audio are freed
    when :func:`_forge_item` returns, so one triplet's audio is in memory at
    a time whatever the corpus size.
    The manifest is written last and is the corpus's commit marker: an
    existing ``root/manifest.json`` is deleted before the first WAV is
    written, so a run that fails leaves no manifest. Returns the manifest
    path plus per-task generated/kept/rejected counts. ``echo`` is embedded
    in the manifest.
    """
    if config is None:
        config = ForgeConfig()
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / MANIFEST_NAME).unlink(missing_ok=True)

    items: list[dict] = []
    counts: dict = {}
    for task_index, task in enumerate(config.tasks):
        kept_before = len(items)
        for i in range(config.items_per_task):
            item = _forge_item(library, root, config, task_index, i)
            if item is not None:
                items.append(item)
        kept = len(items) - kept_before
        counts[task] = {
            "generated": config.items_per_task,
            "kept": kept,
            "rejected": {"vad": config.items_per_task - kept},
        }
        log.info("filter: %s kept %d/%d", task, kept, config.items_per_task)

    manifest_path = write_manifest(items, root, config=echo)
    log.info("forged %d triplets into %s", len(items), root)
    return ForgeSummary(manifest_path, counts)


def _forge_item(library, root, config: ForgeConfig, task_index: int, index: int) -> dict | None:
    """Build, screen and, if kept, write one triplet; its manifest item or None."""
    task = config.tasks[task_index]
    rng = np.random.default_rng([config.seed, task_index, index])
    scene = draw_scene(rng, library, config)
    event_index = int(rng.integers(config.events_per_scene))
    triplet = make_triplet(
        task, scene, library, event_index, triplet_id=f"{task}-{config.seed}-{index:06d}"
    )
    if not filter_pipeline([triplet], config.vad_threshold).kept:
        return None
    return write_triplet_audio(triplet, root, wav_format=config.wav_format)


# ---------------------------------------------------------------------------
# Waveform helpers for the synthetic library
# ---------------------------------------------------------------------------


def _edge_fade(n: int, sample_rate: int) -> np.ndarray:
    """Unit envelope with 10 ms raised-cosine edges to avoid onset/offset clicks."""
    env = np.ones(n)
    ramp = min(int(round(0.01 * sample_rate)), n // 2)
    if ramp > 0:
        shape = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        env[:ramp] = shape
        env[n - ramp :] = shape[::-1]
    return env


def _plateau_envelope(n: int) -> np.ndarray:
    """Envelope that is 1.0 over the middle 80% of n with 5% ramps, zero outside."""
    env = np.zeros(n)
    a = int(n * 0.1)
    b = int(n * 0.9)
    env[a:b] = 1.0
    ramp = max(int(n * 0.05), 1)
    if b - a > 2 * ramp:
        shape = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        env[a : a + ramp] = shape
        env[b - ramp : b] = shape[::-1]
    return env


def _pink_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """1/f-shaped noise, peak-normalized."""
    bins = n // 2 + 1
    spec = rng.standard_normal(bins) + 1j * rng.standard_normal(bins)
    f = np.arange(bins, dtype=np.float64)
    f[0] = 1.0
    x = np.fft.irfft(spec / np.sqrt(f), n=n)
    return x / np.max(np.abs(x))
