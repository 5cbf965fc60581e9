"""Conditioning streams for the flow model.

Two streams feed the velocity network:

* a context stream: variable-length token sequences from a multimodal
  feature provider and from a character-level transcript encoder, each
  projected by a learned linear adapter into a shared context width and
  concatenated, and
* a frame stream: per-latent-frame features (sync features plus a mel
  reference, channel-concatenated) aligned one-to-one with latent frames.

Providers are pluggable so precomputed features can be replayed from
files; the bundled toy token provider keeps the acceptance experiments
self-contained.  Null conditioning is always explicit: a zero-length
context sequence plus a zeroed frame stream with cleared validity, so
conditional and unconditional passes share one code path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concatenate,
    depthwise_conv1d,
    embedding,
    gelu,
    layer_norm,
    matmul,
)
from .binfile import Reader, Writer
from .optim import ParamStore, fan_in_normal, ones, small_normal, zeros

logger = logging.getLogger("rfaudio.conditioning")

FEATSEQ_MAGIC = b"FEATSEQ1"

#: character vocabulary of the transcript encoder: pad (index 0), unknown, ASCII 32..126
UNKNOWN_INDEX = 1
TRANSCRIPT_VOCAB = 2 + (126 - 32 + 1)

#: default width of the sync frame features
SYNC_WIDTH = 8

#: default context-drop probability used for classifier-free guidance training
CONDITION_DROPOUT_P = 0.10

#: speech-prompt masking ratio bounds
MASK_RATIO_LOW = 0.20
MASK_RATIO_HIGH = 0.75

#: latent frames per second implied by the default spectral settings
DEFAULT_LATENT_RATE = 44100.0 / 256.0


class FeatureFileError(ValueError):
    """Raised for malformed or mismatched feature replay files."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class FeatureSeq:
    """A variable-length sequence of context vectors.

    ``tokens`` is a ``[L, D]`` tensor (``L`` may be zero for the
    unconditional case).  Every row is real context; padding exists only
    inside a collated batch, where each item's length marks it.  Plain
    arrays are wrapped into constant tensors so trainable and replayed
    sources flow through the same code path.
    """

    tokens: Tensor

    def __post_init__(self) -> None:
        if not isinstance(self.tokens, Tensor):
            arr = np.asarray(self.tokens)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(np.float32)
            self.tokens = Tensor(arr)
        if self.tokens.data.ndim != 2:
            raise ValueError(f"tokens must be [L, D], got shape {self.tokens.data.shape}")
        if not np.all(np.isfinite(self.tokens.data)):
            raise ValueError("tokens contain non-finite values")

    @property
    def length(self) -> int:
        return self.tokens.data.shape[0]

    @property
    def width(self) -> int:
        return self.tokens.data.shape[1]

    @classmethod
    def empty(cls, width: int, dtype=np.float32) -> "FeatureSeq":
        return cls(Tensor(np.zeros((0, width), dtype=dtype)))


@dataclass
class FrameFeatures:
    """Per-latent-frame features ``[T, D]`` with a per-frame validity mask."""

    frames: np.ndarray
    validity: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        arr = np.asarray(self.frames)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim != 2:
            raise ValueError(f"frames must be [T, D], got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("frames contain non-finite values")
        self.frames = arr
        if self.validity is None:
            self.validity = np.ones(self.frame_count, dtype=bool)
        self.validity = np.asarray(self.validity, dtype=bool)
        if self.validity.shape != (self.frame_count,):
            raise ValueError(
                f"frame validity has shape {self.validity.shape}, "
                f"expected ({self.frame_count},)"
            )

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def width(self) -> int:
        return self.frames.shape[1]

    @classmethod
    def zeros(cls, frame_count: int, width: int) -> "FrameFeatures":
        return cls(
            np.zeros((frame_count, width), dtype=np.float32),
            np.zeros(frame_count, dtype=bool),
        )


@dataclass
class ConditioningBundle:
    """One example's conditioning: the two streams the velocity network reads.

    Null sources are explicit (an empty context, zero frames with cleared
    validity), never absent fields, so a bundle always carries both streams.
    """

    high: FeatureSeq
    low: FrameFeatures


@dataclass(frozen=True)
class PromptMask:
    """A contiguous half-open masked span ``[start, end)`` over ``frame_count`` frames."""

    start: int
    end: int
    frame_count: int

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.end <= self.frame_count):
            raise ValueError(
                f"invalid mask span [{self.start}, {self.end}) over {self.frame_count} frames"
            )
        slack = 1.0 / self.frame_count
        if not (MASK_RATIO_LOW - slack <= self.ratio <= MASK_RATIO_HIGH + slack):
            raise ValueError(
                f"mask ratio {self.ratio:.4f} outside "
                f"[{MASK_RATIO_LOW} - 1/T, {MASK_RATIO_HIGH} + 1/T]"
            )

    @property
    def ratio(self) -> float:
        return (self.end - self.start) / self.frame_count


# ---------------------------------------------------------------------------
# feature replay files
# ---------------------------------------------------------------------------


def write_feature_seq(path, seq: FeatureSeq) -> None:
    """Serialize a feature sequence: magic, u32 L, u32 D, float32 LE rows."""
    with Writer(path, FEATSEQ_MAGIC) as w:
        w.fields("<II", seq.length, seq.width)
        w.floats(seq.tokens.data)


def read_feature_seq(path) -> FeatureSeq:
    """Load a feature sequence written by :func:`write_feature_seq`.

    Any malformed file raises :class:`FeatureFileError`.
    """
    r = Reader(path, FEATSEQ_MAGIC, "feature file", FeatureFileError)
    rows = r.floats(r.fields("<II"))
    r.end()
    if rows.shape[1] < 1:
        raise FeatureFileError(f"{path}: feature width must be at least 1")
    return FeatureSeq(Tensor(rows))


# ---------------------------------------------------------------------------
# context (token) providers
# ---------------------------------------------------------------------------


class ToyTokenProvider:
    """Whitespace-tokenizing provider with a learned embedding table.

    Index 0 is the unknown token; the vocabulary is fixed at construction.
    Used by the toy experiments where a handful of class names stand in
    for real instruction features.
    """

    def __init__(self, vocab, width: int, store: ParamStore) -> None:
        self.vocab = list(vocab)
        if len(set(self.vocab)) != len(self.vocab):
            raise ValueError("toy provider vocabulary has duplicate words")
        self._index = {w: i + 1 for i, w in enumerate(self.vocab)}
        self.width = int(width)
        self.table = store.declare("mm_toy.table", (1 + len(self.vocab), width), small_normal)
        self.oov_count = 0

    def provide(self, instruction: str) -> FeatureSeq:
        words = instruction.split()
        if not words:
            return FeatureSeq.empty(self.width, dtype=self.table.data.dtype)
        idx = np.empty(len(words), dtype=np.int64)
        for i, w in enumerate(words):
            j = self._index.get(w, 0)
            if j == 0:
                self.oov_count += 1
            idx[i] = j
        return FeatureSeq(embedding(self.table, idx))


class ReplayFeatureProvider:
    """Serves a precomputed feature matrix loaded once from a replay file."""

    def __init__(self, path, expected_width: int | None = None) -> None:
        seq = read_feature_seq(path)
        if expected_width is not None and seq.width != expected_width:
            raise FeatureFileError(
                f"replay features are {seq.width}-wide, expected {expected_width}"
            )
        self._tokens = seq.tokens.data
        self.width = seq.width

    def provide(self, instruction: str = "") -> FeatureSeq:
        return FeatureSeq(Tensor(self._tokens))


class NullContextProvider:
    """Always yields the zero-length sequence (unconditional training)."""

    def __init__(self, width: int) -> None:
        self.width = int(width)

    def provide(self, instruction: str = "") -> FeatureSeq:
        return FeatureSeq.empty(self.width)


# ---------------------------------------------------------------------------
# sync (frame) providers
# ---------------------------------------------------------------------------


class NullSyncProvider:
    """Emits zero frame features with cleared validity."""

    def __init__(self, width: int = SYNC_WIDTH) -> None:
        self.width = int(width)

    def provide(self, latent_T: int, latent_rate: float) -> FrameFeatures:
        return FrameFeatures.zeros(latent_T, self.width)


class ReplaySyncProvider:
    """Replays frame features recorded at a fixed native rate.

    The native rows are mapped onto the latent frame grid with the
    nearest-frame rule ``source_row(t) = floor(t * native_rate /
    latent_rate)``.  A coverage mismatch of at most one native row (short
    rows are clamped, one trailing unused row is ignored) is tolerated;
    anything larger is a data error.
    """

    def __init__(self, path, native_rate: float, expected_width: int | None = None) -> None:
        if native_rate <= 0:
            raise ValueError("native_rate must be positive")
        seq = read_feature_seq(path)
        if expected_width is not None and seq.width != expected_width:
            raise FeatureFileError(
                f"sync replay features are {seq.width}-wide, expected {expected_width}"
            )
        self._rows = seq.tokens.data
        self.native_rate = float(native_rate)
        self.width = seq.width

    def provide(self, latent_T: int, latent_rate: float) -> FrameFeatures:
        if latent_T < 1:
            raise ValueError("latent_T must be at least 1")
        n = len(self._rows)
        idx = np.floor(
            np.arange(latent_T, dtype=np.float64) * (self.native_rate / latent_rate)
        ).astype(np.int64)
        needed_max = int(idx[-1])
        deficit = needed_max - (n - 1)
        if deficit > 1:
            raise FeatureFileError(
                f"sync replay holds {n} rows but the frame map needs row {needed_max}"
            )
        unused = (n - 1) - needed_max
        if unused > 1:
            raise FeatureFileError(
                f"sync replay holds {n} rows but the frame map stops at row {needed_max}"
            )
        idx = np.minimum(idx, n - 1)
        return FrameFeatures(self._rows[idx].copy(), np.ones(latent_T, dtype=bool))


# ---------------------------------------------------------------------------
# transcript encoder
# ---------------------------------------------------------------------------


def transcript_indices(text: str) -> tuple[np.ndarray, int]:
    """Map characters to vocabulary indices; returns (indices, oov count)."""
    idx = np.empty(len(text), dtype=np.int64)
    oov = 0
    for i, ch in enumerate(text):
        o = ord(ch)
        if 32 <= o <= 126:
            idx[i] = o - 32 + 2
        else:
            idx[i] = UNKNOWN_INDEX
            oov += 1
    return idx, oov


class TranscriptEncoder:
    """Character embeddings refined by a stack of four residual conv blocks.

    Each block: depthwise 1-D conv (width 7), layer norm, pointwise
    expansion by 4x, gelu, pointwise projection, residual add.  Output
    length always equals the input character count.
    """

    def __init__(self, store: ParamStore, width: int) -> None:
        if width < 1:
            raise ValueError("encoder width must be at least 1")
        self.width = int(width)
        self.oov_count = 0
        self.embed = store.declare("transcript.embed", (TRANSCRIPT_VOCAB, width), small_normal)
        self.blocks = []
        hidden = 4 * width
        for i in range(4):
            name = f"transcript.block{i}"
            self.blocks.append({
                "conv_w": store.declare(f"{name}.conv_w", (7, width), fan_in_normal),
                "conv_b": store.declare(f"{name}.conv_b", (width,), zeros),
                "ln_gain": store.declare(f"{name}.ln_gain", (width,), ones),
                "ln_bias": store.declare(f"{name}.ln_bias", (width,), zeros),
                "expand_w": store.declare(f"{name}.expand_w", (width, hidden), fan_in_normal),
                "expand_b": store.declare(f"{name}.expand_b", (hidden,), zeros),
                "project_w": store.declare(f"{name}.project_w", (hidden, width), fan_in_normal),
                "project_b": store.declare(f"{name}.project_b", (width,), zeros),
            })

    def encode(self, text: str) -> FeatureSeq:
        if not text:
            return FeatureSeq.empty(self.width, dtype=self.embed.data.dtype)
        idx, oov = transcript_indices(text)
        if oov:
            self.oov_count += oov
            logger.debug("transcript encoder mapped %d characters to unknown", oov)
        x = embedding(self.embed, idx)
        for blk in self.blocks:
            h = add(depthwise_conv1d(x, blk["conv_w"]), blk["conv_b"])
            h = layer_norm(h, blk["ln_gain"], blk["ln_bias"])
            h = gelu(matmul(h, blk["expand_w"], blk["expand_b"]))
            h = matmul(h, blk["project_w"], blk["project_b"])
            x = add(x, h)
        return FeatureSeq(x)


# ---------------------------------------------------------------------------
# stream builders
# ---------------------------------------------------------------------------


class SourceAdapter:
    """Learned linear projection of one context source into the shared width."""

    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int) -> None:
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.w = store.declare(f"{name}.w", (d_in, d_out), fan_in_normal)
        self.b = store.declare(f"{name}.b", (d_out,), zeros)

    def apply(self, seq: FeatureSeq) -> FeatureSeq:
        if seq.width != self.d_in:
            raise ValueError(f"adapter expects width {self.d_in}, got {seq.width}")
        if seq.length == 0:
            return FeatureSeq.empty(self.d_out, dtype=self.w.data.dtype)
        return FeatureSeq(matmul(seq.tokens, self.w, self.b))


def build_high_stream(mm: FeatureSeq, trans: FeatureSeq) -> FeatureSeq:
    """Concatenate two already-adapted context sequences, mm rows first."""
    if mm.width != trans.width:
        raise ValueError(
            f"context sources must share one width, got {mm.width} and {trans.width}"
        )
    if trans.length == 0:
        return mm
    if mm.length == 0:
        return trans
    return FeatureSeq(concatenate([mm.tokens, trans.tokens], axis=0))


def build_low_stream(sync: FrameFeatures, mel: FrameFeatures) -> FrameFeatures:
    """Channel-concatenate frame-aligned sources; frame counts must match.

    A combined frame is marked valid when either source carries real
    content there.
    """
    if sync.frame_count != mel.frame_count:
        raise ValueError(
            f"frame counts differ: sync {sync.frame_count}, mel {mel.frame_count}"
        )
    frames = np.concatenate([sync.frames, mel.frames], axis=1)
    return FrameFeatures(frames, sync.validity | mel.validity)


# ---------------------------------------------------------------------------
# prompt masking and condition dropout
# ---------------------------------------------------------------------------


def mask_prompt(
    mel: FrameFeatures,
    rng: np.random.Generator,
    ratio: float | None = None,
) -> tuple[FrameFeatures, PromptMask]:
    """Zero one contiguous span of the mel reference and clear its validity.

    The span covers ``round(ratio * T)`` frames with ``ratio`` drawn
    uniformly from [0.20, 0.75] (or forced via ``ratio``), positioned
    uniformly at random.  The input is not modified.
    """
    T = mel.frame_count
    if T < 4:
        raise ValueError(f"prompt masking needs at least 4 frames, got {T}")
    if ratio is None:
        ratio = float(rng.uniform(MASK_RATIO_LOW, MASK_RATIO_HIGH))
    elif not (MASK_RATIO_LOW <= ratio <= MASK_RATIO_HIGH):
        raise ValueError(f"mask ratio {ratio} outside [{MASK_RATIO_LOW}, {MASK_RATIO_HIGH}]")
    span = int(np.rint(ratio * T))
    span = max(1, min(span, T))
    start = int(rng.integers(0, T - span + 1))
    end = start + span
    frames = mel.frames.copy()
    validity = mel.validity.copy()
    frames[start:end] = 0.0
    validity[start:end] = False
    return FrameFeatures(frames, validity), PromptMask(start, end, T)


def null_bundle(bundle: ConditioningBundle) -> ConditioningBundle:
    """The unconditional counterpart: empty context, zeroed invalid frames."""
    low = FrameFeatures.zeros(bundle.low.frame_count, bundle.low.width)
    return ConditioningBundle(FeatureSeq.empty(bundle.high.width), low)


def condition_dropout(
    bundle: ConditioningBundle,
    p: float = CONDITION_DROPOUT_P,
    rng: np.random.Generator | None = None,
) -> ConditioningBundle:
    """With probability ``p`` replace the bundle by its null counterpart."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dropout probability {p} outside [0, 1]")
    if p == 0.0:
        return bundle
    if p == 1.0:
        return null_bundle(bundle)
    if rng is None:
        raise ValueError("an rng is required for a fractional dropout probability")
    if rng.uniform() < p:
        return null_bundle(bundle)
    return bundle


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


class Conditioner:
    """Owns the trainable conditioning pieces and assembles bundles.

    The transcript encoder and the per-source adapters register their
    parameters in ``store``; providers are plugged in and hold no
    trainable state of their own, except the toy token provider used by
    the self-contained experiments.
    """

    def __init__(
        self, store: ParamStore, d_high: int, d_mm: int, d_trans: int, d_sync: int, d_mel: int,
        mm_provider=None, sync_provider=None,
    ) -> None:
        self.d_mel = int(d_mel)
        self.encoder = TranscriptEncoder(store, d_trans)
        self.mm_adapter = SourceAdapter(store, "cond.mm_adapter", d_mm, d_high)
        self.trans_adapter = SourceAdapter(store, "cond.transcript_adapter", d_trans, d_high)
        self.mm_provider = mm_provider if mm_provider is not None else NullContextProvider(d_mm)
        self.sync_provider = (
            sync_provider if sync_provider is not None else NullSyncProvider(d_sync)
        )

    def assemble(
        self,
        latent_T: int,
        instruction: str = "",
        transcript: str = "",
        mel: FrameFeatures | None = None,
        latent_rate: float = DEFAULT_LATENT_RATE,
    ) -> ConditioningBundle:
        """Build one example's bundle; the frame stream always has ``latent_T`` rows."""
        mm = self.mm_provider.provide(instruction)
        trans = self.encoder.encode(transcript)
        high = build_high_stream(self.mm_adapter.apply(mm), self.trans_adapter.apply(trans))
        if latent_T < 1:
            raise ValueError("latent_T must be at least 1")
        sync = self.sync_provider.provide(latent_T, latent_rate)
        if mel is None:
            mel = FrameFeatures.zeros(latent_T, self.d_mel)
        if mel.frame_count != latent_T:
            raise ValueError(
                f"mel reference has {mel.frame_count} frames, latent grid has {latent_T}"
            )
        if mel.width != self.d_mel:
            raise ValueError(f"mel reference is {mel.width}-wide, expected {self.d_mel}")
        return ConditioningBundle(high, build_low_stream(sync, mel))
