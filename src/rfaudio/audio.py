"""Mono waveform buffers, RIFF/WAVE I/O, and time-domain transforms.

Conventions used throughout the package:

* audio is mono float64 in [-1, 1] (multichannel files are downmixed by
  channel mean on load);
* the session sample rate defaults to 44100 Hz, files at other rates are
  resampled on load when a session rate is requested;
* SNR is foreground-over-background in dB, measured over the overlap
  window only.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

# phase-vocoder / resampler framing; small transforms use these
# rather than the mel front-end config so audio.py stays self-contained.
VOCODER_N_FFT = 1024
VOCODER_HOP = 256
RESAMPLER_TAPS = 32
#: output samples per block in the resampler; each output sample is computed
#: by the same arithmetic whatever the block, so the size changes no result
RESAMPLER_BLOCK_ROWS = 4096


class WavError(ValueError):
    """Malformed or unsupported WAV content."""


class UnsupportedWavError(WavError):
    """Container parsed but the codec is not PCM16 / IEEE float32."""


class TruncatedWavError(WavError):
    """Container ends before the declared chunk payload."""


@dataclass
class AudioBuffer:
    """A mono waveform. ``samples`` is 1-D float64, ``sample_rate`` in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"AudioBuffer requires 1-D samples, got shape {arr.shape}")
        if not (isinstance(self.sample_rate, (int, np.integer)) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("AudioBuffer samples must be finite")
        self.samples = arr
        self.sample_rate = int(self.sample_rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate

    def copy(self) -> "AudioBuffer":
        return AudioBuffer(self.samples.copy(), self.sample_rate)


# ---------------------------------------------------------------------------
# WAV I/O
#
# Hand-rolled RIFF parsing: the stdlib wave module cannot read IEEE float32
# and does not distinguish "unsupported codec" from "truncated container",
# both of which callers need as separate error values.
# ---------------------------------------------------------------------------

_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3
#: the sample formats :func:`write_wav` writes
WAV_FORMATS = ("float32", "pcm16")


def _iter_chunks(blob: bytes):
    """Yield (chunk_id, payload) pairs of a RIFF body, checking lengths."""
    off = 12
    while off < len(blob):
        if off + 8 > len(blob):
            raise TruncatedWavError("chunk header extends past end of file")
        cid = blob[off : off + 4]
        (size,) = struct.unpack_from("<I", blob, off + 4)
        start = off + 8
        if start + size > len(blob):
            raise TruncatedWavError(
                f"chunk {cid!r} declares {size} bytes but only {len(blob) - start} remain"
            )
        yield cid, blob[start : start + size]
        off = start + size + (size & 1)  # chunks are word-aligned


def read_wav(path, session_rate: int | None = None) -> AudioBuffer:
    """Read a PCM16 or IEEE-float32 RIFF/WAVE file as a mono buffer.

    Multichannel content is downmixed by channel mean. When ``session_rate``
    is given and differs from the file rate, the audio is resampled on load.

    Raises ``FileNotFoundError`` for a missing file, ``UnsupportedWavError``
    for other codecs, ``TruncatedWavError`` for short containers.
    """
    with open(path, "rb") as fh:  # missing file -> FileNotFoundError, distinct
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise UnsupportedWavError(f"{path}: not a RIFF/WAVE container")

    fmt = None
    data = None
    for cid, payload in _iter_chunks(blob):
        if cid == b"fmt " and fmt is None:
            if len(payload) < 16:
                raise TruncatedWavError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", payload, 0)
        elif cid == b"data" and data is None:
            data = payload
    if fmt is None or data is None:
        raise TruncatedWavError(f"{path}: missing fmt or data chunk")

    audio_format, n_channels, rate, _byte_rate, block_align, bits = fmt
    if n_channels < 1:
        raise UnsupportedWavError(f"{path}: channel count {n_channels}")
    if rate < 1:
        raise UnsupportedWavError(f"{path}: sample rate {rate}")
    if audio_format == _FMT_PCM and bits == 16:
        raw = np.frombuffer(data[: len(data) - len(data) % 2], dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif audio_format == _FMT_IEEE_FLOAT and bits == 32:
        raw = np.frombuffer(data[: len(data) - len(data) % 4], dtype="<f4")
        samples = raw.astype(np.float64)
    else:
        raise UnsupportedWavError(
            f"{path}: unsupported codec (format tag {audio_format}, {bits}-bit)"
        )
    if block_align and len(data) % block_align:
        raise TruncatedWavError(f"{path}: data chunk is not a whole number of frames")

    if n_channels > 1:
        usable = samples.size - samples.size % n_channels
        samples = samples[:usable].reshape(-1, n_channels).mean(axis=1)
    if samples.size and not np.all(np.isfinite(samples)):
        raise WavError(f"{path}: non-finite samples in float data")

    buf = AudioBuffer(samples, int(rate))
    if session_rate is not None and session_rate != buf.sample_rate:
        buf = resample(buf, session_rate)
    return buf


def write_wav(buffer: AudioBuffer, path, format: str = "float32") -> None:
    """Write ``buffer`` to ``path`` as PCM16 or IEEE float32.

    Samples outside [-1, 1] are clipped; the clipped-sample count is logged
    as a warning.
    """
    x = buffer.samples
    n_clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
    if n_clipped:
        log.warning("write_wav: clipped %d samples outside [-1, 1] (%s)", n_clipped, path)
        x = np.clip(x, -1.0, 1.0)

    if format == "pcm16":
        ints = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
        payload = ints.tobytes()
        audio_format, bits = _FMT_PCM, 16
    elif format == "float32":
        payload = x.astype("<f4").tobytes()
        audio_format, bits = _FMT_IEEE_FLOAT, 32
    else:
        raise ValueError(f"unknown wav format {format!r}; expected one of {WAV_FORMATS}")

    block_align = bits // 8
    byte_rate = buffer.sample_rate * block_align
    fmt_chunk = struct.pack(
        "<HHIIHH", audio_format, 1, buffer.sample_rate, byte_rate, block_align, bits
    )
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        body += b"\x00"
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


# ---------------------------------------------------------------------------
# Band-limited resampling (windowed sinc, 32 taps per output sample)
# ---------------------------------------------------------------------------


def _sinc_interpolate(x: np.ndarray, positions: np.ndarray, ratio: float) -> np.ndarray:
    """Evaluate x at fractional sample ``positions`` with a windowed sinc.

    ``ratio`` is input samples per output sample; for ratio > 1 (decimation)
    the kernel cutoff drops to 1/ratio for anti-aliasing. Output positions
    are taken ``RESAMPLER_BLOCK_ROWS`` at a time, so the scratch is a few
    ``[RESAMPLER_BLOCK_ROWS, RESAMPLER_TAPS]`` matrices whatever the length.
    """
    half = RESAMPLER_TAPS // 2
    cutoff = min(1.0, 1.0 / ratio)
    pad = np.pad(x, half)
    offsets = np.arange(-half + 1, half + 1)  # 32 taps around each position
    out = np.empty(positions.size)
    for r0 in range(0, positions.size, RESAMPLER_BLOCK_ROWS):
        block = positions[r0 : r0 + RESAMPLER_BLOCK_ROWS]
        idx = np.floor(block).astype(np.int64)[:, None] + offsets[None, :]
        u = block[:, None] - idx
        taper = 0.5 + 0.5 * np.cos(np.pi * u / half)  # Hann taper over the support
        kernel = cutoff * np.sinc(cutoff * u) * taper
        out[r0 : r0 + block.size] = np.einsum("ij,ij->i", pad[idx + half], kernel)
    return out


def resample_to_length(x: np.ndarray, out_len: int) -> np.ndarray:
    """Resample 1-D ``x`` to exactly ``out_len`` samples."""
    if out_len <= 0:
        raise ValueError("out_len must be positive")
    if x.size == 0:
        raise ValueError("cannot resample an empty signal")
    if out_len == x.size:
        return x.astype(np.float64, copy=True)
    ratio = x.size / out_len
    positions = np.arange(out_len, dtype=np.float64) * ratio
    return _sinc_interpolate(np.asarray(x, dtype=np.float64), positions, ratio)


def resample(buffer: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Resample a buffer to ``target_rate`` (windowed-sinc, 32 taps)."""
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == buffer.sample_rate or len(buffer) == 0:
        return AudioBuffer(buffer.samples.copy(), target_rate)
    out_len = int(round(len(buffer) * target_rate / buffer.sample_rate))
    out_len = max(out_len, 1)
    return AudioBuffer(resample_to_length(buffer.samples, out_len), target_rate)


# ---------------------------------------------------------------------------
# SNR mixing
# ---------------------------------------------------------------------------


class MixResult(NamedTuple):
    mixture: AudioBuffer
    foreground_stem: AudioBuffer  # scaled, placed in the background timeline
    background: AudioBuffer


def mix_at_snr(
    foreground: AudioBuffer,
    background: AudioBuffer,
    snr_db: float,
    onset_s: float = 0.0,
) -> MixResult:
    """Place ``foreground`` into ``background`` at a target SNR.

    The gain g satisfies 10*log10(P_fg / P_bg) = snr_db with both powers
    (mean square) measured over the overlap window only. The returned
    mixture equals ``background.samples + stem.samples`` sample-exactly.
    """
    if foreground.sample_rate != background.sample_rate:
        raise ValueError(
            f"sample rate mismatch: fg {foreground.sample_rate} vs bg {background.sample_rate}"
        )
    if onset_s < 0:
        raise ValueError("onset_s must be >= 0")
    onset = int(round(onset_s * background.sample_rate))
    n_fg = len(foreground)
    if n_fg == 0:
        raise ValueError("foreground is empty")
    if onset + n_fg > len(background):
        raise ValueError(
            f"foreground overruns background: onset {onset} + {n_fg} > {len(background)}"
        )

    bg_seg = background.samples[onset : onset + n_fg]
    p_bg = float(np.mean(bg_seg**2))
    p_fg = float(np.mean(foreground.samples**2))
    if p_bg <= 0.0:
        raise ValueError("background is silent over the overlap window; SNR undefined")
    if p_fg <= 0.0:
        raise ValueError("foreground is silent; SNR undefined")

    gain = np.sqrt(p_bg / p_fg) * 10.0 ** (snr_db / 20.0)
    stem = np.zeros(len(background), dtype=np.float64)
    stem[onset : onset + n_fg] = gain * foreground.samples
    mixture = background.samples + stem
    sr = background.sample_rate
    return MixResult(AudioBuffer(mixture, sr), AudioBuffer(stem, sr), background)


# ---------------------------------------------------------------------------
# Voice-activity ratio
# ---------------------------------------------------------------------------


def vad_activity_ratio(
    buffer: AudioBuffer, frame_ms: float = 30.0, threshold_db: float = -40.0
) -> float:
    """Fraction of non-overlapping frames whose RMS (dBFS) exceeds threshold.

    Only complete frames count; an empty or shorter-than-one-frame buffer
    has ratio 0.
    """
    if frame_ms <= 0:
        raise ValueError("frame_ms must be positive")
    frame_len = int(round(buffer.sample_rate * frame_ms / 1000.0))
    if frame_len <= 0 or len(buffer) < frame_len:
        return 0.0
    n = len(buffer) // frame_len
    frames = buffer.samples[: n * frame_len].reshape(n, frame_len)
    power = np.mean(frames**2, axis=1)
    with np.errstate(divide="ignore"):
        rms_db = 10.0 * np.log10(power)  # == 20*log10(rms)
    return float(np.mean(rms_db > threshold_db))


# ---------------------------------------------------------------------------
# Phase vocoder: time_stretch and pitch_shift
# ---------------------------------------------------------------------------


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _frame_stft(x: np.ndarray, n_fft: int, hop: int, window: np.ndarray) -> np.ndarray:
    n_frames = 1 + (x.size - n_fft) // hop
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[:: hop][:n_frames]
    return np.fft.rfft(frames * window, axis=1)


def _overlap_add(frames_c: np.ndarray, n_fft: int, hop: int, window: np.ndarray) -> np.ndarray:
    """Least-squares inverse STFT: overlap-add then divide by sum(window^2)."""
    t = frames_c.shape[0]
    out_len = n_fft + (t - 1) * hop
    acc = np.zeros(out_len, dtype=np.float64)
    norm = np.zeros(out_len, dtype=np.float64)
    frames = np.fft.irfft(frames_c, n=n_fft, axis=1) * window
    w2 = window**2
    for j in range(t):
        acc[j * hop : j * hop + n_fft] += frames[j]
        norm[j * hop : j * hop + n_fft] += w2
    covered = norm > 1e-12
    acc[covered] /= norm[covered]
    return acc


def time_stretch(buffer: AudioBuffer, factor: float) -> AudioBuffer:
    """Stretch duration by ``factor`` (>1 = longer) at constant pitch.

    Phase-vocoder with fractional analysis positions: magnitudes are
    linearly interpolated between analysis frames, phases accumulate the
    wrapped per-hop deviation from the bin's nominal advance. The output is
    trimmed to exactly round(len * factor) samples, so the duration law
    holds with zero error. factor = 1.0 reproduces the input through the
    identity analysis path.
    """
    if factor <= 0:
        raise ValueError("stretch factor must be positive")
    n_fft, hop = VOCODER_N_FFT, VOCODER_HOP
    x = buffer.samples
    if x.size < n_fft:
        raise ValueError(f"buffer too short for the vocoder frame ({x.size} < {n_fft})")
    target_len = max(int(round(x.size * factor)), 1)

    window = _hann_periodic(n_fft)
    t_in = 1 + int(np.ceil((x.size - n_fft) / hop))
    padded = np.pad(x, (0, n_fft + (t_in - 1) * hop - x.size))
    spec = _frame_stft(padded, n_fft, hop, window)  # [t_in, bins]

    t_out = 1 + max(int(np.ceil((target_len - n_fft) / hop)), 0)
    pos = np.minimum(np.arange(t_out) / factor, t_in - 1.0)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, t_in - 1)
    frac = (pos - lo)[:, None]

    mag = (1.0 - frac) * np.abs(spec[lo]) + frac * np.abs(spec[hi])

    bins = spec.shape[1]
    omega = 2.0 * np.pi * np.arange(bins) * hop / n_fft  # nominal advance/hop
    phase_lo = np.angle(spec[lo])
    phase_hi = np.angle(spec[hi])
    # deviation of the observed advance lo->hi from nominal, wrapped to (-pi, pi]
    dev = phase_hi - phase_lo - omega[None, :]
    dev = dev - 2.0 * np.pi * np.round(dev / (2.0 * np.pi))
    dev[hi == lo] = 0.0  # clamped tail: advance nominally
    advance = omega[None, :] + dev  # true per-hop advance at each output step
    phase = np.empty_like(mag)
    phase[0] = phase_lo[0]  # pos[0] == 0, so the first frame keeps its phase
    phase[1:] = phase_lo[0] + np.cumsum(advance[:-1], axis=0)

    out = _overlap_add(mag * np.exp(1j * phase), n_fft, hop, window)
    if out.size < target_len:
        out = np.pad(out, (0, target_len - out.size))
    return AudioBuffer(out[:target_len], buffer.sample_rate)


def pitch_shift(buffer: AudioBuffer, semitones: float) -> AudioBuffer:
    """Shift pitch by ``semitones`` at constant duration.

    Realized as time_stretch by r = 2^(semitones/12) followed by band-limited
    resampling back to the original length. Output length equals the input
    length exactly.
    """
    if len(buffer) == 0:
        raise ValueError("pitch_shift requires a non-empty buffer")
    if abs(semitones) > 12:
        log.warning("pitch_shift: %+.2f semitones is outside the validated range", semitones)
    elif abs(semitones) > 3:
        log.info("pitch_shift: %+.2f semitones is outside the forge default range", semitones)
    rate = 2.0 ** (semitones / 12.0)
    stretched = time_stretch(buffer, rate)
    out = resample_to_length(stretched.samples, len(buffer))
    return AudioBuffer(out, buffer.sample_rate)
