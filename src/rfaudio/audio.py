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

import contextvars
import logging
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

# phase-vocoder / resampler framing; small transforms use these
# rather than the mel front-end config so audio.py stays self-contained.
VOCODER_N_FFT = 1024
VOCODER_HOP = 256
RESAMPLER_TAPS = 32
#: output samples per resampler block, shared among the lanes; each output
#: sample is computed by the same arithmetic whatever the block, so the size
#: changes no result
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

    def __post_init__(self, scan: bool = True) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"AudioBuffer requires 1-D samples, got shape {arr.shape}")
        if not (isinstance(self.sample_rate, (int, np.integer)) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        if scan and arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("AudioBuffer samples must be finite")
        self.samples = arr
        self.sample_rate = int(self.sample_rate)

    @classmethod
    def _finite(cls, samples: np.ndarray, sample_rate: int) -> AudioBuffer:
        """A buffer over ``samples`` known to be finite, which skips the ``np.isfinite`` scan.

        For samples the caller has checked itself, or a slice or copy of a
        checked buffer's. Sums of checked buffers are not among them: a sum
        of finite values can overflow.
        """
        buf = object.__new__(cls)
        buf.samples, buf.sample_rate = samples, sample_rate
        buf.__post_init__(scan=False)
        return buf

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


# ---------------------------------------------------------------------------
# DSP lanes
#
# The resampler, the phase vocoder and ``spectral.mel_spectrogram`` split
# their rows, frequency bins or frames into one contiguous range per CPU
# this process may run on. The vocoder makes four lane passes, each over
# frames but its running phase sum, which goes over bins; its overlap-add,
# like ``spectral.stft`` and ``spectral.istft``, runs on the calling thread.
# Every lane runs the same float operations, in the same order, on the part
# it owns, so the output is the same bit for bit at any lane count. The
# caller allocates every output and every lane's scratch before dispatch
# and lanes write with ``out=``, so lane threads allocate nothing large:
# memory a lane thread frees would stay in that thread's malloc arena,
# where the calling thread's later work cannot reuse it. The allocator
# thresholds that ``rfaudio/__init__.py`` pins govern the main arena, which
# the calling thread allocates from: they keep its freed scratch for the
# next call, but lend it nothing from a lane's arena. Lanes call no
# module global that the benchmark's tracer rebinds, so every traced span
# opens on the calling thread.
#
# Lane work makes no BLAS call: numpy FFTs, ufuncs, ufunc reductions and
# ``einsum`` only, never ``matmul``, ``@``, ``dot`` or ``linalg``. OpenBLAS's
# threads spin for a while after each call, and lanes running beside them
# lose more than they gain. Lane work never calls :func:`_run_lanes`, nor
# a kernel that does, such as ``spectral.mel_spectrogram``: the pool holds
# one thread per lane beyond the caller's, so a nested call would wait on a
# thread that is waiting on it.
# ---------------------------------------------------------------------------

#: lanes per kernel call: the CPUs in this process's affinity mask
_LANES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads: start afresh."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_pool)


def _lane_cuts(n: int) -> list[int]:
    """Bounds ``[c_0 = 0, c_1, ..., c_L = n]`` of one contiguous range per lane."""
    lanes = max(1, min(_LANES, n))
    return [n * k // lanes for k in range(lanes + 1)]


def _run_lanes(work, cuts: list[int]) -> None:
    """Run ``work(k, cuts[k], cuts[k + 1])`` for every lane ``k``.

    Lane 0 runs on the calling thread, the others on the module's thread
    pool, each in a copy of the caller's context, so numpy's error state
    (``np.errstate``) is the caller's on every lane. Returns when every lane
    has finished; the error of the lowest failing lane, if any, is raised
    then. ``work`` calls no BLAS and not this function (see above).
    """
    global _pool
    futures = []
    if len(cuts) > 2:
        with _pool_lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(max(_LANES - 1, 1), thread_name_prefix="rfaudio-lane")
            pool = _pool
        futures = [pool.submit(contextvars.copy_context().run, work, k, cuts[k], cuts[k + 1])
                   for k in range(1, len(cuts) - 1)]
    try:
        work(0, cuts[0], cuts[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


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


class _WavHeader(NamedTuple):
    dtype: str  # "<i2" (PCM16) or "<f4" (IEEE float32)
    n_channels: int
    rate: int
    data_offset: int
    data_size: int

    @property
    def n_frames(self) -> int:
        return self.data_size // np.dtype(self.dtype).itemsize // self.n_channels


def _iter_chunks(fh, file_size: int, path):
    """Yield (chunk_id, payload offset, payload size) of a RIFF body, checking lengths.

    Only the 8-byte chunk headers are read; payloads are skipped by seeking.
    """
    off = 12
    while off < file_size:
        if off + 8 > file_size:
            raise TruncatedWavError(f"{path}: chunk header extends past end of file")
        fh.seek(off)
        cid, size = struct.unpack("<4sI", fh.read(8))
        start = off + 8
        if start + size > file_size:
            raise TruncatedWavError(
                f"{path}: chunk {cid!r} declares {size} bytes but only {file_size - start} "
                "remain"
            )
        yield cid, start, size
        off = start + size + (size & 1)  # chunks are word-aligned


def _read_wav_header(fh, path) -> _WavHeader:
    """Parse and check the RIFF/WAVE header of the open file ``fh``."""
    file_size = os.fstat(fh.fileno()).st_size
    riff = fh.read(12)
    if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
        raise UnsupportedWavError(f"{path}: not a RIFF/WAVE container")

    fmt = None
    data = None
    for cid, start, size in _iter_chunks(fh, file_size, path):
        if cid == b"fmt " and fmt is None:
            if size < 16:
                raise TruncatedWavError(f"{path}: fmt chunk too short")
            fh.seek(start)
            fmt = struct.unpack("<HHIIHH", fh.read(16))
        elif cid == b"data" and data is None:
            data = (start, size)
    if fmt is None or data is None:
        raise TruncatedWavError(f"{path}: missing fmt or data chunk")

    audio_format, n_channels, rate, _byte_rate, block_align, bits = fmt
    if n_channels < 1:
        raise UnsupportedWavError(f"{path}: channel count {n_channels}")
    if rate < 1:
        raise UnsupportedWavError(f"{path}: sample rate {rate}")
    if audio_format == _FMT_PCM and bits == 16:
        dtype = "<i2"
    elif audio_format == _FMT_IEEE_FLOAT and bits == 32:
        dtype = "<f4"
    else:
        raise UnsupportedWavError(
            f"{path}: unsupported codec (format tag {audio_format}, {bits}-bit)"
        )
    data_offset, data_size = data
    if block_align and data_size % block_align:
        raise TruncatedWavError(f"{path}: data chunk is not a whole number of frames")
    return _WavHeader(dtype, n_channels, rate, data_offset, data_size)


def wav_duration_s(path) -> float:
    """Duration of a WAV file in seconds, read from its header alone.

    Equals ``read_wav(path).duration_s`` and raises the same errors for a
    missing file or a malformed header; the samples are not decoded.
    """
    with open(path, "rb") as fh:
        header = _read_wav_header(fh, path)
    return header.n_frames / header.rate


def read_wav(path, session_rate: int | None = None) -> AudioBuffer:
    """Read a PCM16 or IEEE-float32 RIFF/WAVE file as a mono buffer.

    Multichannel content is downmixed by channel mean. When ``session_rate``
    is given and differs from the file rate, the audio is resampled on load.

    Raises ``FileNotFoundError`` for a missing file, ``UnsupportedWavError``
    for other codecs, ``TruncatedWavError`` for short containers.
    """
    with open(path, "rb") as fh:  # missing file -> FileNotFoundError, distinct
        header = _read_wav_header(fh, path)
        fh.seek(header.data_offset)
        data = fh.read(header.data_size)
    # whole frames only: a trailing partial frame is dropped
    count = header.n_frames * header.n_channels
    samples = np.frombuffer(data, dtype=header.dtype, count=count).astype(np.float64)
    if header.dtype == "<i2":
        samples /= 32768.0
    if header.n_channels > 1:
        samples = samples.reshape(-1, header.n_channels).mean(axis=1)
    if samples.size and not np.all(np.isfinite(samples)):
        raise WavError(f"{path}: non-finite samples in float data")

    buf = AudioBuffer._finite(samples, header.rate)
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
        payload = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
        audio_format = _FMT_PCM
    elif format == "float32":
        payload = x.astype("<f4")
        audio_format = _FMT_IEEE_FLOAT
    else:
        raise ValueError(f"unknown wav format {format!r}; expected one of {WAV_FORMATS}")

    # both sample sizes are even, so the data chunk needs no pad byte
    block_align = payload.itemsize
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + payload.nbytes, b"WAVE",
        b"fmt ", 16, audio_format, 1, buffer.sample_rate,
        buffer.sample_rate * block_align, block_align, 8 * block_align,
        b"data", payload.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)  # the array's own buffer, not a bytes copy


# ---------------------------------------------------------------------------
# Band-limited resampling (windowed sinc, 32 taps per output sample)
# ---------------------------------------------------------------------------


def _sinc_interpolate(x: np.ndarray, positions: np.ndarray, ratio: float) -> np.ndarray:
    """Evaluate x at fractional sample ``positions`` with a windowed sinc.

    ``ratio`` is input samples per output sample; for ratio > 1 (decimation)
    the kernel cutoff drops to 1/ratio for anti-aliasing. Each lane takes
    its range of output positions a block at a time through its own
    ``[rows, RESAMPLER_TAPS]`` scratch; the lanes' blocks add up to at most
    ``RESAMPLER_BLOCK_ROWS`` rows, so the scratch depends on neither the
    length nor the lane count. Every output sample gets the arithmetic of
    the whole-array formula ``cutoff * np.sinc(cutoff * u) * taper``, with
    ``np.sinc`` spelled out as its own operations, bit for bit.
    """
    half = RESAMPLER_TAPS // 2
    cutoff = min(1.0, 1.0 / ratio)
    pad = np.pad(x, half)
    offsets = np.arange(-half + 1, half + 1, dtype=np.float64)  # 32 taps around each position
    tiny = np.finfo(np.float64).eps  # np.sinc's stand-in for an exact zero
    out = np.empty(positions.size)
    cuts = _lane_cuts(positions.size)
    lanes = len(cuts) - 1
    rows = max(1, min(RESAMPLER_BLOCK_ROWS // lanes, cuts[1] + 1))  # ranges differ by <= 1
    shape = (rows, RESAMPLER_TAPS)
    scratch = [
        (np.empty(rows), np.empty(shape, np.int64), np.empty(shape), np.empty(shape),
         np.empty(shape), np.empty(shape, bool))
        for _ in range(lanes)
    ]

    def lane(k, lo, hi):
        for r0 in range(lo, hi, rows):
            m = min(rows, hi - r0)
            block = positions[r0 : r0 + m]
            base, idx, u, taper, kernel, zero = (a[:m] for a in scratch[k])
            np.floor(block, out=base)
            np.copyto(u, offsets)
            u += base[:, None]  # the tap positions, whole numbers held exactly
            np.copyto(idx, u, casting="unsafe")
            np.subtract(block[:, None], u, out=u)
            # Hann taper over the support: 0.5 + 0.5 * cos(pi * u / half)
            np.multiply(np.pi, u, out=taper)
            taper /= half
            np.cos(taper, out=taper)
            taper *= 0.5
            taper += 0.5
            # np.sinc(cutoff * u): y = pi * x, an exact zero read as eps, sin(y) / y
            u *= cutoff
            u *= np.pi
            np.equal(u, 0.0, out=zero)
            np.copyto(u, tiny, where=zero)
            np.sin(u, out=kernel)
            kernel /= u
            kernel *= cutoff
            kernel *= taper
            idx += half
            np.take(pad, idx, out=taper, mode="clip")  # every index is in range
            np.einsum("ij,ij->i", taper, kernel, out=out[r0 : r0 + m])

    _run_lanes(lane, cuts)
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
        return AudioBuffer._finite(buffer.samples.copy(), target_rate)
    out_len = int(round(len(buffer) * target_rate / buffer.sample_rate))
    out_len = max(out_len, 1)
    return AudioBuffer(resample_to_length(buffer.samples, out_len), target_rate)


# ---------------------------------------------------------------------------
# SNR mixing
# ---------------------------------------------------------------------------


class MixResult(NamedTuple):
    foreground_stem: AudioBuffer  # scaled, placed in the background timeline
    background: AudioBuffer

    @property
    def mixture(self) -> AudioBuffer:
        """``background + foreground_stem``, summed on each read."""
        mixture = self.background.samples + self.foreground_stem.samples
        return AudioBuffer(mixture, self.background.sample_rate)


def mix_at_snr(
    foreground: AudioBuffer,
    background: AudioBuffer,
    snr_db: float,
    onset_s: float = 0.0,
) -> MixResult:
    """Place ``foreground`` into ``background`` at a target SNR.

    The gain g satisfies 10*log10(P_fg / P_bg) = snr_db with both powers
    (mean square) measured over the overlap window only. The result's
    ``mixture``, summed when read, equals ``background.samples +
    stem.samples`` sample-exactly.
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
    return MixResult(AudioBuffer(stem, background.sample_rate), background)


# ---------------------------------------------------------------------------
# Voice-activity ratio
# ---------------------------------------------------------------------------


#: frame length of :func:`vad_activity_ratio`
VAD_FRAME_MS = 30.0
#: RMS level (dBFS) a frame must exceed to count as active
VAD_THRESHOLD_DB = -40.0


def vad_activity_ratio(buffer: AudioBuffer) -> float:
    """Fraction of non-overlapping ``VAD_FRAME_MS`` frames whose RMS exceeds ``VAD_THRESHOLD_DB``.

    Only complete frames count; an empty or shorter-than-one-frame buffer
    has ratio 0.
    """
    frame_len = int(round(buffer.sample_rate * VAD_FRAME_MS / 1000.0))
    if frame_len <= 0 or len(buffer) < frame_len:
        return 0.0
    n = len(buffer) // frame_len
    frames = buffer.samples[: n * frame_len].reshape(n, frame_len)
    power = np.mean(frames**2, axis=1)
    with np.errstate(divide="ignore"):
        rms_db = 10.0 * np.log10(power)  # == 20*log10(rms)
    return float(np.mean(rms_db > VAD_THRESHOLD_DB))


# ---------------------------------------------------------------------------
# Phase vocoder: time_stretch and pitch_shift
# ---------------------------------------------------------------------------


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _add_frames(acc: np.ndarray, frames: np.ndarray, hop: int) -> None:
    """``acc[j*hop : j*hop + n_fft] += frames[j]`` for every frame ``j``.

    Each ``hop``-wide chunk of the frames goes in as one whole-array add; a
    last chunk narrower than ``hop`` (when ``hop`` does not divide ``n_fft``)
    takes the same path. The chunks go in descending order, so every sample
    receives its frames in ascending frame order, as a frame-by-frame loop
    adds them, and the sums are that loop's bit for bit.
    """
    n, n_fft = frames.shape
    if n == 0:
        return
    for lo in reversed(range(0, n_fft, hop)):
        width = min(hop, n_fft - lo)
        span = acc[lo : lo + (n - 1) * hop + width]
        rows = np.lib.stride_tricks.sliding_window_view(span, width, writeable=True)[::hop]
        rows += frames[:, lo : lo + width]


def _window_norm(window: np.ndarray, t: int, hop: int) -> np.ndarray:
    """Sum of squared windows over ``t`` frames, the least-squares normaliser.

    Samples no window covers (sum <= 1e-12) read 1, so dividing by the
    result leaves them as they are.
    """
    norm = np.zeros(window.size + (t - 1) * hop)
    _add_frames(norm, np.broadcast_to(window**2, (t, window.size)), hop)
    norm[norm <= 1e-12] = 1.0
    return norm


def time_stretch(buffer: AudioBuffer, factor: float) -> AudioBuffer:
    """Stretch duration by ``factor`` (>1 = longer) at constant pitch.

    Phase-vocoder with fractional analysis positions: magnitudes are
    linearly interpolated between analysis frames, phases accumulate the
    wrapped per-hop deviation from the bin's nominal advance. The output is
    trimmed to exactly round(len * factor) samples, so the duration law
    holds with zero error. factor = 1.0 reproduces the input through the
    identity analysis path.

    Four lane passes: analysis (window, ``rfft``, magnitude and phase) and
    interpolation split the input and output frames, the running phase sum
    splits the frequency bins, since it runs along the frames of one bin,
    and synthesis (``mag * exp(1j * phase)``, ``irfft``, window) splits the
    output frames. The frames are then overlap-added on the calling thread.
    Each value is computed as the whole-array formula computes it.
    """
    if factor <= 0:
        raise ValueError("stretch factor must be positive")
    n_fft, hop = VOCODER_N_FFT, VOCODER_HOP
    x = buffer.samples
    if x.size < n_fft:
        raise ValueError(f"buffer too short for the vocoder frame ({x.size} < {n_fft})")
    target_len = max(int(round(x.size * factor)), 1)

    window = _hann_periodic(n_fft)
    bins = n_fft // 2 + 1
    t_in = 1 + int(np.ceil((x.size - n_fft) / hop))
    padded = np.pad(x, (0, n_fft + (t_in - 1) * hop - x.size))
    framed = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop]  # [t_in, n_fft]
    windowed = np.empty((t_in, n_fft))
    spec = np.empty((t_in, bins), dtype=np.complex128)
    mag_in = np.empty((t_in, bins))
    phase_in = np.empty((t_in, bins))

    def analyse(k, lo, hi):
        np.multiply(framed[lo:hi], window, out=windowed[lo:hi])
        np.fft.rfft(windowed[lo:hi], axis=1, out=spec[lo:hi])
        np.abs(spec[lo:hi], out=mag_in[lo:hi])
        np.arctan2(spec.imag[lo:hi], spec.real[lo:hi], out=phase_in[lo:hi])  # np.angle

    _run_lanes(analyse, _lane_cuts(t_in))
    del windowed, spec  # only the magnitudes and phases are read from here on

    t_out = 1 + max(int(np.ceil((target_len - n_fft) / hop)), 0)
    pos = np.minimum(np.arange(t_out) / factor, t_in - 1.0)
    lo_frame = np.floor(pos).astype(np.int64)
    hi_frame = np.minimum(lo_frame + 1, t_in - 1)
    frac = (pos - lo_frame)[:, None]
    keep = 1.0 - frac
    clamped = hi_frame == lo_frame  # the tail, where the bin advances nominally
    omega = 2.0 * np.pi * np.arange(bins) * hop / n_fft  # nominal advance/hop
    # the interpolated magnitudes as complex values, the form the product takes
    mag = np.zeros((t_out, bins), dtype=np.complex128)
    advance = np.empty((t_out, bins))
    scratch = np.empty((t_out, bins))

    def interpolate(k, lo, hi):
        rows = slice(lo, hi)
        s, dev = scratch[rows], advance[rows]
        # (1 - frac) * |spec[lo]| + frac * |spec[hi]|
        np.take(mag_in, lo_frame[rows], axis=0, out=s, mode="clip")
        np.multiply(keep[rows], s, out=mag.real[rows])
        np.take(mag_in, hi_frame[rows], axis=0, out=s, mode="clip")
        s *= frac[rows]
        mag.real[rows] += s
        # deviation of the observed advance lo->hi from nominal, wrapped to (-pi, pi]
        np.take(phase_in, hi_frame[rows], axis=0, out=dev, mode="clip")
        np.take(phase_in, lo_frame[rows], axis=0, out=s, mode="clip")
        dev -= s
        dev -= omega
        np.divide(dev, 2.0 * np.pi, out=s)
        np.round(s, out=s)
        s *= 2.0 * np.pi
        dev -= s
        dev[clamped[rows]] = 0.0
        np.add(omega, dev, out=dev)  # true per-hop advance at each output step

    _run_lanes(interpolate, _lane_cuts(t_out))

    phase = scratch  # free again once the lanes above are done
    phase[0] = phase_in[0]  # pos[0] == 0, so the first frame keeps its phase

    def accumulate(k, lo, hi):
        np.cumsum(advance[:-1, lo:hi], axis=0, out=phase[1:, lo:hi])

    _run_lanes(accumulate, _lane_cuts(bins))
    frames_c = np.empty((t_out, bins), dtype=np.complex128)
    frames = np.empty((t_out, n_fft))

    def synthesise(k, lo, hi):
        summed = slice(max(lo, 1), hi)  # row 0 keeps the first frame's phase
        np.add(phase_in[0], phase[summed], out=phase[summed])
        z = frames_c[lo:hi]
        z[...] = phase[lo:hi]
        np.multiply(1j, z, out=z)
        np.exp(z, out=z)
        np.multiply(mag[lo:hi], z, out=z)  # mag * exp(1j * phase)
        np.fft.irfft(z, n=n_fft, axis=1, out=frames[lo:hi])
        frames[lo:hi] *= window

    _run_lanes(synthesise, _lane_cuts(t_out))

    # least-squares overlap-add, in frame order on the calling thread
    out = np.zeros(n_fft + (t_out - 1) * hop)
    _add_frames(out, frames, hop)
    out /= _window_norm(window, t_out, hop)
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
