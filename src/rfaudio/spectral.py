"""STFT/log-mel front-end, Griffin-Lim inversion, and log-spectral distance.

Framing is non-centered (no reflection padding): frame t covers samples
[t*hop, t*hop + n_fft), so T = 1 + floor((len - n_fft) / hop). Mel frames
are stored float32 (the model's operating dtype); analysis math runs in
float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import (
    AudioBuffer,
    _add_frames,
    _frame_stft,
    _hann_periodic,
    _overlap_add,
    _window_norm,
)

#: analysis frames per block in :func:`mel_spectrogram`; every frame is
#: computed by the same arithmetic whatever the block, so the size changes
#: no result, only the scratch the call holds
MEL_BLOCK_FRAMES = 128


@dataclass(frozen=True)
class MelConfig:
    """Analysis configuration. Defaults: 44.1 kHz, FFT 1024, hop 256, 100 mels."""

    sample_rate: int = 44100
    n_fft: int = 1024
    hop: int = 256
    n_mels: int = 100
    f_min: float = 0.0
    f_max: float | None = None  # None -> sample_rate / 2
    window: str = "hann"
    log_floor: float = 1e-5  # added to mel *power* before the natural log

    def __post_init__(self) -> None:
        for name in ("sample_rate", "n_fft", "hop", "n_mels"):
            if type(value := getattr(self, name)) is not int:  # bool included
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.f_max is None:
            object.__setattr__(self, "f_max", self.sample_rate / 2.0)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.hop <= 0 or self.n_fft <= 0 or self.hop > self.n_fft:
            raise ValueError(f"need 0 < hop <= n_fft, got hop={self.hop} n_fft={self.n_fft}")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")
        if not (0.0 <= self.f_min < self.f_max <= self.sample_rate / 2.0):
            raise ValueError(
                f"need 0 <= f_min < f_max <= sr/2, got [{self.f_min}, {self.f_max}]"
            )
        if self.window != "hann":
            raise ValueError("only the Hann window is supported")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1

    def frame_count(self, n_samples: int) -> int:
        if n_samples < self.n_fft:
            raise ValueError(f"buffer too short: {n_samples} < n_fft {self.n_fft}")
        return 1 + (n_samples - self.n_fft) // self.hop


@dataclass
class MelSpectrogram:
    config: MelConfig
    frames: np.ndarray  # [T, n_mels] float32, natural log of (mel power + floor)

    def __post_init__(self) -> None:
        if self.frames.ndim != 2 or self.frames.shape[1] != self.config.n_mels:
            raise ValueError(f"expected [T, {self.config.n_mels}], got {self.frames.shape}")
        if self.frames.size and not np.all(np.isfinite(self.frames)):
            raise ValueError("mel frames must be finite")
        floor = np.float32(np.log(np.float64(self.config.log_floor)))
        if self.frames.size and self.frames.min() < floor:
            raise ValueError("mel frames below the log floor")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def power(self) -> np.ndarray:
        """Mel power with the floor removed, clipped at 0 (float64)."""
        return np.maximum(np.exp(self.frames.astype(np.float64)) - self.config.log_floor, 0.0)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _check_buffer(buffer: AudioBuffer, cfg: MelConfig) -> None:
    """Refuse a buffer at another rate than ``cfg`` or shorter than one frame."""
    if buffer.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"buffer rate {buffer.sample_rate} != config rate {cfg.sample_rate}"
        )
    n = len(buffer)
    if n < cfg.n_fft:
        raise ValueError(f"buffer shorter than one frame ({n} < {cfg.n_fft})")


def stft(buffer: AudioBuffer, cfg: MelConfig) -> np.ndarray:
    """Hann-windowed, non-centered STFT: ``[T, n_bins]`` complex128, as :func:`istft` takes."""
    _check_buffer(buffer, cfg)
    window = _hann_periodic(cfg.n_fft)
    return _frame_stft(buffer.samples, cfg.n_fft, cfg.hop, window)


def istft(frames: np.ndarray, cfg: MelConfig) -> AudioBuffer:
    """Least-squares inverse STFT (overlap-add over sum of squared windows)."""
    window = _hann_periodic(cfg.n_fft)
    out = _overlap_add(np.asarray(frames, dtype=np.complex128), cfg.n_fft, cfg.hop, window)
    return AudioBuffer(out, cfg.sample_rate)


@lru_cache(maxsize=64)
def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular mel filterbank [n_mels, n_fft//2+1], peaks at 1, cached per config."""
    bin_hz = np.arange(cfg.n_bins, dtype=np.float64) * cfg.sample_rate / cfg.n_fft
    pts = mel_to_hz(np.linspace(hz_to_mel(cfg.f_min), hz_to_mel(cfg.f_max), cfg.n_mels + 2))
    lo, ctr, hi = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    if np.any(ctr - lo <= 0) or np.any(hi - ctr <= 0):
        raise ValueError("degenerate mel spacing: n_mels too large for the frequency range")
    rising = (bin_hz[None, :] - lo) / (ctr - lo)
    falling = (hi - bin_hz[None, :]) / (hi - ctr)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    if np.any(fb.max(axis=1) <= 0.0):
        raise ValueError(
            "empty mel filter: n_mels too large for the FFT bin resolution"
        )
    fb.setflags(write=False)
    return fb


@lru_cache(maxsize=64)
def _mel_bands(cfg: MelConfig) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``(weights, starts)`` of the even and then the odd mel filters, cached per config.

    Filter ``m`` is nonzero only strictly between points ``m`` and ``m + 2``
    of the mel grid, so no two filters of one parity share a bin.
    ``weights`` holds all of one parity's filters on a single ``[n_bins]``
    row; ``starts`` holds the first nonzero bin of each, in filter order. A
    filter's band runs from its start to the next one, or to the last bin;
    the bins between two bands weigh 0.
    """
    fb = mel_filterbank(cfg)
    bands = []
    for rows in (fb[0::2], fb[1::2]):
        if len(rows):
            # at most one nonzero term per bin, so the sum is that term exactly
            weights, starts = rows.sum(axis=0), (rows > 0.0).argmax(axis=1)
            weights.setflags(write=False)
            starts.setflags(write=False)
            bands.append((weights, starts))
    return tuple(bands)


def mel_spectrogram(buffer: AudioBuffer, cfg: MelConfig) -> MelSpectrogram:
    """Natural-log mel power: log(filterbank @ |stft|^2 + log_floor).

    Frames are analysed ``MEL_BLOCK_FRAMES`` at a time through scratch
    allocated once per call, so beyond the output the call holds a few
    ``[MEL_BLOCK_FRAMES, n_fft]`` arrays whatever the clip length. The
    filterbank product is a band sum that makes no BLAS call; its float32
    frames equalled the dense product's on every input tested (see
    :func:`_mel_frames`).
    """
    _check_buffer(buffer, cfg)
    frames = np.empty((cfg.frame_count(len(buffer)), cfg.n_mels), dtype=np.float32)
    _mel_frames(buffer.samples, cfg, frames, _mel_scratch(cfg, len(frames)))
    return MelSpectrogram(cfg, frames)


def _mel_scratch(cfg: MelConfig, max_frames: int) -> tuple[np.ndarray, ...]:
    """Block scratch for :func:`_mel_frames` over clips of up to ``max_frames`` frames."""
    rows = min(max_frames, MEL_BLOCK_FRAMES)
    return (np.empty((rows, cfg.n_fft)), np.empty((rows, cfg.n_bins), dtype=np.complex128),
            np.empty((rows, cfg.n_bins)), np.empty((rows, cfg.n_bins)),
            np.empty((rows, cfg.n_mels)))


def _mel_frames(samples: np.ndarray, cfg: MelConfig, out: np.ndarray, scratch) -> None:
    """Write the log-mel frames of ``samples`` into ``out`` (``[T, n_mels]`` float32).

    Every block of ``MEL_BLOCK_FRAMES`` frames takes the same arithmetic,
    so the frames depend neither on the block size nor on the scratch.
    The filterbank product is a band sum (see :func:`_mel_bands`): per
    parity, one ``np.multiply`` of the power by that parity's weight row and
    one ``np.add.reduceat`` over its band starts. It forms the dense
    product's terms and adds them in another order, so the float64 mel
    power may differ from ``power @ filterbank.T`` in its last bits; on
    every input tested the float32 frames were the dense product's, bit
    for bit. The call makes no BLAS call and allocates nothing large, so it
    may run on a DSP lane of :mod:`rfaudio.audio` (``rfaudio eval`` runs it
    there).
    """
    framed = np.lib.stride_tricks.sliding_window_view(samples, cfg.n_fft)[:: cfg.hop]
    window = _hann_periodic(cfg.n_fft)
    bands = _mel_bands(cfg)
    windowed, spec, power, weighted, mel_power = scratch
    t = len(out)
    for r0 in range(0, t, MEL_BLOCK_FRAMES):
        n = min(t - r0, MEL_BLOCK_FRAMES)
        np.multiply(framed[r0 : r0 + n], window, out=windowed[:n])
        np.fft.rfft(windowed[:n], axis=1, out=spec[:n])
        np.abs(spec[:n], out=power[:n])
        np.square(power[:n], out=power[:n])
        for parity, (weights, starts) in enumerate(bands):
            np.multiply(power[:n], weights, out=weighted[:n])
            np.add.reduceat(weighted[:n], starts, axis=1, out=mel_power[:n, parity::2])
        mel_power[:n] += cfg.log_floor
        np.log(mel_power[:n], out=out[r0 : r0 + n])


# ---------------------------------------------------------------------------
# Griffin-Lim inversion (stands in for a learned decoder)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _nnls_step_size(cfg: MelConfig) -> float:
    fb = mel_filterbank(cfg)
    sigma_max = np.linalg.norm(fb, 2)
    return 1.0 / (2.0 * sigma_max**2)


def _mel_to_linear_power(mel_power: np.ndarray, cfg: MelConfig) -> np.ndarray:
    """Projected-gradient NNLS (50 steps): find P >= 0 with P @ FB.T ~= mel_power.

    The steps run in place on whole arrays: products over row blocks would
    take other BLAS kernels and change the result's bits.
    """
    fb = mel_filterbank(cfg)  # [M, bins]
    scale = _nnls_step_size(cfg) * 2.0
    p = mel_power @ fb  # adjoint init, non-negative
    resid = np.empty_like(mel_power)
    grad = np.empty_like(p)
    for _ in range(50):
        np.matmul(p, fb.T, out=resid)
        resid -= mel_power
        np.matmul(resid, fb, out=grad)
        grad *= scale
        p -= grad
        np.maximum(0.0, p, out=p)
    return p


def griffin_lim(
    target_mel: MelSpectrogram, iterations: int = 60, return_trace: bool = False
):
    """Recover a waveform whose mel spectrogram approximates ``target_mel``.

    Mel power is lifted to linear power by projected-gradient NNLS
    (50 inner steps), then phases are recovered by alternating projection
    with zero initial phase. The returned trace holds the linear-magnitude
    mismatch after each iteration; it is non-increasing.

    Each iteration is one pass over blocks of ``MEL_BLOCK_FRAMES`` frames:
    window the block's frames out of the current signal, ``rfft``, project
    onto the target magnitudes, ``irfft``, window, and overlap-add straight
    into the next signal. Beyond block scratch the call holds the
    ``[T, n_bins]`` magnitudes, two signals and their window normaliser,
    whatever the clip length; the samples are those of the whole-array
    iteration, bit for bit.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if target_mel.n_frames == 0:
        raise ValueError("griffin_lim: the target mel spectrogram has no frames")
    cfg = target_mel.config
    n_fft, hop = cfg.n_fft, cfg.hop
    mag = _mel_to_linear_power(target_mel.power(), cfg)
    np.sqrt(mag, out=mag)
    t = mag.shape[0]
    window = _hann_periodic(n_fft)
    # per call, not cached per length: a forge makes many vocoder lengths
    norm = _window_norm(window, t, hop)
    signal = np.zeros(norm.size)
    spare = np.empty(norm.size)
    rows = min(t, MEL_BLOCK_FRAMES)
    frames_buf = np.empty((rows, n_fft))
    spec_buf = np.empty((rows, cfg.n_bins), dtype=np.complex128)
    abs_buf = np.empty((rows, cfg.n_bins))

    def blocks():
        """(first frame, that block's frames, spectra, magnitudes, targets)."""
        for r0 in range(0, t, MEL_BLOCK_FRAMES):
            n = min(t - r0, MEL_BLOCK_FRAMES)
            yield r0, frames_buf[:n], spec_buf[:n], abs_buf[:n], mag[r0 : r0 + n]

    def synthesise(r0, frames, spec, out):
        np.fft.irfft(spec, n=n_fft, axis=1, out=frames)
        frames *= window
        _add_frames(out[r0 * hop :], frames, hop)

    for r0, frames, spec, _, target in blocks():  # zero initial phase
        np.copyto(spec, target)
        synthesise(r0, frames, spec, signal)
    signal /= norm

    trace = []
    for _ in range(iterations):
        framed = np.lib.stride_tricks.sliding_window_view(signal, n_fft)[::hop]
        spare.fill(0.0)
        sq_err = 0.0
        for r0, frames, spec, a, target in blocks():
            np.multiply(framed[r0 : r0 + len(frames)], window, out=frames)
            np.fft.rfft(frames, axis=1, out=spec)
            np.abs(spec, out=a)
            if return_trace:
                err = (a - target).ravel()
                sq_err += float(err @ err)
            # mag * re / |re| keeps the phase of re; a zero bin takes phase 0
            dead = a == 0.0
            if dead.any():
                np.copyto(spec, 1.0, where=dead)
                np.copyto(a, 1.0, where=dead)
            np.divide(target, a, out=a)
            spec *= a
            synthesise(r0, frames, spec, spare)
        spare /= norm
        signal, spare = spare, signal
        if return_trace:
            trace.append(float(np.sqrt(sq_err)))
    out = AudioBuffer(signal, cfg.sample_rate)
    if return_trace:
        return out, trace
    return out


# ---------------------------------------------------------------------------
# Log-spectral distance
# ---------------------------------------------------------------------------


def _as_magnitudes(x, eps: float | None):
    if isinstance(x, MelSpectrogram):
        return np.sqrt(x.power()), x.config.log_floor, ("mel", x.config)
    arr = np.asarray(x, dtype=np.float64)
    return arr, (1e-5 if eps is None else eps), ("array", arr.shape)


def lsd(a, b, eps: float | None = None) -> float:
    """Log-spectral distance in dB between two same-kind spectrograms.

    mean over frames of sqrt(mean over bins of
    (20 log10(|A| + eps) - 20 log10(|B| + eps))^2), eps = log_floor.
    """
    mag_a, eps_a, kind_a = _as_magnitudes(a, eps)
    mag_b, eps_b, kind_b = _as_magnitudes(b, eps)
    if kind_a[0] != kind_b[0] or mag_a.shape != mag_b.shape:
        raise ValueError(f"lsd requires same kind and shape, got {kind_a} vs {kind_b}")
    if kind_a[0] != "array" and kind_a[1] != kind_b[1]:
        raise ValueError("lsd requires identical configs")
    e = float(eps_a if eps is None else eps)
    diff = 20.0 * (np.log10(mag_a + e) - np.log10(mag_b + e))
    return float(np.mean(np.sqrt(np.mean(diff**2, axis=1))))
