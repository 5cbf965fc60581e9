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

from .audio import AudioBuffer, _frame_stft, _hann_periodic, _overlap_add


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
class ComplexSpectrogram:
    config: MelConfig
    frames: np.ndarray  # [T, n_fft//2 + 1] complex128

    def __post_init__(self) -> None:
        if self.frames.ndim != 2 or self.frames.shape[1] != self.config.n_bins:
            raise ValueError(f"expected [T, {self.config.n_bins}], got {self.frames.shape}")

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.frames)


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


def stft(buffer: AudioBuffer, cfg: MelConfig) -> ComplexSpectrogram:
    """Hann-windowed, non-centered STFT."""
    if buffer.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"buffer rate {buffer.sample_rate} != config rate {cfg.sample_rate}"
        )
    n = len(buffer)
    if n < cfg.n_fft:
        raise ValueError(f"buffer shorter than one frame ({n} < {cfg.n_fft})")
    window = _hann_periodic(cfg.n_fft)
    frames = _frame_stft(buffer.samples, cfg.n_fft, cfg.hop, window)
    return ComplexSpectrogram(cfg, frames)


def istft(frames: np.ndarray, cfg: MelConfig) -> AudioBuffer:
    """Least-squares inverse STFT (overlap-add over sum of squared windows)."""
    window = _hann_periodic(cfg.n_fft)
    out = _overlap_add(np.asarray(frames, dtype=np.complex128), cfg.n_fft, cfg.hop, window)
    return AudioBuffer(out, cfg.sample_rate)


@lru_cache(maxsize=64)
def _filterbank_cached(cfg: MelConfig) -> np.ndarray:
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


def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular mel filterbank [n_mels, n_fft//2+1], peaks at 1, cached per config."""
    return _filterbank_cached(cfg)


def mel_spectrogram(buffer: AudioBuffer, cfg: MelConfig) -> MelSpectrogram:
    """Natural-log mel power: log(filterbank @ |stft|^2 + log_floor)."""
    spec = stft(buffer, cfg)
    power = np.abs(spec.frames) ** 2
    mel_power = power @ mel_filterbank(cfg).T
    frames = np.log(mel_power + cfg.log_floor).astype(np.float32)
    return MelSpectrogram(cfg, frames)


def mel_center_frequencies(cfg: MelConfig) -> np.ndarray:
    pts = mel_to_hz(np.linspace(hz_to_mel(cfg.f_min), hz_to_mel(cfg.f_max), cfg.n_mels + 2))
    return pts[1:-1]


# ---------------------------------------------------------------------------
# Griffin-Lim inversion (stands in for a learned decoder)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _nnls_step_size(cfg: MelConfig) -> float:
    fb = _filterbank_cached(cfg)
    sigma_max = np.linalg.norm(fb, 2)
    return 1.0 / (2.0 * sigma_max**2)


def _mel_to_linear_power(mel_power: np.ndarray, cfg: MelConfig) -> np.ndarray:
    """Projected-gradient NNLS (50 steps): find P >= 0 with P @ FB.T ~= mel_power."""
    fb = _filterbank_cached(cfg)  # [M, bins]
    step = _nnls_step_size(cfg)
    p = mel_power @ fb  # adjoint init, non-negative
    for _ in range(50):
        resid = p @ fb.T - mel_power
        p = np.maximum(0.0, p - step * 2.0 * (resid @ fb))
    return p


def griffin_lim(
    target_mel: MelSpectrogram, iterations: int = 60, return_trace: bool = False
):
    """Recover a waveform whose mel spectrogram approximates ``target_mel``.

    Mel power is lifted to linear power by projected-gradient NNLS
    (50 inner steps), then phases are recovered by alternating projection
    with zero initial phase. The returned trace holds the linear-magnitude
    mismatch after each iteration; it is non-increasing.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    cfg = target_mel.config
    lin_power = _mel_to_linear_power(target_mel.power(), cfg)
    mag = np.sqrt(lin_power)

    spec = mag.astype(np.complex128)  # zero initial phase
    trace = []
    for _ in range(iterations):
        x = istft(spec, cfg)
        re = _frame_stft(x.samples, cfg.n_fft, cfg.hop, _hann_periodic(cfg.n_fft))
        a = np.abs(re)
        trace.append(float(np.linalg.norm(a - mag)))
        # mag * re / |re| keeps the phase of re; a zero bin takes phase 0
        dead = a == 0
        re[dead] = 1.0
        a[dead] = 1.0
        spec = re * (mag / a)
    out = istft(spec, cfg)
    if return_trace:
        return out, trace
    return out


# ---------------------------------------------------------------------------
# Log-spectral distance
# ---------------------------------------------------------------------------


def _as_magnitudes(x, eps: float | None):
    if isinstance(x, MelSpectrogram):
        return np.sqrt(x.power()), x.config.log_floor, ("mel", x.config)
    if isinstance(x, ComplexSpectrogram):
        return x.magnitudes(), x.config.log_floor, ("linear", x.config)
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
