import numpy as np
import pytest
from hypothesis import given, strategies as st

from rfaudio.audio import AudioBuffer
from rfaudio.spectral import (
    MelConfig,
    MelSpectrogram,
    griffin_lim,
    hz_to_mel,
    istft,
    lsd,
    mel_center_frequencies,
    mel_filterbank,
    mel_spectrogram,
    stft,
)

CFG_SMALL = MelConfig(sample_rate=8000, n_fft=256, hop=64, n_mels=40)


def sine(freq, dur_s, sr, amp=0.5):
    t = np.arange(int(dur_s * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


def speechy_noise(rng, n, sr):
    """Low-passed noise with a slow envelope, enough structure for GL tests."""
    x = rng.standard_normal(n)
    kernel = np.hanning(31)
    x = np.convolve(x, kernel / kernel.sum(), mode="same")
    env = 0.2 + 0.8 * (0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / (n / 3)))
    x = x * env
    return AudioBuffer(0.5 * x / np.max(np.abs(x)), sr)


class TestConfig:
    def test_defaults(self):
        cfg = MelConfig()
        assert (cfg.sample_rate, cfg.n_fft, cfg.hop, cfg.n_mels) == (44100, 1024, 256, 100)
        assert cfg.f_max == 22050.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            MelConfig(hop=2048)
        with pytest.raises(ValueError):
            MelConfig(n_mels=0)
        with pytest.raises(ValueError):
            MelConfig(f_min=5000, f_max=100)


class TestStft:
    def test_dc_bin0_equals_window_sum(self):
        cfg = CFG_SMALL
        buf = AudioBuffer(np.ones(1000), 8000)
        spec = stft(buf, cfg)
        w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft)
        assert np.allclose(np.abs(spec.frames[:, 0]), w.sum(), rtol=1e-12)

    def test_zero_buffer(self):
        spec = stft(AudioBuffer(np.zeros(1000), 8000), CFG_SMALL)
        assert np.all(spec.frames == 0)

    def test_bin_centered_sine_leakage(self):
        cfg = CFG_SMALL
        k0 = 32
        buf = sine(k0 * 8000 / cfg.n_fft, 0.5, 8000)
        mag = stft(buf, cfg).magnitudes()
        # average across interior frames, report dB relative to the peak
        m = mag[2:-2].mean(axis=0)
        peak = m[k0]
        far = np.delete(m, [k0 - 2, k0 - 1, k0, k0 + 1, k0 + 2])
        assert 20 * np.log10(far.max() / peak) < -31.0

    def test_parseval_per_frame(self, rng):
        cfg = CFG_SMALL
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, 2000), 8000)
        spec = stft(buf, cfg)
        w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft)
        n = 1 + (2000 - cfg.n_fft) // cfg.hop
        for t in range(n):
            seg = buf.samples[t * cfg.hop : t * cfg.hop + cfg.n_fft] * w
            e_time = np.sum(seg**2)
            f = spec.frames[t]
            e_freq = (np.abs(f[0]) ** 2 + np.abs(f[-1]) ** 2 + 2 * np.sum(np.abs(f[1:-1]) ** 2)) / cfg.n_fft
            assert abs(e_freq - e_time) <= 1e-6 * e_time

    def test_frame_count_law(self, rng):
        cfg = CFG_SMALL
        for _ in range(100):
            n = int(rng.integers(cfg.n_fft, 5000))
            mel = mel_spectrogram(AudioBuffer(rng.uniform(-0.1, 0.1, n), 8000), cfg)
            assert mel.n_frames == 1 + (n - cfg.n_fft) // cfg.hop

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="short"):
            stft(AudioBuffer(np.zeros(100), 8000), CFG_SMALL)

    def test_istft_reconstructs(self, rng):
        cfg = CFG_SMALL
        x = rng.uniform(-0.5, 0.5, cfg.n_fft + 10 * cfg.hop)
        spec = stft(AudioBuffer(x, 8000), cfg)
        back = istft(spec.frames, cfg)
        # sample 0 has zero window coverage (periodic Hann), rest is exact
        assert np.allclose(back.samples[1:], x[1:], atol=1e-10)


class TestFilterbank:
    def test_mel_scale_reference_point(self):
        assert hz_to_mel(700.0) == pytest.approx(2595 * np.log10(2), rel=1e-12)
        assert hz_to_mel(700.0) == pytest.approx(781.17, abs=0.01)

    def test_nonnegative_and_cached(self):
        fb = mel_filterbank(MelConfig())
        assert np.all(fb >= 0)
        assert fb is mel_filterbank(MelConfig())  # cache hit on equal config

    def test_row_sums_positive_default(self):
        fb = mel_filterbank(MelConfig())
        assert np.all(fb.sum(axis=1) > 0)

    def test_interior_bins_covered(self):
        cfg = MelConfig()
        fb = mel_filterbank(cfg)
        bin_hz = np.arange(cfg.n_bins) * cfg.sample_rate / cfg.n_fft
        interior = (bin_hz > cfg.f_min) & (bin_hz < cfg.f_max)
        assert np.all(fb.sum(axis=0)[interior] > 0)

    def test_empty_filter_rejected(self):
        with pytest.raises(ValueError, match="mel"):
            mel_filterbank(MelConfig(sample_rate=8000, n_fft=64, hop=32, n_mels=64))


class TestMelSpectrogram:
    def test_silence_is_log_floor(self):
        cfg = CFG_SMALL
        mel = mel_spectrogram(AudioBuffer(np.zeros(1000), 8000), cfg)
        assert np.all(mel.frames == np.float32(np.log(cfg.log_floor)))

    def test_sine_argmax_is_nearest_center(self):
        cfg = MelConfig()
        buf = sine(440, 0.25, 44100)
        mel = mel_spectrogram(buf, cfg)
        centers = mel_center_frequencies(cfg)
        expected = int(np.argmin(np.abs(centers - 440)))
        got = int(np.argmax(mel.frames.mean(axis=0)))
        assert got == expected

    def test_amplitude_doubling_shifts_log4(self):
        cfg = CFG_SMALL
        buf1 = sine(1000, 0.5, 8000, amp=0.25)
        buf2 = AudioBuffer(buf1.samples * 2, 8000)
        m1 = mel_spectrogram(buf1, cfg)
        m2 = mel_spectrogram(buf2, cfg)
        strong = m1.power() > 1e3 * cfg.log_floor
        diff = (m2.frames - m1.frames).astype(np.float64)[strong]
        assert np.allclose(diff, np.log(4.0), atol=5e-3)

    def test_frames_dtype_and_floor(self, rng):
        cfg = CFG_SMALL
        mel = mel_spectrogram(AudioBuffer(rng.uniform(-0.3, 0.3, 1500), 8000), cfg)
        assert mel.frames.dtype == np.float32
        assert mel.frames.min() >= np.float32(np.log(cfg.log_floor))


class TestGriffinLim:
    def test_tone_survives_round_trip(self):
        cfg = CFG_SMALL
        buf = sine(440, 0.5, 8000)
        out = griffin_lim(mel_spectrogram(buf, cfg), iterations=60)
        w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft)
        n = 1 + (len(out) - cfg.n_fft) // cfg.hop
        frames = np.lib.stride_tricks.sliding_window_view(out.samples, cfg.n_fft)[:: cfg.hop][:n]
        mag = np.abs(np.fft.rfft(frames * w, axis=1)).mean(axis=0)
        peak = int(np.argmax(mag))
        assert abs(peak - 440 / (8000 / cfg.n_fft)) <= 1

    def test_all_floor_gives_silence(self):
        cfg = CFG_SMALL
        frames = np.full((20, cfg.n_mels), np.float32(np.log(cfg.log_floor)))
        out = griffin_lim(MelSpectrogram(cfg, frames), iterations=5)
        assert np.sqrt(np.mean(out.samples**2)) < 1e-3

    def test_zero_magnitudes_give_exact_zeros(self):
        """Every STFT bin is zero, so each one takes phase 0, not 0 / 0."""
        cfg = MelConfig(sample_rate=8000, n_fft=256, hop=64, n_mels=40, log_floor=1.0)
        frames = np.zeros((20, cfg.n_mels), dtype=np.float32)
        out, trace = griffin_lim(MelSpectrogram(cfg, frames), iterations=3, return_trace=True)
        assert np.all(out.samples == 0.0)
        assert trace == [0.0, 0.0, 0.0]

    def test_more_iterations_improve_lsd(self, rng):
        cfg = CFG_SMALL
        buf = speechy_noise(rng, 4000, 8000)
        target = mel_spectrogram(buf, cfg)
        out1 = griffin_lim(target, iterations=1)
        out60 = griffin_lim(target, iterations=60)
        lsd1 = lsd(mel_spectrogram(out1, cfg), target)
        lsd60 = lsd(mel_spectrogram(out60, cfg), target)
        assert lsd60 < lsd1

    def test_trace_non_increasing(self, rng):
        cfg = CFG_SMALL
        buf = speechy_noise(rng, 3000, 8000)
        _, trace = griffin_lim(mel_spectrogram(buf, cfg), iterations=30, return_trace=True)
        for a, b in zip(trace, trace[1:]):
            assert b <= a * (1 + 1e-9) + 1e-12


class TestLsd:
    def test_identity_zero(self, rng):
        cfg = CFG_SMALL
        mel = mel_spectrogram(AudioBuffer(rng.uniform(-0.3, 0.3, 2000), 8000), cfg)
        assert lsd(mel, mel) == 0.0

    def test_constant_offset_20db(self):
        a = np.full((7, 13), 1e6)
        assert lsd(a, 10.0 * a) == pytest.approx(20.0, abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    def test_symmetry(self, seed):
        r = np.random.default_rng(seed)
        a = r.uniform(0, 2, (5, 9))
        b = r.uniform(0, 2, (5, 9))
        assert lsd(a, b) == pytest.approx(lsd(b, a), rel=1e-12)

    def test_triangle_inequality_spot(self, rng):
        for _ in range(20):
            a, b, c = (rng.uniform(0, 3, (4, 6)) for _ in range(3))
            assert lsd(a, c) <= lsd(a, b) + lsd(b, c) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lsd(np.ones((3, 4)), np.ones((4, 3)))

    def test_kind_mismatch(self, rng):
        cfg = CFG_SMALL
        buf = AudioBuffer(rng.uniform(-0.3, 0.3, 2000), 8000)
        with pytest.raises(ValueError):
            lsd(mel_spectrogram(buf, cfg), stft(buf, cfg))
