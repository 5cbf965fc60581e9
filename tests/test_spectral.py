import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rfaudio.audio import AudioBuffer
from rfaudio.spectral import (
    MEL_BLOCK_FRAMES,
    MelConfig,
    MelSpectrogram,
    _mel_bands,
    griffin_lim,
    hz_to_mel,
    istft,
    lsd,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
    stft,
)

CFG_SMALL = MelConfig(sample_rate=8000, n_fft=256, hop=64, n_mels=40)
#: a hop that does not divide n_fft, so overlap-add ends on a narrower chunk
CFG_ODD_HOP = MelConfig(sample_rate=8000, n_fft=256, hop=96, n_mels=40)
#: the most mel filters :func:`mel_filterbank` accepts at the default FFT size
MAX_MELS_DEFAULT_FFT = 115


def hann(n):
    return 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)


def reference_griffin_lim(target, iterations, overlap_add):
    """Whole-array Griffin-Lim: every frame's spectrum at once, then ``overlap_add``."""
    cfg = target.config
    fb = mel_filterbank(cfg)
    step = 1.0 / (2.0 * np.linalg.norm(fb, 2) ** 2)
    mel_power = target.power()
    p = mel_power @ fb
    for _ in range(50):
        resid = p @ fb.T - mel_power
        p = np.maximum(0.0, p - step * 2.0 * (resid @ fb))
    mag = np.sqrt(p)
    window = hann(cfg.n_fft)
    spec = mag.astype(np.complex128)
    trace = []
    for _ in range(iterations):
        x = overlap_add(spec, cfg.n_fft, cfg.hop, window)
        framed = np.lib.stride_tricks.sliding_window_view(x, cfg.n_fft)[:: cfg.hop]
        re = np.fft.rfft(framed * window, axis=1)
        a = np.abs(re)
        trace.append(float(np.linalg.norm(a - mag)))
        dead = a == 0
        re[dead] = 1.0
        a[dead] = 1.0
        spec = re * (mag / a)
    return overlap_add(spec, cfg.n_fft, cfg.hop, window), trace


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

    @pytest.mark.parametrize("value", [1.5, 256.0, True, float("nan")])
    def test_integer_fields_refuse_other_types(self, value):
        with pytest.raises(TypeError, match="hop must be an integer"):
            MelConfig(hop=value)


class TestStft:
    def test_dc_bin0_equals_window_sum(self):
        cfg = CFG_SMALL
        buf = AudioBuffer(np.ones(1000), 8000)
        spec = stft(buf, cfg)
        w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft)
        assert np.allclose(np.abs(spec[:, 0]), w.sum(), rtol=1e-12)

    def test_zero_buffer(self):
        spec = stft(AudioBuffer(np.zeros(1000), 8000), CFG_SMALL)
        assert np.all(spec == 0)

    def test_bin_centered_sine_leakage(self):
        cfg = CFG_SMALL
        k0 = 32
        buf = sine(k0 * 8000 / cfg.n_fft, 0.5, 8000)
        mag = np.abs(stft(buf, cfg))
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
            f = spec[t]
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

    @pytest.mark.parametrize(
        "n_fft, hop", [(256, 64), (256, 96), (1024, 300), (16, 5), (16, 16), (16, 1)]
    )
    @pytest.mark.parametrize("frames", [1, 2, 7, 129])
    def test_istft_matches_loop_reference(self, rng, loop_overlap_add, n_fft, hop, frames):
        """Chunked overlap-add sums each sample as the frame loop does, bit for bit."""
        cfg = MelConfig(sample_rate=8000, n_fft=n_fft, hop=hop, n_mels=1)
        spec = np.fft.rfft(rng.standard_normal((frames, n_fft)), axis=1)
        want = loop_overlap_add(spec, n_fft, hop, hann(n_fft))
        assert istft(spec, cfg).samples.tobytes() == want.tobytes()

    def test_istft_reconstructs(self, rng):
        cfg = CFG_SMALL
        x = rng.uniform(-0.5, 0.5, cfg.n_fft + 10 * cfg.hop)
        spec = stft(AudioBuffer(x, 8000), cfg)
        back = istft(spec, cfg)
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


class TestMelBands:
    """The band sum that stands in for the dense filterbank product."""

    CONFIGS = [MelConfig(), CFG_SMALL, MelConfig(n_mels=MAX_MELS_DEFAULT_FFT)]
    IDS = ["default", "small", "max_mels"]

    def test_max_mels_is_the_largest_accepted(self):
        with pytest.raises(ValueError, match="mel"):
            mel_filterbank(MelConfig(n_mels=MAX_MELS_DEFAULT_FFT + 1))

    @pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
    def test_each_parity_has_disjoint_bands(self, cfg):
        fb = mel_filterbank(cfg)
        bands = _mel_bands(cfg)
        assert len(bands) == min(cfg.n_mels, 2)
        for rows, (weights, starts) in zip((fb[0::2], fb[1::2]), bands):
            live = rows > 0.0
            assert live.sum(axis=0).max() == 1  # no bin in two filters of one parity
            assert np.all(np.diff(starts) > 0)
            for m, row in enumerate(live):
                bins = np.flatnonzero(row)
                end = starts[m + 1] if m + 1 < len(starts) else cfg.n_bins
                assert bins[0] == starts[m] and bins[-1] < end
                assert np.array_equal(weights[bins], rows[m, bins])
            assert not np.any(weights[~live.any(axis=0)])

    @pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
    def test_band_sum_matches_dense_product(self, rng, cfg):
        power = rng.uniform(0.0, 1.0, (300, cfg.n_bins)) ** 4 * 1e3
        dense = power @ mel_filterbank(cfg).T
        band_sum = np.empty_like(dense)
        for parity, (weights, starts) in enumerate(_mel_bands(cfg)):
            band_sum[:, parity::2] = np.add.reduceat(power * weights, starts, axis=1)
        np.testing.assert_allclose(band_sum, dense, rtol=1e-12, atol=0.0)

    def test_single_filter_has_no_odd_set(self):
        cfg = MelConfig(sample_rate=8000, n_fft=256, hop=64, n_mels=1)
        x = np.random.default_rng(1).uniform(-0.5, 0.5, 4 * cfg.n_fft)
        framed = np.lib.stride_tricks.sliding_window_view(x, cfg.n_fft)[:: cfg.hop]
        power = np.abs(np.fft.rfft(framed * hann(cfg.n_fft), axis=1)) ** 2
        want = np.log(power @ mel_filterbank(cfg).T + cfg.log_floor).astype(np.float32)
        got = mel_spectrogram(AudioBuffer(x, cfg.sample_rate), cfg).frames
        assert len(_mel_bands(cfg)) == 1
        assert np.array_equal(got, want)


class TestMelSpectrogram:
    def test_silence_is_log_floor(self):
        cfg = CFG_SMALL
        mel = mel_spectrogram(AudioBuffer(np.zeros(1000), 8000), cfg)
        assert np.all(mel.frames == np.float32(np.log(cfg.log_floor)))

    def test_sine_argmax_is_nearest_center(self):
        cfg = MelConfig()
        buf = sine(440, 0.25, 44100)
        mel = mel_spectrogram(buf, cfg)
        edges = np.linspace(hz_to_mel(cfg.f_min), hz_to_mel(cfg.f_max), cfg.n_mels + 2)
        centers = mel_to_hz(edges[1:-1])
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

    @pytest.mark.parametrize("cfg", [MelConfig(), CFG_SMALL], ids=["default", "small"])
    @pytest.mark.parametrize("frames", [
        1, MEL_BLOCK_FRAMES - 1, MEL_BLOCK_FRAMES, MEL_BLOCK_FRAMES + 1, 1719,
    ])
    def test_blocked_matches_whole_array_formula(self, rng, cfg, frames):
        """Analysing in blocks gives the whole-array formula's frames, bit for bit."""
        x = rng.uniform(-0.5, 0.5, cfg.n_fft + (frames - 1) * cfg.hop + cfg.hop - 1)
        framed = np.lib.stride_tricks.sliding_window_view(x, cfg.n_fft)[:: cfg.hop][:frames]
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft)
        power = np.abs(np.fft.rfft(framed * window, axis=1)) ** 2
        want = np.log(power @ mel_filterbank(cfg).T + cfg.log_floor).astype(np.float32)
        got = mel_spectrogram(AudioBuffer(x, cfg.sample_rate), cfg).frames
        assert got.shape == (frames, cfg.n_mels)
        assert np.array_equal(got, want)

    def test_memory_flat_in_clip_length(self, rng):
        """Six times the clip, about the same peak beyond the output itself."""
        cfg = MelConfig()
        peaks, out_bytes = {}, {}
        for seconds in (10, 60):
            buf = AudioBuffer(rng.uniform(-0.5, 0.5, seconds * cfg.sample_rate), cfg.sample_rate)
            tracemalloc.start()
            try:
                mel = mel_spectrogram(buf, cfg)
                peaks[seconds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out_bytes[seconds] = mel.frames.nbytes
            del buf, mel
        assert peaks[60] <= 1.25 * peaks[10] + out_bytes[60], {
            k: f"{v / 2**20:.1f} MB" for k, v in peaks.items()
        }


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

    @pytest.mark.parametrize(
        "cfg", [MelConfig(), CFG_SMALL, CFG_ODD_HOP], ids=["default", "small", "odd_hop"]
    )
    @pytest.mark.parametrize("frames", [
        1, MEL_BLOCK_FRAMES - 1, MEL_BLOCK_FRAMES, MEL_BLOCK_FRAMES + 1, 1719,
    ])
    def test_blocked_matches_whole_array_reference(self, rng, loop_overlap_add, cfg, frames):
        """Block passes give the whole-array iteration's samples, bit for bit."""
        x = rng.uniform(-0.5, 0.5, cfg.n_fft + (frames - 1) * cfg.hop)
        target = mel_spectrogram(AudioBuffer(x, cfg.sample_rate), cfg)
        got, trace = griffin_lim(target, iterations=4, return_trace=True)
        want, want_trace = reference_griffin_lim(target, 4, loop_overlap_add)
        assert got.samples.tobytes() == want.tobytes()
        # the mismatch is summed per block, so only its last bits may move
        assert trace == pytest.approx(want_trace, rel=1e-12, abs=0.0)
        for a, b in zip(trace, trace[1:]):
            assert b <= a * (1 + 1e-9) + 1e-12

    def test_empty_target_rejected(self):
        target = MelSpectrogram(CFG_SMALL, np.zeros((0, CFG_SMALL.n_mels), dtype=np.float32))
        with pytest.raises(ValueError, match="no frames"):
            griffin_lim(target)

    def test_memory_is_magnitudes_plus_two_signals(self, rng):
        """On a 60 s target the peak stays within 3x the [T, n_bins] magnitudes."""
        cfg = MelConfig()
        t = cfg.frame_count(60 * cfg.sample_rate)
        floor = np.log(cfg.log_floor)
        target = MelSpectrogram(
            cfg, rng.uniform(floor, 0.0, (t, cfg.n_mels)).astype(np.float32)
        )
        tracemalloc.start()
        try:
            griffin_lim(target, iterations=2)  # every iteration holds the same buffers
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        mag_bytes = t * cfg.n_bins * 8
        assert peak <= 3 * mag_bytes, f"{peak / mag_bytes:.2f}x the magnitudes"

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
            lsd(mel_spectrogram(buf, cfg), np.abs(stft(buf, cfg)))
