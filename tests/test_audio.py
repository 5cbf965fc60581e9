import multiprocessing
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rfaudio import audio
from rfaudio.audio import (
    RESAMPLER_BLOCK_ROWS,
    RESAMPLER_TAPS,
    VAD_FRAME_MS,
    AudioBuffer,
    TruncatedWavError,
    UnsupportedWavError,
    mix_at_snr,
    pitch_shift,
    read_wav,
    resample,
    resample_to_length,
    time_stretch,
    vad_activity_ratio,
    wav_duration_s,
    write_wav,
)


def sine(freq, dur_s, sr, amp=0.8):
    t = np.arange(int(dur_s * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


def dominant_bin(x, sr, n_fft=1024, hop=256):
    """Argmax bin of the average Hann-windowed magnitude spectrum."""
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
    n = 1 + (len(x) - n_fft) // hop
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop][:n]
    mag = np.abs(np.fft.rfft(frames * w, axis=1)).mean(axis=0)
    return int(np.argmax(mag))


class TestWavIO:
    def test_silence_pcm16_round_trip(self, tmp_path):
        buf = AudioBuffer(np.zeros(44100), 44100)
        p = tmp_path / "s.wav"
        write_wav(buf, p, format="pcm16")
        back = read_wav(p)
        assert back.sample_rate == 44100
        assert len(back) == 44100
        assert np.all(back.samples == 0.0)

    def test_pcm16_full_scale_convention(self, tmp_path):
        buf = AudioBuffer(np.array([32767 / 32768.0]), 8000)
        p = tmp_path / "f.wav"
        write_wav(buf, p, format="pcm16")
        back = read_wav(p)
        assert back.samples[0] == pytest.approx(32767 / 32768.0, abs=1e-12)

    def test_stereo_downmix_mean(self, tmp_path):
        # hand-build a stereo PCM16 file with channels (+0.5, -0.5)
        left = int(0.5 * 32768)
        right = int(-0.5 * 32768)
        frames = struct.pack("<hh", left, right) * 100
        fmt = struct.pack("<HHIIHH", 1, 2, 8000, 8000 * 4, 4, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", len(frames)) + frames
        p = tmp_path / "st.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        back = read_wav(p)
        assert len(back) == 100
        assert np.all(back.samples == 0.0)

    def test_float32_round_trip_bit_identical(self, tmp_path, rng):
        x = rng.uniform(-1, 1, 5000).astype(np.float32).astype(np.float64)
        buf = AudioBuffer(x, 22050)
        p = tmp_path / "f32.wav"
        write_wav(buf, p, format="float32")
        back = read_wav(p)
        assert np.array_equal(back.samples, x)

    @given(st.integers(1, 2000), st.integers(0, 2**32 - 1))
    def test_pcm16_round_trip_error_bound(self, tmp_path_factory, n, seed):
        x = np.random.default_rng(seed).uniform(-1, 1, n)
        p = tmp_path_factory.mktemp("wav") / "q.wav"
        write_wav(AudioBuffer(x, 8000), p, format="pcm16")
        back = read_wav(p)
        assert np.max(np.abs(back.samples - x)) <= 2.0**-15

    def test_zero_length_round_trip(self, tmp_path):
        p = tmp_path / "z.wav"
        write_wav(AudioBuffer(np.zeros(0), 44100), p, format="float32")
        back = read_wav(p)
        assert len(back) == 0
        assert back.sample_rate == 44100

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_unsupported_codec(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 2, 1, 8000, 8000, 1, 8)  # ADPCM-ish tag
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", 4) + b"\x00" * 4
        p = tmp_path / "bad.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(UnsupportedWavError):
            read_wav(p)

    def test_zero_sample_rate(self, tmp_path):
        p = tmp_path / "z.wav"
        write_wav(AudioBuffer(np.zeros(4), 8000), p, format="pcm16")
        blob = bytearray(p.read_bytes())
        blob[24:28] = (0).to_bytes(4, "little")  # fmt chunk's sample rate
        p.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedWavError):
            read_wav(p)

    def test_truncated_container(self, tmp_path):
        buf = AudioBuffer(np.zeros(1000), 8000)
        p = tmp_path / "t.wav"
        write_wav(buf, p, format="pcm16")
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedWavError):
            read_wav(p)

    def test_clipping_logged(self, tmp_path, caplog):
        buf = AudioBuffer(np.array([0.0, 1.5, -2.0]), 8000)
        with caplog.at_level("WARNING", logger="rfaudio.audio"):
            write_wav(buf, tmp_path / "c.wav", format="float32")
        assert "clipped 2 samples" in caplog.text
        back = read_wav(tmp_path / "c.wav")
        assert np.max(np.abs(back.samples)) <= 1.0

    def test_read_resamples_to_session_rate(self, tmp_path):
        buf = sine(440, 1.0, 22050)
        p = tmp_path / "r.wav"
        write_wav(buf, p, format="float32")
        back = read_wav(p, session_rate=44100)
        assert back.sample_rate == 44100
        assert len(back) == 44100


def wav_bytes(fmt_fields, payload, extra_chunk=b""):
    """A RIFF/WAVE file: fmt chunk, optional extra chunk, data chunk."""
    fmt = struct.pack("<HHIIHH", *fmt_fields)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + extra_chunk
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestWavDuration:
    @pytest.mark.parametrize("codec", ["pcm16", "float32"])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_header_duration_equals_decoded(self, tmp_path, rng, codec, channels):
        rate, frames = 22050, 1001
        x = rng.uniform(-0.5, 0.5, (frames, channels))
        if codec == "pcm16":
            payload, tag, width = (x * 32768).astype("<i2").tobytes(), 1, 2
        else:
            payload, tag, width = x.astype("<f4").tobytes(), 3, 4
        align = channels * width
        # a LIST chunk of odd size, so the walker must skip its pad byte
        extra = b"LIST" + struct.pack("<I", 5) + b"INFO!" + b"\x00"
        p = tmp_path / "d.wav"
        p.write_bytes(wav_bytes((tag, channels, rate, rate * align, align, 8 * width),
                                payload, extra))
        decoded = read_wav(p)
        assert len(decoded) == frames
        assert wav_duration_s(p) == decoded.duration_s

    @pytest.mark.parametrize("damage, error", [
        ("codec", UnsupportedWavError),
        ("rate", UnsupportedWavError),
        ("cut", TruncatedWavError),
        ("extra byte", TruncatedWavError),
    ])
    def test_bad_header_same_error_as_read(self, tmp_path, damage, error):
        p = tmp_path / "bad.wav"
        write_wav(AudioBuffer(np.zeros(1000), 8000), p, format="pcm16")
        blob = bytearray(p.read_bytes())
        if damage == "codec":
            blob[20:22] = (2).to_bytes(2, "little")  # fmt chunk's format tag
        elif damage == "rate":
            blob[24:28] = (0).to_bytes(4, "little")
        elif damage == "cut":
            blob = blob[: len(blob) // 2]
        else:
            blob += b"\x00"
        p.write_bytes(bytes(blob))
        for reader in (read_wav, wav_duration_s):
            with pytest.raises(error):
                reader(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            wav_duration_s(tmp_path / "nope.wav")


class TestMixAtSnr:
    def test_equal_power_zero_snr_gain_one(self, rng):
        x = rng.standard_normal(8000) * 0.1
        fg = AudioBuffer(x, 8000)
        bg = AudioBuffer(x.copy(), 8000)
        res = mix_at_snr(fg, bg, snr_db=0.0, onset_s=0.0)
        gain = res.foreground_stem.samples[0] / x[0]
        assert gain == pytest.approx(1.0, abs=1e-6)

    def test_snr_3db_gain(self, rng):
        x = rng.standard_normal(8000) * 0.1
        y = rng.standard_normal(8000) * 0.1
        y *= np.sqrt(np.mean(x**2) / np.mean(y**2))  # equal RMS
        res = mix_at_snr(AudioBuffer(y, 8000), AudioBuffer(x, 8000), 3.0, 0.0)
        gain = res.foreground_stem.samples[0] / y[0]
        assert gain == pytest.approx(10 ** (3 / 20), rel=1e-9)

    def test_onset_leading_zeros(self, rng):
        fg = AudioBuffer(rng.standard_normal(4410) * 0.1, 44100)
        bg = AudioBuffer(rng.standard_normal(44100) * 0.1, 44100)
        res = mix_at_snr(fg, bg, 0.0, onset_s=0.5)
        stem = res.foreground_stem.samples
        assert np.all(stem[:22050] == 0.0)
        assert stem[22050] != 0.0

    @given(st.floats(0.0, 3.0), st.integers(0, 2**31 - 1))
    def test_remeasured_snr(self, snr_db, seed):
        r = np.random.default_rng(seed)
        fg = AudioBuffer(r.standard_normal(2000) * 0.05, 8000)
        bg = AudioBuffer(r.standard_normal(6000) * 0.08, 8000)
        res = mix_at_snr(fg, bg, snr_db, onset_s=0.25)
        seg = slice(2000, 4000)
        p_fg = np.mean(res.foreground_stem.samples[seg] ** 2)
        p_bg = np.mean(res.background.samples[seg] ** 2)
        assert 10 * np.log10(p_fg / p_bg) == pytest.approx(snr_db, abs=0.1)

    def test_stem_sum_identity(self, rng):
        fg = AudioBuffer(rng.standard_normal(1000) * 0.05, 8000)
        bg = AudioBuffer(rng.standard_normal(3000) * 0.08, 8000)
        res = mix_at_snr(fg, bg, 1.5, onset_s=0.1)
        assert np.array_equal(
            res.mixture.samples, res.background.samples + res.foreground_stem.samples
        )

    def test_silent_background_rejected(self, rng):
        fg = AudioBuffer(rng.standard_normal(100) * 0.1, 8000)
        bg = AudioBuffer(np.zeros(1000), 8000)
        with pytest.raises(ValueError, match="silent"):
            mix_at_snr(fg, bg, 0.0, 0.0)

    def test_overrun_rejected(self, rng):
        fg = AudioBuffer(rng.standard_normal(900) * 0.1, 8000)
        bg = AudioBuffer(rng.standard_normal(1000) * 0.1, 8000)
        with pytest.raises(ValueError, match="overruns"):
            mix_at_snr(fg, bg, 0.0, onset_s=0.05)


class TestVad:
    def test_all_zero(self):
        assert vad_activity_ratio(AudioBuffer(np.zeros(8000), 8000)) == 0.0

    def test_full_scale(self):
        buf = AudioBuffer(np.ones(8000) * 0.999, 8000)
        assert vad_activity_ratio(buf) == 1.0

    def test_half_silence_half_tone(self):
        sr = 8000
        frame = int(sr * VAD_FRAME_MS / 1000)
        tone = 0.709 * np.sin(2 * np.pi * 500 * np.arange(10 * frame) / sr)  # ~ -6 dBFS
        x = np.concatenate([np.zeros(10 * frame), tone])
        assert vad_activity_ratio(AudioBuffer(x, sr)) == 0.5

    def test_empty(self):
        assert vad_activity_ratio(AudioBuffer(np.zeros(0), 8000)) == 0.0


BLOCK_EDGE_LENGTHS = [
    1,
    RESAMPLER_BLOCK_ROWS - 1,
    RESAMPLER_BLOCK_ROWS,
    RESAMPLER_BLOCK_ROWS + 1,
    3 * RESAMPLER_BLOCK_ROWS + 17,
]


class TestResample:
    def test_identity_rate(self, rng):
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, 1000), 8000)
        out = resample(buf, 8000)
        assert np.array_equal(out.samples, buf.samples)

    def test_upsample_preserves_tone(self):
        buf = sine(440, 1.0, 8000)
        out = resample(buf, 16000)
        assert len(out) == 16000
        assert out.sample_rate == 16000
        b = dominant_bin(out.samples, 16000)
        assert abs(b * 16000 / 1024 - 440) <= 16000 / 1024

    def test_resample_to_length_identity(self, rng):
        x = rng.uniform(-0.5, 0.5, 500)
        assert np.array_equal(resample_to_length(x, 500), x)

    @pytest.mark.parametrize("n_in, out_len", [
        (2 * n + 3, n) for n in BLOCK_EDGE_LENGTHS            # downsampling
    ] + [
        ((n + 2) // 3, n) for n in BLOCK_EDGE_LENGTHS[1:]     # upsampling
    ])
    def test_blocked_matches_unblocked_formula(self, rng, n_in, out_len):
        """Blocking the output rows changes no sample of the result, bit for bit."""
        x = rng.uniform(-0.5, 0.5, n_in)
        assert np.array_equal(resample_to_length(x, out_len), unblocked_resample(x, out_len))

    def test_memory_does_not_grow_with_length(self, rng):
        """10 s at 44.1 kHz down to 40 kHz; all [n_out, taps] matrices at once need ~690 MB."""
        x = rng.uniform(-0.5, 0.5, 441000)
        tracemalloc.start()
        try:
            out = resample_to_length(x, 400000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (400000,)
        assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MB"


def unblocked_resample(x, out_len):
    """The windowed-sinc formula over every output position at once."""
    ratio = x.size / out_len
    positions = np.arange(out_len, dtype=np.float64) * ratio
    half = RESAMPLER_TAPS // 2
    cutoff = min(1.0, 1.0 / ratio)
    pad = np.pad(x, half)
    idx = np.floor(positions).astype(np.int64)[:, None] + np.arange(-half + 1, half + 1)
    u = positions[:, None] - idx
    taper = 0.5 + 0.5 * np.cos(np.pi * u / half)
    kernel = cutoff * np.sinc(cutoff * u) * taper
    return np.einsum("ij,ij->i", pad[idx + half], kernel)


def whole_array_time_stretch(x, factor, overlap_add):
    """The phase vocoder over all frames and bins at once, as one thread computes it."""
    n_fft, hop = audio.VOCODER_N_FFT, audio.VOCODER_HOP
    target_len = max(int(round(x.size * factor)), 1)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    t_in = 1 + int(np.ceil((x.size - n_fft) / hop))
    padded = np.pad(x, (0, n_fft + (t_in - 1) * hop - x.size))
    frames = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop][:t_in]
    spec = np.fft.rfft(frames * window, axis=1)
    t_out = 1 + max(int(np.ceil((target_len - n_fft) / hop)), 0)
    pos = np.minimum(np.arange(t_out) / factor, t_in - 1.0)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, t_in - 1)
    frac = (pos - lo)[:, None]
    mag = (1.0 - frac) * np.abs(spec[lo]) + frac * np.abs(spec[hi])
    omega = 2.0 * np.pi * np.arange(spec.shape[1]) * hop / n_fft
    phase_lo = np.angle(spec[lo])
    dev = np.angle(spec[hi]) - phase_lo - omega[None, :]
    dev = dev - 2.0 * np.pi * np.round(dev / (2.0 * np.pi))
    dev[hi == lo] = 0.0
    advance = omega[None, :] + dev
    phase = np.empty_like(mag)
    phase[0] = phase_lo[0]
    phase[1:] = phase_lo[0] + np.cumsum(advance[:-1], axis=0)
    out = overlap_add(mag * np.exp(1j * phase), n_fft, hop, window)
    return np.pad(out, (0, max(target_len - out.size, 0)))[:target_len]


def clamped_frames(n, factor):
    """Output frames of a stretch whose analysis position is clamped to the last frame."""
    n_fft, hop = audio.VOCODER_N_FFT, audio.VOCODER_HOP
    t_in = 1 + int(np.ceil((n - n_fft) / hop))
    t_out = 1 + max(int(np.ceil((max(int(round(n * factor)), 1) - n_fft) / hop)), 0)
    lo = np.floor(np.minimum(np.arange(t_out) / factor, t_in - 1.0))
    return int(np.count_nonzero(lo == t_in - 1))


VOCODER_CASES = {
    "identity": (4000, 1.0),
    "one_frame": (audio.VOCODER_N_FFT, 1.19),
    "one_frame_shrunk": (audio.VOCODER_N_FFT, 0.8),
    "odd_long": (3001, 1.13),
    "odd_short": (2047, 0.83),
    "clamped_tail": (6001, 1.2),
}


class TestVocoderLanes:
    """Lanes split frames, rows and bins; each sample is the whole-array vocoder's."""

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("case", sorted(VOCODER_CASES))
    def test_stretch_matches_whole_array(self, monkeypatch, loop_overlap_add, lanes, case):
        n, factor = VOCODER_CASES[case]
        if case == "clamped_tail":
            assert clamped_frames(n, factor) > 1
        x = np.random.default_rng(n).uniform(-0.5, 0.5, n)
        monkeypatch.setattr(audio, "_LANES", lanes)
        got = time_stretch(AudioBuffer(x, 16000), factor).samples
        want = whole_array_time_stretch(x, factor, loop_overlap_add)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("n, semitones", [(4410, 2.5), (3001, -3.0), (1024, 1.0)])
    def test_pitch_shift_matches_whole_array(self, monkeypatch, loop_overlap_add, lanes, n,
                                             semitones):
        x = np.random.default_rng(n).uniform(-0.5, 0.5, n)
        monkeypatch.setattr(audio, "_LANES", lanes)
        got = pitch_shift(AudioBuffer(x, 16000), semitones).samples
        stretched = whole_array_time_stretch(x, 2.0 ** (semitones / 12.0), loop_overlap_add)
        assert stretched.size != n
        assert got.tobytes() == unblocked_resample(stretched, n).tobytes()

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    @pytest.mark.parametrize("n_in, out_len", [
        (3 * RESAMPLER_BLOCK_ROWS + 5, 2 * RESAMPLER_BLOCK_ROWS + 7),  # down, blocks per lane
        (700, 2 * RESAMPLER_BLOCK_ROWS + 1),                           # up
        (9, 2),                                                        # fewer rows than lanes
    ])
    def test_resample_matches_whole_array(self, monkeypatch, lanes, n_in, out_len):
        x = np.random.default_rng(n_in).uniform(-0.5, 0.5, n_in)
        monkeypatch.setattr(audio, "_LANES", lanes)
        assert resample_to_length(x, out_len).tobytes() == unblocked_resample(x, out_len).tobytes()


def test_lanes_run_under_the_callers_error_state(monkeypatch):
    """Every lane sees the ``np.errstate`` its caller set, not numpy's defaults."""
    monkeypatch.setattr(audio, "_LANES", 3)
    seen = [None] * 3

    def work(k, lo, hi):
        seen[k] = np.geterr()

    with np.errstate(over="ignore", divide="raise", invalid="ignore"):
        audio._run_lanes(work, [0, 1, 2, 3])
        want = np.geterr()
    assert seen == [want] * 3


def _resample_in_child(x, out_len, conn):
    conn.send(resample_to_length(x, out_len).tobytes())
    conn.close()


def test_fork_child_resamples_like_parent(monkeypatch):
    """A fork taken after the lane pool exists gets a working pool of its own."""
    monkeypatch.setattr(audio, "_LANES", 2)
    x = np.random.default_rng(3).uniform(-0.5, 0.5, 5000)
    want = resample_to_length(x, 7001).tobytes()
    assert audio._pool is not None
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_resample_in_child, args=(x, 7001, send))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child produced nothing within 60 s"
        got = receive.recv()
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert got == want


class TestVocoder:
    def test_stretch_identity_snr(self):
        buf = sine(440, 1.0, 16000)
        out = time_stretch(buf, 1.0)
        assert len(out) == len(buf)
        err = out.samples - buf.samples
        snr = 10 * np.log10(np.sum(buf.samples**2) / np.sum(err**2))
        assert snr > 25.0

    @given(st.floats(0.8, 1.2), st.sampled_from([8000, 16000]))
    def test_stretch_duration_law(self, factor, sr):
        buf = sine(330, 0.6, sr)
        out = time_stretch(buf, factor)
        assert len(out) == int(round(len(buf) * factor))
        assert abs(len(out) - len(buf) * factor) <= 256

    def test_stretch_pitch_invariance(self):
        buf = sine(440, 1.0, 16000)
        out = time_stretch(buf, 0.8)
        b_in = dominant_bin(buf.samples, 16000)
        b_out = dominant_bin(out.samples, 16000)
        assert abs(b_in - b_out) <= 1

    def test_pitch_shift_zero_is_identity(self):
        buf = sine(440, 1.0, 16000)
        out = pitch_shift(buf, 0.0)
        assert len(out) == len(buf)
        err = out.samples - buf.samples
        snr = 10 * np.log10(np.sum(buf.samples**2) / max(np.sum(err**2), 1e-300))
        assert snr > 25.0

    def test_pitch_shift_octave_up(self):
        buf = sine(220, 1.0, 16000)
        out = pitch_shift(buf, +12.0)
        assert len(out) == len(buf)
        b = dominant_bin(out.samples, 16000)
        target = 440 / (16000 / 1024)
        assert abs(b - target) <= 1.0

    def test_pitch_shift_octave_down(self):
        buf = sine(440, 1.0, 16000)
        out = pitch_shift(buf, -12.0)
        b = dominant_bin(out.samples, 16000)
        target = 220 / (16000 / 1024)
        assert abs(b - target) <= 1.0

    def test_pitch_round_trip_restores_bin(self):
        buf = sine(440, 1.0, 16000)
        out = pitch_shift(pitch_shift(buf, 3.0), -3.0)
        assert len(out) == len(buf)
        assert abs(dominant_bin(out.samples, 16000) - dominant_bin(buf.samples, 16000)) <= 1

    @pytest.mark.parametrize("hop", [256, 300])
    @pytest.mark.parametrize("factor", [0.8, 1.0, 1.25])
    def test_stretch_matches_loop_overlap_add(self, monkeypatch, loop_overlap_add, hop, factor):
        """Chunked overlap-add, also at a hop that does not divide the FFT size."""
        buf = sine(440, 0.5, 16000)
        monkeypatch.setattr(audio, "VOCODER_HOP", hop)
        got = time_stretch(buf, factor)
        monkeypatch.setattr(audio, "_overlap_add", loop_overlap_add)
        want = time_stretch(buf, factor)
        assert got.samples.tobytes() == want.samples.tobytes()

    def test_stretch_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            time_stretch(sine(440, 0.5, 8000), 0.0)
