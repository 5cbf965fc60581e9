"""Tests for conditioning streams: providers, encoder, masking, assembly."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfaudio.autodiff import Tensor, gradcheck, tsum
from rfaudio.conditioning import (
    CONDITION_DROPOUT_P,
    DEFAULT_LATENT_RATE,
    FEATSEQ_MAGIC,
    SYNC_WIDTH,
    TRANSCRIPT_VOCAB,
    UNKNOWN_INDEX,
    Conditioner,
    ConditioningBundle,
    FeatureFileError,
    FeatureSeq,
    FrameFeatures,
    NullContextProvider,
    NullSyncProvider,
    PromptMask,
    ReplayFeatureProvider,
    ReplaySyncProvider,
    ToyTokenProvider,
    TranscriptEncoder,
    build_high_stream,
    build_low_stream,
    condition_dropout,
    mask_prompt,
    null_bundle,
    read_feature_seq,
    transcript_indices,
    write_feature_seq,
)
from rfaudio.optim import ParamStore


def make_seq(rng, length, width):
    return FeatureSeq(rng.standard_normal((length, width)).astype(np.float32))


class TestFeatureSeq:
    def test_empty_has_zero_length(self):
        seq = FeatureSeq.empty(7)
        assert seq.length == 0
        assert seq.width == 7

    def test_wraps_plain_arrays(self):
        seq = FeatureSeq(np.ones((3, 2)))
        assert isinstance(seq.tokens, Tensor)
        assert seq.tokens.data.dtype == np.float64  # float dtypes are preserved

    def test_non_finite_rejected(self):
        bad = np.zeros((2, 2), dtype=np.float32)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            FeatureSeq(bad)

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            FeatureSeq(np.zeros(5, dtype=np.float32))


class TestFrameFeatures:
    def test_zeros(self):
        ff = FrameFeatures.zeros(6, 3)
        assert ff.frame_count == 6 and ff.width == 3
        assert not ff.validity.any()
        assert ff.frames.dtype == np.float32

    def test_non_finite_rejected(self):
        bad = np.zeros((2, 2), dtype=np.float32)
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            FrameFeatures(bad)


class TestReplayFiles:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        seq = make_seq(rng, 13, 5)
        path = tmp_path / "feat.bin"
        write_feature_seq(path, seq)
        back = read_feature_seq(path)
        assert np.array_equal(back.tokens.data, seq.tokens.data)

    def test_header_layout(self, tmp_path):
        seq = FeatureSeq(np.zeros((2, 3), dtype=np.float32))
        path = tmp_path / "feat.bin"
        write_feature_seq(path, seq)
        blob = path.read_bytes()
        assert blob[:8] == FEATSEQ_MAGIC
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 3
        assert len(blob) == 16 + 4 * 6

    def test_empty_sequence_round_trip(self, tmp_path):
        path = tmp_path / "feat.bin"
        write_feature_seq(path, FeatureSeq.empty(4))
        back = read_feature_seq(path)
        assert back.length == 0 and back.width == 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "feat.bin"
        path.write_bytes(b"NOTFEATS" + b"\x00" * 16)
        with pytest.raises(FeatureFileError):
            read_feature_seq(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "feat.bin"
        write_feature_seq(path, make_seq(rng, 4, 4))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FeatureFileError):
            read_feature_seq(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "feat.bin"
        write_feature_seq(path, make_seq(rng, 4, 4))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FeatureFileError):
            read_feature_seq(path)


class TestMmProviders:
    def test_toy_token_count(self):
        store = ParamStore()
        provider = ToyTokenProvider(["dog", "bark"], 6, store)
        seq = provider.provide("dog bark")
        assert seq.length == 2
        assert seq.width == 6

    def test_toy_rows_come_from_table(self):
        store = ParamStore()
        provider = ToyTokenProvider(["a", "b"], 4, store)
        table = store["mm_toy.table"].data
        seq = provider.provide("b a")
        assert np.array_equal(seq.tokens.data[0], table[2])
        assert np.array_equal(seq.tokens.data[1], table[1])

    def test_toy_unknown_word_counted(self):
        store = ParamStore()
        provider = ToyTokenProvider(["dog"], 4, store)
        seq = provider.provide("cat dog")
        assert provider.oov_count == 1
        assert np.array_equal(seq.tokens.data[0], store["mm_toy.table"].data[0])

    def test_toy_table_is_trainable(self):
        store = ParamStore()
        provider = ToyTokenProvider(["dog"], 4, store)
        out = provider.provide("dog")
        tsum(out.tokens).backward()
        grad = store["mm_toy.table"].tensor.grad
        assert grad is not None
        assert np.all(grad[1] == 1.0)

    def test_empty_instruction_yields_empty(self):
        store = ParamStore()
        provider = ToyTokenProvider(["dog"], 4, store)
        assert provider.provide("").length == 0

    def test_null_provider(self):
        assert NullContextProvider(9).provide("anything").length == 0

    def test_replay_provider_round_trip(self, tmp_path, rng):
        seq = make_seq(rng, 5, 7)
        path = tmp_path / "mm.bin"
        write_feature_seq(path, seq)
        provider = ReplayFeatureProvider(path)
        out1 = provider.provide("ignored")
        out2 = provider.provide("also ignored")
        assert np.array_equal(out1.tokens.data, seq.tokens.data)
        assert np.array_equal(out1.tokens.data, out2.tokens.data)

    def test_replay_width_mismatch(self, tmp_path, rng):
        path = tmp_path / "mm.bin"
        write_feature_seq(path, make_seq(rng, 5, 7))
        with pytest.raises(FeatureFileError):
            ReplayFeatureProvider(path, expected_width=8)


class TestSyncProviders:
    def test_null_provider_shape_and_validity(self):
        ff = NullSyncProvider().provide(80, DEFAULT_LATENT_RATE)
        assert ff.frame_count == 80
        assert ff.width == SYNC_WIDTH
        assert not ff.validity.any()
        assert not ff.frames.any()

    def test_replay_nearest_frame_map(self, tmp_path, rng):
        rows = rng.standard_normal((50, 3)).astype(np.float32)
        path = tmp_path / "sync.bin"
        write_feature_seq(path, FeatureSeq(rows))
        provider = ReplaySyncProvider(path, native_rate=25.0)
        latent_T = 344
        ff = provider.provide(latent_T, DEFAULT_LATENT_RATE)
        assert ff.frame_count == latent_T
        idx = np.floor(np.arange(latent_T) * 25.0 / DEFAULT_LATENT_RATE).astype(int)
        assert idx[0] == 0 and idx[-1] == 49
        assert np.array_equal(ff.frames, rows[idx])

    def test_replay_loaded_twice_identical(self, tmp_path, rng):
        path = tmp_path / "sync.bin"
        write_feature_seq(path, make_seq(rng, 50, 3))
        a = ReplaySyncProvider(path, 25.0).provide(344, DEFAULT_LATENT_RATE)
        b = ReplaySyncProvider(path, 25.0).provide(344, DEFAULT_LATENT_RATE)
        assert np.array_equal(a.frames, b.frames)

    def test_one_row_short_is_clamped(self, tmp_path, rng):
        rows = rng.standard_normal((49, 3)).astype(np.float32)
        path = tmp_path / "sync.bin"
        write_feature_seq(path, FeatureSeq(rows))
        ff = ReplaySyncProvider(path, 25.0).provide(344, DEFAULT_LATENT_RATE)
        assert np.array_equal(ff.frames[-1], rows[48])

    def test_two_rows_short_errors(self, tmp_path, rng):
        path = tmp_path / "sync.bin"
        write_feature_seq(path, make_seq(rng, 48, 3))
        with pytest.raises(FeatureFileError):
            ReplaySyncProvider(path, 25.0).provide(344, DEFAULT_LATENT_RATE)

    def test_excess_rows_beyond_tolerance_error(self, tmp_path, rng):
        path = tmp_path / "sync.bin"
        write_feature_seq(path, make_seq(rng, 52, 3))
        with pytest.raises(FeatureFileError):
            ReplaySyncProvider(path, 25.0).provide(344, DEFAULT_LATENT_RATE)

    def test_one_excess_row_tolerated(self, tmp_path, rng):
        path = tmp_path / "sync.bin"
        write_feature_seq(path, make_seq(rng, 51, 3))
        ff = ReplaySyncProvider(path, 25.0).provide(344, DEFAULT_LATENT_RATE)
        assert ff.frame_count == 344


class TestTranscriptEncoder:
    def make_encoder(self, width=6, seed=0, dtype=np.float32):
        store = ParamStore(seed, dtype)
        enc = TranscriptEncoder(store, width)
        return store, enc

    def test_empty_string(self):
        _, enc = self.make_encoder()
        assert enc.encode("").length == 0

    def test_hello_world_length(self):
        _, enc = self.make_encoder()
        assert enc.encode("hello world").length == 11

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40))
    def test_length_preservation(self, text):
        _, enc = self.make_encoder(width=4)
        assert enc.encode(text).length == len(text)

    def test_vocabulary_size(self):
        assert TRANSCRIPT_VOCAB == 97  # pad + unknown + 95 printable ASCII

    def test_index_map(self):
        idx, oov = transcript_indices(" a~é\n")
        assert list(idx) == [2, ord("a") - 30, ord("~") - 30, UNKNOWN_INDEX, UNKNOWN_INDEX]
        assert oov == 2

    def test_oov_counted(self):
        _, enc = self.make_encoder()
        out = enc.encode("café")
        assert out.length == 4
        assert enc.oov_count == 1

    def test_deterministic_given_seed(self):
        _, enc1 = self.make_encoder(seed=3)
        _, enc2 = self.make_encoder(seed=3)
        a = enc1.encode("same text").tokens.data
        b = enc2.encode("same text").tokens.data
        assert np.array_equal(a, b)

    def test_gradcheck_through_encoder(self):
        store, enc = self.make_encoder(width=4, dtype=np.float64)
        tensors = [p.tensor for p in store]

        def f(*_):
            tokens = enc.encode("ab").tokens
            return tsum(tokens * tokens)

        assert gradcheck(f, tensors) < 1e-4


class TestHighStream:
    def test_lengths_add(self, rng):
        out = build_high_stream(make_seq(rng, 3, 8), make_seq(rng, 5, 8))
        assert out.length == 8

    def test_empty_transcript_passthrough(self, rng):
        mm = make_seq(rng, 3, 8)
        out = build_high_stream(mm, FeatureSeq.empty(8))
        assert np.array_equal(out.tokens.data, mm.tokens.data)

    def test_empty_mm_passthrough(self, rng):
        trans = make_seq(rng, 4, 8)
        out = build_high_stream(FeatureSeq.empty(8), trans)
        assert np.array_equal(out.tokens.data, trans.tokens.data)

    def test_both_empty(self):
        out = build_high_stream(FeatureSeq.empty(8), FeatureSeq.empty(8))
        assert out.length == 0

    def test_order_is_mm_then_trans(self, rng):
        a, b = make_seq(rng, 2, 4), make_seq(rng, 3, 4)
        ab = build_high_stream(a, b).tokens.data
        ba = build_high_stream(b, a).tokens.data
        assert np.array_equal(ab[:2], a.tokens.data)
        assert np.array_equal(ab[2:], b.tokens.data)
        assert np.array_equal(ba[:3], b.tokens.data)

    def test_width_mismatch(self, rng):
        with pytest.raises(ValueError):
            build_high_stream(make_seq(rng, 2, 4), make_seq(rng, 2, 5))

    def test_adapter_projects_width(self, rng):
        from rfaudio.conditioning import SourceAdapter

        store = ParamStore()
        adapter = SourceAdapter(store, "ad", 5, 8)
        out = adapter.apply(make_seq(rng, 3, 5))
        assert out.width == 8
        tsum(out.tokens).backward()
        assert store["ad.w"].tensor.grad is not None

    def test_adapter_empty_input(self):
        from rfaudio.conditioning import SourceAdapter

        store = ParamStore()
        adapter = SourceAdapter(store, "ad", 5, 8)
        out = adapter.apply(FeatureSeq.empty(5))
        assert out.length == 0 and out.width == 8


class TestLowStream:
    def test_zero_inputs_give_zero_matrix(self):
        out = build_low_stream(FrameFeatures.zeros(4, 8), FrameFeatures.zeros(4, 100))
        assert out.width == 108
        assert not out.frames.any()
        assert not out.validity.any()

    def test_frames_split_back(self, rng):
        sync = FrameFeatures(rng.standard_normal((6, 3)).astype(np.float32))
        mel = FrameFeatures(rng.standard_normal((6, 5)).astype(np.float32))
        out = build_low_stream(sync, mel)
        t = 4
        assert np.array_equal(out.frames[t, :3], sync.frames[t])
        assert np.array_equal(out.frames[t, 3:], mel.frames[t])

    def test_frame_count_mismatch(self):
        with pytest.raises(ValueError):
            build_low_stream(FrameFeatures.zeros(4, 3), FrameFeatures.zeros(5, 3))

    def test_validity_is_or(self):
        sync = FrameFeatures.zeros(3, 2)
        mel = FrameFeatures(np.ones((3, 2), dtype=np.float32), [True, False, True])
        out = build_low_stream(sync, mel)
        assert list(out.validity) == [True, False, True]


class TestMaskPrompt:
    def test_forced_lower_bound(self, rng):
        mel = FrameFeatures(np.ones((100, 3), dtype=np.float32))
        masked, mask = mask_prompt(mel, rng, ratio=0.20)
        zero_rows = np.flatnonzero(~masked.frames.any(axis=1))
        assert len(zero_rows) == 20
        assert np.array_equal(zero_rows, np.arange(mask.start, mask.end))
        assert not masked.validity[mask.start : mask.end].any()
        assert masked.validity[: mask.start].all()
        assert masked.validity[mask.end :].all()

    def test_forced_upper_bound(self, rng):
        mel = FrameFeatures(np.ones((100, 3), dtype=np.float32))
        _, mask = mask_prompt(mel, rng, ratio=0.75)
        assert mask.end - mask.start == 75

    def test_input_not_mutated(self, rng):
        frames = np.ones((50, 2), dtype=np.float32)
        mel = FrameFeatures(frames.copy())
        mask_prompt(mel, rng)
        assert np.array_equal(mel.frames, frames)

    def test_too_few_frames(self, rng):
        with pytest.raises(ValueError):
            mask_prompt(FrameFeatures.zeros(3, 2), rng)

    def test_ratio_out_of_band_rejected(self, rng):
        mel = FrameFeatures(np.ones((100, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            mask_prompt(mel, rng, ratio=0.1)

    def test_uniform_law_statistics(self):
        rng = np.random.default_rng(11)
        T = 100
        mel = FrameFeatures(np.ones((T, 1), dtype=np.float32))
        ratios = np.empty(10_000)
        for i in range(10_000):
            _, mask = mask_prompt(mel, rng)
            ratios[i] = mask.ratio
        assert ratios.min() >= 0.20 - 1.0 / T
        assert ratios.max() <= 0.75 + 1.0 / T
        assert abs(ratios.mean() - 0.475) < 0.01


class TestPromptMaskType:
    def test_valid_mask(self):
        mask = PromptMask(10, 40, 100)
        assert mask.ratio == pytest.approx(0.30)

    def test_bad_span(self):
        with pytest.raises(ValueError):
            PromptMask(40, 10, 100)
        with pytest.raises(ValueError):
            PromptMask(0, 101, 100)

    def test_ratio_band_enforced(self):
        with pytest.raises(ValueError):
            PromptMask(0, 5, 100)  # ratio 0.05
        with pytest.raises(ValueError):
            PromptMask(0, 90, 100)  # ratio 0.90
        PromptMask(0, 20, 100)
        PromptMask(0, 75, 100)


def make_bundle(rng, latent_T=6, d_high=5, d_low=4):
    high = FeatureSeq(rng.standard_normal((3, d_high)).astype(np.float32))
    low = FrameFeatures(rng.standard_normal((latent_T, d_low)).astype(np.float32))
    return ConditioningBundle(high, low)


class TestConditionDropout:
    def test_p_zero_unchanged(self, rng):
        bundle = make_bundle(rng)
        assert condition_dropout(bundle, 0.0, rng) is bundle

    def test_p_one_always_null(self, rng):
        bundle = make_bundle(rng)
        out = condition_dropout(bundle, 1.0, rng)
        assert out.high.length == 0
        assert out.high.width == bundle.high.width
        assert out.low.frame_count == bundle.low.frame_count
        assert not out.low.frames.any()
        assert not out.low.validity.any()

    def test_default_probability(self):
        assert CONDITION_DROPOUT_P == 0.10

    def test_drop_fraction_concentrates(self):
        rng = np.random.default_rng(5)
        bundle = make_bundle(rng)
        drops = sum(
            condition_dropout(bundle, 0.1, rng).high.length == 0 for _ in range(10_000)
        )
        assert abs(drops / 10_000 - 0.1) < 0.01

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            condition_dropout(make_bundle(rng), 1.5, rng)

    def test_null_bundle_shapes(self, rng):
        bundle = make_bundle(rng)
        nb = null_bundle(bundle)
        assert nb.high.length == 0
        assert nb.low.frames.shape == bundle.low.frames.shape


class TestConditionerAssembly:
    def make_conditioner(self, vocab=("dog", "bark"), d_mel=5):
        store = ParamStore()
        provider = ToyTokenProvider(list(vocab), 6, store)
        cond = Conditioner(
            store, d_high=8, d_mm=6, d_trans=6, d_sync=3, d_mel=d_mel, mm_provider=provider,
        )
        return store, cond

    def test_bundle_shapes_and_flags(self, rng):
        _, cond = self.make_conditioner()
        mel = FrameFeatures(rng.standard_normal((10, 5)).astype(np.float32))
        bundle = cond.assemble(10, instruction="dog bark", transcript="dog", mel=mel)
        assert bundle.low.frame_count == 10
        assert bundle.low.width == 8  # 3 sync + 5 mel
        assert bundle.high.length == 2 + 3
        assert bundle.high.width == 8

    def test_unconditional_assembly(self):
        store = ParamStore()
        cond = Conditioner(store, d_high=8, d_mm=6, d_trans=6, d_sync=3, d_mel=5)
        bundle = cond.assemble(7)
        assert bundle.high.length == 0
        assert bundle.low.frame_count == 7
        assert not bundle.low.validity.any()

    def test_mel_frame_mismatch(self):
        _, cond = self.make_conditioner()
        mel = FrameFeatures.zeros(9, 5)
        with pytest.raises(ValueError):
            cond.assemble(10, mel=mel)

    def test_mel_width_mismatch(self):
        _, cond = self.make_conditioner()
        with pytest.raises(ValueError):
            cond.assemble(10, mel=FrameFeatures.zeros(10, 4))

    def test_gradients_reach_adapters_and_encoder(self):
        store, cond = self.make_conditioner()
        bundle = cond.assemble(10, instruction="dog", transcript="hi")
        tsum(bundle.high.tokens * bundle.high.tokens).backward()
        assert store["cond.mm_adapter.w"].tensor.grad is not None
        assert store["cond.transcript_adapter.w"].tensor.grad is not None
        assert store["transcript.embed"].tensor.grad is not None
        assert store["mm_toy.table"].tensor.grad is not None
