"""Tests for the velocity network and its conditioning fusion."""

import os
import sys
import threading

import numpy as np
import pytest

from rfaudio.autodiff import Tensor, add, gelu, gradcheck, matmul, no_grad, tsum
from rfaudio.conditioning import (
    null_bundle,
)
from rfaudio.flow import rf_loss
from rfaudio.model import (
    FlowModel,
    ModelConfig,
    TimeEmbedding,
    collate_bundles,
    time_features,
)
from rfaudio.optim import ParamStore

TINY = ModelConfig(
    d_lat=3, d_mel=3, d_sync=2, d_mm=4, d_trans=4, d_high=6,
    width=8, depth=2, heads=2, time_basis=8,
)


def make_bundle(model, rng, latent_T, instruction="", transcript=""):
    return model.conditioner.assemble(latent_T, instruction=instruction, transcript=transcript)


def latent(rng, T, d):
    return rng.standard_normal((T, d)).astype(np.float32)


def forward_one(x, t, bundle, model):
    """``model._forward`` on a batch of one: ``x`` is ``[T, d]``, the result ``[1, T, d]``."""
    high, valid, low = collate_bundles([bundle], dtype=model.dtype)
    return model._forward(Tensor(x[None]), np.array([t]), high, valid, low)


class TestModelConfig:
    def test_defaults_are_desk_scale(self):
        cfg = ModelConfig()
        assert (cfg.depth, cfg.width, cfg.heads) == (4, 64, 4)

    def test_d_low_is_sum(self):
        assert TINY.d_low == 5

    def test_width_heads_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(width=10, heads=4)

    def test_time_basis_must_be_even(self):
        with pytest.raises(ValueError):
            ModelConfig(time_basis=7)

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            ModelConfig(depth=0)

    @pytest.mark.parametrize("value", [64.0, True, float("nan"), "64"])
    def test_integer_fields_refuse_other_types(self, value):
        with pytest.raises(TypeError, match="width must be an integer"):
            ModelConfig(width=value)


class TestTimeFeatures:
    def test_t_zero(self):
        f = time_features(0.0, 16)
        assert np.all(f[:8] == 0.0)
        assert np.all(f[8:] == 1.0)

    def test_rate_endpoints(self):
        f = time_features(1.0, 8)
        assert f[0] == pytest.approx(np.sin(1.0))
        assert f[3] == pytest.approx(np.sin(1e4))

    def test_injectivity_spot_check(self):
        ts = np.arange(0.1, 1.0, 0.1)
        vecs = np.stack([time_features(t, 32) for t in ts])
        gaps = [
            np.linalg.norm(vecs[i] - vecs[j])
            for i in range(len(ts))
            for j in range(i + 1, len(ts))
        ]
        assert min(gaps) > 0.0

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            time_features(0.5, 7)

    def test_batch_matches_per_item_stack(self):
        """The vectorised batch path is the per-item features, byte for byte."""
        ts = np.concatenate([[0.0, 1.0, 1e-9], np.random.default_rng(3).random(844)])
        for dim in (2, 8, 64):
            want = np.stack([time_features(t, dim) for t in ts])
            assert time_features(ts, dim).tobytes() == want.tobytes()
        emb = TimeEmbedding(ParamStore(), 64, 5)
        feats = Tensor(want.astype(np.float32))
        h = gelu(add(matmul(feats, emb.w1), emb.b1))
        want_out = add(matmul(h, emb.w2), emb.b2).data
        assert emb.embed_batch(ts).data.tobytes() == want_out.tobytes()

    def test_mlp_gradcheck(self):
        store = ParamStore(dtype=np.float64)
        emb = TimeEmbedding(store, 8, 5)
        tensors = [p.tensor for p in store]

        def f(*_):
            out = emb.embed_batch([0.3, 0.8])
            return tsum(out * out)

        assert gradcheck(f, tensors) < 1e-5


class TestDitForward:
    @pytest.mark.parametrize("T", [1, 7, 80])
    def test_output_shape(self, rng, T):
        model = FlowModel(TINY, seed=0)
        bundle = make_bundle(model, rng, T, transcript="hey")
        out = forward_one(latent(rng, T, TINY.d_lat), 0.4, bundle, model)
        assert out.data.shape == (1, T, TINY.d_lat)

    def test_default_config_forward(self, rng):
        model = FlowModel(ModelConfig(d_lat=10, d_mel=10), seed=0)
        bundle = model.conditioner.assemble(5)
        out = forward_one(latent(rng, 5, 10), 0.5, bundle, model)
        assert out.data.shape == (1, 5, 10)

    def test_untrained_model_predicts_zero(self, rng):
        model = FlowModel(TINY, seed=0)
        bundle = make_bundle(model, rng, 4)
        out = forward_one(latent(rng, 4, 3), 0.2, bundle, model)
        assert np.all(out.data == 0.0)  # zero-initialized output head

    def test_frame_mismatch_rejected(self, rng):
        model = FlowModel(TINY, seed=0)
        bundle = make_bundle(model, rng, 5)
        with pytest.raises(ValueError, match="frames"):
            rf_loss([(latent(rng, 6, 3), bundle)], model, rng)

    def test_latent_width_rejected(self, rng):
        model = FlowModel(TINY, seed=0)
        bundle = make_bundle(model, rng, 5)
        with pytest.raises(ValueError, match="latent width"):
            forward_one(latent(rng, 5, 4), 0.4, bundle, model)

    def test_deterministic_construction_and_forward(self, rng):
        x = latent(rng, 6, 3)
        outs = []
        for _ in range(2):
            model = FlowModel(TINY, seed=7, toy_vocab=["dog"])
            bundle = model.conditioner.assemble(6, instruction="dog")
            outs.append(forward_one(x, 0.3, bundle, model).data)
        assert np.array_equal(outs[0], outs[1])

    def test_forward_count_increments(self, rng):
        model = FlowModel(TINY, seed=0)
        bundle = make_bundle(model, rng, 4)
        base = model.forward_count
        with no_grad():
            forward_one(latent(rng, 4, 3), 0.5, bundle, model)
            forward_one(latent(rng, 4, 3), 0.4, bundle, model)
        assert model.forward_count == base + 2

    def test_forward_count_counts_every_thread(self, rng):
        """Forwards on more threads than cores, switching often: none goes uncounted."""
        model = FlowModel(TINY, seed=0)
        bundle = make_bundle(model, rng, 4)
        x = latent(rng, 4, 3)

        def run():
            with no_grad():
                for _ in range(25):
                    forward_one(x, 0.5, bundle, model)

        threads = [threading.Thread(target=run) for _ in range((os.cpu_count() or 1) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert model.forward_count == 25 * len(threads)

    def test_context_changes_output(self, rng):
        model = FlowModel(TINY, seed=0, toy_vocab=["dog"])
        # make the output head non-trivial so context can show up at all
        model.params["dit.out.w"].data[...] = rng.standard_normal(
            model.params["dit.out.w"].data.shape
        ).astype(np.float32)
        x = latent(rng, 4, 3)
        with no_grad():
            with_ctx = forward_one(
                x, 0.5, model.conditioner.assemble(4, instruction="dog"), model
            )
            without = forward_one(x, 0.5, model.conditioner.assemble(4), model)
        assert not np.allclose(with_ctx.data, without.data)


class TestNullContextEquivalence:
    def test_single_example_skips_cross_attention(self, rng):
        model = FlowModel(TINY, seed=1)
        model.params["dit.out.w"].data[...] = 0.1
        bundle = make_bundle(model, rng, 5)  # no instruction, no transcript
        assert bundle.high.length == 0
        x = latent(rng, 5, 3)
        with no_grad():
            out = forward_one(x, 0.6, bundle, model)
        assert np.all(np.isfinite(out.data))

    def test_masked_batch_equals_bypassed_path(self, rng):
        """An all-invalid padded context must reproduce the context-free pass."""
        model = FlowModel(TINY, seed=1)
        model.params["dit.out.w"].data[...] = rng.standard_normal(
            (TINY.width, TINY.d_lat)
        ).astype(np.float32)
        B, T = 2, 5
        x = Tensor(rng.standard_normal((B, T, TINY.d_lat)).astype(np.float32))
        low = Tensor(rng.standard_normal((B, T, TINY.d_low)).astype(np.float32))
        ts = np.array([0.3, 0.9])
        garbage = Tensor(rng.standard_normal((B, 3, TINY.d_high)).astype(np.float32))
        invalid = np.zeros((B, 3), dtype=bool)
        with no_grad():
            bypassed = model._forward(x, ts, None, None, low)
            masked = model._forward(x, ts, garbage, invalid, low)
        assert np.array_equal(bypassed.data, masked.data)

    def test_mixed_batch_null_item_matches_solo_null(self, rng):
        """Batching a null item next to a real one must not leak context into it."""
        model = FlowModel(TINY, seed=3, toy_vocab=["dog"])
        model.params["dit.out.w"].data[...] = rng.standard_normal(
            (TINY.width, TINY.d_lat)
        ).astype(np.float32)
        T = 4
        real = model.conditioner.assemble(T, instruction="dog")
        null = null_bundle(real)
        x = rng.standard_normal((2, T, TINY.d_lat)).astype(np.float32)
        high, valid, low = collate_bundles([real, null])
        ts = np.array([0.5, 0.5])
        with no_grad():
            batched = model._forward(Tensor(x), ts, high, valid, low)
            solo = forward_one(x[1], 0.5, null, model)
        assert np.allclose(batched.data[1], solo.data[0], atol=1e-6)


class TestCollate:
    def test_all_empty_context(self, rng):
        model = FlowModel(TINY, seed=0)
        bundles = [make_bundle(model, rng, 4) for _ in range(3)]
        high, valid, low = collate_bundles(bundles)
        assert high is None and valid is None
        assert low.data.shape == (3, 4, TINY.d_low)

    def test_padding_and_validity(self, rng):
        model = FlowModel(TINY, seed=0, toy_vocab=["a", "b"])
        b1 = model.conditioner.assemble(4, instruction="a b")
        b2 = model.conditioner.assemble(4, instruction="a")
        high, valid, low = collate_bundles([b1, b2])
        assert high.data.shape == (2, 2, TINY.d_high)
        assert valid.tolist() == [[True, True], [True, False]]
        assert np.all(high.data[1, 1] == 0.0)

    def test_frame_count_mismatch(self, rng):
        model = FlowModel(TINY, seed=0)
        with pytest.raises(ValueError):
            collate_bundles([make_bundle(model, rng, 4), make_bundle(model, rng, 5)])

    def test_gradients_flow_through_padding(self, rng):
        model = FlowModel(TINY, seed=0, toy_vocab=["a", "b"])
        b1 = model.conditioner.assemble(4, instruction="a b")
        b2 = model.conditioner.assemble(4, instruction="a")
        high, _, _ = collate_bundles([b1, b2])
        tsum(high * high).backward()
        assert model.params["mm_toy.table"].tensor.grad is not None


class TestFullGradcheck:
    def test_forward_and_loss_gradcheck(self, rng):
        """Full-model analytic gradients at toy dims, validated in float64."""
        cfg = ModelConfig(
            d_lat=2, d_mel=2, d_sync=1, d_mm=3, d_trans=3, d_high=4,
            width=4, depth=1, heads=2, mlp_ratio=2, time_basis=4,
        )
        model = FlowModel(cfg, seed=5, toy_vocab=["dog"], dtype=np.float64)
        T = 2
        bundle = model.conditioner.assemble(T, instruction="dog", transcript="ab")
        x_t = rng.standard_normal((T, cfg.d_lat))
        target = rng.standard_normal((T, cfg.d_lat))
        tensors = [p.tensor for p in model.params]

        def f(*_):
            b = model.conditioner.assemble(T, instruction="dog", transcript="ab")
            out = forward_one(x_t, 0.37, b, model)
            diff = out - Tensor(target[None])
            from rfaudio.autodiff import tmean

            return tmean(diff * diff)

        assert gradcheck(f, tensors) < 1e-4
