"""Tests for the flow objective, trainer, sampler, and latent codec."""

import hashlib
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rfaudio import autodiff, binfile
from rfaudio.autodiff import Tensor
from rfaudio.conditioning import ConditioningBundle, FeatureSeq, FrameFeatures
from rfaudio.config import RunConfig
from rfaudio.data import ToyModesDataset, build_toy_model
from rfaudio.flow import (
    CodecError,
    LatentCodec,
    SamplerConfig,
    TrainConfig,
    TrainingDiverged,
    cfg_velocity,
    interpolate,
    load_model,
    rf_loss,
    sample,
    sample_batch,
    save_model,
    target_velocity,
    train,
)
from rfaudio.model import FlowModel, ModelConfig
from rfaudio.spectral import MelConfig, MelSpectrogram

TINY = ModelConfig(
    d_lat=3, d_mel=3, d_sync=2, d_mm=4, d_trans=4, d_high=6,
    width=8, depth=2, heads=2, time_basis=8,
)


def empty_bundle(T, d_high=6, d_low=5):
    return ConditioningBundle(FeatureSeq.empty(d_high), FrameFeatures.zeros(T, d_low))


class TestPathAlgebra:
    def test_boundaries(self, rng):
        x0 = rng.standard_normal((4, 3))
        x1 = rng.standard_normal((4, 3))
        assert np.array_equal(interpolate(x0, x1, 0.0), x0)
        assert np.array_equal(interpolate(x0, x1, 1.0), x1)

    def test_midpoint(self):
        x0 = np.zeros((2, 2))
        x1 = np.ones((2, 2))
        assert np.all(interpolate(x0, x1, 0.5) == 0.5)

    def test_t_out_of_range(self, rng):
        x = rng.standard_normal((2, 2))
        with pytest.raises(ValueError):
            interpolate(x, x, 1.5)
        with pytest.raises(ValueError):
            interpolate(x, x, -0.1)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            interpolate(rng.standard_normal((2, 2)), rng.standard_normal((3, 2)), 0.5)
        with pytest.raises(ValueError):
            target_velocity(rng.standard_normal((2, 2)), rng.standard_normal((3, 2)))

    def test_velocity_is_difference(self, rng):
        x0 = rng.standard_normal((4, 3))
        assert np.all(target_velocity(x0, x0) == 0.0)
        assert np.all(target_velocity(np.zeros((2, 2)), np.ones((2, 2))) == 1.0)

    def test_path_identity(self, rng):
        x0 = rng.standard_normal((5, 4))
        x1 = rng.standard_normal((5, 4))
        for t in rng.uniform(0, 1, size=10):
            lhs = interpolate(x0, x1, t) + (1.0 - t) * target_velocity(x0, x1)
            np.testing.assert_allclose(lhs, x1, atol=1e-12)


class TestCfgVelocity:
    def test_scale_one_is_conditional_exactly(self, rng):
        c = rng.standard_normal((3, 2))
        u = rng.standard_normal((3, 2))
        assert np.array_equal(cfg_velocity(c, u, 1.0), c)

    def test_scale_zero_is_unconditional_exactly(self, rng):
        c = rng.standard_normal((3, 2))
        u = rng.standard_normal((3, 2))
        assert np.array_equal(cfg_velocity(c, u, 0.0), u)

    def test_equal_fields_fixed_point(self, rng):
        v = rng.standard_normal((3, 2))
        for scale in (0.0, 1.0, 2.5, 6.0):
            assert np.array_equal(cfg_velocity(v, v, scale), v)

    def test_extrapolation(self):
        c = np.full((1, 1), 2.0)
        u = np.full((1, 1), 1.0)
        assert cfg_velocity(c, u, 6.0)[0, 0] == pytest.approx(7.0)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            cfg_velocity(rng.standard_normal((2, 2)), rng.standard_normal((3, 2)), 2.0)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.steps == 100
        assert cfg.guidance_scale == 6.0
        assert cfg.solver == "euler"

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(steps=0)
        with pytest.raises(ValueError):
            SamplerConfig(guidance_scale=-1.0)
        with pytest.raises(ValueError):
            SamplerConfig(solver="rk4")


class ConstantBatchFieldModel:
    """Analytic velocity field: _forward returns one fixed v for every item.

    With v = x1 - x0, Euler integrates it exactly.
    """

    def __init__(self, v, dtype=np.float32):
        self.v = np.asarray(v, dtype=np.float64)
        self.dtype = dtype
        self.count = 0

    def _forward(self, x_t, ts, high, valid, low):
        self.count += 1
        B = x_t.data.shape[0]
        return Tensor(np.broadcast_to(self.v, (B,) + self.v.shape).copy())


class LinearFieldModel:
    """v(x, t) = x, so the backwards solution contracts by e^{-1}."""

    dtype = np.float32

    def __init__(self):
        self.count = 0

    def _forward(self, x_t, ts, high, valid, low):
        self.count += 1
        return Tensor(np.asarray(x_t.data, dtype=np.float64).copy())


class TestSampler:
    @pytest.mark.parametrize("steps", [1, 10, 100])
    def test_oracle_recovery(self, rng, steps):
        shape = (4, 3)
        seed = 123
        x0 = rng.standard_normal(shape)
        x1 = np.random.default_rng(seed).standard_normal(shape)
        model = ConstantBatchFieldModel(x1 - x0)
        out = sample(
            model,
            empty_bundle(4, d_low=5),
            shape,
            SamplerConfig(steps=steps, guidance_scale=1.0, seed=seed),
        )
        assert np.max(np.abs(out - x0)) < 1e-9

    def test_scale_one_single_forward_per_step(self):
        model = ConstantBatchFieldModel(np.zeros((2, 2)))
        sample(model, empty_bundle(2), (2, 2), SamplerConfig(steps=7, guidance_scale=1.0))
        assert model.count == 7

    def test_guided_two_forwards_per_step(self):
        model = ConstantBatchFieldModel(np.zeros((2, 2)))
        sample(model, empty_bundle(2), (2, 2), SamplerConfig(steps=7, guidance_scale=6.0))
        assert model.count == 14

    def test_midpoint_two_evals_per_step(self):
        model = ConstantBatchFieldModel(np.zeros((2, 2)))
        sample(
            model,
            empty_bundle(2),
            (2, 2),
            SamplerConfig(steps=5, guidance_scale=1.0, solver="midpoint"),
        )
        assert model.count == 10

    def test_solver_orders_on_linear_field(self):
        """Euler error halves with double steps; midpoint is far smaller."""
        shape = (1, 1)
        seed = 4
        x1 = np.random.default_rng(seed).standard_normal(shape)
        exact = x1 * np.exp(-1.0)

        def err(steps, solver):
            out = sample(
                LinearFieldModel(),
                empty_bundle(1),
                shape,
                SamplerConfig(steps=steps, guidance_scale=1.0, solver=solver, seed=seed),
            )
            return float(np.abs(out - exact).item())

        e50, e100 = err(50, "euler"), err(100, "euler")
        assert 1.8 < e50 / e100 < 2.2
        assert err(50, "midpoint") < e50 / 20

    def test_deterministic_given_seed(self, rng):
        model = FlowModel(TINY, seed=0)
        model.params["dit.out.w"].data[...] = rng.standard_normal(
            (TINY.width, TINY.d_lat)
        ).astype(np.float32)
        bundle = model.conditioner.assemble(3)
        cfg = SamplerConfig(steps=5, guidance_scale=2.0, seed=11)
        a = sample(model, bundle, (3, 3), cfg)
        b = sample(model, bundle, (3, 3), cfg)
        assert np.array_equal(a, b)
        c = sample(model, bundle, (3, 3), SamplerConfig(steps=5, guidance_scale=2.0, seed=12))
        assert not np.array_equal(a, c)

    def test_frame_mismatch_rejected(self):
        model = ConstantBatchFieldModel(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sample(model, empty_bundle(3), (2, 2), SamplerConfig(steps=1))


class TestSampleBatch:
    def test_oracle_recovery_per_item(self, rng):
        B, T, D = 5, 4, 3
        seed = 123
        v = rng.standard_normal((T, D))
        x1 = np.random.default_rng(seed).standard_normal((B, T, D))
        model = ConstantBatchFieldModel(v)
        bundles = [empty_bundle(T, d_low=5) for _ in range(B)]
        out = sample_batch(
            model, bundles, (T, D), SamplerConfig(steps=10, guidance_scale=1.0, seed=seed)
        )
        assert out.shape == (B, T, D)
        assert np.max(np.abs(out - (x1 - v))) < 1e-9

    def test_guided_outputs_pinned(self):
        """Guided Euler and midpoint outputs of a seeded model, as recorded
        from the separate single-item sampler this one replaced."""
        expected = {
            "euler": [
                [-0.21204325324731754, 2.6869672918917304, 0.8539396121352584],
                [-1.823514217327861, 0.5666415858113086, -1.500295771231532],
                [-0.5862421248703442, 1.2764083249943843, 0.6191755241914387],
            ],
            "midpoint": [
                [-0.7752172864972285, 2.506188408164418, 1.119625398046785],
                [-1.6865938370170803, -0.2620514232691872, -2.3503510089357853],
                [-1.447979631003842, 1.5456258183591935, 0.48593726077784527],
            ],
        }
        for solver, want in expected.items():
            model = FlowModel(TINY, seed=0, toy_vocab=["dog", "cat"])
            model.params["dit.out.w"].data[...] = np.random.default_rng(5).standard_normal(
                (TINY.width, TINY.d_lat)
            ).astype(np.float32)
            bundle = model.conditioner.assemble(3, instruction="dog", transcript="hi")
            cfg = SamplerConfig(steps=5, guidance_scale=2.0, seed=11, solver=solver)
            np.testing.assert_allclose(sample(model, bundle, (3, 3), cfg), want, rtol=1e-6)

    @pytest.mark.parametrize("wrong", ["latent", "frame_stream", "context"])
    def test_width_mismatch_rejected(self, wrong):
        model = FlowModel(TINY, seed=0)
        d_lat, d_low, d_high = TINY.d_lat, TINY.d_low, TINY.d_high
        if wrong == "latent":
            d_lat += 1
        elif wrong == "frame_stream":
            d_low += 1
        else:
            d_high += 1
        high = FeatureSeq(np.ones((2, d_high), dtype=np.float32))
        bundle = ConditioningBundle(high, FrameFeatures.zeros(3, d_low))
        cfg = SamplerConfig(steps=1)
        with pytest.raises(ValueError, match="width"):
            sample(model, bundle, (3, d_lat), cfg)
        with pytest.raises(ValueError, match="width"):
            sample_batch(model, [bundle, bundle], (3, d_lat), cfg)

    def test_deterministic_and_items_distinct(self):
        model = FlowModel(TINY, seed=0, toy_vocab=["dog", "cat"])
        bundles = [
            model.conditioner.assemble(2, instruction="dog"),
            model.conditioner.assemble(2, instruction="cat"),
        ]
        cfg = SamplerConfig(steps=4, guidance_scale=6.0, seed=7)
        a = sample_batch(model, bundles, (2, 3), cfg)
        b = sample_batch(model, bundles, (2, 3), cfg)
        assert np.array_equal(a, b)
        assert not np.array_equal(a[0], a[1])

    def test_forward_count(self):
        model = ConstantBatchFieldModel(np.zeros((2, 2)))
        bundles = [empty_bundle(2) for _ in range(3)]
        sample_batch(model, bundles, (2, 2), SamplerConfig(steps=6, guidance_scale=1.0))
        assert model.count == 6
        model.count = 0
        sample_batch(model, bundles, (2, 2), SamplerConfig(steps=6, guidance_scale=6.0))
        assert model.count == 12

    def test_validation_errors(self):
        model = ConstantBatchFieldModel(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="at least one"):
            sample_batch(model, [], (2, 2))
        with pytest.raises(ValueError, match="frames"):
            sample_batch(model, [empty_bundle(3)], (2, 2), SamplerConfig(steps=1))


class OracleBatchModel:
    """Stands in for the network inside rf_loss with preset outputs."""

    def __init__(self, config, target):
        self.config = config
        self.dtype = np.float32
        self._target = target

    def _forward(self, x_t, ts, high, valid, low):
        return Tensor(self._target)


class TestRfLoss:
    def make_batch(self, model, rng, n, T=2):
        batch = []
        for _ in range(n):
            x0 = rng.standard_normal((T, model.config.d_lat)).astype(np.float32)
            batch.append((x0, model.conditioner.assemble(T)))
        return batch

    def test_oracle_model_zero_loss(self, rng):
        model = FlowModel(TINY, seed=0)
        batch = self.make_batch(model, rng, 3)
        seed = 77
        replay = np.random.default_rng(seed)
        targets = []
        for x0, _ in batch:
            t = float(replay.uniform())
            x1 = replay.standard_normal(x0.shape)
            targets.append((x1 - x0.astype(np.float64)).astype(np.float32))
        oracle = OracleBatchModel(TINY, np.stack(targets))
        loss = rf_loss(batch, oracle, np.random.default_rng(seed), dropout_p=0.0)
        assert float(loss.data) == 0.0

    def test_zero_model_unit_variance_loss(self):
        rng = np.random.default_rng(2)
        model = FlowModel(TINY, seed=0)  # zero-init head predicts exactly 0
        batch = []
        for _ in range(60):
            x0 = np.zeros((20, TINY.d_lat), dtype=np.float32)
            batch.append((x0, model.conditioner.assemble(20)))
        loss = rf_loss(batch, model, rng, dropout_p=0.0)
        assert abs(float(loss.data) - 1.0) < 0.05

    def test_loss_non_negative(self, rng):
        model = FlowModel(TINY, seed=1)
        loss = rf_loss(self.make_batch(model, rng, 2), model, rng)
        assert float(loss.data) >= 0.0

    def test_empty_batch_rejected(self, rng):
        model = FlowModel(TINY, seed=0)
        with pytest.raises(ValueError):
            rf_loss([], model, rng)

    def test_width_mismatch_rejected(self, rng):
        model = FlowModel(TINY, seed=0)
        bad = rng.standard_normal((2, TINY.d_lat + 1)).astype(np.float32)
        with pytest.raises(ValueError):
            rf_loss([(bad, model.conditioner.assemble(2))], model, rng)

    def test_reused_bundle_gets_fresh_gradients(self):
        """A bundle reused across steps carries no gradient from the last backward."""
        model = FlowModel(TINY, seed=0, toy_vocab=["dog"])
        model.out_w.data[...] = np.random.default_rng(4).standard_normal(model.out_w.shape)
        bundle = model.conditioner.assemble(2, instruction="dog")
        x0 = np.random.default_rng(6).standard_normal((2, TINY.d_lat)).astype(np.float32)
        grads = []
        for _ in range(2):
            model.params.zero_grads()
            rf_loss([(x0, bundle)], model, np.random.default_rng(5), dropout_p=0.0).backward()
            grads.append({p.name: p.tensor.grad.copy() for p in model.params
                          if p.tensor.grad is not None})
        assert grads[0].keys() == grads[1].keys()
        assert np.any(grads[0]["mm_toy.table"] != 0.0)
        assert np.any(grads[0]["cond.mm_adapter.w"] != 0.0)
        for name, first in grads[0].items():
            np.testing.assert_array_equal(grads[1][name], first, err_msg=name)

    def test_gradients_populated(self, rng):
        model = FlowModel(TINY, seed=0)
        loss = rf_loss(self.make_batch(model, rng, 2), model, rng, dropout_p=0.0)
        loss.backward()
        assert model.params["dit.in.w"].tensor.grad is not None

    def test_backward_memory_excludes_spent_gradients(self):
        """A taped default-model step's backward holds far less than one gradient
        per tape node, which is what keeping every intermediate gradient costs."""
        T = 200
        model = FlowModel(ModelConfig(), seed=0)
        x0 = np.random.default_rng(0).standard_normal((T, model.config.d_lat))
        batch = [(x0.astype(np.float32), model.conditioner.assemble(T))]
        loss = rf_loss(batch, model, np.random.default_rng(1), dropout_p=0.0)
        tape_bytes, seen, work = 0, set(), [loss]
        while work:
            node = work.pop()
            if id(node) not in seen:
                seen.add(id(node))
                tape_bytes += node.data.nbytes if node._parents else 0
                work.extend(node._parents)
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.params["dit.in.w"].tensor.grad is not None
        assert peak < 0.75 * tape_bytes, f"peak {peak / 1e6:.1f} MB, tape {tape_bytes / 1e6:.1f} MB"

    def test_rf_loss_pinned(self):
        """Loss and gradients of a seeded, perturbed model, compared exactly
        against values recorded before the loss was routed through
        ``interpolate`` and ``target_velocity``."""
        expected_grads = {
            "dit.out.b": [-0.7505643963813782, 0.14022362232208252, -0.4845234453678131],
            "dit.in.w": [-0.10630618780851364, 0.25830990076065063, 0.131429523229599],
            "time.w2": [-0.02943209931254387, 0.5499884486198425, 0.14342054724693298],
            "cond.mm_adapter.w": [0.00852079875767231, 0.018465161323547363,
                                  0.03501354902982712],
            "transcript.block0.expand_w": [-0.9164748787879944, -0.004311467055231333,
                                           0.2249583750963211],
        }
        model = FlowModel(TINY, seed=0, toy_vocab=["dog", "cat"])
        noise = np.random.default_rng(5)
        for p in model.params:
            p.data[...] += 0.3 * noise.standard_normal(p.data.shape).astype(np.float32)
        data = np.random.default_rng(9)
        batch = [
            (data.standard_normal((4, 3)).astype(np.float32),
             model.conditioner.assemble(4, instruction=words, transcript="hi"))
            for words in ("dog", "cat", "dog cat")
        ]
        loss = rf_loss(batch, model, np.random.default_rng(21), dropout_p=0.5)
        loss.backward()
        assert float(loss.data) == 3.0377659797668457
        for name, want in expected_grads.items():
            got = model.params[name].tensor.grad.ravel()[:3]
            assert got.tolist() == want, name


class TestTrain:
    def make_dataset(self, model, rng, n_items=4, T=2):
        items = []
        for _ in range(n_items):
            x0 = rng.standard_normal((T, model.config.d_lat)).astype(np.float32)
            items.append((x0, model.conditioner.assemble(T)))
        return items

    def test_loss_decreases_on_overfit(self, rng):
        model = FlowModel(TINY, seed=0)
        dataset = self.make_dataset(model, rng, n_items=2)
        result = train(
            model,
            dataset,
            steps=300,
            opt=TrainConfig(lr=1e-3, batch_size=4, dropout_p=0.0, log_every=0),
            seed=1,
        )
        initial = np.mean(result.losses[:50])
        final = np.mean(result.losses[-50:])
        assert final < 0.75 * initial

    def test_deterministic_given_seed(self, rng):
        datasets = []
        models = []
        for _ in range(2):
            model = FlowModel(TINY, seed=9, toy_vocab=["dog"])
            data_rng = np.random.default_rng(3)
            dataset = [
                (
                    data_rng.standard_normal((2, TINY.d_lat)).astype(np.float32),
                    model.conditioner.assemble(2, instruction="dog"),
                )
                for _ in range(3)
            ]
            models.append(model)
            datasets.append(dataset)
        r1 = train(models[0], datasets[0], 40, TrainConfig(batch_size=2, log_every=0), seed=5)
        r2 = train(models[1], datasets[1], 40, TrainConfig(batch_size=2, log_every=0), seed=5)
        assert r1.losses == r2.losses
        for p, q in zip(models[0].params, models[1].params):
            assert np.array_equal(p.data, q.data)
            assert np.array_equal(p.m, q.m)

    def test_lr_zero_leaves_parameters(self, rng):
        model = FlowModel(TINY, seed=0)
        dataset = self.make_dataset(model, rng)
        before = {p.name: p.data.copy() for p in model.params}
        train(model, dataset, 5, TrainConfig(lr=0.0, batch_size=2, log_every=0), seed=0)
        for p in model.params:
            assert np.array_equal(p.data, before[p.name])

    def test_divergence_halts_with_step(self, rng):
        model = FlowModel(TINY, seed=0)
        huge = np.full((2, TINY.d_lat), 1e20, dtype=np.float32)
        dataset = [(huge, model.conditioner.assemble(2))]
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged) as info:
            train(model, dataset, 3, TrainConfig(batch_size=1, log_every=0), seed=0)
        assert info.value.step == 0

    def test_toy_step_op_budget(self, monkeypatch):
        """One training step of the acceptance-test toy model, batch 8,
        records at most 140 tape ops."""
        config = ModelConfig(
            d_lat=2, d_mel=2, d_sync=1, d_mm=16, d_trans=16, d_high=64,
            width=64, depth=4, heads=4, mlp_ratio=4, time_basis=64,
        )
        model = build_toy_model(replace(RunConfig(), model=config))
        ops = []
        make = autodiff._make

        def counting(name, *args):
            ops.append(name)
            return make(name, *args)

        monkeypatch.setattr(autodiff, "_make", counting)
        train(model, ToyModesDataset(model), 1, TrainConfig(batch_size=8, log_every=0))
        assert 0 < len(ops) <= 140, sorted(set(ops))

    def test_empty_dataset_rejected(self):
        model = FlowModel(TINY, seed=0)
        with pytest.raises(ValueError):
            train(model, [], 2, TrainConfig(batch_size=1, log_every=0))

    def test_step_counter_advances(self, rng):
        model = FlowModel(TINY, seed=0)
        dataset = self.make_dataset(model, rng)
        train(model, dataset, 7, TrainConfig(batch_size=2, log_every=0), seed=0)
        assert model.step == 7


def make_corpus(rng, cfg, n=3, frames=20):
    out = []
    for _ in range(n):
        arr = rng.uniform(-5.0, 3.0, size=(frames, cfg.n_mels)).astype(np.float32)
        out.append(MelSpectrogram(cfg, arr))
    return out


class TestLatentCodec:
    CFG = MelConfig(sample_rate=8000, n_fft=256, hop=64, n_mels=12)

    def test_round_trip_bit_exact(self, rng):
        codec = LatentCodec(self.CFG).fit(make_corpus(rng, self.CFG))
        mel = make_corpus(rng, self.CFG, n=1)[0]
        back = codec.decode(codec.encode(mel))
        assert np.array_equal(back.frames, mel.frames)
        assert back.config == self.CFG

    def test_corpus_statistics(self, rng):
        corpus = make_corpus(rng, self.CFG, n=4, frames=50)
        codec = LatentCodec(self.CFG).fit(corpus)
        encoded = np.concatenate([codec.encode(m) for m in corpus], axis=0)
        assert np.max(np.abs(encoded.mean(axis=0))) < 1e-6
        assert np.max(np.abs(encoded.std(axis=0) - 1.0)) < 1e-6

    def test_unfitted_errors(self, rng):
        codec = LatentCodec(self.CFG)
        mel = make_corpus(rng, self.CFG, n=1)[0]
        with pytest.raises(CodecError):
            codec.encode(mel)
        with pytest.raises(CodecError):
            codec.decode(np.zeros((2, self.CFG.n_mels)))

    def test_stats_dict_round_trip(self, rng):
        codec = LatentCodec(self.CFG).fit(make_corpus(rng, self.CFG))
        blob = json.dumps(codec.to_dict())
        clone = LatentCodec.from_dict(json.loads(blob))
        assert np.array_equal(clone.mean, codec.mean)
        assert np.array_equal(clone.std, codec.std)
        assert clone.config == self.CFG

    def test_decode_clips_at_log_floor(self, rng):
        codec = LatentCodec(self.CFG).fit(make_corpus(rng, self.CFG))
        very_low = np.full((2, self.CFG.n_mels), -100.0)
        mel = codec.decode((very_low - codec.mean) / codec.std)
        floor = np.float32(np.log(np.float64(self.CFG.log_floor)))
        assert np.all(mel.frames == floor)

    def test_fit_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            LatentCodec(self.CFG).fit([])

    def test_config_mismatch_rejected(self, rng):
        other = MelConfig(sample_rate=8000, n_fft=256, hop=64, n_mels=10)
        codec = LatentCodec(self.CFG).fit(make_corpus(rng, self.CFG))
        with pytest.raises(ValueError):
            codec.encode(make_corpus(rng, other, n=1)[0])
        # same channel count, other framing: fit refuses it as encode does
        other_hop = MelConfig(sample_rate=8000, n_fft=256, hop=32, n_mels=12)
        for mels in (make_corpus(rng, other_hop, n=1), make_corpus(rng, other, n=1)):
            with pytest.raises(ValueError, match="configuration"):
                LatentCodec(self.CFG).fit(make_corpus(rng, self.CFG) + mels)
            with pytest.raises(ValueError, match="configuration"):
                codec.encode(mels[0])


class TestSaveLoad:
    def test_full_round_trip(self, tmp_path, rng):
        model = FlowModel(TINY, seed=0, toy_vocab=["dog", "bark"])
        dataset = [
            (
                rng.standard_normal((2, TINY.d_lat)).astype(np.float32),
                model.conditioner.assemble(2, instruction="dog"),
            )
        ]
        train(model, dataset, 3, TrainConfig(batch_size=1, log_every=0), seed=2)
        cfg = MelConfig(sample_rate=8000, n_fft=256, hop=64, n_mels=12)
        codec = LatentCodec(cfg).fit(make_corpus(rng, cfg))
        path = tmp_path / "model.ckpt"
        save_model(path, model, codec, seed=2)

        loaded, codec2, meta = load_model(path)
        assert loaded.step == model.step == 3
        assert loaded.config == model.config
        assert loaded.toy_vocab == ["dog", "bark"]
        for p in model.params:
            q = loaded.params[p.name]
            assert np.array_equal(p.data, q.data)
            assert np.array_equal(p.m, q.m)
            assert np.array_equal(p.v, q.v)
        assert np.array_equal(codec2.mean, codec.mean)
        assert np.array_equal(codec2.std, codec.std)

        bundle = model.conditioner.assemble(2, instruction="dog")
        bundle2 = loaded.conditioner.assemble(2, instruction="dog")
        sc = SamplerConfig(steps=4, guidance_scale=3.0, seed=6)
        assert np.array_equal(
            sample(model, bundle, (2, TINY.d_lat), sc),
            sample(loaded, bundle2, (2, TINY.d_lat), sc),
        )

    def test_update_after_load_matches_saved_model(self, tmp_path):
        """One more training step on the reloaded model equals the same step
        on the model that was saved: weights, moments and step counter."""
        model = FlowModel(TINY, seed=0, toy_vocab=["dog"])

        def dataset(m):
            data_rng = np.random.default_rng(3)
            return [
                (
                    data_rng.standard_normal((2, TINY.d_lat)).astype(np.float32),
                    m.conditioner.assemble(2, instruction="dog"),
                )
                for _ in range(3)
            ]

        opt = TrainConfig(batch_size=2, log_every=0)
        train(model, dataset(model), 3, opt, seed=2)
        path = tmp_path / "model.ckpt"
        save_model(path, model, seed=0)
        loaded, _, _ = load_model(path)
        train(model, dataset(model), 1, opt, seed=7)
        train(loaded, dataset(loaded), 1, opt, seed=7)
        assert loaded.step == model.step == 4
        for p in model.params:
            q = loaded.params[p.name]
            for got, want in ((q.data, p.data), (q.m, p.m), (q.v, p.v)):
                assert np.array_equal(got, want), p.name

    @pytest.mark.parametrize("config, seed, vocab, digest", [
        (ModelConfig(), 3, None,
         "dbf19196ebfcf748fd5b85cdede6ae33635db7bb2641057b74fc43b76825326d"),
        (ModelConfig(d_lat=2, d_mel=2), 7, [f"mode{k}" for k in range(8)],
         "feabad1d7c46aa00323400af991d843e46140395593547edd83934619ba5f37d"),
    ], ids=["default_seed3", "toy_vocab_seed7"])
    def test_fresh_checkpoint_bytes_pinned(self, tmp_path, config, seed, vocab, digest):
        """A freshly drawn model saves to the same bytes: the draw order, the
        float64 initialiser arithmetic, the cast to float32 and the record
        order are all pinned."""
        path = tmp_path / "model.ckpt"
        save_model(path, FlowModel(config, seed=seed, toy_vocab=vocab))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_sidecar_content(self, tmp_path, rng):
        model = FlowModel(TINY, seed=0)
        path = tmp_path / "model.ckpt"
        save_model(path, model, seed=4)
        meta = json.loads((tmp_path / "model.ckpt.json").read_text())
        assert meta["config"]["width"] == TINY.width
        assert meta["stats"] is None
        assert meta["seed"] == 4
        assert meta["checkpoint_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("failing_file", ["model.ckpt", "model.ckpt.json"])
    def test_failed_save_keeps_previous_files(self, tmp_path, monkeypatch, failing_file):
        """A save that dies partway through a file leaves the old checkpoint and sidecar."""
        path = tmp_path / "model.ckpt"
        old = FlowModel(TINY, seed=0, toy_vocab=["dog"])
        save_model(path, old, seed=1)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def open_failing_partway(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            if Path(file).name != f".{failing_file}.partial":
                return fh

            def writelines(chunks):
                fh.write(b"".join(chunks)[:20])
                raise OSError(28, "No space left on device")

            fh.writelines = writelines
            return fh

        monkeypatch.setattr(binfile, "open", open_failing_partway, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_model(path, FlowModel(TINY, seed=9, toy_vocab=["dog"]), seed=2)
        monkeypatch.undo()

        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert set(after) == {"model.ckpt", "model.ckpt.json"}
        assert after[failing_file] == before[failing_file]
        loaded, _, meta = load_model(path)
        assert meta["seed"] == 1
        if failing_file == "model.ckpt":
            assert after == before
            for p in old.params:
                assert np.array_equal(loaded.params[p.name].data, p.data)

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        model = FlowModel(TINY, seed=0, toy_vocab=["dog"])
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        meta = json.loads((tmp_path / "model.ckpt.json").read_text())
        meta["toy_vocab"] = None  # drops the table parameter from the rebuild
        (tmp_path / "model.ckpt.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_model(path)
