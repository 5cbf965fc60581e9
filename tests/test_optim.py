import numpy as np
import pytest

from rfaudio.autodiff import NonFiniteError
from rfaudio.optim import (
    ADAM_EPS,
    ADAM_WEIGHT_DECAY,
    ParamStore,
    adamw_step,
    load_checkpoint,
    save_checkpoint,
)


def make_store(rng, shapes):
    store = ParamStore()
    for i, shape in enumerate(shapes):
        store.create(f"p{i}", rng.standard_normal(shape).astype(np.float32))
    return store


class TestAdamW:
    def test_zero_grad_no_decay_is_identity(self, rng):
        store = make_store(rng, [(3, 2)])
        before = store["p0"].data.copy()
        adamw_step(store, step_index=1, lr=1e-3, weight_decay=0.0)
        assert np.array_equal(store["p0"].data, before)

    def test_decoupled_decay_only(self, rng):
        store = make_store(rng, [(4,)])
        before = store["p0"].data.copy()
        lr, wd = 1e-2, 1e-3
        adamw_step(store, step_index=1, lr=lr, weight_decay=wd)
        assert np.allclose(store["p0"].data, before * (1 - lr * wd), rtol=1e-6)

    def test_constant_gradient_step_magnitude(self, rng):
        store = make_store(rng, [(5,)])
        g = np.full(5, 0.37, dtype=np.float32)
        lr = 1e-3
        prev = store["p0"].data.copy()
        deltas = []
        for step in range(1, 301):
            store["p0"].tensor.grad = g.copy()
            adamw_step(store, step_index=step, lr=lr, weight_decay=0.0)
            deltas.append(np.abs(store["p0"].data - prev).max())
            prev = store["p0"].data.copy()
        # after the moments settle the step is lr * m_hat/(sqrt(v_hat)+eps) ~= lr
        assert deltas[-1] <= lr * (1 + 1e-4)
        assert deltas[-1] >= lr * 0.99

    def test_deterministic(self, rng):
        runs = []
        for _ in range(2):
            r = np.random.default_rng(7)
            store = make_store(r, [(6, 3), (2,)])
            for step in range(1, 20):
                for p in store:
                    p.tensor.grad = r.standard_normal(p.data.shape).astype(np.float32)
                adamw_step(store, step_index=step, lr=1e-3)
            runs.append([p.data.copy() for p in store])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_nonfinite_gradient_names_parameter(self, rng):
        store = make_store(rng, [(3,)])
        store["p0"].tensor.grad = np.array([1.0, np.nan, 0.0], dtype=np.float32)
        with pytest.raises(NonFiniteError, match="p0"):
            adamw_step(store, step_index=1)

    def test_flat_update_matches_per_parameter_loop(self, rng):
        """The packed update is bit-identical to AdamW applied one parameter
        at a time, including a parameter that never gets a gradient."""
        lr, beta1, beta2 = 1e-3, 0.9, 0.999
        store = make_store(rng, [(6, 3), (5,), (2, 2, 2), (4,)])
        ref = {p.name: [p.data.copy(), p.m.copy(), p.v.copy()] for p in store}
        for step in range(1, 31):
            bc1, bc2 = 1.0 - beta1**step, 1.0 - beta2**step
            for p in store:
                g = None if p.name == "p1" else rng.standard_normal(p.data.shape)
                p.tensor.grad = None if g is None else g.astype(np.float32)
                data, m, v = ref[p.name]
                g = np.zeros_like(data) if g is None else g.astype(np.float32)
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * (g * g)
                ref[p.name][0] = data * (1.0 - lr * ADAM_WEIGHT_DECAY) - lr * (m / bc1) / (
                    np.sqrt(v / bc2) + ADAM_EPS
                )
            adamw_step(store, step_index=step, lr=lr, beta1=beta1, beta2=beta2)
            for p in store:
                for got, want in zip((p.data, p.m, p.v), ref[p.name]):
                    assert got.dtype == np.float32
                    assert np.array_equal(got, want), (p.name, step)

    def test_flat_grad_layout_and_all_finite(self, rng):
        store = make_store(rng, [(2, 3), (4,)])
        store["p1"].tensor.grad = np.arange(4, dtype=np.float32)
        g = store.flat_grad()
        assert g.shape == (10,)
        assert not g[:6].any() and np.array_equal(g[6:], np.arange(4))
        assert store.all_finite()
        store["p0"].data[1, 2] = np.inf
        assert not store.all_finite()

    def test_step_index_starts_at_one(self, rng):
        store = make_store(rng, [(2,)])
        with pytest.raises(ValueError):
            adamw_step(store, step_index=0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        store = make_store(rng, [(3, 4), (7,), (2, 2, 2)])
        for step in range(1, 5):
            for p in store:
                p.tensor.grad = rng.standard_normal(p.data.shape).astype(np.float32)
            adamw_step(store, step_index=step)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, step=4)
        back, step = load_checkpoint(path)
        assert step == 4
        assert back.names() == store.names()
        for name in store.names():
            assert np.array_equal(back[name].data, store[name].data)
            assert np.array_equal(back[name].m, store[name].m)
            assert np.array_equal(back[name].v, store[name].v)
            assert back[name].data.dtype == np.float32

    def test_magic(self, tmp_path, rng):
        store = make_store(rng, [(2,)])
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, store, step=0)
        assert path.read_bytes()[:8] == b"RFADCKPT"

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    def test_truncated_rejected(self, tmp_path, rng):
        store = make_store(rng, [(64,)])
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, store, step=1)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        store = make_store(rng, [(3, 4), (7,)])
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, store, step=1)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    def test_float64_params_rejected(self, tmp_path):
        store = ParamStore()
        store.create("w", np.zeros(3, dtype=np.float64))
        with pytest.raises(ValueError, match="float32"):
            save_checkpoint(tmp_path / "f.ckpt", store, step=0)

    def test_duplicate_names_rejected(self):
        store = ParamStore()
        store.create("w", np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError, match="duplicate"):
            store.create("w", np.zeros(2, dtype=np.float32))
