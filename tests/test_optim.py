import numpy as np
import pytest

from rfaudio.autodiff import NonFiniteError
from rfaudio.optim import (
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
