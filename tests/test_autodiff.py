import threading
import tracemalloc

import numpy as np
import pytest

from rfaudio.autodiff import (
    ATTENTION_BLOCK_ROWS,
    Tensor,
    concatenate,
    depthwise_conv1d,
    embedding,
    gelu,
    gradcheck,
    layer_norm,
    matmul,
    no_grad,
    reshape,
    scaled_dot_product_attention,
    stack,
    tmean,
    transpose,
    tsum,
)


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def sq(t):
    return t * t


def assert_gradcheck(f, tensors, tol=1e-5):
    err = gradcheck(f, tensors)
    assert err < tol, f"gradcheck rel err {err:.3e} >= {tol}"


class TestForward:
    def test_matmul_scalar_case(self):
        a = Tensor(np.array([[2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0]]), requires_grad=True)
        c = matmul(a, b)
        assert c.data[0, 0] == 6.0
        c.backward(np.ones((1, 1)))
        assert a.grad[0, 0] == 3.0
        assert b.grad[0, 0] == 2.0

    def test_layer_norm_standardizes(self, rng):
        x = Tensor(rng.standard_normal((6, 9)) * 3 + 1, requires_grad=True)
        g = Tensor(np.ones(9))
        b = Tensor(np.zeros(9))
        y = layer_norm(x, g, b).data
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_float32_stays_float32(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        y = gelu(x * 0.5 + 1.0)
        assert y.data.dtype == np.float32

    def test_no_grad_skips_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y._backward is None and not y.requires_grad


    def test_no_grad_nests(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad

    def test_no_grad_is_per_thread(self, rng):
        """A ``no_grad`` block held on one thread leaves another thread's tape recording."""
        entered, release = threading.Event(), threading.Event()

        def hold():
            with no_grad():
                entered.set()
                release.wait(30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(30)
            x = Tensor(rng.standard_normal(3), requires_grad=True)
            y = tsum(x * x)
            q = t64(rng, 1, 4, 2)
            attended = scaled_dot_product_attention(q, q, q)
        finally:
            release.set()
            holder.join(30)
        assert not holder.is_alive()
        assert y.requires_grad and attended.requires_grad
        y.backward()
        assert np.array_equal(x.grad, 2.0 * x.data)


class TestGradcheckOps:
    def test_polynomial_reference(self, rng):
        x = t64(rng, 5)
        assert gradcheck(lambda ts: tsum(ts[0] * ts[0]), [x]) < 1e-9

    def test_add_mul_broadcast(self, rng):
        a = t64(rng, 3, 1)
        b = t64(rng, 4)
        assert_gradcheck(lambda ts: tsum((ts[0] + ts[1]) * ts[1] + ts[0] * 0.5), [a, b])

    def test_matmul_batched(self, rng):
        a = t64(rng, 2, 3, 4)
        b = t64(rng, 4, 2)
        assert_gradcheck(lambda ts: tsum(matmul(ts[0], ts[1])), [a, b])

    def test_reshape_transpose(self, rng):
        a = t64(rng, 2, 3, 4)
        assert_gradcheck(
            lambda ts: tsum(sq(transpose(reshape(ts[0], (6, 4)), (1, 0)))), [a]
        )

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_concatenate(self, rng, axis):
        a = t64(rng, 2, 3)
        b = t64(rng, 2, 3)
        assert_gradcheck(lambda ts: tsum(sq(concatenate([ts[0], ts[1]], axis=axis))), [a, b])

    def test_stack(self, rng):
        a = t64(rng, 3)
        b = t64(rng, 3)
        assert_gradcheck(lambda ts: tsum(sq(stack([ts[0], ts[1]], axis=0))), [a, b])

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), (-1, False)])
    def test_reductions(self, rng, axis, keepdims):
        a = t64(rng, 3, 4)
        assert_gradcheck(lambda ts: tsum(sq(tmean(ts[0], axis, keepdims))), [a])

    def test_layer_norm(self, rng):
        x = t64(rng, 4, 6)
        g = t64(rng, 6)
        b = t64(rng, 6)
        w = Tensor(rng.standard_normal((4, 6)))
        assert_gradcheck(lambda ts: tsum(layer_norm(ts[0], ts[1], ts[2]) * w), [x, g, b])

    def test_gelu(self, rng):
        a = t64(rng, 4, 3)
        assert_gradcheck(lambda ts: tsum(gelu(ts[0])), [a])

    def test_embedding(self, rng):
        table = t64(rng, 6, 4)
        idx = np.array([0, 3, 3, 5])
        w = Tensor(rng.standard_normal((4, 4)))
        assert_gradcheck(lambda ts: tsum(embedding(ts[0], idx) * w), [table])

    def test_depthwise_conv1d(self, rng):
        x = t64(rng, 5, 2)
        w = t64(rng, 3, 2)
        assert_gradcheck(lambda ts: tsum(sq(depthwise_conv1d(ts[0], ts[1]))), [x, w])

    def test_depthwise_conv1d_batched(self, rng):
        x = t64(rng, 2, 4, 3)
        w = t64(rng, 7, 3)
        assert_gradcheck(lambda ts: tsum(depthwise_conv1d(ts[0], ts[1])), [x, w])

    def test_attention(self, rng):
        q = t64(rng, 2, 3, 4)
        k = t64(rng, 2, 3, 4)
        v = t64(rng, 2, 3, 4)
        assert_gradcheck(
            lambda ts: tsum(sq(scaled_dot_product_attention(ts[0], ts[1], ts[2]))),
            [q, k, v],
        )

    def test_attention_masked(self, rng):
        q = t64(rng, 2, 3, 4)
        k = t64(rng, 2, 5, 4)
        v = t64(rng, 2, 5, 4)
        mask = np.zeros((2, 3, 5))
        mask[:, :, 3:] = -1e9
        assert_gradcheck(
            lambda ts: tsum(scaled_dot_product_attention(ts[0], ts[1], ts[2], mask)),
            [q, k, v],
        )


def attention_reference(q, k, v, mask):
    """softmax(q k^T / sqrt(dh) + mask) v in plain numpy, all rows at once."""
    s = q @ np.swapaxes(k, -1, -2) / np.sqrt(q.shape[-1]) + mask
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)) @ v


def attention_case(rng, T, mask_shape):
    """float64 q, k, v and an additive mask with some disabled keys.

    A ``[B, 1, 1, L]`` mask goes with 4-D ``[B, H, T, dh]`` inputs, a
    ``[B, T, L]`` mask with 3-D ``[B, T, dh]`` inputs.
    """
    B, H, L, dh = 2, 3, 7, 4
    lead = (B, H) if len(mask_shape) == 4 else (B,)
    q, k, v = (t64(rng, *lead, n, dh) for n in (T, L, L))
    mask = rng.standard_normal(mask_shape)
    mask[rng.random(mask_shape) < 0.3] = -1e9
    return q, k, v, mask


ATTENTION_ROWS = [1, ATTENTION_BLOCK_ROWS, ATTENTION_BLOCK_ROWS + 1]


class TestFusedAttention:
    @pytest.mark.parametrize("T", ATTENTION_ROWS)
    @pytest.mark.parametrize("mask_kind", ["keys", "rows"])
    @pytest.mark.parametrize("taped", [False, True])
    def test_matches_numpy(self, rng, T, mask_kind, taped):
        shape = (2, 1, 1, 7) if mask_kind == "keys" else (2, T, 7)
        q, k, v, mask = attention_case(rng, T, shape)
        want = attention_reference(q.data, k.data, v.data, mask)
        if taped:
            out = scaled_dot_product_attention(q, k, v, mask)
            assert out.requires_grad
        else:
            with no_grad():
                out = scaled_dot_product_attention(q, k, v, mask)
            assert out._backward is None
        assert out.data.shape == want.shape and out.data.dtype == np.float64
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("T", ATTENTION_ROWS[1:])
    def test_directional_gradient_across_blocks(self, rng, T):
        """Central difference along one random direction per input, at a
        size too large for the coordinate-wise gradcheck."""
        q, k, v, mask = attention_case(rng, T, (2, 1, 1, 7))
        w = rng.standard_normal((2, 3, T, 4))
        inputs = [q, k, v]

        def f():
            return tsum(scaled_dot_product_attention(q, k, v, mask) * Tensor(w))

        f().backward()
        eps = 1e-5
        for t in inputs:
            d = rng.standard_normal(t.data.shape)
            base = t.data.copy()
            with no_grad():
                t.data = base + eps * d
                plus = float(f().data)
                t.data = base - eps * d
                minus = float(f().data)
            t.data = base
            num = (plus - minus) / (2 * eps)
            ana = float(np.sum(t.grad * d))
            assert abs(ana - num) <= 1e-5 * max(abs(ana), abs(num))

    @pytest.mark.parametrize("T", ATTENTION_ROWS)
    @pytest.mark.parametrize("taped", [False, True])
    def test_heads_match_manual_split(self, rng, T, taped):
        """heads=H on [B, T, H*dh] inputs equals splitting the heads with tape
        ops, attending with heads=1 and merging them back."""
        B, H, L, dh = 2, 3, 7, 4
        q, k, v = (t64(rng, B, n, H * dh) for n in (T, L, L))
        mask = np.where(rng.random((B, 1, 1, L)) < 0.3, -1e9, 0.0)
        w = Tensor(rng.standard_normal((B, T, H * dh)))

        def split(t, n):
            return transpose(reshape(t, (B, n, H, dh)), (0, 2, 1, 3))

        def attend(fused):
            if fused:
                return scaled_dot_product_attention(q, k, v, mask, heads=H)
            out = scaled_dot_product_attention(split(q, T), split(k, L), split(v, L), mask)
            return reshape(transpose(out, (0, 2, 1, 3)), (B, T, H * dh))

        results = []
        for fused in (True, False):
            for t in (q, k, v):
                t.zero_grad()
            if taped:
                out = attend(fused)
                tsum(out * w).backward()
                results.append([out.data, q.grad, k.grad, v.grad])
            else:
                with no_grad():
                    results.append([attend(fused).data])
        for got, want in zip(*results):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_untaped_memory_is_one_block(self, rng):
        """A 10 s clip's self-attention never holds its [1, 4, T, T] scores."""
        B, H, T, dh = 1, 4, 1719, 16
        q, k, v = (Tensor(rng.standard_normal((B, H, T, dh))) for _ in range(3))
        score_bytes = B * H * T * T * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            with no_grad():
                out = scaled_dot_product_attention(q, k, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.shape == (B, H, T, dh)
        assert peak < score_bytes / 4, f"peak {peak / 1e6:.1f} MB"


class TestBackwardExactness:
    def test_concat_backward_splits_bitwise(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        g = rng.standard_normal((5, 4))
        out.backward(g)
        assert np.array_equal(a.grad, g[:3])
        assert np.array_equal(b.grad, g[3:])
        assert np.array_equal(np.concatenate([a.grad, b.grad], axis=0), g)

    def test_grad_accumulates_across_uses(self, rng):
        x = Tensor(np.ones(3), requires_grad=True)
        y = tsum(x * 2.0) + tsum(x * 3.0)
        y.backward()
        assert np.allclose(x.grad, 5.0)

    def test_backward_releases_non_leaf_gradients(self, rng):
        """Intermediate gradients are dropped once spent; leaves keep and accumulate theirs."""
        x = t64(rng, 3, 4)
        w = t64(rng, 4, 2)
        h = matmul(x, w)
        y = sq(h)
        loss = tsum(y)
        loss.backward()
        assert h.grad is None and y.grad is None and loss.grad is None
        want = x.data.T @ (2.0 * h.data)
        np.testing.assert_allclose(w.grad, want, rtol=1e-12)
        assert x.grad.shape == (3, 4)
        loss.backward()
        assert h.grad is None and y.grad is None and loss.grad is None
        np.testing.assert_allclose(w.grad, 2.0 * want, rtol=1e-12)

    def test_scalar_backward_requires_scalar(self, rng):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()
