import numpy as np
import pytest

from rfaudio.autodiff import (
    NonFiniteError,
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
    set_debug,
    softmax,
    stack,
    swap_last2,
    tmean,
    transpose,
    tsum,
)


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def sq(t):
    return t * t


def assert_gradcheck(f, tensors, tol=1e-5):
    err = gradcheck(f, tensors, eps=1e-5)
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

    def test_softmax_uniform(self):
        x = Tensor(np.zeros(7), requires_grad=True)
        y = softmax(x)
        assert np.allclose(y.data, 1 / 7)
        tsum(y).backward()
        assert np.allclose(x.grad, 0.0, atol=1e-12)

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

    def test_debug_mode_catches_nonfinite(self):
        set_debug(True)
        try:
            a = Tensor(np.full(3, 1e200))
            with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
                a * 1e200
        finally:
            set_debug(False)


class TestGradcheckOps:
    def test_polynomial_reference(self, rng):
        x = t64(rng, 5)
        assert gradcheck(lambda ts: tsum(ts[0] * ts[0]), [x], eps=1e-5) < 1e-9

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

    def test_swap_last2(self, rng):
        a = t64(rng, 2, 3, 4)
        assert_gradcheck(lambda ts: tsum(sq(swap_last2(ts[0])) * swap_last2(ts[0])), [a])

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

    def test_softmax(self, rng):
        a = t64(rng, 3, 5)
        w = Tensor(rng.standard_normal((3, 5)))
        assert_gradcheck(lambda ts: tsum(softmax(ts[0]) * w), [a])

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

    def test_scalar_backward_requires_scalar(self, rng):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()
