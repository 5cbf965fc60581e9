"""Reverse-mode autodiff on numpy arrays via a dynamic tape.

Small by design: dense tensors, the op set a conditional flow transformer
needs, and a finite-difference harness that anchors the gradient acceptance
tests. Compute dtype follows the array dtype (float32 for training, float64
for validation); python-scalar operands never promote.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "NonFiniteError",
    "no_grad",
    "matmul",
    "reshape",
    "transpose",
    "concatenate",
    "stack",
    "tsum",
    "tmean",
    "layer_norm",
    "gelu",
    "embedding",
    "depthwise_conv1d",
    "scaled_dot_product_attention",
    "gradcheck",
]


class NonFiniteError(FloatingPointError):
    """A non-finite gradient, or a non-finite value met by :func:`gradcheck`."""


class _GradMode(threading.local):
    """Whether ops record the tape, per thread; every thread starts recording."""

    enabled = True
    depth = 0  # no_grad blocks open on this thread


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager: ops inside do not record the tape, on this thread only."""

    def __enter__(self):
        _GRAD_MODE.depth += 1
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_MODE.depth -= 1
        _GRAD_MODE.enabled = _GRAD_MODE.depth == 0
        return False


class Tensor:
    """A dense array with an optional gradient slot and tape linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Callable | None = None

    # -- introspection ----------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # -- autograd ---------------------------------------------------------
    def backward(self, grad=None) -> None:
        """Accumulate d(self)/d(leaf) into every recording leaf's ``.grad``.

        Leaves add to any gradient they already hold. Every non-leaf node,
        ``self`` included, has its ``.grad`` set to ``None`` as soon as its
        own backward has run, so spent intermediate gradients do not live
        until the walk ends.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order: list[Tensor] = []
        seen: set[int] = set()
        work = [(self, False)]
        while work:
            node, expanded = work.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is not None:
                node.grad = None  # left by an earlier backward that raised mid-walk
            work.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    work.append((p, False))

        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)
            node.grad = None

    # -- operators ----------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -other if isinstance(other, Tensor) else -float(other))


def _make(name: str, data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    record = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
    out.requires_grad = record
    out._parents = tuple(parents) if record else ()
    out._backward = backward if record else None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not (t.requires_grad or t._parents):
        return
    g = g.astype(t.data.dtype, copy=False)
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def add(a, b):
    if not isinstance(a, Tensor):
        a, b = b, a
    scalar = not isinstance(b, Tensor)
    bd = float(b) if scalar else b.data
    data = a.data + bd
    parents = (a,) if scalar else (a, b)

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        if not scalar:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make("add", data, parents, backward)


def mul(a, b):
    if not isinstance(a, Tensor):
        a, b = b, a
    scalar = not isinstance(b, Tensor)
    bd = float(b) if scalar else b.data
    data = a.data * bd
    parents = (a,) if scalar else (a, b)

    def backward(g):
        _accum(a, _unbroadcast(g * bd, a.data.shape))
        if not scalar:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make("mul", data, parents, backward)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None):
    """``a @ b + bias`` for a ``[K, N]`` weight ``b`` and optional ``[N]`` bias, one tape op.

    The leading axes of ``a`` are flattened, so the forward and both
    backward products are single 2-D GEMMs: the weight gradient is
    ``a2^T g2`` and the bias gradient a row sum.
    """
    ad, bd = a.data, b.data
    if bd.ndim != 2:
        raise ValueError(f"matmul needs a 2-D weight, got shape {bd.shape}")
    a2 = ad.reshape(-1, ad.shape[-1])
    data = a2 @ bd
    if bias is not None:
        data += bias.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if a.requires_grad:
            _accum(a, (g2 @ bd.T).reshape(ad.shape))
        _accum(b, a2.T @ g2)
        if bias is not None:
            _accum(bias, g2.sum(axis=0))

    parents = (a, b) if bias is None else (a, b, bias)
    return _make("matmul", data.reshape(ad.shape[:-1] + bd.shape[1:]), parents, backward)


def reshape(a: Tensor, shape):
    shape = tuple(shape) if not isinstance(shape, int) else (shape,)
    data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _make("reshape", data, (a,), backward)


def transpose(a: Tensor, axes):
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = a.data.transpose(axes)

    def backward(g):
        _accum(a, g.transpose(inverse))

    return _make("transpose", data, (a,), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0):
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make("concatenate", data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0):
    expanded = [reshape(t, t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors]
    return concatenate(expanded, axis=axis)


def tsum(a: Tensor, axis=None, keepdims: bool = False):
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _make("sum", data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False):
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(tsum(a, axis, keepdims), 1.0 / float(count))


#: added to the variance in :func:`layer_norm` before the square root
LAYER_NORM_EPS = 1e-5


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor):
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    y = xc * inv
    data = y * gain.data + bias.data

    def backward(g):
        _accum(bias, _unbroadcast(g, bias.data.shape))
        _accum(gain, _unbroadcast(g * y, gain.data.shape))
        gy = g * gain.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * y).mean(axis=-1, keepdims=True)
        _accum(a, inv * (gy - m1 - y * m2))

    return _make("layer_norm", data, (a, gain, bias), backward)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor):
    """Exact gelu: x * Phi(x) with the Gaussian CDF.

    scipy's ``erf`` is imported here, not at module top: gelu is the only
    scipy call in the package, so commands that never run the network
    (``forge``, ``eval``) start without loading ``scipy.special``.
    """
    from scipy.special import erf

    phi_cdf = 0.5 * (1.0 + erf(a.data / _SQRT2))
    data = (a.data * phi_cdf).astype(a.data.dtype, copy=False)

    def backward(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        _accum(a, g * (phi_cdf + a.data * pdf))

    return _make("gelu", data, (a,), backward)


def embedding(table: Tensor, indices):
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError("embedding index out of range")
    data = table.data[idx]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        _accum(table, gt)

    return _make("embedding", data, (table,), backward)


def depthwise_conv1d(a: Tensor, weight: Tensor):
    """Per-channel 1-D convolution with 'same' zero padding.

    a: [..., T, C], weight: [K, C]; out[..., t, c] = sum_k a[..., t+k-K//2, c] * w[k, c].
    """
    k, c = weight.data.shape
    if a.data.shape[-1] != c:
        raise ValueError(f"channel mismatch: input {a.data.shape[-1]} vs kernel {c}")
    t = a.data.shape[-2]
    pl, pr = (k - 1) // 2, k // 2
    pad_spec = [(0, 0)] * (a.data.ndim - 2) + [(pl, pr), (0, 0)]
    xp = np.pad(a.data, pad_spec)
    data = np.zeros_like(a.data)
    for j in range(k):
        data = data + xp[..., j : j + t, :] * weight.data[j]
    data = data.astype(a.data.dtype, copy=False)

    def backward(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(weight.data)
        reduce_axes = tuple(range(g.ndim - 1))
        for j in range(k):
            gxp[..., j : j + t, :] += g * weight.data[j]
            gw[j] = (g * xp[..., j : j + t, :]).sum(axis=reduce_axes)
        _accum(a, gxp[..., pl : pl + t, :])
        _accum(weight, gw)

    return _make("depthwise_conv1d", data, (a, weight), backward)


#: query rows per block in the attention forward; a block's scores are the
#: only ``[..., rows, L]`` scratch an untaped call allocates
ATTENTION_BLOCK_ROWS = 128


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """``[..., T, H*d]`` to a ``[..., H, T, d]`` view."""
    if heads == 1:
        return x
    if x.shape[-1] % heads:
        raise ValueError(f"width {x.shape[-1]} is not divisible by {heads} heads")
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """``[..., H, T, d]`` to ``[..., T, H*d]``, the inverse of :func:`_split_heads`."""
    if heads == 1:
        return x
    x = x.swapaxes(-2, -3)
    return x.reshape(x.shape[:-2] + (-1,))


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor, mask=None, heads: int = 1):
    """softmax(q k^T / sqrt(dh) + mask) v per head, as one tape op.

    q: [..., T, H*dh], k: [..., L, H*dh], v: [..., L, H*dv]; the output is
    [..., T, H*dv]. The last axis of each input is split into ``heads``
    heads and their outputs are merged back, so with ``heads == 1`` the
    inputs are used as given. mask, when given, is an additive constant
    array broadcastable to the per-head score shape [..., H, T, L] (use
    large negatives to disable positions). The forward runs over blocks of
    ``ATTENTION_BLOCK_ROWS`` query rows, so without a tape it never holds
    the whole score matrix; when the tape records, the softmax
    probabilities are kept for the backward.
    """
    qd, kd, vd = (_split_heads(t.data, heads) for t in (q, k, v))
    scale = 1.0 / math.sqrt(qd.shape[-1])
    dtype = np.result_type(qd, kd, vd)
    batch = np.broadcast_shapes(qd.shape[:-2], kd.shape[:-2], vd.shape[:-2])
    T, L = qd.shape[-2], kd.shape[-2]
    qs = qd * scale
    kt = np.swapaxes(kd, -1, -2)
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=dtype), batch + (T, L))
    record = _GRAD_MODE.enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    # taped: every row's probabilities, kept for the backward; untaped: one block
    probs = np.empty(batch + (T if record else min(T, ATTENTION_BLOCK_ROWS), L), dtype=dtype)
    per_head = np.empty(batch + (T, vd.shape[-1]), dtype=dtype)
    for r0 in range(0, T, ATTENTION_BLOCK_ROWS):
        rows = slice(r0, r0 + ATTENTION_BLOCK_ROWS)
        at = r0 if record else 0
        e = probs[..., at : at + min(T - r0, ATTENTION_BLOCK_ROWS), :]
        np.matmul(qs[..., rows, :], kt, out=e)
        if mask is not None:
            e += mask[..., rows, :]
        e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        total = e.sum(axis=-1, keepdims=True)
        # normalising the [rows, dv] output is cheaper than the [rows, L] block
        out = per_head[..., rows, :]
        np.matmul(e, vd, out=out)
        out /= total
        if record:
            e /= total

    def backward(g):
        g = _split_heads(g, heads)
        dv = _unbroadcast(np.matmul(np.swapaxes(probs, -1, -2), g), vd.shape)
        _accum(v, _merge_heads(dv, heads))
        ds = np.matmul(g, np.swapaxes(vd, -1, -2))
        # rowsum(P * (g v^T)) == rowsum(g * out), a [T, dv] product
        ds -= (g * per_head).sum(axis=-1, keepdims=True)
        ds *= probs
        dq = np.matmul(ds, kd)
        dq *= scale
        _accum(q, _merge_heads(_unbroadcast(dq, qd.shape), heads))
        dk = _unbroadcast(np.matmul(np.swapaxes(ds, -1, -2), qs), kd.shape)
        _accum(k, _merge_heads(dk, heads))

    data = _merge_heads(per_head, heads)
    return _make("attention", data, (q, k, v), backward)


# ---------------------------------------------------------------------------
# finite-difference validation harness
# ---------------------------------------------------------------------------


#: central-difference step of :func:`gradcheck`
GRADCHECK_EPS = 1e-5


def gradcheck(f, inputs: Sequence[Tensor]) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the live ``inputs`` to a scalar Tensor; gradients are checked
    for every coordinate of every requires_grad input. Use float64 inputs.
    """
    for t in inputs:
        t.zero_grad()
    out = f(inputs)
    if out.data.size != 1:
        raise ValueError("gradcheck needs a scalar-valued function")
    if not np.all(np.isfinite(out.data)):
        raise NonFiniteError("non-finite function value in gradcheck")
    out.backward()
    analytic = []
    for t in inputs:
        if t.requires_grad:
            if t.grad is None:
                analytic.append(np.zeros_like(t.data))
            else:
                if not np.all(np.isfinite(t.grad)):
                    raise NonFiniteError("non-finite analytic gradient in gradcheck")
                analytic.append(t.grad.copy())
        else:
            analytic.append(None)

    worst = 0.0
    for t, ana in zip(inputs, analytic):
        if ana is None:
            continue
        flat = t.data.reshape(-1)
        aflat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRADCHECK_EPS
            with no_grad():
                f_plus = float(f(inputs).data)
            flat[i] = orig - GRADCHECK_EPS
            with no_grad():
                f_minus = float(f(inputs).data)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NonFiniteError("non-finite value while perturbing gradcheck input")
            num = (f_plus - f_minus) / (2.0 * GRADCHECK_EPS)
            rel = abs(aflat[i] - num) / max(abs(aflat[i]), abs(num), 1e-8)
            worst = max(worst, rel)
    return worst
